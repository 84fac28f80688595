"""Adaptive Gauss-Kronrod quadrature for log-domain integrands.

Integrands are nonnegative and supplied as their log; panel sums are
accumulated with a per-panel max shift, so integrals like
exp(-5000) * (smooth bump) come out with full relative accuracy.

Several independent integrals ("jobs") can share one call: panels carry a
job index plus an opaque tag forwarded to the integrand, and all pending
panels of one refinement round are evaluated in a single vectorized call
(a row of 15 nodes and one tag a panel).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import QuadraturePrecisionError

DEFAULT_REL_TOL = 1e-10
MAX_PANELS = 1 << 15
_MAX_ROUNDS = 256
# nodes per integrand call: a larger round is evaluated in slices, so the
# integrand's temporaries (the cap kernel holds about 18 arrays of its
# batch) stay bounded however many jobs share the call
_MAX_NODES = 1 << 14

# 15-point Kronrod rule with embedded 7-point Gauss (QUADPACK dqk15 constants)
_XK = np.array(
    [
        -0.991455371120812639206854697526329,
        -0.949107912342758524526189684047851,
        -0.864864423359769072789712788640926,
        -0.741531185599394439863864773280788,
        -0.586087235467691130294144838258730,
        -0.405845151377397166906606412076961,
        -0.207784955007898467600689403773245,
        0.0,
        0.207784955007898467600689403773245,
        0.405845151377397166906606412076961,
        0.586087235467691130294144838258730,
        0.741531185599394439863864773280788,
        0.864864423359769072789712788640926,
        0.949107912342758524526189684047851,
        0.991455371120812639206854697526329,
    ]
)
_WK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
        0.204432940075298892414161999234649,
        0.190350578064785409913256402421014,
        0.169004726639267902826583426598550,
        0.140653259715525918745189590510238,
        0.104790010322250183839876322541518,
        0.063092092629978553290700663189204,
        0.022935322010529224963732008058970,
    ]
)
_WG = np.zeros(15)
_WG[1::2] = [
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
]
_WKG = np.stack([_WK, _WG])


def _panel_logs(lf, m, half):
    """log of the Kronrod sum and of the Kronrod-Gauss error of each row of
    ``lf`` (the log integrand at a panel's nodes, with row maxima ``m``)."""
    w = np.exp(lf - m[:, None])
    # einsum sums each row alone, so a panel's bits do not depend on its
    # place in the batch (a matrix-vector product need not)
    sums = np.einsum("ij,kj->ki", w, _WKG)
    sums[1] = np.abs(sums[0] - sums[1])
    with np.errstate(divide="ignore"):  # the error of a panel may be 0
        return m + np.log(sums * half)


def _eval_panels(logf, a, b, tags):
    """Kronrod/Gauss panel sums in log space; returns one row of logI and
    one of logErr."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    # the nodes go to the integrand a slice of panels at a time, so no
    # temporary of the integrand or of this loop exceeds _MAX_NODES nodes
    per_call = _MAX_NODES // _XK.size
    if len(a) <= per_call:
        lf = logf(mid[:, None] + half[:, None] * _XK, tags)
    else:
        lf = np.empty((len(a), _XK.size))
        for i in range(0, len(a), per_call):
            j = i + per_call
            lf[i:j] = logf(mid[i:j, None] + half[i:j, None] * _XK, tags[i:j])
    # a row maximum is exact in any order, and one over the rows of the
    # transposed copy is a few times faster than one along each short row
    m = lf.T.copy().max(axis=0)
    finite = np.isfinite(m)
    if finite.all():
        return _panel_logs(lf, m, half)
    out = np.full((2, len(a)), -math.inf)
    if finite.any():
        out[:, finite] = _panel_logs(lf[finite], m[finite], half[finite])
    return out


def _job_logsumexp(values, job_of, n_jobs):
    """Log-sum-exp over the panels of each job, for each row of ``values``
    (one column per panel); returns one row of n_jobs per row."""
    rows = len(values)
    idx = (job_of + n_jobs * np.arange(rows)[:, None]).ravel()
    flat = values.ravel()
    m = np.full(rows * n_jobs, -math.inf)
    np.maximum.at(m, idx, flat)
    # a panel value is finite or -inf, so a job's maximum is -inf only if
    # its sum is 0: it shifts by 0 and its log sum stays -inf
    m[m == -math.inf] = 0.0
    # a -inf panel of a finite job adds exp(-inf) = 0; bincount adds in
    # panel order, as np.add.at does
    shifted = np.bincount(idx, weights=np.exp(flat - m[idx]), minlength=rows * n_jobs)
    with np.errstate(divide="ignore"):
        return (m + np.log(shifted)).reshape(rows, n_jobs)


def log_integrate_batch(
    logf,
    a,
    b,
    tags,
    job_of,
    n_jobs: int,
    rel_tol: float = DEFAULT_REL_TOL,
) -> np.ndarray:
    """Log of several integrals of exp(logf) over their initial panels
    [a[k], b[k]].

    ``logf(x, tags)`` gets the nodes of a slice of panels as an array of
    shape (panels, 15), one row of Kronrod nodes a panel, with ``tags`` one
    integer a panel (so per-panel parameters broadcast as ``p[tags, None]``),
    and returns the log integrand in the nodes' shape. It must be
    elementwise: a node's value may not depend on the other nodes of the
    call. ``tags`` rides along with each panel so one closure can serve
    many parameterized integrands. Panels whose job error stays above
    ``rel_tol`` (relative, in linear terms) are bisected until convergence
    or until the per-job budget is exhausted, which raises rather than
    returning a silent estimate. Every pending job refines in every round,
    so a job gets the bits and the round count of a call of its own
    whatever jobs share it.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    tags = np.asarray(tags, dtype=np.int64)
    job_of = np.asarray(job_of, dtype=np.int64)
    log_tol = math.log(rel_tol)

    logs = _eval_panels(logf, a, b, tags)
    for _ in range(_MAX_ROUNDS):
        totals, errs = _job_logsumexp(logs, job_of, n_jobs)
        pending = errs > totals + log_tol
        if not pending.any():
            return totals
        counts = np.bincount(job_of, minlength=n_jobs)
        if np.any(pending & (counts > MAX_PANELS)):
            bad = int(np.nonzero(pending & (counts > MAX_PANELS))[0][0])
            raise QuadraturePrecisionError(
                f"integral {bad} still above rel_tol={rel_tol} after "
                f"{counts[bad]} panels"
            )
        # split panels holding more than their share of the error budget
        log_e = logs[1]
        share = totals[job_of] + log_tol - np.log(4.0 * np.maximum(counts, 1))[job_of]
        split = pending[job_of] & (log_e >= share)
        stuck = pending & (np.bincount(job_of[split], minlength=n_jobs) == 0)
        if stuck.any():
            # roundoff corner: a pending job with no panel above its share
            # bisects its worst panel in this round, so it never waits for
            # the other jobs' rounds
            worst = np.full(n_jobs, -math.inf)
            np.maximum.at(worst, job_of, log_e)
            split |= stuck[job_of] & (log_e >= worst[job_of])
        keep = ~split
        mid = 0.5 * (a[split] + b[split])
        child_a = np.concatenate([a[split], mid])
        child_b = np.concatenate([mid, b[split]])
        child_tags = np.concatenate([tags[split], tags[split]])
        logs = np.concatenate(
            [logs[:, keep], _eval_panels(logf, child_a, child_b, child_tags)], axis=1
        )
        a = np.concatenate([a[keep], child_a])
        b = np.concatenate([b[keep], child_b])
        tags = np.concatenate([tags[keep], child_tags])
        job_of = np.concatenate([job_of[keep], job_of[split], job_of[split]])
    raise QuadraturePrecisionError(
        f"quadrature did not converge within {_MAX_ROUNDS} refinement rounds"
    )

