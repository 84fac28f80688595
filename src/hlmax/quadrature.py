"""Adaptive Gauss-Kronrod quadrature for log-domain integrands.

Integrands are nonnegative and supplied as their log; panel sums are
accumulated with a per-panel max shift, so integrals like
exp(-5000) * (smooth bump) come out with full relative accuracy.

Several independent integrals ("jobs") can share one call: panels carry a
job index plus an opaque tag forwarded to the integrand, and all pending
panels of one refinement round are evaluated in a single vectorized call.
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


def _eval_panels(logf, a, b, tags):
    """Kronrod/Gauss panel sums in log space; returns (logI, logErr)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = (mid[:, None] + half[:, None] * _XK[None, :]).ravel()
    node_tags = np.repeat(tags, _XK.size)
    lf = np.concatenate([
        logf(x[i:i + _MAX_NODES], node_tags[i:i + _MAX_NODES])
        for i in range(0, x.size, _MAX_NODES)
    ]).reshape(len(a), _XK.size)
    m = np.max(lf, axis=1)
    finite = np.isfinite(m)
    log_i = np.full(len(a), -math.inf)
    log_e = np.full(len(a), -math.inf)
    if finite.any():
        w = np.exp(lf[finite] - m[finite, None])
        k_sum = w @ _WK
        g_sum = w @ _WG
        with np.errstate(divide="ignore"):
            log_i[finite] = m[finite] + np.log(k_sum * half[finite])
            log_e[finite] = m[finite] + np.log(np.abs(k_sum - g_sum) * half[finite])
    return log_i, log_e


def _job_logsumexp(values, job_of, n_jobs):
    m = np.full(n_jobs, -math.inf)
    np.maximum.at(m, job_of, values)
    out = np.full(n_jobs, -math.inf)
    finite = np.isfinite(m)
    if finite.any():
        shifted = np.zeros(n_jobs)
        good = np.isfinite(values)
        np.add.at(shifted, job_of[good], np.exp(values[good] - m[job_of[good]]))
        with np.errstate(divide="ignore"):
            out[finite] = m[finite] + np.log(shifted[finite])
    return out


def log_integrate_batch(
    logf,
    panels,
    tags,
    job_of,
    n_jobs: int,
    rel_tol: float = DEFAULT_REL_TOL,
    max_panels: int = MAX_PANELS,
) -> np.ndarray:
    """Log of several integrals of exp(logf) over their initial panels.

    ``logf(x, tags)`` must be vectorized and elementwise (a node's value
    may not depend on the other nodes of the call); ``tags`` rides along
    with each panel so one closure can serve many parameterized
    integrands. Panels whose job error stays above ``rel_tol`` (relative,
    in linear terms) are bisected until convergence or until the per-job
    budget is exhausted, which raises rather than returning a silent
    estimate.
    """
    a = np.asarray([p[0] for p in panels], dtype=float)
    b = np.asarray([p[1] for p in panels], dtype=float)
    tags = np.asarray(tags, dtype=np.int64)
    job_of = np.asarray(job_of, dtype=np.int64)
    log_tol = math.log(rel_tol)

    log_i, log_e = _eval_panels(logf, a, b, tags)
    for _ in range(_MAX_ROUNDS):
        totals = _job_logsumexp(log_i, job_of, n_jobs)
        errs = _job_logsumexp(log_e, job_of, n_jobs)
        pending = errs > totals + log_tol
        if not pending.any():
            return totals
        counts = np.bincount(job_of, minlength=n_jobs)
        if np.any(pending & (counts > max_panels)):
            bad = int(np.nonzero(pending & (counts > max_panels))[0][0])
            raise QuadraturePrecisionError(
                f"integral {bad} still above rel_tol={rel_tol} after "
                f"{counts[bad]} panels"
            )
        # split panels holding more than their share of the error budget
        share = totals[job_of] + log_tol - np.log(4.0 * np.maximum(counts, 1))[job_of]
        split = pending[job_of] & (log_e >= share)
        if not split.any():
            # roundoff corner: bisect each pending job's worst panel
            worst = np.full(n_jobs, -math.inf)
            np.maximum.at(worst, job_of, log_e)
            split = pending[job_of] & (log_e >= worst[job_of])
        keep = ~split
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate([a[keep], a[split], mid])
        new_b = np.concatenate([b[keep], mid, b[split]])
        new_tags = np.concatenate([tags[keep], tags[split], tags[split]])
        new_jobs = np.concatenate([job_of[keep], job_of[split], job_of[split]])
        li_new, le_new = _eval_panels(
            logf, new_a[len(a[keep]):], new_b[len(a[keep]):], new_tags[len(a[keep]):]
        )
        log_i = np.concatenate([log_i[keep], li_new])
        log_e = np.concatenate([log_e[keep], le_new])
        a, b, tags, job_of = new_a, new_b, new_tags, new_jobs
    raise QuadraturePrecisionError(
        f"quadrature did not converge within {_MAX_ROUNDS} refinement rounds"
    )

