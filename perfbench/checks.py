"""Untimed output checks for each workload.

``check(request, outcome, refs)`` classifies one request:

- ``ok``: exit code 0 and every record passed its checks;
- ``failed``: the request raised, exited non-zero, or a scan row carries an
  ``error`` (the program gave no answer);
- ``mismatch``: the program answered, and the answer is wrong (a value off
  its reference, a broken invariant, an unsound oracle verdict).

Both ``failed`` and ``mismatch`` count in ``fail_frac``; only ``mismatch``
makes a run incorrect.
"""
from __future__ import annotations

import json
import math

# |log got - log ref| allowed against the mpmath references: a relative error
# of 1e-8 in the linear value, 100 times the default quadrature tolerance
REF_TOL = 1e-8
# slack of the analytic-floor comparison, the same the CLI applies to
# exact_dominates_floor
FLOOR_SLACK = 1e-9
BESICOVITCH_BASE = 2.641


def load_refs(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def decp_floor(d: int, p: float, epsilon: float = 0.01) -> float:
    """Analytic decp floor d ln(2^(1/p) 55^(-1/6)) - ln(4 D(d, eps)).

    D(d, eps) bounds the three pieces of the split ball at u = sqrt(2/3),
    v = 1/2, H = sqrt(5)/2 through the explicit cap-area upper estimate
    t^(d-1) sqrt(1 + 1/d) / (s sqrt(2 pi d)).
    """

    def cap_upper(s: float) -> float:
        t = math.sqrt((1.0 - s) * (1.0 + s))
        return (
            (d - 1) * math.log(t)
            + 0.5 * math.log1p(1.0 / d)
            - math.log(s)
            - 0.5 * math.log(2.0 * math.pi * d)
        )

    u = math.sqrt(2.0 / 3.0)
    s_out = 3.0 / 8.0
    s_mid = (u * u + 1.0 - 1.25) / (2.0 * u)
    log_tau = (d / 6.0) * math.log(64.0 / 55.0)
    pieces = [
        -math.log1p(-epsilon),
        2.0 * math.log1p(epsilon) + 3.0 * log_tau + cap_upper(s_out),
        cap_upper(s_mid) + log_tau,
    ]
    top = max(pieces)
    log_d = top + math.log(sum(math.exp(x - top) for x in pieces))
    rate = math.log(2.0) / p - math.log(55.0) / 6.0
    return d * rate - math.log(4.0) - log_d


def _close(got, ref, tol=REF_TOL) -> bool:
    return isinstance(got, (int, float)) and abs(got - ref) <= tol


def _check_scan(req, records, refs) -> list[str]:
    meta = req["meta"]
    want = sorted((d, p) for d in meta["ds"] for p in meta["ps"])
    got = [(r.get("d"), r.get("p")) for r in records]
    if got != want:
        return [f"rows {got} != expected grid {want}"]
    bad = []
    for r in records:
        d, p, low = r["d"], r["p"], r["log_lower"]
        upper = (d / p) * math.log(BESICOVITCH_BASE)
        floor = decp_floor(d, p)
        if not abs(r["upper_log"] - upper) <= 1e-12 * abs(upper):
            bad.append(f"d={d} p={p}: upper_log {r['upper_log']} != {upper}")
        if not floor - FLOOR_SLACK <= low <= r["upper_log"]:
            bad.append(f"d={d} p={p}: floor {floor} <= {low} <= {r['upper_log']} fails")
        if not abs(r["rate_per_dim"] - low / d) <= 1e-12 * abs(low / d):
            bad.append(f"d={d} p={p}: rate_per_dim != log_lower / d")
    return bad


def _check_certify(req, records, refs) -> list[str]:
    meta = req["meta"]
    if len(records) != 1:
        return [f"{len(records)} records, expected 1"]
    r = records[0]
    d, p, family = meta["d"], meta["p"], meta["family"]
    bad = []
    if (r.get("d"), r.get("p"), r.get("family")) != (d, p, family):
        bad.append(f"record is for {(r.get('d'), r.get('p'), r.get('family'))}")
        return bad
    key = f"{family}|{meta['t']!r}|{d}"
    for field, table in (("log_term_inner", "inner"), ("log_term_level", "level")):
        if not _close(r.get(field), refs[table][key]):
            bad.append(f"{field} {r.get(field)} != mpmath {refs[table][key]}")
    if family == "restricted-lebesgue":
        ref = refs["lens"][str(d)]
        if not _close(r.get("log_term_denom"), ref):
            bad.append(f"log_term_denom {r.get('log_term_denom')} != mpmath {ref}")
    wq = 0.0 if p == 1.0 else 1.0 - 1.0 / p
    low = r["log_lower_bound"]
    recomputed = (
        wq * r["log_term_inner"]
        + r["log_term_level"] / p
        - math.log(2.0)
        - r["log_term_denom"]
    )
    if not abs(low - recomputed) <= 1e-9 * max(1.0, abs(low)):
        bad.append(f"log_lower_bound {low} != terms give {recomputed}")
    floor = r.get("floor_log_lower_bound", -math.inf)
    if not floor - FLOOR_SLACK <= low <= r["upper_log"]:
        bad.append(f"floor {floor} <= {low} <= upper {r['upper_log']} fails")
    return bad


def _check_caps(req, records, refs) -> list[str]:
    meta = req["meta"]
    table = refs["caps"][f"{meta['d']}|{meta['grid']}"]
    if len(records) != len(table):
        return [f"{len(records)} cap rows, expected {len(table)}"]
    bad = []
    for r, (s, ref) in zip(records, table):
        if r.get("d") != meta["d"] or r.get("s") != s:
            bad.append(f"row for d={r.get('d')} s={r.get('s')}, expected s={s}")
        elif not _close(r.get("log_exact"), ref):
            bad.append(f"s={s}: log_exact {r.get('log_exact')} != mpmath {ref}")
        elif r.get("sandwich_ok") is not True:
            bad.append(f"s={s}: exact value outside the two-sided bounds")
    return bad


def _check_oracle(req, records, refs) -> list[str]:
    meta = req["meta"]
    if len(records) != 1:
        return [f"{len(records)} records, expected 1"]
    r = records[0]
    if (r.get("d"), r.get("p")) != (meta["d"], meta["p"]):
        return [f"record is for d={r.get('d')} p={r.get('p')}"]
    if r.get("sound") is not True:
        return [f"oracle verdict unsound (margin {r.get('worst_margin')})"]
    return []


_CHECKERS = {
    "scan": _check_scan,
    "certify": _check_certify,
    "caps": _check_caps,
    "oracle": _check_oracle,
}


def check(req: dict, outcome: dict, refs: dict) -> tuple[str, str, int]:
    """Return (status, detail, number of records) for one request's outcome.

    ``outcome`` holds ``rc`` (exit code or None when main raised), ``out``
    (captured stdout) and ``exc`` (exception text or None).
    """
    if outcome["exc"] is not None:
        return "failed", outcome["exc"], 0
    try:
        records = [json.loads(line) for line in outcome["out"].splitlines()]
    except json.JSONDecodeError as exc:
        return "mismatch", f"unparsable output: {exc}", 0
    if req["kind"] == "oracle" and outcome["rc"] == 3:
        return "mismatch", "oracle exit 3 (soundness failure)", len(records)
    if outcome["rc"] != 0:
        return "failed", f"exit code {outcome['rc']}", len(records)
    errors = [r["error"] for r in records if r.get("error")]
    if errors:
        return "failed", f"{len(errors)} error rows, first: {errors[0]}", len(records)
    bad = _CHECKERS[req["kind"]](req, records, refs)
    if bad:
        return "mismatch", "; ".join(bad[:3]), len(records)
    return "ok", "", len(records)
