"""Log-domain sums for nonnegative extended reals.

Every measure magnitude in this package is carried as its natural log, a
plain float, so products of exponentially small ball measures at dimension
10^4 never leave floating-point range. ``-inf`` encodes zero.
"""
from __future__ import annotations

import math

NEG_INF = float("-inf")
LN2 = math.log(2.0)


def log_add(a: float, b: float) -> float:
    """log(e^a + e^b) computed without leaving log space."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def log_sum(values) -> float:
    out = NEG_INF
    for v in values:
        out = log_add(out, v)
    return out
