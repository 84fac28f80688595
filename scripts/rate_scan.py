#!/usr/bin/env python3
"""Reproduce the headline exponential-growth tables.

Sweeps the unit-ball and split-ball constructions over dimension and prints
per-dimension rates next to their asymptotic limits, plus the doubling-family
rates at a few exponents. Writes CSV to stdout (redirect to keep it).

The p-independent terms of each certificate are prepared once per d (and t)
and reweighted for every p.
"""
import argparse
import csv
import math
import sys

from hlmax import RadialDensity, besicovitch_upper, critical_p
from hlmax.certificate import DecpTerms, DoublingTerms, LebesgueBallTerms


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d-max", type=int, default=300)
    ap.add_argument("--d-step", type=int, default=20)
    args = ap.parse_args()

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        ["construction", "d", "p", "log_lower", "rate_per_dim", "rate_limit", "upper_log"]
    )

    p_ball = (1.0, 1.05, critical_p("lebesgue_ball"))
    for d in range(20, args.d_max + 1, args.d_step):
        terms = LebesgueBallTerms.prepare(d)
        for p in p_ball:
            res = terms.result(p)
            limit = (2.0 + 1.0 / p) * math.log(2.0) - 0.5 * math.log(55.0)
            writer.writerow(
                [
                    "lebesgue_ball",
                    d,
                    f"{p:.6f}",
                    repr(res.certificate.log_lower_bound),
                    repr(res.certificate.log_lower_bound / d),
                    repr(limit),
                    repr(besicovitch_upper(d, p)),
                ]
            )

    for d in range(20, args.d_max + 1, args.d_step):
        terms = DecpTerms.prepare(RadialDensity.restricted_lebesgue(d))
        for p in (1.0, 1.03):
            res = terms.result(p)
            limit = math.log(2.0) / p - math.log(55.0) / 6.0
            writer.writerow(
                [
                    "decp",
                    d,
                    f"{p:.6f}",
                    repr(res.certificate.log_lower_bound),
                    repr(res.certificate.log_lower_bound / d),
                    repr(limit),
                    repr(besicovitch_upper(d, p)),
                ]
            )

    for t in (0.9, 0.95, 0.99):
        for d in (50, 100, 200):
            res = DoublingTerms.prepare(t, d).result(2.0, 2.0, 1.3)
            eff = (1.0 - t) * d
            writer.writerow(
                [
                    "doubling",
                    d,
                    "2.000000",
                    repr(res.certificate.log_lower_bound),
                    repr(res.certificate.log_lower_bound / d),
                    repr(math.log(2.0 ** 0.5 / 1.3) * eff / d),
                    repr(besicovitch_upper(d, 2.0)),
                ]
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
