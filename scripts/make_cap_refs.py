#!/usr/bin/env python3
"""Regenerate the stored 30-digit cap-fraction references of the tests.

Writes tests/cap_refs_highd.json: for each dimension of
``oracles.HIGH_D_DIMS``, the s grid of ``oracles.high_d_s_grid`` and
ln A_d(s) from ``oracles.mp_log_cap_fraction`` rounded to the nearest
double, both as float reprs. Run it from the repository root (about 40 s):

    python3 scripts/make_cap_refs.py
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from oracles import HIGH_D_DIMS, HIGH_D_REFS, high_d_s_grid, mp_log_cap_fraction  # noqa: E402


def main() -> int:
    refs = {}
    for d in HIGH_D_DIMS:
        s = [float(v) for v in high_d_s_grid(d)]
        refs[str(d)] = {"s": s, "log_cap": [float(mp_log_cap_fraction(d, v)) for v in s]}
    with open(HIGH_D_REFS, "w") as fh:  # one line per dimension
        fh.write("{\n" + ",\n".join(f"{json.dumps(d)}: {json.dumps(v)}" for d, v in refs.items()))
        fh.write("\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
