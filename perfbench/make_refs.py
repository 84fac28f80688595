"""Regenerate refs.json: mpmath references for the certify-highd checks.

Run from the repository root (takes seconds, needs only mpmath):

    python3 perfbench/make_refs.py

Every value is a natural log computed at REF_DPS significant digits and
rounded to the nearest double. Keys cover the whole d pool of
``workloads.highd_pool()``, so any seed finds its references here, and the
d of ``workloads.HIGHD_PROBE_DS`` (no caps there).

- ``lens``: log mu(B(e1, sqrt(5)/2)) for Lebesgue measure on the unit ball,
  the denominator of ``lebesgue-ball`` and of ``lemma`` at (v, R) = (1/2, 1)
  for ``restricted-lebesgue``. The two balls meet in the plane x1 = 3/8, so
  the lens is two solid caps:
  V_d/2 [I_{55/64}((d+1)/2, 1/2) + H^d I_{11/16}((d+1)/2, 1/2)].
- ``inner`` / ``level``: log mu(B(0, 1/2)) and log mu(B(0, 1)) for each
  ``lemma`` family, all closed forms of the radial mass.
- ``caps``: log of the normalized cap area (1/2) I_{1-s^2}((d-1)/2, 1/2)
  at every s of each ``--s-grid`` the workload uses.
"""
from __future__ import annotations

import json
import os
import sys

import mpmath as mp

import workloads as wl

REF_DPS = 40
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def log_sphere_area(d):
    return mp.log(2) + mp.mpf(d) / 2 * mp.log(mp.pi) - mp.loggamma(mp.mpf(d) / 2)


def log_ball_volume(d):
    return mp.mpf(d) / 2 * mp.log(mp.pi) - mp.loggamma(mp.mpf(d) / 2 + 1)


def lens(d):
    a = mp.mpf(d + 1) / 2
    half = mp.mpf(1) / 2
    h = mp.sqrt(5) / 2
    near = mp.betainc(a, half, 0, mp.mpf(55) / 64, regularized=True)
    far = h**d * mp.betainc(a, half, 0, mp.mpf(11) / 16, regularized=True)
    return log_ball_volume(d) + mp.log((near + far) / 2)


def log_mass(family, t, d, c):
    """log of integral_0^c f(rho) rho^(d-1) d rho for c <= 1."""
    c = mp.mpf(c)
    if family == "restricted-lebesgue":
        return d * mp.log(c) - mp.log(d)
    if family == "power":
        a = (1 - mp.mpf(t)) * d
        return a * mp.log(c) - mp.log(a)
    if family == "log-singularity":
        return d * mp.log(c) + mp.log(-mp.log(c) / d + mp.mpf(1) / d**2)
    raise ValueError(family)


def log_cap(d, s):
    s = mp.mpf(s)
    x = (1 - s) * (1 + s)
    return mp.log(mp.betainc(mp.mpf(d - 1) / 2, mp.mpf(1) / 2, 0, x, regularized=True) / 2)


def term_key(family, t, d):
    return f"{family}|{t!r}|{d}"


def main() -> int:
    mp.mp.dps = REF_DPS
    refs = {"dps": REF_DPS, "lens": {}, "inner": {}, "level": {}, "caps": {}}
    pool = [d for stratum in wl.highd_pool() for d in stratum]
    for d in pool + list(wl.HIGHD_PROBE_DS):
        refs["lens"][str(d)] = float(lens(d))
        for family in wl.LEMMA_FAMILIES:
            for t in wl.POWER_T if family == "power" else (None,):
                key = term_key(family, t, d)
                sigma = log_sphere_area(d)
                refs["inner"][key] = float(sigma + log_mass(family, t, d, 0.5))
                refs["level"][key] = float(sigma + log_mass(family, t, d, 1))
        for grid in wl.CAPS_GRIDS if d in pool else ():
            refs["caps"][f"{d}|{grid}"] = [
                [s, float(log_cap(d, s))] for s in wl.range_values(grid)
            ]
        print(f"d={d} done", file=sys.stderr)
    with open(OUT, "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
