"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""
import math

import numpy as np
import pytest

from hlmax.certificate import (
    DecpTerms,
    DoublingTerms,
    LebesgueBallTerms,
    critical_p,
    decp_explicit_constant,
    lemma_certificate,
)
from hlmax.oracle import empirical_weak_ratio, run_oracle
from hlmax.radial import (
    RadialDensity,
    growth_h,
    log_ball_offcenter,
)
from hlmax.specfun import (
    cap_area_bounds,
    cap_area_exact,
    gamma_ratio_bounds_hold,
    log_sphere_area,
)

from oracles import lens_area, unit_ball_rate_base


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_critical_exponents():
    # closed forms to 1e-9; the published 5-digit anchors at their precision
    p_decp = critical_p("decp")
    p_ball = critical_p("lebesgue_ball")
    assert abs(p_decp - 6.0 * math.log(2.0) / math.log(55.0)) <= 1e-9
    assert abs(p_ball - 1.0 / (math.log(55.0) / (2.0 * math.log(2.0)) - 2.0)) <= 1e-9
    assert abs(p_decp - 1.03782) <= 5e-6
    assert abs(p_ball - 1.1227) <= 5e-5
    assert abs(2.0 ** (1.0 / p_decp) * 55.0 ** (-1.0 / 6.0) - 1.0) <= 1e-12
    assert abs(2.0 ** (2.0 + 1.0 / p_ball) - math.sqrt(55.0)) <= 1e-12 * math.sqrt(55.0)
    _report(1, f"critical exponents {p_decp:.7f} and {p_ball:.7f} match closed forms")


def test_criterion_02_cap_sandwich():
    s_grid = np.linspace(0.02, 0.99, 50)
    checked = 0
    for d in range(2, 201):
        for s in s_grid:
            lo, hi = cap_area_bounds(d, float(s))
            exact = cap_area_exact(d, float(s))
            assert lo - 1e-10 <= exact <= hi + 1e-10
            checked += 1
    _report(2, f"cap sandwich holds at {checked} (d, s) pairs, 1e-10 log-space")


def test_criterion_03_gamma_ratio():
    assert all(gamma_ratio_bounds_hold(d) for d in range(1, 10001))
    _report(3, "gamma ratio sandwich holds for every d in [1, 10^4]")


def test_criterion_04_growth_bound():
    u_values = (0.3, 0.5, math.sqrt(2.0 / 3.0), 0.9)
    radii = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2)
    dims = (2, 10, 100)
    families = {
        "lebesgue": RadialDensity.lebesgue,
        "restricted": RadialDensity.restricted_lebesgue,
        "power": lambda d: RadialDensity.power(d, 0.5),
        "truncated": lambda d: RadialDensity.truncated_power(d, 0.5),
        "log-singularity": RadialDensity.log_singularity,
        "piecewise": lambda d: RadialDensity.piecewise(d, [(0.5, 3.0), (2.0, 1.0)]),
    }
    checked = 0
    for make in families.values():
        for d in dims:
            dens = make(d)
            for u in u_values:
                ceil = -d * math.log(u)
                for R in radii:
                    h = growth_h(dens, u, [R])[0]
                    assert -1e-9 <= h <= ceil + 1e-9
                    checked += 1
    # truncated power attains u^{-(1-t)d} exactly for R <= 1
    for d in dims:
        dens = RadialDensity.truncated_power(d, 0.5)
        for u in u_values:
            for R in (1e-3, 0.3, 1.0):
                h = growth_h(dens, u, [R])[0]
                assert h == pytest.approx(-0.5 * d * math.log(u), abs=1e-10)
    _report(4, f"growth envelope held at {checked} samples; truncated rate exact")


def test_criterion_05_main_theorem_rate():
    p = 1.03
    for d in (100, 200, 400):
        res = DecpTerms.prepare(RadialDensity.restricted_lebesgue(d)).result(p)
        threshold = d * math.log(1.005) - math.log(
            4.0 + decp_explicit_constant(d) / math.sqrt(d)
        )
        assert res.certificate.log_lower_bound >= threshold
    _report(5, "split-ball certificates beat d ln(1.005) - ln(4 + C/sqrt(d))")


def test_criterion_06_restricted_lebesgue_floor():
    p_star = critical_p("lebesgue_ball")
    worst_gap = math.inf
    for d in range(2, 301):
        terms = LebesgueBallTerms.prepare(d)
        for p in (1.0, 1.05, p_star):
            res = terms.result(p)
            gap = res.certificate.log_lower_bound - res.floor_log
            worst_gap = min(worst_gap, gap)
            assert gap >= -1e-9
            rate = res.certificate.log_lower_bound / d
            limit = (2.0 + 1.0 / p) * math.log(2.0) - 0.5 * math.log(55.0)
            assert abs(rate - limit) <= 3.0 * math.log(d) / d
    _report(6, f"exact route dominates the closed-form floor (worst gap {worst_gap:.3f})")


def test_criterion_07_doubling_construction():
    t, d, p, c = 0.95, 100, 2.0, 1.3
    res = DoublingTerms.prepare(t, d).result(p, p, c)
    a = (1.0 - t) * d
    expected_inner = log_sphere_area(d) + a * math.log(c / 2.0) - math.log(a)
    assert res.inner_term_log == pytest.approx(expected_inner, abs=1e-12)
    floor = math.log((math.sqrt(2.0) / 1.3) ** 5.0 / 6.0)
    assert res.certificate.log_lower_bound >= floor
    _report(7, "doubling inner term matches closed form; exact beats the floor")


def test_criterion_08_rate_proxy_below_one():
    v = np.linspace(0.0, 0.995, 200)
    q = np.linspace(1.05, 9.0, 200)
    vals = unit_ball_rate_base(v[None, :], q[:, None])
    assert float(vals.max()) < 1.0
    _report(8, f"v-q rate proxy stays below 1 (max {float(vals.max()):.6f})")


def test_criterion_09_oracle_soundness():
    families = (
        RadialDensity.lebesgue,
        RadialDensity.restricted_lebesgue,
        lambda d: RadialDensity.power(d, 0.5),
        lambda d: RadialDensity.truncated_power(d, 0.5),
    )
    checked = 0
    for make in families:
        for d in (2, 3, 4):
            dens = make(d)
            # at p = 1 the oracle checks the level set and the dual path
            report = run_oracle(dens, 1.0, 0.5, 1.0, seed=20240601 + d, samples=200)
            assert report.level_set_ok, (
                f"level set failed for {dens} (worst margin {report.worst_margin})"
            )
            assert abs(report.dual_path_gap) <= 1e-6
            cert = lemma_certificate(dens, 1.2, 0.5, 1.0)
            ratio = empirical_weak_ratio(dens, 1.2, 0.5, 1.0)
            assert abs(ratio - cert.log_lower_bound) <= 1e-6
            checked += 2
    _report(9, f"level sets verified and {checked} dual-path ratios agree to 1e-6")


def test_criterion_10_planar_exactness():
    rng = np.random.default_rng(271828)
    dens = RadialDensity.restricted_lebesgue(2)
    leb = RadialDensity.lebesgue(2)
    for _ in range(20):
        r0 = float(rng.uniform(0.1, 1.6))
        r = float(rng.uniform(0.2, 2.2))
        got = math.exp(log_ball_offcenter(dens, r0, r))
        want = lens_area(1.0, r, r0)
        assert got == pytest.approx(want, rel=1e-10)
        got_leb = math.exp(log_ball_offcenter(leb, r0, r))
        assert got_leb == pytest.approx(math.pi * r * r, rel=1e-10)
    _report(10, "planar off-center measures match the lens closed form to 1e-10")
