import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import hlmax.specfun as specfun
from hlmax.errors import DomainError, NumericalError
from hlmax.specfun import (
    cap_area_bounds,
    cap_area_exact,
    gamma_ratio_bounds_hold,
    log_ball_volume,
    log_cap_fraction,
    log_gamma,
    log_sphere_area,
)

from oracles import (
    HIGH_D_DIMS,
    high_d_s_grid,
    load_high_d_refs,
    mc_ball_volume,
    mp_log_cap_fraction,
    normalized_cap_by_quadrature,
    sphere_area_linear,
)


class TestLogGamma:
    def test_gamma_one(self):
        assert log_gamma(1.0) == 0.0

    def test_gamma_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15, abs=0)

    def test_against_exact_factorial(self):
        # ln Gamma(n+1) = ln n! with n! computed in exact integer arithmetic
        for n in (5, 20, 100, 170):
            exact = math.log(math.factorial(n))
            assert log_gamma(n + 1.0) == pytest.approx(exact, rel=1e-13, abs=0)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-2.5)

    @given(x=st.floats(min_value=0.5, max_value=5e5))
    def test_duplication_identity(self, x):
        # Gamma(2x) = Gamma(x) Gamma(x+1/2) 2^(2x-1) / sqrt(pi)
        left = log_gamma(2.0 * x)
        right = (
            log_gamma(x)
            + log_gamma(x + 0.5)
            + (2.0 * x - 1.0) * math.log(2.0)
            - 0.5 * math.log(math.pi)
        )
        assert left == pytest.approx(right, rel=1e-12, abs=1e-10)


class TestBallAndSphere:
    def test_interval(self):
        assert log_ball_volume(1) == pytest.approx(math.log(2.0), rel=1e-15, abs=0)

    def test_disk(self):
        assert log_ball_volume(2) == pytest.approx(
            math.log(math.pi), rel=1e-15, abs=0
        )

    def test_three_ball(self):
        expected = math.log(4.0 * math.pi / 3.0)
        assert log_ball_volume(3) == pytest.approx(expected, rel=1e-14, abs=0)

    def test_three_ball_against_monte_carlo(self):
        vol = math.exp(log_ball_volume(3))
        assert vol == pytest.approx(mc_ball_volume(3), rel=1e-2)

    def test_circle(self):
        assert log_sphere_area(2) == pytest.approx(math.log(2 * math.pi), rel=1e-15)

    def test_two_sphere(self):
        assert log_sphere_area(3) == pytest.approx(math.log(4 * math.pi), rel=1e-15)

    def test_sphere_recursion_d10(self):
        # sigma^{d-1} = sigma^{d-2} * int_0^pi sin^{d-2}
        from oracles import sin_power_integral

        direct = math.exp(log_sphere_area(10))
        recursed = sphere_area_linear(9) * sin_power_integral(8, math.pi)
        assert direct == pytest.approx(recursed, rel=1e-12)

    def test_sphere_is_d_times_ball(self):
        for d in (1, 2, 3, 7, 50, 1000):
            gap = log_sphere_area(d) - log_ball_volume(d)
            assert gap == pytest.approx(math.log(d), abs=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_ball_volume(0)
        with pytest.raises(DomainError):
            log_sphere_area(-3)


class TestCapExact:
    def test_hemisphere(self):
        for d in (2, 5, 100, 2000):
            assert cap_area_exact(d, 0.0) == pytest.approx(
                math.log(0.5), abs=1e-13
            )

    def test_circle_arc(self):
        for theta in (0.1, math.pi / 3, 1.2, 1.5):
            assert cap_area_exact(2, math.cos(theta)) == pytest.approx(
                math.log(theta / math.pi), abs=1e-12
            )

    def test_d10_against_direct_quadrature(self):
        exact = cap_area_exact(10, 0.5)
        oracle = math.log(normalized_cap_by_quadrature(10, 0.5))
        assert exact == pytest.approx(oracle, abs=1e-11)
        lo, hi = cap_area_bounds(10, 0.5)
        assert lo < exact < hi

    def test_against_scipy_betainc(self):
        # same identity through an entirely separate implementation
        for d, s in [(3, 0.2), (17, 0.7), (101, 0.3), (400, 0.9)]:
            ours = cap_area_exact(d, s)
            ref = math.log(0.5 * special.betainc(0.5 * (d - 1), 0.5, (1.0 - s) * (1.0 + s)))
            assert ours == pytest.approx(ref, abs=1e-11)

    def test_decreasing_in_s_and_d(self):
        vals = [
            cap_area_exact(30, s)
            for s in np.linspace(0.05, 0.95, 10)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        vals_d = [
            cap_area_exact(d, 0.4)
            for d in (2, 3, 5, 10, 50, 400)
        ]
        assert all(a > b for a, b in zip(vals_d, vals_d[1:]))

    def test_capspec_validation(self):
        # a cap needs integer dim >= 2 and s in [0, 1)
        with pytest.raises(DomainError, match="dim >= 2"):
            cap_area_exact(1, 0.5)
        with pytest.raises(DomainError, match="dim >= 2"):
            cap_area_bounds(1, 0.5)
        with pytest.raises(DomainError, match=r"\[0, 1\)"):
            cap_area_exact(3, 1.0)
        with pytest.raises(DomainError, match=r"\[0, 1\)"):
            cap_area_exact(3, math.nan)


def test_betacf_non_convergence_is_a_numerical_error(monkeypatch):
    monkeypatch.setattr(specfun, "_BETACF_MAX_ITER", 2)
    with pytest.raises(NumericalError):
        specfun._betacf(2000.0, 0.5, np.array([0.99]))


def test_betacf_one_slow_lane_raises():
    # at a = b = 1e8 the fraction needs about 10^4 iterations at its switch
    # point x = 1/2, far beyond _BETACF_MAX_ITER; x = 0.1 and 0.3 converge fast
    specfun._betacf(1e8, 1e8, np.array([0.1, 0.3]))
    with pytest.raises(NumericalError):
        specfun._betacf(1e8, 1e8, np.array([0.1, 0.5, 0.3]))


@functools.lru_cache(maxsize=None)
def _high_d_reference(d: int) -> tuple[np.ndarray, np.ndarray]:
    return load_high_d_refs()[d]


def _assert_log_close(got: np.ndarray, ref: np.ndarray) -> None:
    """Relative 2e-13, widened by 2 eps |ln|ref|| for values far below 1.

    For s < 0 the result ln(1 - I/2) is about -I/2, whose relative error is
    the absolute error of ln I: at least the rounding of ln I itself, eps
    |ln I| (1.6e-13 near the underflow limit |ln I| = 708). For s >= 0 the
    widening stays below 6e-15.
    """
    eps = np.finfo(float).eps
    mag = np.abs(ref)
    log_mag = np.abs(np.log(mag, out=np.zeros_like(mag), where=mag > 0.0))
    tol = (2e-13 + 2.0 * eps * log_mag) * mag + np.finfo(float).tiny
    bad = np.abs(got - ref) > tol
    assert not bad.any(), list(zip(got[bad], ref[bad]))


class TestCapFractionHighD:
    # closed forms at d = 2, 3 and 4; the continued fraction alone from
    # d = 5; the asymptotic ln B(a, 1/2) from d = 101 (a = 50); the near-one
    # series as well from d = 513 (a = 256). The 30-digit references are
    # stored (scripts/make_cap_refs.py writes them)
    DIMS = HIGH_D_DIMS

    def test_stored_dims_and_grids(self):
        refs = load_high_d_refs()
        assert sorted(refs) == sorted(self.DIMS)
        for d, (s, ref) in refs.items():
            assert np.array_equal(s, high_d_s_grid(d))
            assert len(ref) == len(s)

    @pytest.mark.parametrize("d", DIMS)
    def test_stored_reference_recomputes(self, d):
        # one point per d, a different place of the grid for each d
        s, ref = _high_d_reference(d)
        k = d % len(s)
        assert float(mp_log_cap_fraction(d, float(s[k]))) == ref[k]

    def test_reference_matches_hyp2f1(self):
        with mpmath.workdps(30):
            for s in (0.01, 0.3):
                a = mpmath.mpf(4999) / 2
                x = 1 - mpmath.mpf(s) ** 2
                f = mpmath.hyp2f1(a, 0.5, a + 1, x)
                log_i = a * mpmath.log(x) + mpmath.log(f) - mpmath.log(a)
                log_i -= mpmath.log(mpmath.beta(a, 0.5))
                assert float(mp_log_cap_fraction(5000, s)) == pytest.approx(
                    float(mpmath.log(0.5) + log_i), rel=1e-15
                )

    @pytest.mark.parametrize("d", DIMS)
    def test_vector_against_mpmath(self, d):
        s, ref = _high_d_reference(d)
        _assert_log_close(log_cap_fraction(d, s), ref)

    @pytest.mark.parametrize("d", DIMS)
    def test_scalar_against_mpmath(self, d):
        s, ref = _high_d_reference(d)
        got = np.array([log_cap_fraction(d, float(v))[0] for v in s])
        _assert_log_close(got, ref)

    @pytest.mark.parametrize(
        "d", (2, 3, 4, 5, 100, 200, 300, 500, 1000, 5000, 10_000, 100_000)
    )
    def test_batch_independent(self, d):
        rng = np.random.default_rng(d)
        s = np.concatenate(
            [rng.uniform(-1.0, 1.0, 200), rng.normal(0.0, 3.0 / math.sqrt(d), 56)]
        )
        vector = log_cap_fraction(d, s)
        single = np.array([log_cap_fraction(d, float(v))[0] for v in s])
        assert np.array_equal(vector.view(np.uint64), single.view(np.uint64))

    def test_log_beta_half_at_large_a(self):
        with mpmath.workdps(50):
            for a in (50.0, 149.5, 256.0, 499.5, 4999.5, 49999.5):
                ref = mpmath.log(mpmath.beta(a, 0.5))
                assert specfun._log_beta(a, 0.5) == pytest.approx(float(ref), rel=4e-16)


class TestCapBounds:
    def test_main_configuration_brackets_exact(self):
        # the cap with cos = 3/8, sin = sqrt(55)/8 at d = 100
        lo, hi = cap_area_bounds(100, 3.0 / 8.0)
        exact = cap_area_exact(100, 3.0 / 8.0)
        assert lo <= exact <= hi

    def test_circle_case_brackets_third(self):
        lo, hi = cap_area_bounds(2, 0.5)
        third = math.log(1.0 / 3.0)
        assert lo <= third <= hi

    def test_d50_high_s(self):
        lo, hi = cap_area_bounds(50, 0.9)
        exact = cap_area_exact(50, 0.9)
        assert lo <= exact <= hi

    def test_s_zero_rejected(self):
        with pytest.raises(DomainError):
            cap_area_bounds(5, 0.0)

    def test_sandwich_sweep_wide(self):
        # the full-width d sweep; the dense version runs in the acceptance suite
        s_grid = np.linspace(0.02, 0.99, 50)
        for d in (2, 3, 5, 10, 31, 100, 316, 1000, 2000):
            for s in s_grid:
                lo, hi = cap_area_bounds(d, float(s))
                exact = cap_area_exact(d, float(s))
                assert lo - 1e-10 <= exact <= hi + 1e-10


class TestGammaRatio:
    def test_small_dimensions(self):
        assert gamma_ratio_bounds_hold(1)
        assert gamma_ratio_bounds_hold(2)

    def test_large_dimension(self):
        assert gamma_ratio_bounds_hold(10000)

    def test_values_match_direct_evaluation(self):
        # d=1: 1/sqrt2 <= Gamma(3/2)/Gamma(1) = sqrt(pi)/2 <= 1
        mid = math.exp(log_gamma(1.5) - log_gamma(1.0))
        assert mid == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-14)
        # d=2: 1 <= Gamma(2)/Gamma(3/2) = 2/sqrt(pi) <= sqrt(3/2)
        mid = math.exp(log_gamma(2.0) - log_gamma(1.5))
        assert mid == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-14)


class TestCapFraction:
    def test_complement_symmetry(self):
        # fraction(s) + fraction(-s) = 1
        for d in (2, 3, 10, 200):
            for s in (0.1, 0.4, 0.8):
                f_pos = math.exp(float(log_cap_fraction(d, s)[0]))
                f_neg = math.exp(float(log_cap_fraction(d, -s)[0]))
                assert f_pos + f_neg == pytest.approx(1.0, abs=1e-13)

    def test_extremes(self):
        assert float(log_cap_fraction(5, -1.0)[0]) == 0.0
        assert float(log_cap_fraction(5, 1.0)[0]) == -math.inf

    @settings(max_examples=50)
    @given(
        d=st.integers(min_value=2, max_value=500),
        s=st.floats(min_value=-0.999, max_value=0.999),
    )
    def test_monotone_in_s(self, d, s):
        eps = 5e-4
        lo = float(log_cap_fraction(d, min(s + eps, 0.9995))[0])
        hi = float(log_cap_fraction(d, s)[0])
        assert hi >= lo - 1e-12
