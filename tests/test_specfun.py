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
    CapSpec,
    cap_area_bounds,
    cap_area_exact,
    gamma_ratio_bounds_hold,
    log_ball_volume,
    log_cap_fraction,
    log_gamma,
    log_sphere_area,
)

from oracles import mc_ball_volume, normalized_cap_by_quadrature, sphere_area_linear


class TestLogGamma:
    def test_gamma_one(self):
        assert log_gamma(1.0) == 0.0

    def test_gamma_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15)

    def test_against_exact_factorial(self):
        # ln Gamma(n+1) = ln n! with n! computed in exact integer arithmetic
        for n in (5, 20, 100, 170):
            exact = math.log(math.factorial(n))
            assert log_gamma(n + 1.0) == pytest.approx(exact, rel=1e-13)

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
        assert log_ball_volume(1).log_magnitude == pytest.approx(math.log(2.0), rel=1e-15)

    def test_disk(self):
        assert log_ball_volume(2).log_magnitude == pytest.approx(math.log(math.pi), rel=1e-15)

    def test_three_ball(self):
        expected = math.log(4.0 * math.pi / 3.0)
        assert log_ball_volume(3).log_magnitude == pytest.approx(expected, rel=1e-14)

    def test_three_ball_against_monte_carlo(self):
        vol = math.exp(log_ball_volume(3).log_magnitude)
        assert vol == pytest.approx(mc_ball_volume(3), rel=1e-2)

    def test_circle(self):
        assert log_sphere_area(2).log_magnitude == pytest.approx(math.log(2 * math.pi), rel=1e-15)

    def test_two_sphere(self):
        assert log_sphere_area(3).log_magnitude == pytest.approx(math.log(4 * math.pi), rel=1e-15)

    def test_sphere_recursion_d10(self):
        # sigma^{d-1} = sigma^{d-2} * int_0^pi sin^{d-2}
        from oracles import sin_power_integral

        direct = math.exp(log_sphere_area(10).log_magnitude)
        recursed = sphere_area_linear(9) * sin_power_integral(8, math.pi)
        assert direct == pytest.approx(recursed, rel=1e-12)

    def test_sphere_is_d_times_ball(self):
        for d in (1, 2, 3, 7, 50, 1000):
            gap = log_sphere_area(d).log_magnitude - log_ball_volume(d).log_magnitude
            assert gap == pytest.approx(math.log(d), abs=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_ball_volume(0)
        with pytest.raises(DomainError):
            log_sphere_area(-3)


class TestCapExact:
    def test_hemisphere(self):
        for d in (2, 5, 100, 2000):
            cap = CapSpec.from_cos(d, 0.0)
            assert cap_area_exact(cap).log_magnitude == pytest.approx(
                math.log(0.5), abs=1e-13
            )

    def test_circle_arc(self):
        for theta in (0.1, math.pi / 3, 1.2, 1.5):
            cap = CapSpec(2, math.cos(theta), math.sin(theta))
            assert cap_area_exact(cap).log_magnitude == pytest.approx(
                math.log(theta / math.pi), abs=1e-12
            )

    def test_d10_against_direct_quadrature(self):
        cap = CapSpec.from_cos(10, 0.5)
        exact = cap_area_exact(cap).log_magnitude
        oracle = math.log(normalized_cap_by_quadrature(10, 0.5))
        assert exact == pytest.approx(oracle, abs=1e-11)
        lo, hi = cap_area_bounds(cap)
        assert lo.log_magnitude < exact < hi.log_magnitude

    def test_against_scipy_betainc(self):
        # same identity through an entirely separate implementation
        for d, s in [(3, 0.2), (17, 0.7), (101, 0.3), (400, 0.9)]:
            cap = CapSpec.from_cos(d, s)
            ours = cap_area_exact(cap).log_magnitude
            ref = math.log(0.5 * special.betainc(0.5 * (d - 1), 0.5, cap.t ** 2))
            assert ours == pytest.approx(ref, abs=1e-11)

    def test_decreasing_in_s_and_d(self):
        vals = [
            cap_area_exact(CapSpec.from_cos(30, s)).log_magnitude
            for s in np.linspace(0.05, 0.95, 10)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        vals_d = [
            cap_area_exact(CapSpec.from_cos(d, 0.4)).log_magnitude
            for d in (2, 3, 5, 10, 50, 400)
        ]
        assert all(a > b for a, b in zip(vals_d, vals_d[1:]))

    def test_capspec_validation(self):
        with pytest.raises(DomainError):
            CapSpec(1, 0.5, math.sqrt(0.75))
        with pytest.raises(DomainError):
            CapSpec(3, 0.5, 0.5)
        with pytest.raises(DomainError):
            CapSpec(3, 1.0, 0.0)


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


def _mp_log_cap_fraction(d: int, s: float) -> mpmath.mpf:
    """ln of the normalized cap area at 30 digits.

    I_x(a, 1/2) = x^a 2F1(a, 1/2; a+1; x) / (a B(a, 1/2)) with x = 1 - s^2,
    and 2F1(a, 1/2; a+1; x) = int_0^inf e^-u (y - x expm1(-u/a))^(-1/2) du
    with y = s^2, which has no cancellation near x = 1. mpmath.betainc and
    hyp2f1 stop converging there at d = 10^5.
    """
    with mpmath.workdps(30):
        a = mpmath.mpf(d - 1) / 2
        half = mpmath.mpf(1) / 2
        y = mpmath.mpf(s) ** 2
        x = 1 - y
        f = mpmath.quad(
            lambda u: mpmath.exp(-u) / mpmath.sqrt(y - x * mpmath.expm1(-u / a)),
            [0, 1, 10, mpmath.inf],
        )
        log_i = a * mpmath.log(x) + mpmath.log(f) - mpmath.log(a)
        log_i -= mpmath.log(mpmath.beta(a, half))
        if s >= 0:
            return mpmath.log(half) + log_i
        return mpmath.log1p(-half * mpmath.exp(log_i))


@functools.lru_cache(maxsize=None)
def _high_d_reference(d: int) -> tuple[np.ndarray, np.ndarray]:
    # the whole range, plus the band |s| < 8/sqrt(d) around the continued
    # fraction's switch point, where the cap fraction changes fastest
    band = 8.0 / math.sqrt(d)
    s = np.unique(np.concatenate([np.linspace(-0.999, 0.999, 41), np.linspace(-band, band, 21)]))
    ref = np.array([float(_mp_log_cap_fraction(d, float(v))) for v in s])
    return s, ref


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
    # d = 513 is the smallest d on the large-a path (a = 256)
    DIMS = (513, 5000, 10_000, 100_000)

    def test_reference_matches_hyp2f1(self):
        with mpmath.workdps(30):
            for s in (0.01, 0.3):
                a = mpmath.mpf(4999) / 2
                x = 1 - mpmath.mpf(s) ** 2
                f = mpmath.hyp2f1(a, 0.5, a + 1, x)
                log_i = a * mpmath.log(x) + mpmath.log(f) - mpmath.log(a)
                log_i -= mpmath.log(mpmath.beta(a, 0.5))
                assert float(_mp_log_cap_fraction(5000, s)) == pytest.approx(
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

    @pytest.mark.parametrize("d", (3, 100, 1000, 5000, 10_000, 100_000))
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
            for a in (256.0, 499.5, 4999.5, 49999.5):
                ref = mpmath.log(mpmath.beta(a, 0.5))
                assert specfun._log_beta(a, 0.5) == pytest.approx(float(ref), rel=4e-16)


class TestCapBounds:
    def test_main_configuration_brackets_exact(self):
        # the cap with cos = 3/8, sin = sqrt(55)/8 at d = 100
        cap = CapSpec(100, 3.0 / 8.0, math.sqrt(55.0) / 8.0)
        lo, hi = cap_area_bounds(cap)
        exact = cap_area_exact(cap).log_magnitude
        assert lo.log_magnitude <= exact <= hi.log_magnitude

    def test_circle_case_brackets_third(self):
        cap = CapSpec(2, 0.5, math.sqrt(3.0) / 2.0)
        lo, hi = cap_area_bounds(cap)
        third = math.log(1.0 / 3.0)
        assert lo.log_magnitude <= third <= hi.log_magnitude

    def test_d50_high_s(self):
        cap = CapSpec.from_cos(50, 0.9)
        lo, hi = cap_area_bounds(cap)
        exact = cap_area_exact(cap).log_magnitude
        assert lo.log_magnitude <= exact <= hi.log_magnitude

    def test_s_zero_rejected(self):
        with pytest.raises(DomainError):
            cap_area_bounds(CapSpec.from_cos(5, 0.0))

    def test_sandwich_sweep_wide(self):
        # the full-width d sweep; the dense version runs in the acceptance suite
        s_grid = np.linspace(0.02, 0.99, 50)
        for d in (2, 3, 5, 10, 31, 100, 316, 1000, 2000):
            for s in s_grid:
                cap = CapSpec.from_cos(d, float(s))
                lo, hi = cap_area_bounds(cap)
                exact = cap_area_exact(cap).log_magnitude
                assert lo.log_magnitude - 1e-10 <= exact <= hi.log_magnitude + 1e-10


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
