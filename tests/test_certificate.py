import math
import warnings

import numpy as np
import pytest

import hlmax.certificate as certificate
from hlmax.certificate import (
    T1_MAX,
    U_SPLIT,
    ScanRow,
    WitnessTerms,
    besicovitch_upper,
    conjugate_exponent,
    critical_p,
    decp_analytic_floor,
    decp_certificate,
    decp_explicit_constant,
    decp_generalized_certificate,
    doubling_certificate,
    golden_section_max,
    lebesgue_ball_certificate,
    lemma_certificate,
    optimize_v,
    unit_ball_rate_base,
)
from hlmax.errors import DomainError, EmptyTestFunctionError, HypothesisViolationError
from hlmax.radial import RadialDensity
from hlmax.specfun import _log_ball_volume

from oracles import lens_area

T0_RATE = (6 * math.log(2) - math.log(55)) / (3 * math.log(3) - 3 * math.log(2))


class TestLemmaCertificate:
    def test_one_dimensional_closed_form(self):
        # intervals: mu(B(0,1)) = 2, mu(B(e1, sqrt2)) = 2 sqrt2, bound 1/(2 sqrt2)
        cert = lemma_certificate(RadialDensity.lebesgue(1), 1.0, 1.0, 1.0)
        assert math.exp(cert.term_level.log_magnitude) == pytest.approx(2.0, rel=1e-12)
        assert math.exp(cert.term_denom.log_magnitude) == pytest.approx(
            2.0 * math.sqrt(2.0), rel=1e-10
        )
        assert cert.log_lower_bound == pytest.approx(
            math.log(1.0 / (2.0 * math.sqrt(2.0))), abs=1e-10
        )

    def test_restricted_ball_formula(self):
        # bound = 2^{-d/q} vol(B^d) / (2 nu(B(e1, sqrt5/2)))
        d, p = 6, 1.4
        cert = lemma_certificate(RadialDensity.restricted_lebesgue(d), p, 0.5, 1.0)
        q = conjugate_exponent(p)
        expected = (
            -d / q * math.log(2.0)
            + cert.term_level.log_magnitude
            - math.log(2.0)
            - cert.term_denom.log_magnitude
        )
        assert cert.log_lower_bound == pytest.approx(expected, abs=1e-12)
        floor = lebesgue_ball_certificate(d, p).floor_log
        assert cert.log_lower_bound >= floor - 1e-9

    def test_small_v_approaches_delta_regime(self):
        dens = RadialDensity.restricted_lebesgue(3)
        cert = lemma_certificate(dens, 1.0, 1e-6, 1.0)
        limit = (
            cert.term_level.log_magnitude
            - math.log(2.0)
            - cert.term_denom.log_magnitude
        )
        assert cert.log_lower_bound == pytest.approx(limit, abs=1e-12)

    def test_invariants_recompute(self):
        cert = lemma_certificate(RadialDensity.power(4, 0.5), 1.2, 0.5, 2.0)
        assert cert.log_lower_bound == pytest.approx(cert.recompute_log_lower(), abs=1e-12)
        assert cert.H == pytest.approx(cert.R * math.sqrt(1 + cert.v ** 2), rel=1e-15)
        assert cert.term_inner.log_magnitude <= cert.term_level.log_magnitude + 1e-12

    def test_domain_checks(self):
        dens = RadialDensity.lebesgue(2)
        with pytest.raises(DomainError):
            lemma_certificate(dens, 0.9, 0.5, 1.0)
        with pytest.raises(DomainError):
            lemma_certificate(dens, 1.0, 1.5, 1.0)
        with pytest.raises(DomainError):
            lemma_certificate(dens, 1.0, 0.5, -1.0)

    def test_monotone_in_p(self):
        dens = RadialDensity.restricted_lebesgue(10)
        vals = [
            lemma_certificate(dens, p, 0.5, 1.0).log_lower_bound
            for p in (1.0, 1.05, 1.2, 1.5, 2.0, 4.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_power_family_scale_invariance(self):
        dens = RadialDensity.power(12, 0.5)
        vals = [
            lemma_certificate(dens, 1.3, 0.5, R).log_lower_bound for R in (0.1, 1.0, 10.0)
        ]
        assert max(vals) - min(vals) < 1e-7

    def test_never_exceeds_besicovitch(self):
        for d, p in [(2, 1.0), (10, 1.0), (50, 1.02), (100, 2.0)]:
            cert = lemma_certificate(RadialDensity.restricted_lebesgue(d), p, 0.5, 1.0)
            assert cert.log_lower_bound <= besicovitch_upper(d, p)
            assert cert.log_lower_bound <= besicovitch_upper(d, 1.0)


class TestDecp:
    def test_truncated_power_at_threshold_rate(self):
        # growth is exactly the required threshold for R <= 1
        dens = RadialDensity.truncated_power(40, 1.0 - T0_RATE)
        res = decp_certificate(dens, 1.0)
        assert res.hypothesis.sup_estimate_log >= res.hypothesis.sup_required_log - 1e-9
        assert res.certificate.log_lower_bound >= res.floor_log - 1e-9

    def test_restricted_lebesgue_rate_bound(self):
        # at p = 1.03 the per-dimension base exceeds 1.005
        d = 200
        res = decp_certificate(RadialDensity.restricted_lebesgue(d), 1.03)
        slack = math.log(4.0 + decp_explicit_constant(d) / math.sqrt(d))
        assert res.certificate.log_lower_bound >= d * math.log(1.005) - slack

    def test_exact_dominates_floor(self):
        for dens in (
            RadialDensity.restricted_lebesgue(30),
            RadialDensity.truncated_power(30, 0.5),
            RadialDensity.log_singularity(12),
        ):
            res = decp_certificate(dens, 1.0)
            assert res.certificate.log_lower_bound >= res.floor_log - 1e-9

    def test_lebesgue_fails_hypothesis(self):
        # constant density: h stays at u^{-d} forever, limsup check must fail
        with pytest.raises(HypothesisViolationError) as exc:
            decp_certificate(RadialDensity.lebesgue(10), 1.0)
        assert exc.value.failed == "limsup"

    def test_power_wrong_exponent_fails(self):
        # pure power with too little growth: sup check fails
        with pytest.raises(HypothesisViolationError) as exc:
            decp_certificate(RadialDensity.power(20, 0.95), 1.0)
        assert exc.value.failed == "sup"

    def test_degenerate_rate_warns_but_returns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = decp_certificate(RadialDensity.restricted_lebesgue(10), 1.5)
        assert res.degenerate_rate
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)

    def test_epsilon_domain(self):
        with pytest.raises(DomainError):
            decp_certificate(RadialDensity.restricted_lebesgue(5), 1.0, epsilon=0.5)

    def test_floor_rate_converges_from_below(self):
        # the analytic floor's per-dimension rate approaches ln(2^(1/p) 55^(-1/6))
        # from below, within ln(4 D)/d <= (2 ln 4 + slack)/d; the exact route
        # always dominates the floor, often by an exponential factor
        p = 1.0
        limit = math.log(2.0) / p - math.log(55.0) / 6.0
        for d in (10, 100, 1000):
            rate = decp_analytic_floor(d, p, 0.01) / d
            assert rate <= limit
            assert limit - rate <= (2.0 * math.log(4.0) + 1.0) / d

    def test_hypothesis_report_is_grid_labelled(self):
        res = decp_certificate(RadialDensity.restricted_lebesgue(20), 1.0)
        assert res.hypothesis.note == "verified on grid"
        assert len(res.hypothesis.tail_radii) == 4


class TestDecpGeneralized:
    def test_reproduces_main_critical_exponent(self):
        dens = RadialDensity.truncated_power(30, 1.0 - T0_RATE)
        res = decp_generalized_certificate(dens, 1.0, T0_RATE, T0_RATE)
        assert res.p0 == pytest.approx(critical_p("decp"), abs=1e-12)

    def test_power_family_between_thresholds(self):
        # f = r^{-td} with t0 <= 1 - t <= t1 passes both checks
        t0, t1 = 0.08, 0.15
        dens = RadialDensity.power(25, 1.0 - 0.12)
        res = decp_generalized_certificate(dens, 1.0, t0, t1)
        assert res.b > 1.0
        assert res.p0 > 1.0

    def test_boundary_t1_still_exponential_at_p1(self):
        dens = RadialDensity.truncated_power(20, 0.9)
        res = decp_generalized_certificate(dens, 1.0, 0.05, T1_MAX - 1e-6)
        assert res.p0 > 1.0
        assert res.b > 1.0

    def test_t1_domain(self):
        dens = RadialDensity.truncated_power(10, 0.5)
        with pytest.raises(DomainError):
            decp_generalized_certificate(dens, 1.0, 0.1, T1_MAX + 0.01)

    def test_hypothesis_failure_propagates(self):
        # limsup of a pure power exceeds the t1 threshold when 1 - t > t1
        with pytest.raises(HypothesisViolationError):
            decp_generalized_certificate(RadialDensity.power(40, 0.5), 1.0, 0.1, 0.15)


class TestDoubling:
    def test_inner_term_closed_form(self):
        from hlmax.specfun import _log_sphere_area

        t, d, c = 0.9, 60, 1.4
        res = doubling_certificate(t, d, 1.0, 1.0, c)
        a = (1 - t) * d
        expected = _log_sphere_area(d) + a * math.log(c / 2.0) - math.log(a)
        assert res.inner_term_log == pytest.approx(expected, abs=1e-12)

    def test_exact_dominates_floor(self):
        res = doubling_certificate(0.95, 100, 2.0, 2.0, 1.3)
        assert res.certificate.log_lower_bound >= res.floor_log - 1e-9
        res = doubling_certificate(0.99, 50, 2.0, 2.0, 1.2)
        assert res.certificate.log_lower_bound >= res.floor_log - 1e-9

    def test_middle_and_outer_vanish_as_t_to_one(self):
        c, d = 1.5, 100
        gaps_mid, gaps_out = [], []
        for t in (0.9, 0.99, 0.999):
            res = doubling_certificate(t, d, 1.0, 1.0, c)
            gaps_mid.append(res.middle_bound_log - res.inner_term_log)
            gaps_out.append(res.outer_bound_log - res.inner_term_log)
        assert all(a > b for a, b in zip(gaps_mid, gaps_mid[1:]))
        assert all(a > b for a, b in zip(gaps_out, gaps_out[1:]))
        assert gaps_mid[-1] < 0 and gaps_out[-1] < 0

    def test_b0_exceeds_one(self):
        res = doubling_certificate(0.95, 100, 2.0, 2.0, 1.3)
        assert res.b0 > 1.0
        assert res.b0 == pytest.approx(
            min(6.0 ** (1.0 / res.d0), 2.0 ** 0.5 / 1.3), abs=1e-12
        )

    def test_base_must_exceed_one(self):
        with pytest.raises(DomainError):
            doubling_certificate(0.95, 100, 2.0, 2.0, 1.5)  # c >= 2^(1/2)


class TestLebesgueBall:
    def test_critical_p(self):
        p0 = critical_p("lebesgue_ball")
        assert 2.0 ** (2.0 + 1.0 / p0) == pytest.approx(math.sqrt(55.0), rel=1e-12)
        assert p0 == pytest.approx(1.1227, abs=1e-4)

    def test_planar_exactness(self):
        # at d = 2, p = 1 the certificate is pi / (2 * lens)
        res = lebesgue_ball_certificate(2, 1.0)
        lens = lens_area(1.0, math.sqrt(5.0) / 2.0, 1.0)
        assert res.certificate.log_lower_bound == pytest.approx(
            math.log(math.pi / (2.0 * lens)), abs=1e-9
        )

    def test_exact_dominates_floor_spot(self):
        for d in (2, 10, 50):
            for p in (1.0, 1.05, critical_p("lebesgue_ball")):
                res = lebesgue_ball_certificate(d, p)
                assert res.certificate.log_lower_bound >= res.floor_log - 1e-9

    def test_floor_formula(self):
        d, p = 7, 1.05
        res = lebesgue_ball_certificate(d, p)
        q = conjugate_exponent(p)
        expected = (
            -d / q * math.log(2.0)
            + _log_ball_volume(d)
            - math.log(2.0)
            - _log_ball_volume(d - 1)
            + math.log(3.0 * (d + 1) / 16.0)
            + (d + 1) * math.log(8.0 / math.sqrt(55.0))
        )
        assert res.floor_log == pytest.approx(expected, abs=1e-12)

    def test_requires_d_at_least_two(self):
        with pytest.raises(DomainError):
            lebesgue_ball_certificate(1, 1.0)


class TestOptimizeV:
    def test_proxy_at_critical_conjugate(self):
        q0 = conjugate_exponent(critical_p("lebesgue_ball"))
        assert q0 == pytest.approx(9.1474, abs=1e-3)
        assert float(unit_ball_rate_base(0.5, q0)) == pytest.approx(1.0, abs=1e-12)

    def test_proxy_below_one_for_small_q(self):
        v = np.linspace(0.0, 0.99, 200)
        for q in (1.5, 4.0, 9.0):
            assert np.all(unit_ball_rate_base(v, q) < 1.0)

    def test_optimizer_dominates_fixed_choice(self):
        dens = RadialDensity.restricted_lebesgue(10)
        v_star, cert = optimize_v(dens, 1.05, 1.0)
        fixed = lemma_certificate(dens, 1.05, 0.5, 1.0)
        assert cert.log_lower_bound >= fixed.log_lower_bound - 1e-9
        assert 0.0 < v_star <= 1.0

    def test_near_critical_p_prefers_half(self):
        # at the critical exponent's conjugate (q ~ 9.15) the optimum sits
        # near v = 1/2; smaller p (larger q) pushes the optimum toward 0
        dens = RadialDensity.restricted_lebesgue(10)
        v_star, _ = optimize_v(dens, critical_p("lebesgue_ball"), 1.0)
        assert 0.3 <= v_star <= 0.7

    def test_needs_p_above_one(self):
        with pytest.raises(DomainError):
            optimize_v(RadialDensity.restricted_lebesgue(5), 1.0, 1.0)


class TestPreparedTerms:
    def test_witness_rejects_p_below_one(self):
        terms = WitnessTerms.prepare(RadialDensity.lebesgue(3), 0.5, 1.0)
        with pytest.raises(DomainError):
            terms.certificate(0.9)

    def test_bisection_stops_at_its_fixed_point(self, monkeypatch):
        # running all 90 bisection steps costs 219 h_u evaluations per certificate
        calls = [0]
        growth_h = certificate.growth_h

        def counted(*args, **kwargs):
            calls[0] += 1
            return growth_h(*args, **kwargs)

        monkeypatch.setattr(certificate, "growth_h", counted)
        res = decp_certificate(RadialDensity.restricted_lebesgue(60), 1.0)
        assert calls[0] < 219
        assert res.r1 == 1.194397343722166  # bit-identical to the 90-step value


class TestGoldenSection:
    def test_parabola_maximum(self):
        x, fx = golden_section_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, 80)
        assert x == pytest.approx(0.3, abs=1e-8)
        assert fx == pytest.approx(0.0, abs=1e-15)

    def test_tolerance_stops_early(self):
        calls = []

        def f(x):
            calls.append(x)
            return -abs(x - 0.7)

        x, _ = golden_section_max(f, 0.0, 1.0, 200, tol=1e-3)
        assert abs(x - 0.7) < 1e-3
        assert len(calls) < 30

    def test_lockstep_brackets_match_scalar_searches(self):
        # per bracket the same steps as a search of its own, so the same bits;
        # one call of f per step serves every bracket still searching
        peaks = [0.3, 0.45, 0.8, 0.1]
        lo, hi, steps = [0.0, 0.2, 0.5, -1.0], [1.0, 0.9, 1.0, 0.5], [0, 7, 30, 12]
        calls = []

        def f(x, lanes):
            calls.append(len(lanes))
            return [-((t - peaks[i]) ** 2) for t, i in zip(x, lanes)]

        xs, fxs = golden_section_max(f, lo, hi, steps)
        assert len(calls) == 2 + max(steps)  # the two first probes, then one per step
        for i, peak in enumerate(peaks):
            want = golden_section_max(
                lambda t: -((t - peak) ** 2), lo[i], hi[i], steps[i]
            )
            assert (xs[i], fxs[i]) == want


class TestUniversal:
    def test_besicovitch_values(self):
        assert besicovitch_upper(1, 1.0) == pytest.approx(math.log(2.641), rel=1e-15)
        assert besicovitch_upper(50, 1e9) == pytest.approx(0.0, abs=1e-6)

    def test_critical_bases_cross_one(self):
        p0 = critical_p("decp")
        assert 2.0 ** (1.0 / p0) * 55.0 ** (-1.0 / 6.0) == pytest.approx(1.0, abs=1e-12)
        assert p0 == pytest.approx(1.03782, abs=1e-5)

    def test_unknown_tag(self):
        with pytest.raises(DomainError):
            critical_p("nope")

    def test_scan_row_invariant(self):
        with pytest.raises(DomainError):
            ScanRow("lebesgue", "", 2, 1.0, 100.0, 50.0, 1.0)
