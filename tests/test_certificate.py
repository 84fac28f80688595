import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hlmax.certificate as certificate
from hlmax.certificate import (
    T1_MAX,
    U_SPLIT,
    DecpTerms,
    DoublingTerms,
    GeneralizedDecpTerms,
    LebesgueBallTerms,
    WitnessTerms,
    besicovitch_upper,
    conjugate_exponent,
    critical_p,
    decp_analytic_floor,
    decp_explicit_constant,
    golden_section_max,
    lemma_certificate,
)
from hlmax.certificate import _INVPHI, _bisect_upper_boundary
from hlmax.errors import DomainError, HypothesisViolationError, QuadraturePrecisionError
from hlmax.radial import RadialDensity, growth_h
from hlmax.specfun import log_ball_volume, log_sphere_area

from oracles import lens_area, unit_ball_rate_base

T0_RATE = (6 * math.log(2) - math.log(55)) / (3 * math.log(3) - 3 * math.log(2))


class TestLemmaCertificate:
    def test_one_dimensional_closed_form(self):
        # intervals: mu(B(0,1)) = 2, mu(B(e1, sqrt2)) = 2 sqrt2, bound 1/(2 sqrt2)
        cert = lemma_certificate(RadialDensity.lebesgue(1), 1.0, 1.0, 1.0)
        assert math.exp(cert.term_level) == pytest.approx(2.0, rel=1e-12)
        assert math.exp(cert.term_denom) == pytest.approx(
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
            + cert.term_level
            - math.log(2.0)
            - cert.term_denom
        )
        assert cert.log_lower_bound == pytest.approx(expected, abs=1e-12)
        floor = LebesgueBallTerms.prepare(d).result(p).floor_log
        assert cert.log_lower_bound >= floor - 1e-9

    def test_small_v_approaches_delta_regime(self):
        dens = RadialDensity.restricted_lebesgue(3)
        cert = lemma_certificate(dens, 1.0, 1e-6, 1.0)
        limit = (
            cert.term_level
            - math.log(2.0)
            - cert.term_denom
        )
        assert cert.log_lower_bound == pytest.approx(limit, abs=1e-12)

    def test_invariants_recompute(self):
        cert = lemma_certificate(RadialDensity.power(4, 0.5), 1.2, 0.5, 2.0)
        assert cert.log_lower_bound == pytest.approx(cert.recompute_log_lower(), abs=1e-12)
        assert cert.H == pytest.approx(cert.R * math.sqrt(1 + cert.v ** 2), rel=1e-15)
        assert cert.term_inner <= cert.term_level + 1e-12

    @pytest.mark.parametrize(
        "field", ["v", "R", "H", "term_inner", "term_level", "term_denom", "log_lower_bound"]
    )
    def test_nan_field_is_rejected(self, field):
        cert = lemma_certificate(RadialDensity.power(4, 0.5), 1.2, 0.5, 2.0)
        with pytest.raises(DomainError):
            dataclasses.replace(cert, **{field: math.nan})

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
        res = DecpTerms.prepare(dens).result(1.0)
        assert res.hypothesis.sup_estimate_log >= res.hypothesis.sup_required_log - 1e-9
        assert res.certificate.log_lower_bound >= res.floor_log - 1e-9

    def test_restricted_lebesgue_rate_bound(self):
        # at p = 1.03 the per-dimension base exceeds 1.005
        d = 200
        res = DecpTerms.prepare(RadialDensity.restricted_lebesgue(d)).result(1.03)
        slack = math.log(4.0 + decp_explicit_constant(d) / math.sqrt(d))
        assert res.certificate.log_lower_bound >= d * math.log(1.005) - slack

    def test_exact_dominates_floor(self):
        for dens in (
            RadialDensity.restricted_lebesgue(30),
            RadialDensity.truncated_power(30, 0.5),
            RadialDensity.log_singularity(12),
        ):
            res = DecpTerms.prepare(dens).result(1.0)
            assert res.certificate.log_lower_bound >= res.floor_log - 1e-9

    def test_lebesgue_fails_hypothesis(self):
        # constant density: h stays at u^{-d} forever, limsup check must fail
        with pytest.raises(HypothesisViolationError) as exc:
            DecpTerms.prepare(RadialDensity.lebesgue(10)).result(1.0)
        assert exc.value.failed == "limsup"

    def test_power_wrong_exponent_fails(self):
        # pure power with too little growth: sup check fails
        with pytest.raises(HypothesisViolationError) as exc:
            DecpTerms.prepare(RadialDensity.power(20, 0.95)).result(1.0)
        assert exc.value.failed == "sup"

    def test_degenerate_rate_warns_but_returns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = DecpTerms.prepare(RadialDensity.restricted_lebesgue(10)).result(1.5)
        assert res.degenerate_rate
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)

    def test_epsilon_domain(self):
        with pytest.raises(DomainError):
            DecpTerms.prepare(RadialDensity.restricted_lebesgue(5), epsilon=0.5).result(1.0)

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

    def test_hypothesis_report_carries_exact_limsup(self):
        # past the support both masses are the full mass: log h_u is exactly 0
        hyp = DecpTerms.prepare(RadialDensity.restricted_lebesgue(20)).result(1.0).hypothesis
        assert hyp.tail_log_value == 0.0
        assert all(
            type(x) is float
            for x in (hyp.sup_estimate_log, hyp.sup_location, hyp.tail_log_value)
        )

    def test_unbounded_piecewise_is_rejected(self):
        # an r^(-2) tail makes h_u approach u^(-(d-2)) without reaching it,
        # so no radius decides the limsup
        dens = RadialDensity.piecewise(10, [(1.0, 1.0), (math.inf, 1.0, 2.0)])
        with pytest.raises(DomainError):
            DecpTerms.prepare(dens).result(1.0)
        assert math.isfinite(lemma_certificate(dens, 1.0, 0.5, 1.0).log_lower_bound)

    def test_window_failure_at_grid_end(self):
        # h_u of a power density is constant; place the window threshold
        # 5e-10 below it (epsilon = 1e-10) and the limsup cap above it
        dens = RadialDensity.power(30, 0.9)
        h = growth_h(dens, U_SPLIT, [1.0])[0]
        t1 = (h - 5e-10) / (-30 * math.log(U_SPLIT))
        with pytest.raises(HypothesisViolationError) as exc:
            GeneralizedDecpTerms.prepare(dens, 0.05, t1, epsilon=1e-10).result(1.0)
        assert exc.value.failed == "window"


class TestDecpGeneralized:
    def test_reproduces_main_critical_exponent(self):
        dens = RadialDensity.truncated_power(30, 1.0 - T0_RATE)
        res = GeneralizedDecpTerms.prepare(dens, T0_RATE, T0_RATE).result(1.0)
        assert res.p0 == pytest.approx(critical_p("decp"), abs=1e-12)

    def test_power_family_between_thresholds(self):
        # f = r^{-td} with t0 <= 1 - t <= t1 passes both checks
        t0, t1 = 0.08, 0.15
        dens = RadialDensity.power(25, 1.0 - 0.12)
        res = GeneralizedDecpTerms.prepare(dens, t0, t1).result(1.0)
        assert res.b > 1.0
        assert res.p0 > 1.0

    def test_boundary_t1_still_exponential_at_p1(self):
        dens = RadialDensity.truncated_power(20, 0.9)
        res = GeneralizedDecpTerms.prepare(dens, 0.05, T1_MAX - 1e-6).result(1.0)
        assert res.p0 > 1.0
        assert res.b > 1.0

    def test_t1_domain(self):
        dens = RadialDensity.truncated_power(10, 0.5)
        with pytest.raises(DomainError):
            GeneralizedDecpTerms.prepare(dens, 0.1, T1_MAX + 0.01).result(1.0)

    def test_hypothesis_failure_propagates(self):
        # limsup of a pure power exceeds the t1 threshold when 1 - t > t1
        with pytest.raises(HypothesisViolationError):
            GeneralizedDecpTerms.prepare(RadialDensity.power(40, 0.5), 0.1, 0.15).result(1.0)


class TestDoubling:
    def test_inner_term_closed_form(self):
        t, d, c = 0.9, 60, 1.4
        res = DoublingTerms.prepare(t, d).result(1.0, 1.0, c)
        a = (1 - t) * d
        expected = log_sphere_area(d) + a * math.log(c / 2.0) - math.log(a)
        assert res.inner_term_log == pytest.approx(expected, abs=1e-12)

    def test_exact_dominates_floor(self):
        res = DoublingTerms.prepare(0.95, 100).result(2.0, 2.0, 1.3)
        assert res.certificate.log_lower_bound >= res.floor_log - 1e-9
        res = DoublingTerms.prepare(0.99, 50).result(2.0, 2.0, 1.2)
        assert res.certificate.log_lower_bound >= res.floor_log - 1e-9

    def test_middle_and_outer_vanish_as_t_to_one(self):
        c, d = 1.5, 100
        gaps_mid, gaps_out = [], []
        for t in (0.9, 0.99, 0.999):
            res = DoublingTerms.prepare(t, d).result(1.0, 1.0, c)
            gaps_mid.append(res.middle_bound_log - res.inner_term_log)
            gaps_out.append(res.outer_bound_log - res.inner_term_log)
        assert all(a > b for a, b in zip(gaps_mid, gaps_mid[1:]))
        assert all(a > b for a, b in zip(gaps_out, gaps_out[1:]))
        assert gaps_mid[-1] < 0 and gaps_out[-1] < 0

    def test_b0_exceeds_one(self):
        res = DoublingTerms.prepare(0.95, 100).result(2.0, 2.0, 1.3)
        assert res.b0 > 1.0
        assert res.b0 == pytest.approx(
            min(6.0 ** (1.0 / res.d0), 2.0 ** 0.5 / 1.3), abs=1e-12
        )

    def test_base_must_exceed_one(self):
        with pytest.raises(DomainError):
            DoublingTerms.prepare(0.95, 100).result(2.0, 2.0, 1.5)  # c >= 2^(1/2)


class TestLebesgueBall:
    def test_critical_p(self):
        p0 = critical_p("lebesgue_ball")
        assert 2.0 ** (2.0 + 1.0 / p0) == pytest.approx(math.sqrt(55.0), rel=1e-12)
        assert p0 == pytest.approx(1.1227, abs=1e-4)

    def test_planar_exactness(self):
        # at d = 2, p = 1 the certificate is pi / (2 * lens)
        res = LebesgueBallTerms.prepare(2).result(1.0)
        lens = lens_area(1.0, math.sqrt(5.0) / 2.0, 1.0)
        assert res.certificate.log_lower_bound == pytest.approx(
            math.log(math.pi / (2.0 * lens)), abs=1e-9
        )

    def test_exact_dominates_floor_spot(self):
        for d in (2, 10, 50):
            for p in (1.0, 1.05, critical_p("lebesgue_ball")):
                res = LebesgueBallTerms.prepare(d).result(p)
                assert res.certificate.log_lower_bound >= res.floor_log - 1e-9

    def test_floor_formula(self):
        d, p = 7, 1.05
        res = LebesgueBallTerms.prepare(d).result(p)
        q = conjugate_exponent(p)
        expected = (
            -d / q * math.log(2.0)
            + log_ball_volume(d)
            - math.log(2.0)
            - log_ball_volume(d - 1)
            + math.log(3.0 * (d + 1) / 16.0)
            + (d + 1) * math.log(8.0 / math.sqrt(55.0))
        )
        assert res.floor_log == pytest.approx(expected, abs=1e-12)

    def test_requires_d_at_least_two(self):
        with pytest.raises(DomainError):
            LebesgueBallTerms.prepare(1).result(1.0)


class TestOptimizeV:
    """The unit-ball rate base as a function of v, the quantity a choice of
    the witness fraction v optimizes."""

    def test_proxy_at_critical_conjugate(self):
        q0 = conjugate_exponent(critical_p("lebesgue_ball"))
        assert q0 == pytest.approx(9.1474, abs=1e-3)
        assert float(unit_ball_rate_base(0.5, q0)) == pytest.approx(1.0, abs=1e-12)

    def test_proxy_below_one_for_small_q(self):
        v = np.linspace(0.0, 0.99, 200)
        for q in (1.5, 4.0, 9.0):
            assert np.all(unit_ball_rate_base(v, q) < 1.0)


class TestPreparedTerms:
    def test_witness_rejects_p_below_one(self):
        terms = WitnessTerms.prepare(RadialDensity.lebesgue(3), 0.5, 1.0)
        with pytest.raises(DomainError):
            terms.certificate(0.9)

    def test_bisection_stops_at_its_fixed_point(self, monkeypatch):
        # running all 90 bisection steps costs 41 growth_h calls per
        # certificate; stopping at the fixed point, 29
        calls = [0]
        growth_h = certificate.growth_h

        def counted(*args, **kwargs):
            calls[0] += 1
            return growth_h(*args, **kwargs)

        monkeypatch.setattr(certificate, "growth_h", counted)
        res = DecpTerms.prepare(RadialDensity.restricted_lebesgue(60)).result(1.0)
        assert calls[0] < 41
        assert res.r1 == 1.194397343722166  # bit-identical to the 90-step value

    def test_decp_prepare_settles_three_search_steps_per_call(self, monkeypatch):
        # grid (7 calls of at most 16 masses), the two first golden-section
        # probes (1 call), 24 golden-section steps (8 calls of 7 radii), about
        # 52 bisection steps (18 calls), the window check (1 call), then the
        # witness terms (4 calls): 39 calls, against 89 at one call a step
        import hlmax.radial as radial

        calls = [0]
        inner = radial.log_integrate_batch

        def counted(*args, **kwargs):
            calls[0] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(radial, "log_integrate_batch", counted)
        terms = DecpTerms.prepare(RadialDensity.log_singularity(100))
        assert calls[0] == 39
        assert terms.witness.R == 1.1748885227502617


class TestGoldenSection:
    def test_parabola_maximum(self):
        x, fx = golden_section_max(
            lambda xs, lanes: [-((t - 0.3) ** 2) for t in xs], [0.0], [1.0], [80]
        )
        assert x[0] == pytest.approx(0.3, abs=1e-8)
        assert fx[0] == pytest.approx(0.0, abs=1e-15)

    def test_lockstep_brackets_match_scalar_searches(self):
        # per bracket the same steps as a one-lane search of its own, so the
        # same bits;
        # one call of f serves both first probes of every bracket, then one
        # call per three steps of every bracket still searching
        peaks = [0.3, 0.45, 0.8, 0.1]
        lo, hi, steps = [0.0, 0.2, 0.5, -1.0], [1.0, 0.9, 1.0, 0.5], [0, 7, 30, 12]
        calls = []

        def f(x, lanes):
            calls.append(len(lanes))
            return [-((t - peaks[i]) ** 2) for t, i in zip(x, lanes)]

        xs, fxs = golden_section_max(f, lo, hi, steps)
        assert len(calls) == 1 + 10  # ceil(30 / 3) lookahead calls
        assert calls[0] == 2 * len(peaks)
        # the 7 probes of the 3 next steps of each of the 3 searching lanes
        assert calls[1] == 3 * 7
        for i, peak in enumerate(peaks):
            x, fx = golden_section_max(
                lambda x, lanes: [-((t - peak) ** 2) for t in x],
                [lo[i]], [hi[i]], [steps[i]],
            )
            assert (xs[i], fxs[i]) == (x[0], fx[0])


def _golden_one_step(f, a, b, iters):
    """Reference: the golden-section search making one call of f a step."""
    a, b = [float(t) for t in a], [float(t) for t in b]
    lanes = list(range(len(a)))
    c = [b[i] - _INVPHI * (b[i] - a[i]) for i in lanes]
    d = [a[i] + _INVPHI * (b[i] - a[i]) for i in lanes]
    first = list(f(c + d, lanes + lanes))
    fc, fd = first[:len(lanes)], first[len(lanes):]
    for step in range(max(iters, default=0)):
        live = [i for i in lanes if step < iters[i]]
        up = [fc[i] > fd[i] for i in live]
        probes = []
        for i, left in zip(live, up):
            if left:
                b[i], d[i], fd[i] = d[i], c[i], fc[i]
                c[i] = b[i] - _INVPHI * (b[i] - a[i])
                probes.append(c[i])
            else:
                a[i], c[i], fc[i] = c[i], d[i], fd[i]
                d[i] = a[i] + _INVPHI * (b[i] - a[i])
                probes.append(d[i])
        for i, left, val in zip(live, up, f(probes, live)):
            if left:
                fc[i] = val
            else:
                fd[i] = val
    best = [(c[i], fc[i]) if fc[i] > fd[i] else (d[i], fd[i]) for i in lanes]
    return np.array([x for x, _ in best]), np.array([fx for _, fx in best])


def _bisect_one_step(f, lo, hi, threshold):
    """Reference: the bisection making one call of f a step."""
    for _ in range(90):
        mid = math.sqrt(lo * hi)
        if f([mid], [0])[0] >= threshold:
            moved, lo = mid != lo, mid
        else:
            moved, hi = mid != hi, mid
        if not moved:
            break
    return lo


def _objective(kind, peaks, seen, bad=None):
    """f(xs, lanes) for the search tests: it records every (lane, probe) in
    ``seen`` and raises at the probe ``bad``. "rough" draws from a few values,
    -inf and NaN among them, by the probe's hash, so ties are common."""

    def value(i, x):
        if kind == "peak":
            return -((x - peaks[i]) ** 2)
        if kind == "flat":
            return 0.0
        if kind == "tied":
            return float(round(2.0 * math.sin(5.0 * x)))
        return (0.0, 1.0, -math.inf, math.nan, 2.5)[hash((i, x)) % 5]

    def f(xs, lanes):
        probes = list(zip(lanes, xs))
        seen.update(probes)
        if bad in probes:
            raise QuadraturePrecisionError("probe did not converge")
        return [value(i, x) for i, x in probes]

    return f


_KINDS = st.sampled_from(["peak", "flat", "tied", "rough"])
# (lookahead search, one-step reference) pairs, each a function of f
_PEAKS = [1.45, 0.3]
_SEARCHES = {
    "golden": (
        lambda f: golden_section_max(f, [0.5, 0.2], [2.0, 0.9], [20, 13]),
        lambda f: _golden_one_step(f, [0.5, 0.2], [2.0, 0.9], [20, 13]),
    ),
    "bisection": (
        lambda f: _bisect_upper_boundary(f, 1.2, 2.0, -0.09),
        lambda f: _bisect_one_step(f, 1.2, 2.0, -0.09),
    ),
}


class TestLookahead:
    """Three steps a call give the bits and probes of one step a call."""

    @settings(max_examples=150, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(
                st.floats(-10.0, 10.0),  # bracket start
                st.floats(1e-9, 10.0),  # bracket width
                st.integers(0, 40),  # steps
                st.floats(-12.0, 22.0),  # peak
            ),
            min_size=1,
            max_size=5,
        ),
        kind=_KINDS,
    )
    def test_golden_section_matches_one_step_search(self, lanes, kind):
        lo = [a for a, _, _, _ in lanes]
        hi = [a + w for a, w, _, _ in lanes]
        steps = [k for _, _, k, _ in lanes]
        peaks = [m for _, _, _, m in lanes]
        ref_seen, seen = set(), set()
        ref = _golden_one_step(_objective(kind, peaks, ref_seen), lo, hi, steps)
        got = golden_section_max(_objective(kind, peaks, seen), lo, hi, steps)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in ref]
        assert ref_seen <= seen

    @settings(max_examples=150, deadline=None)
    @given(
        lo=st.floats(1e-6, 10.0),
        ratio=st.one_of(st.just(1.0), st.floats(1.0, 1.0 + 1e-12), st.floats(1.0, 1e3)),
        threshold=st.floats(-1.0, 2.0),
        kind=_KINDS,
        peak=st.floats(0.0, 20.0),
    )
    def test_bisection_matches_one_step_search(self, lo, ratio, threshold, kind, peak):
        hi = lo * ratio
        ref_seen, seen = set(), set()
        ref = _bisect_one_step(_objective(kind, [peak], ref_seen), lo, hi, threshold)
        got = _bisect_upper_boundary(_objective(kind, [peak], seen), lo, hi, threshold)
        assert got == ref
        assert ref_seen <= seen

    @pytest.mark.parametrize("search", ["golden", "bisection"])
    def test_error_off_the_path_is_redone_one_step_deep(self, search):
        lookahead, one_step = _SEARCHES[search]
        ref_seen, seen = set(), set()
        ref = one_step(_objective("peak", _PEAKS, ref_seen))
        lookahead(_objective("peak", _PEAKS, seen))
        off_path = sorted(seen - ref_seen)
        assert off_path
        for bad in off_path[::5]:
            got = lookahead(_objective("peak", _PEAKS, set(), bad))
            assert repr(got) == repr(ref)

    @pytest.mark.parametrize("search", ["golden", "bisection"])
    def test_error_on_the_path_raises(self, search):
        lookahead, one_step = _SEARCHES[search]
        ref_seen = set()
        one_step(_objective("peak", _PEAKS, ref_seen))
        for bad in sorted(ref_seen)[::7]:
            with pytest.raises(QuadraturePrecisionError):
                one_step(_objective("peak", _PEAKS, set(), bad))
            with pytest.raises(QuadraturePrecisionError):
                lookahead(_objective("peak", _PEAKS, set(), bad))


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
