import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hlmax.oracle as oracle
import hlmax.radial as radial
from hlmax.certificate import lemma_certificate
from hlmax.cli import main
from hlmax.errors import DomainError, QuadraturePrecisionError
from hlmax.oracle import (
    empirical_weak_ratio,
    maximal_at_point,
    maximal_sweep,
    run_oracle,
)
from hlmax.radial import RadialDensity, _offcenter_logs
from hlmax.specfun import log_cap_fraction

from oracles import halfspace_masses


class TestMaximalAtPoint:
    def test_center_with_full_indicator(self):
        # balls at the origin interior to the support: ratio 1 at r <= vR
        val = maximal_at_point(RadialDensity.lebesgue(2), 1.0, 1.0, 0.0, grid=64, refine=0)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_planar_witness_beats_alpha(self):
        # quarter-disk numerator over twice the full sqrt(5)/2 disk: alpha = 1/10
        dens = RadialDensity.lebesgue(2)
        val = maximal_at_point(dens, 0.5, 1.0, 1.0, grid=128, refine=12)
        alpha = math.log(math.pi / 4.0) - math.log(2.0 * math.pi * 5.0 / 4.0)
        assert alpha == pytest.approx(math.log(0.1), abs=1e-12)
        assert val >= alpha - 1e-9

    def test_decays_along_ray(self):
        dens = RadialDensity.restricted_lebesgue(2)
        vals = [
            maximal_at_point(dens, 0.5, 1.0, rho, grid=64, refine=8)
            for rho in (1.0, 2.0, 4.0)
        ]
        assert all(a >= b - 1e-6 for a, b in zip(vals, vals[1:]))

    def test_grid_sup_monotone_under_refinement(self):
        dens = RadialDensity.restricted_lebesgue(3)
        coarse = maximal_at_point(dens, 0.5, 1.0, 0.7, grid=65, refine=0)
        fine = maximal_at_point(dens, 0.5, 1.0, 0.7, grid=129, refine=0)
        assert fine >= coarse - 1e-9

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            maximal_at_point(RadialDensity.lebesgue(11), 0.5, 1.0, 1.0)

    def test_grid_guard(self):
        with pytest.raises(DomainError):
            maximal_at_point(RadialDensity.lebesgue(2), 0.5, 1.0, 1.0, grid=32)


class TestSweep:
    @pytest.mark.parametrize(
        "dens",
        [RadialDensity.restricted_lebesgue(2), RadialDensity.power(3, 0.5)],
        ids=["restricted-lebesgue-2", "power-3"],
    )
    def test_matches_one_point_at_a_time(self, dens):
        # the origin, interior points and R, with 0, 8 and 12 steps, and R
        # twice so the two lanes share its grid
        radii = [0.0, 0.3, 1.0, 0.7, 1.0]
        steps = [8, 12, 20, 0, 12]
        swept = maximal_sweep(dens, 0.5, 1.0, radii, steps, grid=64)
        for rho, k, got in zip(radii, steps, swept):
            want = maximal_at_point(dens, 0.5, 1.0, rho, grid=64, refine=k)
            assert got == want

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            maximal_sweep(RadialDensity.lebesgue(2), 0.5, 1.0, [0.5, -0.1], 4, grid=64)


class TestMixedCenters:
    @pytest.mark.parametrize(
        "dens",
        [RadialDensity.restricted_lebesgue(2), RadialDensity.log_singularity(3)],
        ids=["restricted-lebesgue-2", "log-singularity-3"],
    )
    def test_matches_per_center_calls(self, dens):
        centers = [0.0, 0.4, 1.0, 0.0, 1.0, 2.5]
        radii = [0.5, 0.9, 1.3, 2.0, 0.2, 1.1]
        caps = [math.inf, 0.5, 0.5, 0.8, math.inf, 0.5]
        got = _offcenter_logs(dens, centers, radii, caps, 1e-10)
        for c, r, cap, g in zip(centers, radii, caps, got):
            assert g == float(_offcenter_logs(dens, c, [r], [cap], 1e-10)[0])

    def test_origin_keeps_the_radial_mass(self):
        dens = RadialDensity.lebesgue(3)
        got = _offcenter_logs(dens, [0.0, 0.0], [0.7, 2.0], [math.inf, 1.5])
        want = [math.log(4.0 / 3.0 * math.pi * r**3) for r in (0.7, 1.5)]
        assert got == pytest.approx(want, abs=1e-14)

    def test_negative_center_rejected(self):
        with pytest.raises(DomainError):
            _offcenter_logs(RadialDensity.lebesgue(2), [0.5, -1.0], [1.0, 1.0])

    @pytest.mark.xfail(raises=QuadraturePrecisionError, strict=True)
    def test_planar_ball_about_a_near_origin_center(self):
        # known defect: the lens segment [r - c, r + c] is 2c wide, and its
        # cap threshold (rho^2 + c^2 - r^2) / (2 rho c) cancels, so the
        # quadrature never converges (at 1e-9 it still does)
        got = _offcenter_logs(RadialDensity.lebesgue(2), 8.75e-11, [3.0], None, 1e-7)
        assert got[0] == pytest.approx(math.log(9.0 * math.pi), rel=1e-12)


class TestWork:
    @staticmethod
    def _oracle_calls(capsys, monkeypatch, samples):
        calls = [0]
        inner = radial.log_integrate_batch

        def counted(*args, **kwargs):
            calls[0] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(radial, "log_integrate_batch", counted)
        argv = ["oracle", "--family", "lebesgue", "--d", "3", "--samples", str(samples)]
        assert main(argv) == 0
        capsys.readouterr()
        return calls[0]

    @pytest.mark.parametrize("samples, budget", [(2, 30), (20, 50)])
    def test_quadrature_calls_per_request(self, capsys, monkeypatch, samples, budget):
        # one grid call for all points, one call for the two first
        # golden-section probes and one per three steps for all points: 10 calls
        assert 0 < self._oracle_calls(capsys, monkeypatch, samples) <= budget

    def test_two_samples_make_10_calls(self, capsys, monkeypatch):
        # one grid call, 8 golden-section calls (the first probes, then
        # ceil(20 / 3) calls of three steps), one for the certificate; 23 at
        # one call a step
        assert self._oracle_calls(capsys, monkeypatch, 2) == 10

    def test_twenty_samples_make_10_calls(self, capsys, monkeypatch):
        # the grid call carries all 20 points
        assert self._oracle_calls(capsys, monkeypatch, 20) == 10

    def test_r_is_swept_once(self, capsys, monkeypatch):
        # R e1 (20 steps) is also the first level-set point (12 steps): for
        # 12 steps the two lanes probe the same balls, which each call
        # measures once
        sizes = []
        inner = oracle._offcenter_logs

        def counted(density, centers, radii, *args):
            sizes.append(len(radii))
            return inner(density, centers, radii, *args)

        monkeypatch.setattr(oracle, "_offcenter_logs", counted)
        argv = ["oracle", "--family", "lebesgue", "--d", "3", "--samples", "2"]
        assert main(argv) == 0
        capsys.readouterr()
        # one grid call of 2 x 128 balls with their denominators, both
        # first probes of 2 points, then calls of three steps: 4 of 2 points
        # (7 radii each), 2 of R alone and 1 of its last two steps (3 radii),
        # each radius a numerator and a denominator
        assert 2 * 128 < sizes[0] <= 2 * 2 * 128
        assert sizes[1:] == [8] + [28] * 4 + [14] * 2 + [6]

    def test_d4_calls_converge_in_one_round(self, monkeypatch):
        # in theta the (1 - s)^(3/2) endpoint of the d = 4 cap fraction is
        # smooth, so no call needs a refinement round
        from hlmax import quadrature

        rounds = []
        inner_call, inner_eval = radial.log_integrate_batch, quadrature._eval_panels

        def counted_call(*args, **kwargs):
            rounds.append(0)
            return inner_call(*args, **kwargs)

        def counted_eval(*args):
            rounds[-1] += 1
            return inner_eval(*args)

        monkeypatch.setattr(radial, "log_integrate_batch", counted_call)
        monkeypatch.setattr(quadrature, "_eval_panels", counted_eval)
        argv = ["oracle", "--family", "power", "--t", "0.5", "--d", "4", "--samples", "2"]
        assert main(argv) == 0
        assert rounds == [1] * 10

    def test_dual_path_makes_no_nested_quadrature(self, monkeypatch):
        # two origin masses and one off-center mass whose angular factor is
        # a closed form, not an inner integral
        from scipy import integrate

        inner = integrate.quad
        calls, depth, deepest = [0], [0], [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            depth[0] += 1
            deepest[0] = max(deepest[0], depth[0])
            try:
                return inner(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(integrate, "quad", counted)
        empirical_weak_ratio(RadialDensity.power(3, 0.5), 1.2, 0.5, 1.0)
        assert calls[0] == 3
        assert deepest[0] == 1


class TestDualPathCap:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_betainc_matches_specfun(self, d):
        from scipy.special import betainc

        # uniform draws, |s| from 1e-16 to 0.1 on either side of 0 (where
        # 1 - s^2 rounds) and distances from 1e-16 to 0.1 to s = +-1
        rng = np.random.default_rng(d)
        small = 10.0 ** rng.uniform(-16.0, -1.0, 200)
        s = np.concatenate([rng.uniform(-1.0, 1.0, 400), small, -small, 1.0 - small, small - 1.0])
        s = s[(s > -1.0) & (s < 1.0)]
        want = np.exp(log_cap_fraction(d, s))
        got = np.array([oracle._cap_fraction(d, float(v), betainc) for v in s])
        assert np.max(np.abs(got - want) / want) <= 1e-13

    def test_extremes(self):
        from scipy.special import betainc

        assert oracle._cap_fraction(3, -1.0, betainc) == 1.0
        assert oracle._cap_fraction(3, 1.0, betainc) == 0.0
        assert oracle._cap_fraction(3, 0.0, betainc) == 0.5
        assert oracle._cap_fraction(1, 0.3, betainc) == 0.5


def _ratio_logs_every_denominator(density, v_radius, centers, rs):
    """The ratios with a denominator for every ball, skipped or not."""
    n = len(rs)
    both = _offcenter_logs(
        density,
        np.concatenate([centers, centers]),
        np.concatenate([rs, rs]),
        np.concatenate([np.full(n, v_radius), np.full(n, math.inf)]),
        oracle._ORACLE_REL_TOL,
    )
    nums, dens = both[:n], both[n:]
    with np.errstate(invalid="ignore"):
        return np.where(dens > -math.inf, nums - dens, -math.inf)


_FAMILIES = {
    "lebesgue": RadialDensity.lebesgue,
    "restricted-lebesgue": RadialDensity.restricted_lebesgue,
    "power": lambda d: RadialDensity.power(d, 0.5),
    "log-singularity": RadialDensity.log_singularity,
}


class TestSkippedDenominators:
    @settings(max_examples=25, deadline=None)
    @given(
        family=st.sampled_from(sorted(_FAMILIES)),
        d=st.integers(2, 4),
        v_radius=st.floats(0.05, 1.0),
        # a center within about 1e-10 of the origin fails at d = 2 for both
        # versions; test_planar_ball_about_a_near_origin_center pins that
        center=st.one_of(st.just(0.0), st.floats(1e-6, 3.0)),
        rs=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=12),
    )
    def test_matches_every_denominator(self, family, d, v_radius, center, rs):
        dens = _FAMILIES[family](d)
        centers = np.full(len(rs), center)
        rs = np.array(rs)
        got, _ = oracle._ratio_logs(dens, v_radius, centers, rs)
        want = _ratio_logs_every_denominator(dens, v_radius, centers, rs)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_far_point_is_not_a_zero_measure_ball(self):
        # no grid ball about a point this far meets B(0, vR), so no
        # denominator is computed, yet the balls have positive measure
        val = maximal_at_point(RadialDensity.lebesgue(2), 0.5, 1.0, 100.0, refine=0)
        assert val == -math.inf


class TestLevelSet:
    # run_oracle's level-set check, which needs no particular p: p = 1
    def test_boundary_radius_margin_nonnegative(self):
        report = run_oracle(RadialDensity.lebesgue(2), 1.0, 0.5, 1.0, seed=0, samples=1)
        assert report.level_set_ok
        assert report.worst_margin >= -1e-6

    def test_planar_lebesgue_seeded(self):
        report = run_oracle(RadialDensity.lebesgue(2), 1.0, 0.5, 1.0, seed=42, samples=60)
        assert report.level_set_ok

    def test_restricted_three_dim_seeded(self):
        report = run_oracle(
            RadialDensity.restricted_lebesgue(3), 1.0, 0.5, 1.0, seed=7, samples=60
        )
        assert report.level_set_ok

    def test_seeded_determinism(self):
        a = run_oracle(RadialDensity.power(2, 0.5), 1.0, 0.5, 1.0, seed=11, samples=20)
        b = run_oracle(RadialDensity.power(2, 0.5), 1.0, 0.5, 1.0, seed=11, samples=20)
        assert (a.level_set_ok, a.worst_margin) == (b.level_set_ok, b.worst_margin)

    def test_dimension_guard(self):
        report = run_oracle(RadialDensity.lebesgue(7), 1.0, 0.5, 1.0, seed=0, samples=10)
        assert report.level_set_ok is None
        assert report.worst_margin is None


class TestEmpiricalWeakRatio:
    def test_matches_lemma_planar(self):
        dens = RadialDensity.lebesgue(2)
        ratio = empirical_weak_ratio(dens, 1.0, 0.5, 1.0)
        cert = lemma_certificate(dens, 1.0, 0.5, 1.0)
        assert ratio == pytest.approx(cert.log_lower_bound, abs=1e-6)

    def test_matches_lemma_power(self):
        dens = RadialDensity.power(3, 0.5)
        ratio = empirical_weak_ratio(dens, 1.2, 0.5, 1.0)
        cert = lemma_certificate(dens, 1.2, 0.5, 1.0)
        assert ratio == pytest.approx(cert.log_lower_bound, abs=1e-6)

    def test_formula_collapse_at_p1_v1(self):
        # ratio = mu(B(0,R)) / (2 mu(B(R e1, R sqrt2))) = alpha when v = 1
        dens = RadialDensity.restricted_lebesgue(2)
        ratio = empirical_weak_ratio(dens, 1.0, 1.0, 1.0)
        assert ratio == pytest.approx(
            lemma_certificate(dens, 1.0, 1.0, 1.0).alpha_log, abs=1e-6
        )

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            empirical_weak_ratio(RadialDensity.lebesgue(7), 1.0, 0.5, 1.0)


class TestHalfspace:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_outward_half_never_heavier(self, d):
        # mass of B(R e1, H) with x1 >= R cannot exceed the inward half
        for fam in (
            RadialDensity.restricted_lebesgue(d),
            RadialDensity.power(d, 0.5),
            RadialDensity.log_singularity(d),
        ):
            hi, lo = halfspace_masses(fam, 1.0, math.sqrt(5.0) / 2.0, n=60000, seed=3)
            assert hi <= lo * 1.03 + 1e-12

    def test_lebesgue_split_is_even(self):
        hi, lo = halfspace_masses(RadialDensity.lebesgue(3), 1.0, 1.0, n=60000, seed=5)
        assert hi == pytest.approx(lo, rel=0.05)


class TestRunOracle:
    def test_report_sound_and_deterministic(self):
        dens = RadialDensity.lebesgue(2)
        rep1 = run_oracle(dens, 1.0, 0.5, 1.0, seed=42, samples=20, grid=64)
        rep2 = run_oracle(dens, 1.0, 0.5, 1.0, seed=42, samples=20, grid=64)
        assert rep1.sound()
        assert rep1 == rep2
        assert rep1.dual_path_gap is not None and abs(rep1.dual_path_gap) <= 1e-6

    def test_partial_report_above_sampling_limit(self):
        dens = RadialDensity.lebesgue(8)
        rep = run_oracle(dens, 1.0, 0.5, 1.0, seed=1, samples=5, grid=64)
        assert rep.level_set_ok is None
        assert rep.empirical_weak_ratio_log is None
        assert rep.sound()

    def test_record_serializes(self):
        import json

        dens = RadialDensity.power(2, 0.5)
        rep = run_oracle(dens, 1.2, 0.5, 1.0, seed=9, samples=5, grid=64)
        text = json.dumps(rep.to_record())
        assert "alpha_log" in text
