import math

import numpy as np
import pytest

import hlmax.oracle as oracle
import hlmax.radial as radial
from hlmax.certificate import lemma_certificate
from hlmax.cli import main
from hlmax.errors import DomainError
from hlmax.oracle import (
    certificate_alpha_log,
    empirical_weak_ratio,
    halfspace_masses,
    maximal_at_point,
    maximal_sweep,
    run_oracle,
    verify_level_set,
)
from hlmax.radial import RadialDensity, _offcenter_logs

from oracles import lens_area


class TestMaximalAtPoint:
    def test_center_with_full_indicator(self):
        # balls at the origin interior to the support: ratio 1 at r <= vR
        val = maximal_at_point(RadialDensity.lebesgue(2), 1.0, 1.0, 0.0, grid=64, refine=0)
        assert val.log_magnitude == pytest.approx(0.0, abs=1e-12)

    def test_planar_witness_beats_alpha(self):
        # quarter-disk numerator over twice the full sqrt(5)/2 disk: alpha = 1/10
        dens = RadialDensity.lebesgue(2)
        val = maximal_at_point(dens, 0.5, 1.0, 1.0, grid=128, refine=12)
        alpha = math.log(math.pi / 4.0) - math.log(2.0 * math.pi * 5.0 / 4.0)
        assert alpha == pytest.approx(math.log(0.1), abs=1e-12)
        assert val.log_magnitude >= alpha - 1e-9

    def test_decays_along_ray(self):
        dens = RadialDensity.restricted_lebesgue(2)
        vals = [
            maximal_at_point(dens, 0.5, 1.0, rho, grid=64, refine=8).log_magnitude
            for rho in (1.0, 2.0, 4.0)
        ]
        assert all(a >= b - 1e-6 for a, b in zip(vals, vals[1:]))

    def test_grid_sup_monotone_under_refinement(self):
        dens = RadialDensity.restricted_lebesgue(3)
        coarse = maximal_at_point(dens, 0.5, 1.0, 0.7, grid=65, refine=0)
        fine = maximal_at_point(dens, 0.5, 1.0, 0.7, grid=129, refine=0)
        assert fine.log_magnitude >= coarse.log_magnitude - 1e-9

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
            assert got == pytest.approx(want.log_magnitude, abs=1e-12)

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
        # not bit for bit: a panel's Kronrod sum may differ in its last bit
        # with its place in the batch
        centers = [0.0, 0.4, 1.0, 0.0, 1.0, 2.5]
        radii = [0.5, 0.9, 1.3, 2.0, 0.2, 1.1]
        caps = [math.inf, 0.5, 0.5, 0.8, math.inf, 0.5]
        got = _offcenter_logs(dens, centers, radii, caps, 1e-10)
        for c, r, cap, g in zip(centers, radii, caps, got):
            want = float(_offcenter_logs(dens, c, [r], [cap], 1e-10)[0])
            if want == -math.inf:
                assert g == -math.inf
            else:
                assert g == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_origin_keeps_the_radial_mass(self):
        dens = RadialDensity.lebesgue(3)
        got = _offcenter_logs(dens, [0.0, 0.0], [0.7, 2.0], [math.inf, 1.5])
        want = [math.log(4.0 / 3.0 * math.pi * r**3) for r in (0.7, 1.5)]
        assert got == pytest.approx(want, abs=1e-14)

    def test_negative_center_rejected(self):
        with pytest.raises(DomainError):
            _offcenter_logs(RadialDensity.lebesgue(2), [0.5, -1.0], [1.0, 1.0])


class TestWork:
    @pytest.mark.parametrize("samples, budget", [(2, 30), (20, 50)])
    def test_quadrature_calls_per_request(self, capsys, monkeypatch, samples, budget):
        # one grid call per point and one call per golden-section step for
        # all points: 25 and 43 calls
        calls = [0]
        inner = radial.log_integrate_batch

        def counted(*args, **kwargs):
            calls[0] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(radial, "log_integrate_batch", counted)
        radial._log_radial_mass.cache_clear()
        argv = ["oracle", "--family", "lebesgue", "--d", "3", "--samples", str(samples)]
        assert main(argv) == 0
        capsys.readouterr()
        assert 0 < calls[0] <= budget

    def test_cap_normalizer_once_per_ball(self, monkeypatch):
        norms = [0]
        inner = oracle._sine_power_quad

        def counted(d, theta):
            norms[0] += theta == math.pi
            return inner(d, theta)

        monkeypatch.setattr(oracle, "_sine_power_quad", counted)
        empirical_weak_ratio(RadialDensity.power(3, 0.5), 1.2, 0.5, 1.0)
        assert norms[0] == 1


class TestLevelSet:
    def test_boundary_radius_margin_nonnegative(self):
        ok, worst = verify_level_set(RadialDensity.lebesgue(2), 0.5, 1.0, 1, seed=0)
        assert ok
        assert worst >= -1e-6

    def test_planar_lebesgue_seeded(self):
        ok, worst = verify_level_set(
            RadialDensity.lebesgue(2), 0.5, 1.0, 60, seed=42
        )
        assert ok

    def test_restricted_three_dim_seeded(self):
        ok, worst = verify_level_set(
            RadialDensity.restricted_lebesgue(3), 0.5, 1.0, 60, seed=7
        )
        assert ok

    def test_seeded_determinism(self):
        a = verify_level_set(RadialDensity.power(2, 0.5), 0.5, 1.0, 20, seed=11)
        b = verify_level_set(RadialDensity.power(2, 0.5), 0.5, 1.0, 20, seed=11)
        assert a == b

    def test_dimension_guard(self):
        with pytest.raises(DomainError):
            verify_level_set(RadialDensity.lebesgue(7), 0.5, 1.0, 10, seed=0)


class TestEmpiricalWeakRatio:
    def test_matches_lemma_planar(self):
        dens = RadialDensity.lebesgue(2)
        ratio = empirical_weak_ratio(dens, 1.0, 0.5, 1.0)
        cert = lemma_certificate(dens, 1.0, 0.5, 1.0)
        assert ratio.log_magnitude == pytest.approx(cert.log_lower_bound, abs=1e-6)

    def test_matches_lemma_power(self):
        dens = RadialDensity.power(3, 0.5)
        ratio = empirical_weak_ratio(dens, 1.2, 0.5, 1.0)
        cert = lemma_certificate(dens, 1.2, 0.5, 1.0)
        assert ratio.log_magnitude == pytest.approx(cert.log_lower_bound, abs=1e-6)

    def test_formula_collapse_at_p1_v1(self):
        # ratio = mu(B(0,R)) / (2 mu(B(R e1, R sqrt2))) = alpha when v = 1
        dens = RadialDensity.restricted_lebesgue(2)
        ratio = empirical_weak_ratio(dens, 1.0, 1.0, 1.0)
        assert ratio.log_magnitude == pytest.approx(
            certificate_alpha_log(dens, 1.0, 1.0), abs=1e-6
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
        assert rep.empirical_weak_ratio is None
        assert rep.sound()

    def test_record_serializes(self):
        import json

        dens = RadialDensity.power(2, 0.5)
        rep = run_oracle(dens, 1.2, 0.5, 1.0, seed=9, samples=5, grid=64)
        text = json.dumps(rep.to_record())
        assert "alpha_log" in text
