import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlmax.errors import DomainError, QuadraturePrecisionError
from hlmax.radial import (
    RadialDensity,
    _log_radial_mass,
    _offcenter_logs,
    density_from_kv,
    growth_h,
    intersect_origin_ball,
    log_ball_at_origin,
    log_ball_offcenter,
)

from oracles import lens_area, offcenter_mass_quadpack, refined_trapezoid, sphere_area_linear

T0_RATE = (6 * math.log(2) - math.log(55)) / (3 * math.log(3) - 3 * math.log(2))


class TestValidation:
    def test_families_construct(self):
        RadialDensity.lebesgue(3)
        RadialDensity.restricted_lebesgue(10)
        RadialDensity.power(5, 0.5)
        RadialDensity.truncated_power(5, 0.99)
        RadialDensity.log_singularity(2)
        RadialDensity.piecewise(3, [(0.5, 2.0), (1.0, 1.0)])

    def test_power_exponent_range(self):
        with pytest.raises(DomainError):
            RadialDensity.power(5, 1.0)
        with pytest.raises(DomainError):
            RadialDensity.power(5, 0.0)

    def test_piecewise_increasing_rejected(self):
        with pytest.raises(DomainError):
            RadialDensity.piecewise(3, [(0.5, 1.0), (1.0, 2.0)])

    def test_piecewise_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            RadialDensity.piecewise(3, [(1.0, 1.0, -0.5)])

    def test_piecewise_nonintegrable_rejected(self):
        with pytest.raises(DomainError):
            RadialDensity.piecewise(3, [(1.0, 1.0, 3.0)])

    def test_piecewise_all_zero_rejected(self):
        with pytest.raises(DomainError):
            RadialDensity.piecewise(3, [(1.0, 0.0)])

    def test_bad_dimension(self):
        with pytest.raises(DomainError):
            RadialDensity.lebesgue(0)

    def test_kv_roundtrip(self):
        for dens in (
            RadialDensity.lebesgue(3),
            RadialDensity.truncated_power(100, 0.25),
            RadialDensity.piecewise(4, [(0.5, 2.0), (1.5, 0.5, 1.25)]),
        ):
            assert density_from_kv(dens.to_kv()) == dens


class TestOriginBalls:
    def test_unit_disk(self):
        leb = RadialDensity.lebesgue(2)
        assert log_ball_at_origin(leb, 1.0).log_magnitude == pytest.approx(
            math.log(math.pi), rel=1e-14
        )

    def test_power_closed_form(self):
        # mu(B(0,R)) = sigma^{d-1} R^{(1-t)d} / ((1-t)d)
        d, t, R = 30, 0.4, 2.5
        dens = RadialDensity.power(d, t)
        a = (1 - t) * d
        expected = (
            math.log(sphere_area_linear(d)) + a * math.log(R) - math.log(a)
        )
        assert log_ball_at_origin(dens, R).log_magnitude == pytest.approx(
            expected, abs=1e-12
        )

    def test_restricted_saturates(self):
        dens = RadialDensity.restricted_lebesgue(4)
        full = log_ball_at_origin(dens, 1.0).log_magnitude
        assert log_ball_at_origin(dens, 7.0).log_magnitude == full

    def test_log_singularity_against_trapezoid(self):
        # refined-trapezoid oracle at 2000 subdivisions, 1e-8 relative
        dens = RadialDensity.log_singularity(3)
        got = math.exp(_log_radial_mass(dens, 0.5, 1e-10))
        oracle = refined_trapezoid(
            lambda r: -math.log(r) * r * r if r > 0 else 0.0, 0.0, 0.5, n=2000
        )
        assert got == pytest.approx(oracle, rel=1e-8)

    def test_piecewise_against_trapezoid(self):
        # oracle integrates each constant piece separately (jump at 0.5)
        dens = RadialDensity.piecewise(3, [(0.5, 2.0), (1.0, 1.0)])
        got = math.exp(_log_radial_mass(dens, 0.8, 1e-10))
        oracle = refined_trapezoid(lambda r: 2.0 * r * r, 0.0, 0.5, n=2000)
        oracle += refined_trapezoid(lambda r: r * r, 0.5, 0.8, n=2000)
        assert got == pytest.approx(oracle, rel=1e-8)

    def test_radius_must_be_positive(self):
        with pytest.raises(DomainError):
            log_ball_at_origin(RadialDensity.lebesgue(2), 0.0)

    def test_precision_budget_raises(self):
        # a tolerance below the floating-point noise floor must exhaust the
        # panel budget and raise, never return a silent estimate
        dens = RadialDensity.log_singularity(3)
        with pytest.raises(QuadraturePrecisionError):
            _offcenter_logs(dens, 1.0, [0.7], None, 1e-300)


class TestGrowth:
    def test_lebesgue_scaling(self):
        leb = RadialDensity.lebesgue(7)
        for R in (0.01, 1.0, 42.0):
            assert growth_h(leb, 0.5, R).log_magnitude == pytest.approx(
                7 * math.log(2.0), abs=1e-12
            )

    def test_truncated_power_exact_rate(self):
        # h_u(R) = u^{-(1-t)d} for R <= 1, to full precision
        d, t, u = 100, 0.3, 0.37
        dens = RadialDensity.truncated_power(d, t)
        for R in (0.05, 0.4, 1.0):
            assert growth_h(dens, u, R).log_magnitude == pytest.approx(
                -(1 - t) * d * math.log(u), abs=1e-10
            )

    def test_finite_measure_saturates(self):
        dens = RadialDensity.restricted_lebesgue(5)
        assert growth_h(dens, 0.5, 4.0).log_magnitude == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        u=st.floats(min_value=0.05, max_value=0.95),
        log_r=st.floats(min_value=-3.0, max_value=3.0),
        d=st.sampled_from([1, 2, 5, 17]),
        fam=st.sampled_from(["lebesgue", "restricted", "power", "trunc", "logsing", "piece"]),
    )
    def test_growth_envelope(self, u, log_r, d, fam):
        dens = {
            "lebesgue": lambda: RadialDensity.lebesgue(d),
            "restricted": lambda: RadialDensity.restricted_lebesgue(d),
            "power": lambda: RadialDensity.power(d, 0.5),
            "trunc": lambda: RadialDensity.truncated_power(d, 0.5),
            "logsing": lambda: RadialDensity.log_singularity(d),
            "piece": lambda: RadialDensity.piecewise(d, [(0.5, 3.0), (2.0, 1.0)]),
        }[fam]()
        h = growth_h(dens, u, 10.0 ** log_r).log_magnitude
        assert -1e-9 <= h <= -d * math.log(u) + 1e-9


class TestOffCenter:
    def test_reduces_to_origin_ball(self):
        leb = RadialDensity.lebesgue(3)
        got = log_ball_offcenter(leb, 0.0, 1.0).log_magnitude
        assert got == pytest.approx(math.log(4 * math.pi / 3), abs=1e-12)

    def test_planar_lens(self):
        # restricted Lebesgue in the plane: measure of B(e1, sqrt5/2) is a lens
        dens = RadialDensity.restricted_lebesgue(2)
        H = math.sqrt(5.0) / 2.0
        got = log_ball_offcenter(dens, 1.0, H).log_magnitude
        assert got == pytest.approx(math.log(lens_area(1.0, H, 1.0)), abs=1e-9)

    def test_halfspace_cap_domination(self):
        # mu(B(e1, sqrt5/2)) <= 2 lambda(B^d ∩ {x1 >= 3/8}) for unit-ball measure
        from oracles import halfspace_ball_slab_volume

        for d in (2, 3, 5, 8):
            dens = RadialDensity.restricted_lebesgue(d)
            lhs = log_ball_offcenter(dens, 1.0, math.sqrt(5.0) / 2.0).log_magnitude
            rhs = math.log(2.0 * halfspace_ball_slab_volume(d, 3.0 / 8.0))
            assert lhs <= rhs + 1e-10

    def test_intersect_inactive_constraint(self):
        leb = RadialDensity.lebesgue(2)
        H = math.sqrt(5.0) / 2.0
        full = log_ball_offcenter(leb, 1.0, H).log_magnitude
        clipped = intersect_origin_ball(leb, 10.0, 1.0, H).log_magnitude
        assert clipped == pytest.approx(full, abs=1e-10)

    def test_intersect_vanishes(self):
        leb = RadialDensity.lebesgue(2)
        tiny = intersect_origin_ball(leb, 1e-8, 1.0, 0.5).log_magnitude
        assert tiny < -30.0

    def test_intersect_planar_lens_with_cut(self):
        leb = RadialDensity.lebesgue(2)
        H = math.sqrt(5.0) / 2.0
        got = intersect_origin_ball(leb, 0.5, 1.0, H).log_magnitude
        assert got == pytest.approx(math.log(lens_area(0.5, H, 1.0)), abs=1e-9)

    def test_additivity_inner_plus_complement(self):
        # off-center measure = inner-clipped part + complement shell
        for dens, r0, r in [
            (RadialDensity.lebesgue(2), 1.0, 1.2),
            (RadialDensity.restricted_lebesgue(3), 0.9, 1.1),
            (RadialDensity.power(3, 0.5), 1.0, 1.5),
        ]:
            rho_max = 0.8
            whole = math.exp(log_ball_offcenter(dens, r0, r).log_magnitude)
            inner = math.exp(intersect_origin_ball(dens, rho_max, r0, r).log_magnitude)
            shell = offcenter_mass_quadpack(dens, r0, r, rho_lo=rho_max)
            assert whole == pytest.approx(inner + shell, rel=1e-8)

    def test_against_quadpack_oracle(self):
        for dens, r0, r in [
            (RadialDensity.log_singularity(3), 0.7, 0.9),
            (RadialDensity.piecewise(2, [(0.5, 2.0), (1.5, 0.5)]), 1.0, 0.8),
            (RadialDensity.truncated_power(4, 0.5), 0.6, 1.1),
        ]:
            got = math.exp(log_ball_offcenter(dens, r0, r).log_magnitude)
            assert got == pytest.approx(offcenter_mass_quadpack(dens, r0, r), rel=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(
        r0=st.floats(min_value=0.1, max_value=2.0),
        r=st.floats(min_value=0.2, max_value=2.0),
        bump=st.floats(min_value=0.01, max_value=0.5),
        d=st.sampled_from([1, 2, 3]),
    )
    def test_monotone_in_radius_and_center(self, r0, r, bump, d):
        dens = RadialDensity.restricted_lebesgue(d)
        base = log_ball_offcenter(dens, r0, r).log_magnitude
        grown = log_ball_offcenter(dens, r0, r + bump).log_magnitude
        assert grown >= base - 1e-7
        shifted = log_ball_offcenter(dens, r0 + bump, r).log_magnitude
        assert shifted <= base + 1e-7

    def test_d1_interval(self):
        leb = RadialDensity.lebesgue(1)
        got = log_ball_offcenter(leb, 1.0, math.sqrt(2.0)).log_magnitude
        assert got == pytest.approx(math.log(2.0 * math.sqrt(2.0)), abs=1e-10)

    def test_nonincreasing_density_monotone_center_power(self):
        dens = RadialDensity.power(3, 0.5)
        vals = [
            log_ball_offcenter(dens, r0, 1.0).log_magnitude for r0 in (0.0, 0.5, 1.0, 2.0)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


class TestHighDimension:
    def test_boundary_peaked_integrand_d400(self):
        # restricted Lebesgue at the main construction radius, d = 400
        dens = RadialDensity.restricted_lebesgue(400)
        r1 = 1.1943
        got = log_ball_offcenter(dens, r1, r1 * math.sqrt(5) / 2).log_magnitude
        # must be well below the full ball mass but far above underflow
        full = log_ball_at_origin(dens, 1.0).log_magnitude
        assert -math.inf < got < full
        assert got > full - 400.0

    def test_power_scale_invariance(self):
        dens = RadialDensity.power(50, 0.6)
        a = (1 - 0.6) * 50
        v1 = log_ball_offcenter(dens, 1.0, 0.8).log_magnitude
        v2 = log_ball_offcenter(dens, 10.0, 8.0).log_magnitude
        assert v2 - v1 == pytest.approx(a * math.log(10.0), abs=1e-7)


class TestNodeSlices:
    def test_large_round_is_sliced_without_changing_values(self, monkeypatch):
        # 300 balls x 8 panels x 15 nodes: a first round of 36000 nodes
        import hlmax.quadrature as quadrature
        import hlmax.radial as radial

        dens = RadialDensity.power(3, 0.5)
        radii = np.linspace(0.2, 2.0, 300)
        sizes = []
        inner = radial.log_cap_fraction

        def recorded(d, s):
            sizes.append(np.size(s))
            return inner(d, s)

        monkeypatch.setattr(radial, "log_cap_fraction", recorded)
        sliced = radial._offcenter_logs(dens, 1.0, radii)
        assert max(sizes) <= quadrature._MAX_NODES < 36000
        monkeypatch.setattr(quadrature, "_MAX_NODES", 1 << 30)
        whole = radial._offcenter_logs(dens, 1.0, radii)
        assert np.array_equal(sliced, whole)
