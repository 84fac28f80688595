import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hlmax.radial as radial
from hlmax.certificate import besicovitch_upper, lemma_certificate
from hlmax.cli import main
from hlmax.errors import DomainError, QuadraturePrecisionError
from hlmax.oracle import empirical_weak_ratio, maximal_sweep
from hlmax.radial import (
    RadialDensity,
    _log_radial_mass,
    _offcenter_logs,
    growth_h,
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

    def test_kv_roundtrip(self, tmp_path, capsys):
        # --config reads to_kv's format: certify reproduces the density's own
        # certificate, and the oracle (d <= 10) echoes the density it built
        cfg = tmp_path / "density.cfg"
        for dens in (
            RadialDensity.lebesgue(3),
            RadialDensity.truncated_power(100, 0.25),
            RadialDensity.piecewise(4, [(0.5, 2.0), (1.5, 0.5, 1.25)]),
        ):
            cfg.write_text(dens.to_kv())
            assert main(["certify", "--config", str(cfg), "--p", "1"]) == 0
            want = lemma_certificate(dens, 1.0, 0.5, 1.0).to_record()
            assert json.loads(capsys.readouterr().out) == want
            if dens.dim <= 10:
                argv = ["oracle", "--config", str(cfg), "--samples", "1", "--grid", "64"]
                assert main(argv) == 0
                rec = json.loads(capsys.readouterr().out)
                assert rec["density"].split("; ") == dens.to_kv().splitlines()


class TestOriginBalls:
    def test_unit_disk(self):
        leb = RadialDensity.lebesgue(2)
        assert log_ball_at_origin(leb, 1.0) == pytest.approx(
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
        assert log_ball_at_origin(dens, R) == pytest.approx(
            expected, abs=1e-12
        )

    def test_restricted_saturates(self):
        dens = RadialDensity.restricted_lebesgue(4)
        full = log_ball_at_origin(dens, 1.0)
        assert log_ball_at_origin(dens, 7.0) == full

    def test_log_singularity_against_trapezoid(self):
        # refined-trapezoid oracle at 2000 subdivisions, 1e-8 relative
        dens = RadialDensity.log_singularity(3)
        got = math.exp(_log_radial_mass(dens, [0.5], 1e-10)[0])
        oracle = refined_trapezoid(
            lambda r: -math.log(r) * r * r if r > 0 else 0.0, 0.0, 0.5, n=2000
        )
        assert got == pytest.approx(oracle, rel=1e-8)

    def test_piecewise_against_trapezoid(self):
        # oracle integrates each constant piece separately (jump at 0.5)
        dens = RadialDensity.piecewise(3, [(0.5, 2.0), (1.0, 1.0)])
        got = math.exp(_log_radial_mass(dens, [0.8], 1e-10)[0])
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
            assert growth_h(leb, 0.5, [R])[0] == pytest.approx(
                7 * math.log(2.0), abs=1e-12
            )

    def test_truncated_power_exact_rate(self):
        # h_u(R) = u^{-(1-t)d} for R <= 1, to full precision
        d, t, u = 100, 0.3, 0.37
        dens = RadialDensity.truncated_power(d, t)
        for R in (0.05, 0.4, 1.0):
            assert growth_h(dens, u, [R])[0] == pytest.approx(
                -(1 - t) * d * math.log(u), abs=1e-10
            )

    def test_finite_measure_saturates(self):
        dens = RadialDensity.restricted_lebesgue(5)
        assert growth_h(dens, 0.5, [4.0])[0] == pytest.approx(0.0, abs=1e-12)

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
        h = growth_h(dens, u, [10.0 ** log_r])[0]
        assert -1e-9 <= h <= -d * math.log(u) + 1e-9


def _mp_log_lens_4d(c, r):
    """log mu(B(c e1, r)) for restricted Lebesgue at d = 4, with 40-digit
    mpmath: the radial integral of rho^3 times the cap fraction
    (phi - sin phi)/(2 pi), phi = 2 arccos s, times |S^3| = 2 pi^2."""
    import mpmath

    with mpmath.workdps(40):
        c, r = mpmath.mpf(c), mpmath.mpf(r)

        def frac(rho):
            s = (rho * rho + c * c - r * r) / (2 * rho * c)
            if s >= 1:
                return mpmath.mpf(0)
            if s <= -1:
                return mpmath.mpf(1)
            phi = 2 * mpmath.acos(s)
            return (phi - mpmath.sin(phi)) / (2 * mpmath.pi)

        edges = [max(c - r, 0), min(c + r, 1)]
        if edges[0] < r - c < edges[1]:  # whole spheres inside below r - c
            edges.insert(1, r - c)
        mass = mpmath.quad(lambda rho: rho**3 * frac(rho), edges)
        return float(mpmath.log(2 * mpmath.pi**2 * mass))


class TestOffCenter:
    def test_reduces_to_origin_ball(self):
        leb = RadialDensity.lebesgue(3)
        got = log_ball_offcenter(leb, 0.0, 1.0)
        assert got == pytest.approx(math.log(4 * math.pi / 3), abs=1e-12)

    def test_planar_lens(self):
        # restricted Lebesgue in the plane: measure of B(e1, sqrt5/2) is a lens
        dens = RadialDensity.restricted_lebesgue(2)
        H = math.sqrt(5.0) / 2.0
        got = log_ball_offcenter(dens, 1.0, H)
        assert got == pytest.approx(math.log(lens_area(1.0, H, 1.0)), abs=1e-9)

    def test_planar_ball_node_budget(self, monkeypatch):
        # in theta the first 8 panels converge: 120 nodes (450 in rho)
        import hlmax.radial as radial

        nodes = [0]
        inner = radial.log_cap_fraction

        def counted(d, s):
            nodes[0] += np.size(s)
            return inner(d, s)

        monkeypatch.setattr(radial, "log_cap_fraction", counted)
        log_ball_offcenter(RadialDensity.restricted_lebesgue(2), 1.0, math.sqrt(1.25))
        assert 0 < nodes[0] <= 150

    def test_four_dimensional_ball_node_budget(self, monkeypatch):
        # the README's example ball at d = 4: in theta the first 8 panels
        # converge, 120 nodes in one round (210 nodes in 4 rounds in rho)
        nodes = [0]
        inner = radial.log_cap_fraction

        def counted(d, s):
            nodes[0] += np.size(s)
            return inner(d, s)

        monkeypatch.setattr(radial, "log_cap_fraction", counted)
        log_ball_offcenter(RadialDensity.restricted_lebesgue(4), 1.0, math.sqrt(1.25))
        assert nodes[0] == 120

    @pytest.mark.parametrize(
        "c, r", [(0.5, 0.2), (0.5, 0.9), (1.0, 0.5), (1.0, 1.5), (2.0, 0.5), (3.0, 1.0)]
    )
    def test_four_dimensional_ball_is_exact(self, c, r):
        # Lebesgue: pi^2 r^4 / 2 wherever the center is
        got = log_ball_offcenter(RadialDensity.lebesgue(4), c, r)
        assert got == pytest.approx(math.log(math.pi**2 * r**4 / 2.0), rel=1e-14, abs=0.0)

    # (0.6, 0.4) touches the unit sphere from inside
    @pytest.mark.parametrize("c, r", [(0.5, 0.3), (0.9, 0.2), (0.2, 0.5), (1.2, 0.3), (0.6, 0.4)])
    def test_four_dimensional_lens_matches_mpmath(self, c, r):
        got = log_ball_offcenter(RadialDensity.restricted_lebesgue(4), c, r)
        assert got == pytest.approx(_mp_log_lens_4d(c, r), rel=1e-14, abs=0.0)

    def test_halfspace_cap_domination(self):
        # mu(B(e1, sqrt5/2)) <= 2 lambda(B^d ∩ {x1 >= 3/8}) for unit-ball measure
        from oracles import halfspace_ball_slab_volume

        for d in (2, 3, 5, 8):
            dens = RadialDensity.restricted_lebesgue(d)
            lhs = log_ball_offcenter(dens, 1.0, math.sqrt(5.0) / 2.0)
            rhs = math.log(2.0 * halfspace_ball_slab_volume(d, 3.0 / 8.0))
            assert lhs <= rhs + 1e-10

    def test_intersect_inactive_constraint(self):
        leb = RadialDensity.lebesgue(2)
        H = math.sqrt(5.0) / 2.0
        full = log_ball_offcenter(leb, 1.0, H)
        clipped = _offcenter_logs(leb, 1.0, [H], [10.0])[0]
        assert clipped == pytest.approx(full, abs=1e-10)

    def test_intersect_vanishes(self):
        leb = RadialDensity.lebesgue(2)
        tiny = _offcenter_logs(leb, 1.0, [0.5], [1e-8])[0]
        assert tiny < -30.0

    def test_intersect_planar_lens_with_cut(self):
        leb = RadialDensity.lebesgue(2)
        H = math.sqrt(5.0) / 2.0
        got = _offcenter_logs(leb, 1.0, [H], [0.5])[0]
        assert got == pytest.approx(math.log(lens_area(0.5, H, 1.0)), abs=1e-9)

    def test_additivity_inner_plus_complement(self):
        # off-center measure = inner-clipped part + complement shell
        for dens, r0, r in [
            (RadialDensity.lebesgue(2), 1.0, 1.2),
            (RadialDensity.restricted_lebesgue(3), 0.9, 1.1),
            (RadialDensity.power(3, 0.5), 1.0, 1.5),
        ]:
            rho_max = 0.8
            whole = math.exp(log_ball_offcenter(dens, r0, r))
            inner = math.exp(_offcenter_logs(dens, r0, [r], [rho_max])[0])
            shell = offcenter_mass_quadpack(dens, r0, r, rho_lo=rho_max)
            assert whole == pytest.approx(inner + shell, rel=1e-8)

    def test_against_quadpack_oracle(self):
        for dens, r0, r in [
            (RadialDensity.log_singularity(3), 0.7, 0.9),
            (RadialDensity.piecewise(2, [(0.5, 2.0), (1.5, 0.5)]), 1.0, 0.8),
            (RadialDensity.truncated_power(4, 0.5), 0.6, 1.1),
        ]:
            got = math.exp(log_ball_offcenter(dens, r0, r))
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
        base = log_ball_offcenter(dens, r0, r)
        grown = log_ball_offcenter(dens, r0, r + bump)
        assert grown >= base - 1e-7
        shifted = log_ball_offcenter(dens, r0 + bump, r)
        assert shifted <= base + 1e-7

    def test_d1_interval(self):
        leb = RadialDensity.lebesgue(1)
        got = log_ball_offcenter(leb, 1.0, math.sqrt(2.0))
        assert got == pytest.approx(math.log(2.0 * math.sqrt(2.0)), abs=1e-10)

    def test_nonincreasing_density_monotone_center_power(self):
        dens = RadialDensity.power(3, 0.5)
        vals = [
            log_ball_offcenter(dens, r0, 1.0) for r0 in (0.0, 0.5, 1.0, 2.0)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


class TestKnownLensDefects:
    """Known defects of ``_offcenter_logs`` on thin balls and thin lenses
    (ROADMAP item 3): 1 - s is formed by subtracting rounded numbers."""

    @pytest.mark.xfail(raises=AssertionError, strict=True)
    def test_thin_ball_far_from_the_origin(self):
        # silently 4.4e-12 off, relative in the log (3.7e-15 or better
        # wherever r / c >= 0.1)
        r = 0.01
        got = _offcenter_logs(RadialDensity.lebesgue(4), 5.0, [r])[0]
        assert got == pytest.approx(math.log(math.pi ** 2 * r ** 4 / 2.0), rel=1e-14, abs=0.0)

    @pytest.mark.xfail(raises=QuadraturePrecisionError, strict=True)
    @pytest.mark.parametrize("gap", [1e-6, 1e-12])
    def test_thin_lens_converges(self, gap):
        # B(0.85 e1, r) reaches gap * 0.8 past the cap sphere |x| = 0.8
        r = 0.05 + gap * 0.8
        got = _offcenter_logs(RadialDensity.restricted_lebesgue(4), 0.85, [r], [0.8])[0]
        assert -math.inf < got < math.log(math.pi ** 2 * r ** 4 / 2.0)


class TestHighDimension:
    def test_boundary_peaked_integrand_d400(self):
        # restricted Lebesgue at the main construction radius, d = 400
        dens = RadialDensity.restricted_lebesgue(400)
        r1 = 1.1943
        got = log_ball_offcenter(dens, r1, r1 * math.sqrt(5) / 2)
        # must be well below the full ball mass but far above underflow
        full = log_ball_at_origin(dens, 1.0)
        assert -math.inf < got < full
        assert got > full - 400.0

    def test_power_scale_invariance(self):
        dens = RadialDensity.power(50, 0.6)
        a = (1 - 0.6) * 50
        v1 = log_ball_offcenter(dens, 1.0, 0.8)
        v2 = log_ball_offcenter(dens, 10.0, 8.0)
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

    def test_large_call_matches_jobs_one_at_a_time(self):
        # 1200 jobs of one panel: 18000 nodes in the first round. The nodes
        # are built per slice, and every job keeps the bits of a call of
        # its own; a third of the jobs vanish on half their range
        from hlmax.quadrature import _MAX_NODES, log_integrate_batch

        n = 1200
        scale = np.geomspace(0.1, 400.0, n)
        sizes = []

        def logf(x, t):  # a row of nodes for each panel, one tag a panel
            sizes.append(x.size)
            val = -scale[t, None] * x * x
            return np.where((t[:, None] % 3 == 0) & (x < 0.0), -np.inf, val)

        jobs = np.arange(n)
        whole = log_integrate_batch(logf, np.full(n, -1.0), np.full(n, 1.0), jobs, jobs, n)
        assert n * 15 > _MAX_NODES >= max(sizes)
        alone = np.array([
            log_integrate_batch(logf, [-1.0], [1.0], [k], [0], 1)[0] for k in jobs
        ])
        assert np.array_equal(whole.view(np.uint64), alone.view(np.uint64))


class TestPanelSetup:
    @pytest.mark.parametrize("d", [3, 12])
    def test_matches_per_panel_loop(self, monkeypatch, d):
        # the array set-up must give the panels, in the order and with the
        # bits, of a loop over balls, segments and panels
        import hlmax.radial as radial

        dens = RadialDensity.piecewise(d, [(0.5, 2.0), (1.0, 1.0), (1.8, 0.5)])
        centers = [0.0, 0.3, 1.0, 0.7, 2.5, 1.2, 4.0]
        radii = [0.5, 0.9, 1.3, 0.2, 1.1, 2.0, 0.5]
        caps = [math.inf, 0.8, math.inf, 1.5, 0.6, math.inf, math.inf]
        seen = {}

        def capture(logf, a, b, tags, jobs, n, rel_tol):
            seen.update(panels=np.column_stack([a, b]), jobs=np.asarray(jobs))
            return np.zeros(n)

        monkeypatch.setattr(radial, "log_integrate_batch", capture)
        _offcenter_logs(dens, centers, radii, caps)

        n_init = max(8, min(48, int(2.0 * math.sqrt(d))))
        panels, jobs = [], []
        for i, (r0, r, cap) in enumerate(zip(centers, radii, caps)):
            lo = max(r0 - r, 0.0)
            hi = min(r0 + r, dens.support_radius, cap)
            if hi <= lo:
                continue
            if r - r0 > 0.0:
                lo = max(lo, min(r - r0, hi))
            if hi > lo:
                edges = [lo] + [x for x in dens.breakpoints if lo < x < hi] + [hi]
                for a, b in zip(edges[:-1], edges[1:]):
                    step = (b - a) / n_init
                    for k in range(n_init):
                        panels.append((a + k * step, a + (k + 1) * step))
                        jobs.append(i)
        assert np.array_equal(seen["panels"], np.array(panels))
        assert np.array_equal(seen["jobs"], np.array(jobs))


def _scalar_mass_quad(density, c, rel_tol):
    """Reference: the log-singularity mass to c as one job of a call of its
    own, with the 16 sigma = ln rho panels the one-radius code has always
    built."""
    from hlmax.quadrature import log_integrate_batch

    hi = min(c, density.support_radius)
    d = density.dim

    def logf(x, tags):
        return density.log_f(np.exp(x)) + (d - 1) * x + x

    sig_hi = math.log(hi)
    sig_lo = sig_hi - 80.0 / d
    step = (sig_hi - sig_lo) / 16
    a = [sig_lo + i * step for i in range(16)]
    b = [sig_lo + (i + 1) * step for i in range(16)]
    return float(log_integrate_batch(logf, a, b, [0] * 16, [0] * 16, 1, rel_tol)[0])


_BATCH_FAMILIES = (
    RadialDensity.lebesgue,
    RadialDensity.restricted_lebesgue,
    lambda d: RadialDensity.power(d, 0.4),
    lambda d: RadialDensity.truncated_power(d, 0.7),
    RadialDensity.log_singularity,
    lambda d: RadialDensity.piecewise(d, [(0.5, 2.0, 1.0), (1.0, 1.0), (2.0, 0.0)]),
    lambda d: RadialDensity.piecewise(d, [(0.3, 3.0), (0.7, 1.0), (1.0, 0.5)]),
)


class TestGrowthTail:
    @pytest.mark.parametrize("d", [2, 12, 100, 1000])
    def test_h_u_is_constant_past_scale_over_u(self, d):
        # the decp growth search decides the limsup of h_u at its last grid
        # radius, 10^6 scale; that is exact while h_u is constant from
        # scale/u on: log h_u = 0 past a bounded support, and Lebesgue and
        # power measures are homogeneous
        import hlmax.radial as radial

        u = math.sqrt(2.0 / 3.0)
        covered = set()
        for make in _BATCH_FAMILIES:
            dens = make(d)
            covered.add(dens.family)
            supp = dens.support_radius
            scale = supp if math.isfinite(supp) else 1.0
            # the float above scale/u, as u (scale/u) may round below scale
            start = np.nextafter(scale / u, math.inf)
            radii = np.array([start, 10.0 * scale, 1e6 * scale, 1e12 * scale])
            h = growth_h(dens, u, radii)
            if math.isfinite(supp):
                assert np.all(h == 0.0), (dens, h)
            else:
                assert np.ptp(h) <= 1e-12 * abs(h[0]), (dens, h)
        assert covered == set(radial.FAMILIES)


class TestBatchedMasses:
    @given(
        st.sampled_from(range(len(_BATCH_FAMILIES))),
        st.integers(min_value=2, max_value=60),
        st.lists(st.floats(min_value=-7.0, max_value=7.0), min_size=31, max_size=45),
    )
    @settings(max_examples=25, deadline=None)
    def test_match_one_radius_calls_bit_for_bit(self, fam, d, log_factors):
        # more than 32 distinct radii cross a chunk edge; the support radius
        # itself, a radius past it and repeats are in every draw
        import hlmax.radial as radial

        dens = _BATCH_FAMILIES[fam](d)
        supp = dens.support_radius
        scale = supp if math.isfinite(supp) else 1.0
        radii = [scale * 10.0 ** x for x in log_factors] + [scale, 3.0 * scale, scale]
        masses = _log_radial_mass(dens, radii, 1e-10)
        if dens.family == radial.LOG_SINGULARITY:
            want = [_scalar_mass_quad(dens, c, 1e-10) for c in radii]
        else:
            want = [radial._mass_closed(dens, c) for c in radii]
        assert np.array_equal(masses.view(np.uint64), np.array(want).view(np.uint64))

        u = 0.8
        h = growth_h(dens, u, np.array(radii))
        one = np.array([growth_h(dens, u, [R])[0] for R in radii])
        assert np.array_equal(h.view(np.uint64), one.view(np.uint64))

    def test_distinct_clipped_radii_are_chunked(self, monkeypatch):
        # 40 distinct radii inside the support and 30 past it: 41 jobs,
        # in calls of at most _MAX_MASS_JOBS
        import hlmax.radial as radial

        jobs = []
        inner = radial.log_integrate_batch

        def counted(logf, a, b, tags, job_of, n, rel_tol):
            jobs.append(n)
            return inner(logf, a, b, tags, job_of, n, rel_tol)

        monkeypatch.setattr(radial, "log_integrate_batch", counted)
        dens = RadialDensity.log_singularity(20)
        radii = np.concatenate([np.linspace(0.1, 0.9, 40), np.linspace(1.0, 5.0, 30)])
        radial._mass_quad(dens, radii, 1e-10)
        assert sum(jobs) == 41
        assert len(jobs) == -(-41 // radial._MAX_MASS_JOBS)
        assert max(jobs) == radial._MAX_MASS_JOBS

    def test_growth_h_rejects_a_nonpositive_radius(self):
        with pytest.raises(DomainError):
            growth_h(RadialDensity.log_singularity(5), 0.5, np.array([1.0, 0.0]))


def _parent_log_f(dens, r):
    """The per-family log f formulas the power-law table replaced."""
    r = np.asarray(r, dtype=float)
    if dens.family == "lebesgue":
        return np.zeros_like(r)
    if dens.family == "restricted_lebesgue":
        return np.where(r <= 1.0, 0.0, -math.inf)
    with np.errstate(divide="ignore"):
        if dens.family == "power":
            return -dens.t * dens.dim * np.log(r)
        return np.where(r <= 1.0, -dens.t * dens.dim * np.log(r), -math.inf)


def _parent_mass_closed(dens, c):
    """The per-family closed masses the power-law table replaced."""
    d = dens.dim
    if dens.family == "lebesgue":
        return d * math.log(c) - math.log(d)
    if dens.family == "restricted_lebesgue":
        return d * math.log(min(c, 1.0)) - math.log(d)
    a = (1.0 - dens.t) * d
    if dens.family == "power":
        return a * math.log(c) - math.log(a)
    return a * math.log(min(c, 1.0)) - math.log(a)


def _mp_log_mass(dens, c):
    """log of integral_0^c f(rho) rho^(d-1) d(rho) with 40-digit mpmath, from
    each segment's antiderivative coef (hi^a - lo^a)/a, a = d - exponent."""
    import mpmath

    with mpmath.workdps(40):
        segs = dens.segments or [
            (dens.support_radius, 1.0, mpmath.mpf(dens.t or 0.0) * dens.dim)
        ]
        c, total, lo = mpmath.mpf(c), mpmath.mpf(0), mpmath.mpf(0)
        for end, coef, exponent in segs:
            hi = min(c, mpmath.mpf(end))
            if hi <= lo:
                break
            a = dens.dim - mpmath.mpf(exponent)
            part = mpmath.log(hi / lo) if a == 0 else (hi**a - lo**a) / a
            total += mpmath.mpf(coef) * part
            lo = mpmath.mpf(end)
        return float(mpmath.log(total))


class TestPowerLawTable:
    # the first four families of _BATCH_FAMILIES are one power-law piece each
    PARENT_STRUCTURE = {
        "lebesgue": (math.inf, ()),
        "restricted_lebesgue": (1.0, (1.0,)),
        "power": (math.inf, ()),
        "truncated_power": (1.0, (1.0,)),
    }

    @pytest.mark.parametrize("d", [2, 3, 12, 100, 1000, 10_000])
    def test_single_pieces_keep_the_per_family_bits(self, d):
        for make in _BATCH_FAMILIES[:4]:
            dens = make(d)
            assert (dens.support_radius, dens.breakpoints) == self.PARENT_STRUCTURE[dens.family]
            r = np.array([0.0, 1e-300, 1e-9, 0.3, 0.999, 1.0, 1.0000001, 2.0, 1e200, math.inf])
            # the sign of a zero log f is not compared: log f(1) of the
            # power families was -0.0 and is now 0.0, which no sum or exp sees
            got, want = dens.log_f(r) + 0.0, _parent_log_f(dens, r) + 0.0
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), dens
            radii = [1e-300, 1e-9, 0.3, 0.999, 1.0, 1.0000001, 2.0, 1e5, 1e200]
            got = [radial._mass_closed(dens, c) for c in radii]
            want = [_parent_mass_closed(dens, c) for c in radii]
            assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))

    @pytest.mark.parametrize("d", [2, 3, 7, 40, 300, 10_000])
    def test_closed_masses_match_mpmath(self, d):
        densities = [dens for dens in (make(d) for make in _BATCH_FAMILIES) if dens.pieces] + [
            # exponents below d (a > 0) on three finite pieces
            RadialDensity.piecewise(d, [(0.5, 2.0), (1.0, 1.0, 0.5), (4.0, 0.25, 1.5)]),
            # an exponent equal to d (a = 0), continuous at 1.01
            RadialDensity.piecewise(d, [(1.01, 1.0), (2.0, 1.01**d, float(d))]),
            # an unbounded last piece with an exponent above d (a < 0)
            RadialDensity.piecewise(d, [(1.0, 1.0), (math.inf, 1.0, d + 2.0)]),
        ]
        if d == 3:
            densities.append(RadialDensity.piecewise(3, [(1.0, 1.0), (math.inf, 1.0, 5.0)]))
        for dens in densities:
            ends = dens.breakpoints
            # below the first end, on each breakpoint, between breakpoints
            # and past the support
            radii = [0.3 * min(ends + (1.0,))] + list(ends)
            radii += [math.sqrt(x * y) for x, y in zip(ends[:-1], ends[1:])]
            radii += [1.7 * max(ends + (1.0,)), 1e3]
            # relative in the log; where the log is near 0 (mass near 1) the
            # absolute bound is the relative error of the mass itself
            for c in radii:
                want = _mp_log_mass(dens, c)
                assert radial._mass_closed(dens, c) == pytest.approx(
                    want, rel=1e-14, abs=1e-14
                ), (dens, c)


class TestScalarDensity:
    def test_f_at_has_the_bits_of_f(self):
        d = 4
        densities = [make(d) for make in _BATCH_FAMILIES] + [
            # an unbounded last piece after a zero-free table
            RadialDensity.piecewise(d, [(0.5, 2.0), (1.5, 0.5, 0.7), (math.inf, 0.1, 1.9)]),
            # two zero pieces beyond the support
            RadialDensity.piecewise(d, [(1.0, 1.0, 0.5), (2.0, 0.0), (3.0, 0.0, 1.0)]),
        ]
        rng = np.random.default_rng(d)
        drawn = 10.0 ** rng.uniform(-8.0, 3.0, 10_000)
        for dens in densities:
            ends = dens.breakpoints
            # at, just below and just past each breakpoint, and far beyond
            edges = [x for e in ends for x in (e, np.nextafter(e, 0.0), np.nextafter(e, 2 * e))]
            radii = np.concatenate([drawn, edges, [5e-324, 1e300, math.inf]]).tolist()
            with np.errstate(over="ignore"):  # f(5e-324) of a power law is inf
                got = np.array([dens.f_at(r) for r in radii])
                want = np.array([float(dens.f(r)) for r in radii])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), dens

    def test_f_at_returns_a_float(self):
        assert type(RadialDensity.power(3, 0.5).f_at(0.5)) is float


class TestBatchedQuadrature:
    @staticmethod
    def _integrand(calls):
        # job tag 0: a Gaussian bump; tag 1: a square-root log singularity
        def logf(x, t):  # a row of nodes for each panel, one tag a panel
            calls.append(x.size)
            return np.where(
                t[:, None] == 0, -290.0 * (x - 0.5) ** 2, 0.5 * np.log(np.abs(x - 0.3) + 1e-300)
            )

        return logf

    def test_roundoff_corner_is_handled_per_job(self, monkeypatch):
        # A pending job with no panel above its share of the error budget
        # (the round-off corner) bisects its worst panel in the same round
        # as the other jobs refine. A 64-fold pessimistic error estimate
        # puts the Gaussian job there from its first round, while the
        # singular job needs 25 refinement rounds: in one call each job
        # keeps the bits, and the rounds, of a call of its own.
        import hlmax.quadrature as quadrature

        inner = quadrature._job_logsumexp

        def pessimistic(values, job_of, n_jobs):
            totals, errs = inner(values, job_of, n_jobs)
            return totals, errs + math.log(64.0)

        monkeypatch.setattr(quadrature, "_job_logsumexp", pessimistic)
        edges = np.linspace(0.0, 1.0, 17)
        a = np.concatenate([edges[:-1], [0.0]])
        b = np.concatenate([edges[1:], [1.0]])
        tags = np.concatenate([np.zeros(16, dtype=int), [1]])
        alone, rounds = [], []
        for job in (0, 1):
            calls = []
            sel = tags == job
            alone.append(quadrature.log_integrate_batch(
                self._integrand(calls), a[sel], b[sel], tags[sel], np.zeros(sel.sum()), 1
            )[0])
            rounds.append(len(calls))
        assert rounds[0] > 1  # the corner was reached and left
        monkeypatch.setattr(quadrature, "_MAX_ROUNDS", max(rounds))
        both = quadrature.log_integrate_batch(self._integrand([]), a, b, tags, tags, 2)
        assert np.array_equal(both.view(np.uint64), np.array(alone).view(np.uint64))

    def test_job_over_budget_raises_in_a_batched_call(self, monkeypatch):
        import hlmax.quadrature as quadrature

        monkeypatch.setattr(quadrature, "MAX_PANELS", 8)
        logf = self._integrand([])
        # the Gaussian converges on its own, the singular job needs more panels
        assert np.isfinite(quadrature.log_integrate_batch(logf, [0.0], [1.0], [0], [0], 1)[0])
        with pytest.raises(QuadraturePrecisionError):
            quadrature.log_integrate_batch(logf, [0.0, 0.0], [1.0, 1.0], [0, 1], [0, 1], 2)


_L3 = RadialDensity.lebesgue(3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: log_ball_at_origin(_L3, math.nan), "must be positive"),
        (lambda: log_ball_offcenter(_L3, 1.0, math.nan), "must be positive"),
        (lambda: log_ball_offcenter(_L3, math.nan, 1.0), "center radius"),
        (lambda: growth_h(_L3, 0.5, [math.nan]), "must be positive"),
        (lambda: _offcenter_logs(_L3, [1.0, 1.0], [1.0, math.nan]), "must be positive"),
        (lambda: _offcenter_logs(_L3, [1.0, math.nan], [1.0, 1.0]), "center radius"),
        (lambda: _offcenter_logs(_L3, 1.0, [1.0], [math.nan]), "cap radius"),
        (lambda: _offcenter_logs(_L3, 1.0, [1.0], [-1.0]), "cap radius"),
        (lambda: empirical_weak_ratio(_L3, math.nan, 0.5, 1.0), r"p in \[1, inf\)"),
        (lambda: maximal_sweep(_L3, 0.5, math.nan, [0.5], 0), "R > 0"),
        (lambda: maximal_sweep(_L3, 0.5, 1.0, [0.5, math.nan], 0), "eval_radius"),
        (lambda: besicovitch_upper(10, math.nan), r"p in \[1, inf\)"),
        (lambda: besicovitch_upper(10, math.inf), r"p in \[1, inf\)"),
    ],
    ids=[
        "origin-ball-radius", "offcenter-radius", "offcenter-center", "growth-radius",
        "batch-radius", "batch-center", "batch-cap-nan", "batch-cap-negative",
        "weak-ratio-p", "sweep-R", "sweep-point",
        "besicovitch-nan-p", "besicovitch-inf-p",
    ],
)
def test_nan_input_names_the_bad_value(call, message):
    # each guard reads "not (ok)", so a NaN fails it instead of slipping
    # through to a zero measure or a NaN result
    with pytest.raises(DomainError, match=message):
        call()
