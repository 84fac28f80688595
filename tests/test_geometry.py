"""The planar cap geometry behind the analytic floors: the caps that
B(e1, sqrt(5)/2) cuts from spheres about 0 (the decp split) and the cone
cap of the doubling construction's middle shell."""
import math

import numpy as np
import pytest

from hlmax.certificate import U_SPLIT, _doubling_cone, _split_cap

SQRT5_HALF = math.sqrt(5.0) / 2.0


class TestSphereBallCap:
    def test_level_sphere_gives_three_eighths(self):
        s, t = _split_cap(1.0)
        assert s == pytest.approx(3.0 / 8.0, abs=1e-14)
        assert t == pytest.approx(math.sqrt(55.0) / 8.0, abs=1e-14)

    def test_inner_sphere_cap(self):
        _, t = _split_cap(U_SPLIT)
        assert t == pytest.approx(math.sqrt(1077.0) / (24.0 * math.sqrt(2.0)), abs=1e-13)

    def test_s_monotone_in_rho_when_ball_swallows_center(self):
        # H = sqrt(5)/2 >= 1, so the cosine rises over the valid interval
        rhos = np.linspace(SQRT5_HALF - 1.0 + 1e-6, SQRT5_HALF + 1.0 - 1e-6, 200)
        ss = [_split_cap(float(r))[0] for r in rhos]
        assert all(a < b for a, b in zip(ss, ss[1:]))


class TestDoublingCap:
    def test_limit_at_one(self):
        assert _doubling_cone(1.0 + 1e-12)[1] == pytest.approx(1.0, abs=1e-9)

    def test_value_at_two(self):
        assert _doubling_cone(2.0)[1] == pytest.approx(math.sqrt(55.0) / 8.0, abs=1e-15)

    def test_value_midway_and_monotone(self):
        x = _doubling_cone(1.5)[1]
        assert math.sqrt(55.0) / 8.0 < x < 1.0
        grid = np.linspace(1.0 + 1e-9, 2.0, 1000)
        vals = [_doubling_cone(float(c))[1] for c in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_c2_cone_coincides_with_unit_sphere_cap(self):
        cone_s, cone_t = _doubling_cone(2.0)
        s, t = _split_cap(1.0)
        assert cone_s == pytest.approx(s, abs=1e-14)
        assert cone_t == pytest.approx(t, abs=1e-14)
        assert cone_s ** 2 + cone_t ** 2 == pytest.approx(1.0, abs=1e-14)


class TestContainmentParams:
    def test_c12(self):
        assert _doubling_cone(1.2)[0] == pytest.approx(0.44 / 4.8, abs=1e-12)

    def test_hemisphere_limit(self):
        s, t = _doubling_cone(1.0 + 1e-12)
        assert s == pytest.approx(0.0, abs=1e-9)
        assert t == pytest.approx(1.0, abs=1e-9)


class TestThreePieceSplit:
    def test_outer_shell_identity(self):
        # T = sqrt(R1^2 + H^2) = 3 R1/2 = u^-2 R1 at u = sqrt(2/3), v = 1/2
        u = math.sqrt(2.0 / 3.0)
        for r1 in (1.0, 3.7):
            h = r1 * SQRT5_HALF
            t_radius = math.sqrt(r1 * r1 + h * h)
            assert t_radius == pytest.approx(1.5 * r1, abs=1e-12)
            assert t_radius == pytest.approx(r1 / (u * u), abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_half_ball_inside_t_sphere_monte_carlo(self, d):
        rng = np.random.default_rng(31415 + d)
        r1 = 1.0
        h = SQRT5_HALF
        dirs = rng.normal(size=(20000, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = dirs * (h * rng.uniform(0, 1, 20000)[:, None] ** (1.0 / d))
        pts[:, 0] += r1
        half = pts[pts[:, 0] <= r1]
        assert len(half) > 0
        norms = np.linalg.norm(half, axis=1)
        assert float(norms.max()) <= 1.5 * r1 + 1e-9
