"""Brute-force verification of certificates in low dimension.

The maximal function is evaluated directly as a supremum over a radius grid
(always from below, so a report can never falsely refute a certificate).
``run_oracle`` spot-checks the level-set inclusion behind every certificate
by seeded sampling (the library's one level-set check) and recomputes the
weak-type ratio through an entirely separate quadrature stack (QUADPACK in
linear scale, with the angular factor from scipy's regularized incomplete
beta ``betainc``) so the two code paths share no intermediate values. The
QUADPACK functions import scipy.integrate and scipy.special themselves:
the import takes about 0.65 s, which only `oracle` should pay.

``maximal_sweep`` evaluates many points at once. The radius grids of all
points are one quadrature call (up to ``_MAX_GRID_POINTS`` points a call)
that carries the numerator (capped at vR) of every grid ball and the
denominator of every ball that meets B(0, vR); the golden-section
refinements then run in lockstep, one call for the first two probes and one
per three steps for every point still refining (the 7 radii those steps may
probe), with each distinct ball measured once a call. ``run_oracle`` makes
one sweep at every d <= 10: R e1 (20 steps) first, then, for d <= 6, the
level-set points (12 steps), so ``oracle --samples 2`` makes 10 quadrature
calls and ``--samples 20`` 10 too (23 at one call a step). R is also the
first level-set point, so its two lanes share their balls for 12 steps.
The library's radius grid has 64 radii by default; the CLI asks for 128.
The QUADPACK integrands read the density through the scalar
``RadialDensity.f_at``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificate import golden_section_max, lemma_certificate
from .errors import DomainError
from .logspace import LN2, NEG_INF
from .radial import RadialDensity, _offcenter_logs

MAX_ORACLE_DIM = 10
MAX_SAMPLING_DIM = 6
DEFAULT_GRID = 64
DEFAULT_REFINE = 20
LEVEL_SET_REFINE = 12
LEVEL_SET_SLACK = 1e-6  # log units: M >= alpha is checked as M >= alpha - slack
DUAL_PATH_TOL = 1e-6
_ORACLE_REL_TOL = 1e-7
# points per grid call: more points are measured in several calls, so the
# panels of one call stay bounded however many samples a request draws
_MAX_GRID_POINTS = 32


def _ratio_logs(density, v_radius, centers, rs):
    """log mu(B(x, r) ∩ B(0, vR)) - log mu(B(x, r)) for balls of radii rs about
    points of norms ``centers``: one quadrature call for both terms.

    Only a ball that meets B(0, vR) inside the support gets a denominator
    (the test is the numerator's own radial range, max(c - r, 0) <
    min(c + r, supp, vR)): any other has ratio -inf whatever its measure,
    and its denominator reads -inf.
    """
    n = len(rs)
    meet = np.maximum(centers - rs, 0.0) < np.minimum(
        np.minimum(centers + rs, density.support_radius), v_radius
    )
    n_meet = int(np.count_nonzero(meet))
    both = _offcenter_logs(
        density,
        np.concatenate([centers, centers[meet]]),
        np.concatenate([rs, rs[meet]]),
        np.concatenate([np.full(n, v_radius), np.full(n_meet, math.inf)]),
        _ORACLE_REL_TOL,
    )
    dens = np.full(n, NEG_INF)
    dens[meet] = both[n:]
    out = np.full(n, NEG_INF)
    live = dens > NEG_INF
    out[live] = both[:n][live] - dens[live]
    return out, dens


def maximal_sweep(
    density: RadialDensity,
    v: float,
    R: float,
    eval_radii,
    refine,
    grid: int = DEFAULT_GRID,
) -> np.ndarray:
    """Grid lower estimates of log M_mu chi_{B(0,vR)} at points of the given
    norms, ``refine`` golden-section steps for each (one count, or one per
    point).

    The supremum over ball radii is approximated by a log-spaced grid over
    [1e-3 vR, 10 (R+H)] plus golden-section refinement around each point's
    argmax; every result is a lower estimate by construction. The grids of
    all distinct norms share one call (numerators and denominators of their
    ``grid`` radii together), ``_MAX_GRID_POINTS`` norms at most; the
    zero-measure check and the argmax are per norm. Balls of one call are
    independent jobs, so a norm's grid has the bits of a call of its own.
    The refinements run in lockstep: one call per three steps carries the
    7 radii those steps may probe for every point still refining, with the
    bits of one call a step, and a ball that two lanes probe together is
    measured once.
    """
    d = density.dim
    if d > MAX_ORACLE_DIM:
        raise DomainError(
            f"direct maximal-function evaluation is limited to d <= "
            f"{MAX_ORACLE_DIM} (quadrature cost), got d = {d}"
        )
    if grid < 64:
        raise DomainError(f"grid must have at least 64 radii, got {grid}")
    eval_radii = np.asarray(eval_radii, dtype=float)
    if not (0.0 < v <= 1.0 and R > 0.0 and np.all(eval_radii >= 0.0)):
        raise DomainError("need v in (0,1], R > 0, eval_radius >= 0")
    H = R * math.sqrt(1.0 + v * v)
    rs = np.geomspace(1e-3 * v * R, 10.0 * (R + H), grid)
    points, point_of = np.unique(eval_radii, return_inverse=True)
    n = len(points)
    ratios = np.empty((n, grid))
    dens = np.empty((n, grid))
    for start in range(0, n, _MAX_GRID_POINTS):
        chunk = points[start:start + _MAX_GRID_POINTS]
        vals, dvals = _ratio_logs(density, v * R, np.repeat(chunk, grid), np.tile(rs, len(chunk)))
        ratios[start:start + len(chunk)] = vals.reshape(-1, grid)
        dens[start:start + len(chunk)] = dvals.reshape(-1, grid)
    best = np.empty(n)
    bracket = np.empty((n, 2))
    for k, rho in enumerate(points.tolist()):
        # every grid ball lies in the largest, whose denominator the skip in
        # _ratio_logs passes over only when it misses B(0, vR)
        if not np.any(dens[k] > NEG_INF) and (
            _offcenter_logs(density, rho, rs[-1:], None, _ORACLE_REL_TOL)[0] == NEG_INF
        ):
            raise DomainError("every grid radius gives a zero-measure ball")
        i = int(np.argmax(ratios[k]))
        best[k] = ratios[k, i]
        bracket[k] = (math.log(rs[max(i - 1, 0)]), math.log(rs[min(i + 1, grid - 1)]))
    best = best[point_of]

    steps = np.broadcast_to(refine, best.shape)
    lanes = np.flatnonzero(steps > 0)
    if len(lanes):
        lane_points = points[point_of[lanes]]

        def ratio_at(x, live):  # at the ball radii e^x
            # math.exp: np.exp may round the last bit differently
            balls = zip(lane_points[live].tolist(), (math.exp(t) for t in x))
            # lanes of one point probe the same balls until their step
            # counts part, so each distinct ball is measured once
            slot = {}
            index = [slot.setdefault(ball, len(slot)) for ball in balls]
            centers, radii = np.array(list(slot)).T
            vals, _ = _ratio_logs(density, v * R, centers, radii)
            return vals[index]

        lo, hi = bracket[point_of[lanes]].T
        _, f_best = golden_section_max(ratio_at, lo, hi, steps[lanes])
        best[lanes] = np.maximum(best[lanes], f_best)
    return best


def maximal_at_point(
    density: RadialDensity,
    v: float,
    R: float,
    eval_radius: float,
    grid: int = DEFAULT_GRID,
    refine: int = DEFAULT_REFINE,
) -> float:
    """Grid lower estimate of M_mu chi_{B(0,vR)} at a point of given norm:
    the one-point case of ``maximal_sweep``."""
    return float(maximal_sweep(density, v, R, [eval_radius], refine, grid)[0])


# -- independent weak-type ratio (linear-scale QUADPACK path) ----------------


def _sphere_area_linear(d: int) -> float:
    return 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)


def _cap_fraction(d: int, s: float, betainc) -> float:
    """Cap fraction {cos angle >= s} of the sphere by scipy's regularized
    incomplete beta ``betainc`` (passed in, so a QUADPACK integrand imports
    it once a call): 1/2 I_{1-s^2}((d-1)/2, 1/2) for s > 0 and one minus
    that for s < 0. Where s^2 < 1/2 it uses the complement
    1/2 - sign(s)/2 I_{s^2}(1/2, (d-1)/2) instead, since 1 - s^2 rounds
    near s = 0 (a relative error of 1e-8 at |s| = 1e-8)."""
    if s <= -1.0:
        return 1.0
    if s >= 1.0:
        return 0.0
    if d == 1:
        return 0.5
    a = 0.5 * (d - 1)
    if s * s < 0.5:
        return 0.5 - math.copysign(0.5 * float(betainc(0.5, a, s * s)), s)
    half_cap = 0.5 * float(betainc(a, 0.5, (1.0 - s) * (1.0 + s)))
    return half_cap if s > 0.0 else 1.0 - half_cap


def _mass_origin_quad(density: RadialDensity, radius: float) -> float:
    hi = min(radius, density.support_radius)
    if hi <= 0.0:
        return 0.0
    from scipy import integrate as _si

    d = density.dim
    pts = [x for x in density.breakpoints if 0.0 < x < hi] or None
    val, _ = _si.quad(
        lambda r: density.f_at(r) * r ** (d - 1),
        0.0,
        hi,
        points=pts,
        limit=200,
    )
    return _sphere_area_linear(d) * val


def _mass_offcenter_quad(density: RadialDensity, center: float, r: float) -> float:
    d = density.dim
    if center == 0.0:
        return _mass_origin_quad(density, r)
    lo = max(center - r, 0.0)
    hi = min(center + r, density.support_radius)
    if hi <= lo:
        return 0.0

    from scipy import integrate as _si
    from scipy.special import betainc

    def integrand(rho: float) -> float:
        s = (rho * rho + center * center - r * r) / (2.0 * rho * center)
        frac = _cap_fraction(d, s, betainc)
        if frac == 0.0:
            return 0.0
        return density.f_at(rho) * rho ** (d - 1) * frac

    pts = [x for x in density.breakpoints if lo < x < hi]
    if lo < r - center < hi:
        pts.append(r - center)
    val, _ = _si.quad(integrand, lo, hi, points=sorted(pts) or None, limit=200)
    return _sphere_area_linear(d) * val


def empirical_weak_ratio(
    density: RadialDensity, p: float, v: float, R: float
) -> float:
    """Log of the weak-type ratio alpha mu(B(0,R))^(1/p) / |chi|_p for the
    certificate's own test function, recomputed with QUADPACK in linear scale.

    Numerically this equals the certificate bound; it serves as an
    independent code path sharing no intermediate values with the log-space
    engine.
    """
    if density.dim > MAX_SAMPLING_DIM:
        raise DomainError(
            f"the linear-scale path is limited to d <= {MAX_SAMPLING_DIM}, "
            f"got d = {density.dim}"
        )
    if not (1.0 <= p < math.inf and 0.0 < v <= 1.0 and R > 0.0):
        raise DomainError("need p in [1, inf), v in (0,1], R > 0")
    H = R * math.sqrt(1.0 + v * v)
    inner = _mass_origin_quad(density, v * R)
    level = _mass_origin_quad(density, R)
    denom = _mass_offcenter_quad(density, R, H)
    if inner == 0.0 or denom == 0.0:
        raise DomainError("degenerate configuration: zero mass term")
    log_alpha = math.log(inner) - LN2 - math.log(denom)
    return log_alpha + (math.log(level) - math.log(inner)) / p


@dataclass(frozen=True)
class OracleReport:
    """Result of one full brute-force check of a certificate configuration."""

    d: int
    density_kv: str
    p: float
    v: float
    R: float
    point_radius: float
    alpha_log: float
    max_value_log: float
    level_set_ok: bool | None
    worst_margin: float | None
    empirical_weak_ratio_log: float | None
    lemma_log_lower: float
    dual_path_gap: float | None
    radius_grid_size: int
    rng_seed: int
    samples: int

    def sound(self) -> bool:
        if self.max_value_log < self.alpha_log - LEVEL_SET_SLACK:
            return False
        if self.level_set_ok is False:
            return False
        if self.dual_path_gap is not None and abs(self.dual_path_gap) > DUAL_PATH_TOL:
            return False
        return True

    def to_record(self) -> dict:
        return {
            "d": self.d,
            "density": self.density_kv,
            "p": self.p,
            "v": self.v,
            "R": self.R,
            "point_radius": self.point_radius,
            "alpha_log": self.alpha_log,
            "max_value_log": self.max_value_log,
            "level_set_ok": self.level_set_ok,
            "worst_margin": self.worst_margin,
            "empirical_weak_ratio_log": self.empirical_weak_ratio_log,
            "lemma_log_lower": self.lemma_log_lower,
            "dual_path_gap": self.dual_path_gap,
            "radius_grid_size": self.radius_grid_size,
            "rng_seed": self.rng_seed,
            "samples": self.samples,
            "sound": self.sound(),
        }


def run_oracle(
    density: RadialDensity,
    p: float,
    v: float,
    R: float,
    seed: int,
    samples: int = 200,
    grid: int = DEFAULT_GRID,
) -> OracleReport:
    """Full oracle pass: maximal value at R e1, the level-set check and the
    independent weak-type ratio; for 6 < d <= 10 only R e1 is checked (the
    sampling paths are too expensive there).

    The level-set check samples B(0,R) ⊆ {M_mu chi_{B(0,vR)} >= alpha}, with
    alpha the lemma's witness level mu(B(0,vR)) / (2 mu(B(R e1, H))), at the
    norm R and samples - 1 seeded norms uniform on (0, R) (directions are
    irrelevant by rotational invariance), ``LEVEL_SET_REFINE`` golden-section
    steps each. It passes if no margin log M - log alpha is below
    -``LEVEL_SET_SLACK``. One ``maximal_sweep`` evaluates R e1 and the
    level-set points."""
    if samples < 1:
        raise DomainError("need at least one sample")
    cert = lemma_certificate(density, p, v, R)
    sampled = density.dim <= MAX_SAMPLING_DIM
    level = np.empty(0)
    if sampled:
        level = np.concatenate([[R], np.random.default_rng(seed).uniform(0.0, R, samples - 1)])
    steps = np.concatenate([[DEFAULT_REFINE], np.full(len(level), LEVEL_SET_REFINE)])
    vals = maximal_sweep(density, v, R, np.concatenate([[R], level]), steps, grid)
    ok = worst = ratio = gap = None
    if sampled:
        worst = float(np.min(vals[1:] - cert.alpha_log))
        ok = worst >= -LEVEL_SET_SLACK
        ratio = empirical_weak_ratio(density, p, v, R)
        gap = ratio - cert.log_lower_bound
    return OracleReport(
        d=density.dim,
        density_kv=density.to_kv().replace("\n", "; ").strip("; "),
        p=p,
        v=v,
        R=R,
        point_radius=R,
        alpha_log=cert.alpha_log,
        max_value_log=float(vals[0]),
        level_set_ok=ok,
        worst_margin=worst,
        empirical_weak_ratio_log=ratio,
        lemma_log_lower=cert.log_lower_bound,
        dual_path_gap=gap,
        radius_grid_size=grid,
        rng_seed=seed,
        samples=samples,
    )
