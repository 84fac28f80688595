"""Brute-force verification of certificates in low dimension.

The maximal function is evaluated directly as a supremum over a radius grid
(always from below, so a report can never falsely refute a certificate), the
level-set inclusion behind every certificate is spot-checked by seeded
sampling, and the weak-type ratio is recomputed through an entirely separate
quadrature stack (QUADPACK in linear scale, with the angular factor done by
direct integration of sin^(d-2)) so the two code paths share no
intermediate values. The QUADPACK functions import scipy.integrate
themselves: the import takes about 0.65 s, which only `oracle` should pay.

``maximal_sweep`` evaluates many points at once. Each point's radius grid is
one quadrature call that carries the numerator (capped at vR) and the
denominator of every grid ball; the golden-section refinements then run in
lockstep, one call per step for every point still refining. ``run_oracle``
puts R e1 (20 steps) and the level-set points (12 steps) into one sweep, so
``oracle --samples 2`` makes 25 quadrature calls and ``--samples 20`` 43.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificate import golden_section_max
from .errors import DomainError
from .logspace import LN2, NEG_INF, LogValue
from .radial import RadialDensity, _offcenter_logs, log_ball_at_origin, log_ball_offcenter

MAX_ORACLE_DIM = 10
MAX_SAMPLING_DIM = 6
DEFAULT_GRID = 512
DEFAULT_REFINE = 20
LEVEL_SET_REFINE = 12
LEVEL_SET_SLACK = 1e-6
_ORACLE_REL_TOL = 1e-7


def _ratio_logs(density, v_radius, centers, rs, rel_tol):
    """log mu(B(x, r) ∩ B(0, vR)) - log mu(B(x, r)) for balls of radii rs about
    points of norms ``centers``: one quadrature call for both terms."""
    n = len(rs)
    both = _offcenter_logs(
        density,
        np.concatenate([centers, centers]),
        np.concatenate([rs, rs]),
        np.concatenate([np.full(n, v_radius), np.full(n, math.inf)]),
        rel_tol,
    )
    nums, dens = both[:n], both[n:]
    with np.errstate(invalid="ignore"):
        out = np.where(dens > NEG_INF, nums - dens, NEG_INF)
    return out, dens


def maximal_sweep(
    density: RadialDensity,
    v: float,
    R: float,
    eval_radii,
    refine,
    grid: int = DEFAULT_GRID,
    rel_tol: float = _ORACLE_REL_TOL,
) -> np.ndarray:
    """Grid lower estimates of log M_mu chi_{B(0,vR)} at points of the given
    norms, ``refine`` golden-section steps for each (one count, or one per
    point).

    The supremum over ball radii is approximated by a log-spaced grid over
    [1e-3 vR, 10 (R+H)] plus golden-section refinement around each point's
    argmax; every result is a lower estimate by construction. Each distinct
    norm gets its own grid call (numerators and denominators of its ``grid``
    radii together). The refinements run in lockstep: one call per step
    carries one radius for every point still refining.
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
    if not (0.0 < v <= 1.0) or R <= 0.0 or np.any(eval_radii < 0.0):
        raise DomainError("need v in (0,1], R > 0, eval_radius >= 0")
    H = R * math.sqrt(1.0 + v * v)
    rs = np.geomspace(1e-3 * v * R, 10.0 * (R + H), grid)
    points, point_of = np.unique(eval_radii, return_inverse=True)
    best = np.empty(len(points))
    bracket = np.empty((len(points), 2))
    for k, rho in enumerate(points):
        ratios, dens = _ratio_logs(density, v * R, np.full(grid, rho), rs, rel_tol)
        if not np.any(dens > NEG_INF):
            raise DomainError("every grid radius gives a zero-measure ball")
        i = int(np.argmax(ratios))
        best[k] = ratios[i]
        bracket[k] = (math.log(rs[max(i - 1, 0)]), math.log(rs[min(i + 1, grid - 1)]))
    best = best[point_of]

    steps = np.broadcast_to(refine, best.shape)
    lanes = np.flatnonzero(steps > 0)
    if len(lanes):
        lane_points = points[point_of[lanes]]

        def ratio_at(x, live):  # at the ball radii e^x
            # math.exp: np.exp may round the last bit differently
            radii = np.array([math.exp(t) for t in x])
            vals, _ = _ratio_logs(density, v * R, lane_points[live], radii, rel_tol)
            return vals

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
    rel_tol: float = _ORACLE_REL_TOL,
) -> LogValue:
    """Grid lower estimate of M_mu chi_{B(0,vR)} at a point of given norm:
    the one-point case of ``maximal_sweep``."""
    vals = maximal_sweep(density, v, R, [eval_radius], refine, grid, rel_tol)
    return LogValue(float(vals[0]))


def certificate_alpha_log(density: RadialDensity, v: float, R: float) -> float:
    """log alpha = log mu(B(0,vR)) - log(2 mu(B(R e1, H)))."""
    H = R * math.sqrt(1.0 + v * v)
    inner = log_ball_at_origin(density, v * R)
    denom = log_ball_offcenter(density, R, H)
    return inner.log_magnitude - LN2 - denom.log_magnitude


def verify_level_set(
    density: RadialDensity,
    v: float,
    R: float,
    samples: int,
    seed: int,
    grid: int = 64,
    refine: int = LEVEL_SET_REFINE,
    slack: float = LEVEL_SET_SLACK,
) -> tuple[bool, float]:
    """Check B(0,R) ⊆ {M_mu chi_{B(0,vR)} >= alpha} by seeded radial sampling.

    Radii are drawn uniformly on (0, R) (directions are irrelevant by
    rotational invariance); the boundary radius R itself is always included.
    All sampled points go through one ``maximal_sweep``.
    Returns (pass, worst margin in log units).
    """
    _, ok, worst = _level_set_sweep(density, v, R, samples, seed, grid, refine, slack)
    return ok, worst


def _level_set_sweep(
    density, v, R, samples, seed, grid, refine, slack, alpha_log=None, lead_refine=0
):
    """``verify_level_set``'s check, as (log M at R e1, pass, worst margin).

    With ``lead_refine`` > 0 the sweep also evaluates R e1 with that many
    golden-section steps, ahead of the sampled points (it shares their grid
    at R); otherwise the first entry is None. ``alpha_log`` defaults to
    ``certificate_alpha_log``.
    """
    if density.dim > MAX_SAMPLING_DIM:
        raise DomainError(
            f"level-set sampling is limited to d <= {MAX_SAMPLING_DIM}, "
            f"got d = {density.dim}"
        )
    if samples < 1:
        raise DomainError("need at least one sample")
    if alpha_log is None:
        alpha_log = certificate_alpha_log(density, v, R)
    rng = np.random.default_rng(seed)
    radii = np.concatenate([[R], rng.uniform(0.0, R, samples - 1)])
    steps = np.full(samples, refine)
    if lead_refine:
        radii = np.concatenate([[R], radii])
        steps = np.concatenate([[lead_refine], steps])
    vals = maximal_sweep(density, v, R, radii, steps, grid)
    worst = float(np.min(vals[-samples:] - alpha_log))
    lead = LogValue(float(vals[0])) if lead_refine else None
    return lead, worst >= -slack, worst


# -- independent weak-type ratio (linear-scale QUADPACK path) ----------------


def _sphere_area_linear(d: int) -> float:
    return 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)


def _sine_power_quad(d: int, theta: float) -> float:
    """integral_0^theta sin^(d-2) t dt by QUADPACK."""
    from scipy import integrate as _si

    val, _ = _si.quad(lambda t: math.sin(t) ** (d - 2), 0.0, theta, epsabs=1e-13)
    return val


def _cap_fraction_quad(d: int, s: float, norm: float) -> float:
    """Cap fraction {cos angle >= s} of the sphere; ``norm`` is
    _sine_power_quad(d, pi), the same for every cap of one dimension."""
    if s <= -1.0:
        return 1.0
    if s >= 1.0:
        return 0.0
    if d == 1:
        return 0.5
    return _sine_power_quad(d, math.acos(s)) / norm


def _mass_origin_quad(density: RadialDensity, radius: float) -> float:
    hi = min(radius, density.support_radius)
    if hi <= 0.0:
        return 0.0
    from scipy import integrate as _si

    d = density.dim
    pts = [x for x in density.breakpoints if 0.0 < x < hi] or None
    val, _ = _si.quad(
        lambda r: float(density.f(r)) * r ** (d - 1),
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
    norm = _sine_power_quad(d, math.pi) if d > 1 else None

    def integrand(rho: float) -> float:
        s = (rho * rho + center * center - r * r) / (2.0 * rho * center)
        frac = _cap_fraction_quad(d, s, norm)
        if frac == 0.0:
            return 0.0
        return float(density.f(rho)) * rho ** (d - 1) * frac

    from scipy import integrate as _si

    pts = [x for x in density.breakpoints if lo < x < hi]
    if lo < r - center < hi:
        pts.append(r - center)
    val, _ = _si.quad(integrand, lo, hi, points=sorted(pts) or None, limit=200)
    return _sphere_area_linear(d) * val


def empirical_weak_ratio(
    density: RadialDensity, p: float, v: float, R: float
) -> LogValue:
    """Weak-type ratio alpha mu(B(0,R))^(1/p) / |chi|_p for the certificate's
    own test function, recomputed with QUADPACK in linear scale.

    Numerically this equals the certificate bound; it serves as an
    independent code path sharing no intermediate values with the log-space
    engine.
    """
    if density.dim > MAX_SAMPLING_DIM:
        raise DomainError(
            f"the linear-scale path is limited to d <= {MAX_SAMPLING_DIM}, "
            f"got d = {density.dim}"
        )
    if p < 1.0 or not (0.0 < v <= 1.0) or R <= 0.0:
        raise DomainError("need p >= 1, v in (0,1], R > 0")
    H = R * math.sqrt(1.0 + v * v)
    inner = _mass_origin_quad(density, v * R)
    level = _mass_origin_quad(density, R)
    denom = _mass_offcenter_quad(density, R, H)
    if inner == 0.0 or denom == 0.0:
        raise DomainError("degenerate configuration: zero mass term")
    log_alpha = math.log(inner) - LN2 - math.log(denom)
    return LogValue(log_alpha + (math.log(level) - math.log(inner)) / p)


def halfspace_masses(
    density: RadialDensity,
    center_radius: float,
    r: float,
    n: int = 20000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo masses of B(x0, r) on either side of {x1 = center_radius}.

    Returns (mass with x1 >= center, mass with x1 <= center), both scaled by
    the same volume factor so only their comparison is meaningful.
    """
    d = density.dim
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = r * rng.uniform(0.0, 1.0, n) ** (1.0 / d)
    pts = dirs * radii[:, None]
    pts[:, 0] += center_radius
    weights = density.f(np.linalg.norm(pts, axis=1))
    hi = float(weights[pts[:, 0] >= center_radius].sum()) / n
    lo = float(weights[pts[:, 0] <= center_radius].sum()) / n
    return hi, lo


@dataclass(frozen=True)
class OracleReport:
    """Result of one full brute-force check of a certificate configuration."""

    d: int
    density_kv: str
    p: float
    v: float
    R: float
    point_radius: float
    alpha: LogValue
    max_value: LogValue
    level_set_ok: bool | None
    worst_margin: float | None
    empirical_weak_ratio: LogValue | None
    lemma_log_lower: float
    dual_path_gap: float | None
    radius_grid_size: int
    rng_seed: int
    samples: int

    def sound(self, slack: float = 1e-6, dual_tol: float = 1e-6) -> bool:
        if self.max_value.log_magnitude < self.alpha.log_magnitude - slack:
            return False
        if self.level_set_ok is False:
            return False
        if self.dual_path_gap is not None and abs(self.dual_path_gap) > dual_tol:
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
            "alpha_log": self.alpha.log_magnitude,
            "max_value_log": self.max_value.log_magnitude,
            "level_set_ok": self.level_set_ok,
            "worst_margin": self.worst_margin,
            "empirical_weak_ratio_log": (
                None
                if self.empirical_weak_ratio is None
                else self.empirical_weak_ratio.log_magnitude
            ),
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
    grid: int = 64,
) -> OracleReport:
    """Full oracle pass: maximal value at R e1, level-set sampling and the
    independent weak-type ratio. For 6 < d <= 10 only the maximal-function
    check runs (the sampling paths are too expensive there)."""
    from .certificate import lemma_certificate

    cert = lemma_certificate(density, p, v, R)
    alpha = LogValue(cert.alpha_log)
    if density.dim <= MAX_SAMPLING_DIM:
        # R e1 and the level-set points in one sweep
        max_val, ok, worst = _level_set_sweep(
            density, v, R, samples, seed, grid, LEVEL_SET_REFINE, LEVEL_SET_SLACK,
            cert.alpha_log, DEFAULT_REFINE,
        )
        ratio = empirical_weak_ratio(density, p, v, R)
        gap = ratio.log_magnitude - cert.log_lower_bound
    else:
        max_val = maximal_at_point(density, v, R, R, grid=max(grid, 64))
        ok, worst, ratio, gap = None, None, None, None
    return OracleReport(
        d=density.dim,
        density_kv=density.to_kv().replace("\n", "; ").strip("; "),
        p=p,
        v=v,
        R=R,
        point_radius=R,
        alpha=alpha,
        max_value=max_val,
        level_set_ok=ok,
        worst_margin=worst,
        empirical_weak_ratio=ratio,
        lemma_log_lower=cert.log_lower_bound,
        dual_path_gap=gap,
        radius_grid_size=grid,
        rng_seed=seed,
        samples=samples,
    )
