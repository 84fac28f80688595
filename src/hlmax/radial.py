"""Radial measures d(mu) = f(|y|) d(lambda^d) and log-measures of balls.

Densities are nonincreasing on (0, inf), may blow up mildly at 0 and may
have unbounded support. Origin-centered balls use closed forms whenever the
family admits one; everything else reduces to a single log-space radial
integral, with the angular part folded into an exact normalized cap area
per quadrature node.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, UndefinedGrowthError
from .logspace import NEG_INF, LogValue, log_add
from .quadrature import DEFAULT_REL_TOL, log_integrate_batch
from .specfun import _log_sphere_area, log_cap_fraction

LEBESGUE = "lebesgue"
RESTRICTED_LEBESGUE = "restricted_lebesgue"
POWER = "power"
TRUNCATED_POWER = "truncated_power"
LOG_SINGULARITY = "log_singularity"
PIECEWISE = "piecewise"

FAMILIES = (
    LEBESGUE,
    RESTRICTED_LEBESGUE,
    POWER,
    TRUNCATED_POWER,
    LOG_SINGULARITY,
    PIECEWISE,
)

_SIGMA_MARGIN = 80.0  # log-units of integrand decay kept below the chunk top


class Segment(NamedTuple):
    """One piece of a user density: coef * r^(-exponent) on (prev_end, end]."""

    end: float
    coef: float
    exponent: float = 0.0


@dataclass(frozen=True)
class RadialDensity:
    """A nonincreasing density f on (0, inf) defining a radial measure.

    ``t`` parameterizes the power families f(r) = r^(-t*d); ``segments``
    holds the pieces of a user-defined density.
    """

    family: str
    dim: int
    t: float | None = None
    segments: tuple[Segment, ...] | None = None

    def __post_init__(self):
        # the key-value format and the CLI spell families with hyphens
        family = self.family.replace("-", "_")
        if family not in FAMILIES:
            raise DomainError(
                f"unknown family {self.family!r}; choose from "
                + ", ".join(f.replace("_", "-") for f in FAMILIES)
            )
        object.__setattr__(self, "family", family)
        if self.dim < 1 or int(self.dim) != self.dim:
            raise DomainError(f"dimension must be a positive integer, got {self.dim}")
        if self.family in (POWER, TRUNCATED_POWER):
            if self.t is None or not (0.0 < self.t < 1.0):
                raise DomainError(
                    f"power families need t in (0, 1) so that f(r) r^(d-1) stays "
                    f"locally integrable, got t={self.t}"
                )
        elif self.t is not None:
            raise DomainError(f"family {self.family!r} takes no exponent parameter")
        if self.family == PIECEWISE:
            self._validate_segments()
        elif self.segments is not None:
            raise DomainError(f"family {self.family!r} takes no segments")

    def _validate_segments(self):
        segs = self.segments
        if not segs:
            raise DomainError("piecewise density needs at least one segment")
        prev_end = 0.0
        for seg in segs:
            if not (seg.end > prev_end):
                raise DomainError("segment breakpoints must be strictly increasing")
            if seg.coef < 0 or not math.isfinite(seg.coef):
                raise DomainError("segment coefficients must be finite and >= 0")
            if seg.exponent < 0:
                raise DomainError(
                    "segments with negative exponents increase; densities must be "
                    "nonincreasing"
                )
            prev_end = seg.end
        if not any(seg.coef > 0 for seg in segs):
            raise DomainError("density is zero almost everywhere")
        if segs[0].exponent >= self.dim:
            raise DomainError(
                f"innermost exponent {segs[0].exponent} >= d makes f(r) r^(d-1) "
                "non-integrable at 0"
            )
        for left, right in zip(segs[:-1], segs[1:]):
            f_left = left.coef * left.end ** (-left.exponent)
            f_right = right.coef * left.end ** (-right.exponent)
            if f_right > f_left * (1.0 + 1e-12) + 1e-300:
                raise DomainError(
                    f"density increases across breakpoint r={left.end}; "
                    "piecewise densities must be nonincreasing"
                )

    # -- structure ---------------------------------------------------------

    @property
    def support_radius(self) -> float:
        if self.family in (RESTRICTED_LEBESGUE, TRUNCATED_POWER, LOG_SINGULARITY):
            return 1.0
        if self.family == PIECEWISE:
            return self.segments[-1].end
        return math.inf

    @property
    def breakpoints(self) -> tuple[float, ...]:
        if self.family in (RESTRICTED_LEBESGUE, TRUNCATED_POWER, LOG_SINGULARITY):
            return (1.0,)
        if self.family == PIECEWISE:
            return tuple(seg.end for seg in self.segments)
        return ()

    @property
    def zero_exponent(self) -> float:
        """Power-law blow-up rate of f at 0 (0 for bounded-at-0 families)."""
        if self.family in (POWER, TRUNCATED_POWER):
            return self.t * self.dim
        if self.family == PIECEWISE:
            return self.segments[0].exponent
        return 0.0

    # -- evaluation --------------------------------------------------------

    def log_f(self, r) -> np.ndarray:
        """log f(r), vectorized; -inf outside the support."""
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            if self.family == LEBESGUE:
                return np.zeros_like(r)
            if self.family == RESTRICTED_LEBESGUE:
                return np.where(r <= 1.0, 0.0, -math.inf)
            if self.family == POWER:
                return -self.t * self.dim * np.log(r)
            if self.family == TRUNCATED_POWER:
                return np.where(r <= 1.0, -self.t * self.dim * np.log(r), -math.inf)
            if self.family == LOG_SINGULARITY:
                out = np.full_like(r, -math.inf)
                inside = (r > 0) & (r < 1.0)
                out[inside] = np.log(-np.log(r[inside]))
                return out
            out = np.full_like(r, -math.inf)
            prev = 0.0
            for seg in self.segments:
                sel = (r > prev) & (r <= seg.end)
                if sel.any():
                    if seg.coef == 0.0:
                        out[sel] = -math.inf
                    else:
                        out[sel] = math.log(seg.coef) - seg.exponent * np.log(r[sel])
                prev = seg.end
            return out

    def f(self, r) -> np.ndarray:
        """f(r) in linear scale (for low-dimensional brute-force work)."""
        return np.exp(self.log_f(r))

    # -- constructors ------------------------------------------------------

    @classmethod
    def lebesgue(cls, dim: int) -> "RadialDensity":
        return cls(LEBESGUE, dim)

    @classmethod
    def restricted_lebesgue(cls, dim: int) -> "RadialDensity":
        return cls(RESTRICTED_LEBESGUE, dim)

    @classmethod
    def power(cls, dim: int, t: float) -> "RadialDensity":
        return cls(POWER, dim, t=t)

    @classmethod
    def truncated_power(cls, dim: int, t: float) -> "RadialDensity":
        return cls(TRUNCATED_POWER, dim, t=t)

    @classmethod
    def log_singularity(cls, dim: int) -> "RadialDensity":
        return cls(LOG_SINGULARITY, dim)

    @classmethod
    def piecewise(cls, dim: int, segments) -> "RadialDensity":
        segs = tuple(Segment(*seg) for seg in segments)
        return cls(PIECEWISE, dim, segments=segs)

    # -- serialization -----------------------------------------------------

    def to_kv(self) -> str:
        lines = [f"family = {self.family.replace('_', '-')}", f"d = {self.dim}"]
        if self.t is not None:
            lines.append(f"t = {self.t!r}")
        if self.segments is not None:
            parts = []
            for seg in self.segments:
                token = f"{seg.end!r}:{seg.coef!r}"
                if seg.exponent != 0.0:
                    token += f":{seg.exponent!r}"
                parts.append(token)
            lines.append("segments = " + ", ".join(parts))
        return "\n".join(lines) + "\n"


def parse_kv(text: str) -> dict[str, str]:
    """Parse the plain-text key-value format (``key = value`` lines)."""
    out: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"malformed key-value line: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_segments(value: str) -> tuple[Segment, ...]:
    segs = []
    for token in value.split(","):
        fields = [f.strip() for f in token.strip().split(":")]
        if len(fields) == 2:
            segs.append(Segment(float(fields[0]), float(fields[1])))
        elif len(fields) == 3:
            segs.append(Segment(float(fields[0]), float(fields[1]), float(fields[2])))
        else:
            raise DomainError(f"malformed segment token {token!r}")
    return tuple(segs)


def density_from_mapping(kv: dict[str, str]) -> RadialDensity:
    t, segments = kv.get("t"), kv.get("segments")
    return RadialDensity(
        kv.get("family", ""),
        int(kv["d"]),
        t=None if t is None else float(t),
        segments=None if segments is None else parse_segments(segments),
    )


def density_from_kv(text: str) -> RadialDensity:
    return density_from_mapping(parse_kv(text))


# -- radial mass (no sphere-area factor) -----------------------------------


def _mass_closed(density: RadialDensity, c: float) -> float | None:
    d = density.dim
    if density.family == LEBESGUE:
        return d * math.log(c) - math.log(d)
    if density.family == RESTRICTED_LEBESGUE:
        return d * math.log(min(c, 1.0)) - math.log(d)
    if density.family == POWER:
        a = (1.0 - density.t) * d
        return a * math.log(c) - math.log(a)
    if density.family == TRUNCATED_POWER:
        a = (1.0 - density.t) * d
        return a * math.log(min(c, 1.0)) - math.log(a)
    return None


def _mass_quad(density: RadialDensity, c: float, rel_tol: float) -> float:
    hi = min(c, density.support_radius)
    if hi <= 0.0:
        return NEG_INF
    d = density.dim
    rate = d - density.zero_exponent
    edges = [x for x in density.breakpoints if 0.0 < x < hi] + [hi]
    first_top = edges[0]

    def logf(x, tags):
        sigma = tags == 1
        rho = np.where(sigma, np.exp(x), x)
        with np.errstate(divide="ignore"):
            log_rho = np.where(sigma, x, np.log(np.abs(x) + 1e-320))
        # sigma panels integrate f(e^s) e^(d s) ds; direct ones f(x) x^(d-1) dx
        return density.log_f(rho) + (d - 1) * log_rho + np.where(sigma, x, 0.0)

    # (0, first_top] via rho = e^sigma: integrand becomes log f + d*sigma
    panels, tags = [], []
    sig_hi = math.log(first_top)
    sig_lo = sig_hi - _SIGMA_MARGIN / rate
    step = (sig_hi - sig_lo) / 16
    for i in range(16):
        panels.append((sig_lo + i * step, sig_lo + (i + 1) * step))
        tags.append(1)
    lo = first_top
    for top in edges[1:]:
        step = (top - lo) / 8
        for i in range(8):
            panels.append((lo + i * step, lo + (i + 1) * step))
            tags.append(0)
        lo = top
    result = log_integrate_batch(
        logf,
        panels,
        tags,
        np.zeros(len(panels), dtype=np.int64),
        1,
        rel_tol=rel_tol,
    )
    return float(result[0])


@functools.lru_cache(maxsize=4096)
def _log_radial_mass(density: RadialDensity, c: float, rel_tol: float) -> float:
    """log of integral_0^c f(rho) rho^(d-1) d(rho)."""
    if c <= 0.0:
        return NEG_INF
    closed = _mass_closed(density, c)
    if closed is not None:
        return closed
    return _mass_quad(density, c, rel_tol)


# -- ball measures ----------------------------------------------------------


def log_ball_at_origin(
    density: RadialDensity, R: float, rel_tol: float = None
) -> LogValue:
    """log mu(B(0, R)) = log sigma^{d-1}(S^{d-1}) + log radial mass to R."""
    if R <= 0.0:
        raise DomainError(f"ball radius must be positive, got {R}")
    rel_tol = DEFAULT_REL_TOL if rel_tol is None else rel_tol
    mass = _log_radial_mass(density, float(R), rel_tol)
    if mass == NEG_INF:
        return LogValue(NEG_INF)
    return LogValue(_log_sphere_area(density.dim) + mass)


def growth_h(
    density: RadialDensity, u: float, R: float, rel_tol: float = None
) -> LogValue:
    """log h_u(R) = log mu(B(0,R)) - log mu(B(0,uR)); lies in [0, -d ln u]."""
    if not (0.0 < u < 1.0):
        raise DomainError(f"u must lie in (0, 1), got {u}")
    num = log_ball_at_origin(density, R, rel_tol)
    den = log_ball_at_origin(density, u * R, rel_tol)
    if den.is_zero:
        raise UndefinedGrowthError(
            f"mu(B(0, {u * R})) = 0: growth ratio is undefined"
        )
    return num / den


def _offcenter_logs(
    density: RadialDensity,
    center_radius,
    radii,
    rho_caps=None,
    rel_tol: float = None,
) -> np.ndarray:
    """log mu(B(x0, r) ∩ B(0, rho_cap)) for each r, ||x0|| = center_radius.

    ``center_radius`` is one norm for every ball or one per ball. The
    angular integral over each sphere of radius rho is an exact normalized
    cap area, leaving one radial integral per ball, and all balls share one
    quadrature call. The spheres a ball holds whole (all of them when its
    center is the origin) contribute a radial mass instead.
    """
    rel_tol = DEFAULT_REL_TOL if rel_tol is None else rel_tol
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if np.any(radii <= 0.0):
        raise DomainError("ball radii must be positive")
    n = len(radii)
    caps = np.full(n, math.inf) if rho_caps is None else np.atleast_1d(
        np.asarray(rho_caps, dtype=float)
    )
    centers = np.broadcast_to(np.asarray(center_radius, dtype=float), (n,))
    if np.any(centers < 0.0):
        raise DomainError("center radius must be nonnegative")
    d = density.dim
    log_sigma = _log_sphere_area(d)
    supp = density.support_radius
    out = np.full(n, NEG_INF)

    panels, tags, jobs = [], [], []
    full_parts = np.full(n, NEG_INF)
    n_init = max(8, min(48, int(2.0 * math.sqrt(d))))
    for i, (r0, r, cap) in enumerate(zip(centers, radii, caps)):
        lo = max(r0 - r, 0.0)
        hi = min(r0 + r, supp, cap)
        if hi <= lo:
            continue
        full_top = r - r0  # below this radius whole spheres are inside
        if full_top > 0.0:
            reach = min(full_top, hi)
            full_parts[i] = _log_radial_mass(density, float(reach), rel_tol)
            lo = max(lo, reach)
        if hi > lo:
            edges = [lo] + [x for x in density.breakpoints if lo < x < hi] + [hi]
            for a, b in zip(edges[:-1], edges[1:]):
                step = (b - a) / n_init
                for k in range(n_init):
                    panels.append((a + k * step, a + (k + 1) * step))
                    tags.append(i)
                    jobs.append(i)

    quad_parts = np.full(n, NEG_INF)
    if panels:

        def logf(x, t):
            r0 = centers[t]
            r = radii[t]
            s = (x * x + r0 * r0 - r * r) / (2.0 * x * r0)
            with np.errstate(divide="ignore"):
                return (
                    density.log_f(x)
                    + (d - 1) * np.log(x)
                    + log_cap_fraction(d, np.clip(s, -1.0, 1.0))
                )

        quad_parts = log_integrate_batch(
            logf, panels, tags, jobs, n, rel_tol=rel_tol
        )

    for i in range(n):
        total = log_add(full_parts[i], quad_parts[i])
        if total > NEG_INF:
            out[i] = log_sigma + total
    return out


def log_ball_offcenter(
    density: RadialDensity, center_radius: float, r: float, rel_tol: float = None
) -> LogValue:
    """log mu(B(x0, r)) for a center at distance ``center_radius`` from 0."""
    if r <= 0.0:
        raise DomainError(f"ball radius must be positive, got {r}")
    return LogValue(float(_offcenter_logs(density, center_radius, [r], None, rel_tol)[0]))


def intersect_origin_ball(
    density: RadialDensity,
    rho_max: float,
    center_radius: float,
    r: float,
    rel_tol: float = None,
) -> LogValue:
    """log mu(B(0, rho_max) ∩ B(x0, r)): the off-center reduction with the
    radial variable clipped at rho_max."""
    if rho_max <= 0.0 or r <= 0.0:
        raise DomainError("rho_max and r must be positive")
    return LogValue(
        float(_offcenter_logs(density, center_radius, [r], [rho_max], rel_tol)[0])
    )
