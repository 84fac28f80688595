"""Radial measures d(mu) = f(|y|) d(lambda^d) and log-measures of balls.

Densities are nonincreasing on (0, inf), may blow up mildly at 0 and may
have unbounded support. Every family but log-singularity is a table of
power-law pieces coef * r^(-k), so the radial mass of an origin-centered
ball is a closed-form sum over the pieces below its radius. Everything else
reduces to a single log-space radial integral, with the angular part folded
into an exact normalized cap area per quadrature node.

Log-singularity masses are computed an array of radii at a time: the radii
are clipped at the support radius, and each distinct one is one job of a
batched quadrature call (at most ``_MAX_MASS_JOBS`` a call). ``growth_h``
takes an array of radii, so a call of the growth-hypothesis search, which
settles three steps with 7 radii (14 masses), is at most one quadrature
call. Jobs of a call are refined independently, so a batched mass has the
bits of the same mass computed alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, UndefinedGrowthError
from .logspace import NEG_INF, log_add, log_sum
from .quadrature import DEFAULT_REL_TOL, log_integrate_batch
from .specfun import log_cap_fraction, log_sphere_area

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
# radii per mass quadrature call: a longer array is integrated in several
# calls, so the panels and refinement state of one call stay small
_MAX_MASS_JOBS = 16


class Segment(NamedTuple):
    """One piece of a user density: coef * r^(-exponent) on (prev_end, end]."""

    end: float
    coef: float
    exponent: float = 0.0


@dataclass(frozen=True)
class RadialDensity:
    """A nonincreasing density f on (0, inf) defining a radial measure.

    ``t`` parameterizes the power families f(r) = r^(-t*d); ``segments``
    holds the pieces of a user-defined density. ``pieces`` is the density
    as power laws (end, coef, k, a): coef * r^(-k) on (previous end, end],
    whose radial mass grows like r^a, a = d - k; log-singularity has none.
    """

    family: str
    dim: int
    t: float | None = None
    segments: tuple[Segment, ...] | None = None
    pieces: tuple = field(init=False, repr=False, compare=False)

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
        d = self.dim
        end = 1.0 if family in (RESTRICTED_LEBESGUE, TRUNCATED_POWER) else math.inf
        pieces = ()  # log-singularity is no power law
        if family in (LEBESGUE, RESTRICTED_LEBESGUE):
            pieces = ((end, 1.0, 0.0, d),)
        elif family in (POWER, TRUNCATED_POWER):
            pieces = ((end, 1.0, self.t * d, (1.0 - self.t) * d),)
        elif family == PIECEWISE:
            pieces = tuple((s.end, s.coef, s.exponent, d - s.exponent) for s in self.segments)
        object.__setattr__(self, "pieces", pieces)

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
            if not 0.0 <= seg.exponent < math.inf:
                raise DomainError(
                    f"segment exponents must lie in [0, inf), got {seg.exponent}: "
                    "a negative one increases, and densities must be nonincreasing"
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
        if self.family == LOG_SINGULARITY:
            return 1.0
        return self.pieces[-1][0]

    @property
    def breakpoints(self) -> tuple[float, ...]:
        if self.family == LOG_SINGULARITY:
            return (1.0,)
        return tuple(end for end, *_ in self.pieces if end < math.inf)

    # -- evaluation --------------------------------------------------------

    def log_f(self, r) -> np.ndarray:
        """log f(r), vectorized; -inf outside the support."""
        r = np.asarray(r, dtype=float)
        if len(self.pieces) == 1:
            end, coef, k, _ = self.pieces[0]
            inside = math.log(coef)
            if k != 0.0:
                with np.errstate(divide="ignore"):
                    inside = inside - k * np.log(r)
            if end == math.inf:
                return inside if k != 0.0 else np.full_like(r, inside)
            return np.where(r <= end, inside, -math.inf)
        with np.errstate(divide="ignore"):
            if self.family == LOG_SINGULARITY:
                out = np.full_like(r, -math.inf)
                inside = (r > 0) & (r < 1.0)
                out[inside] = np.log(-np.log(r[inside]))
                return out
            out = np.full_like(r, -math.inf)
            prev = 0.0
            for end, coef, k, _ in self.pieces:
                sel = (r > prev) & (r <= end)
                if coef > 0.0 and sel.any():
                    out[sel] = math.log(coef) - k * np.log(r[sel])
                prev = end
            return out

    def f(self, r) -> np.ndarray:
        """f(r) in linear scale (for low-dimensional brute-force work)."""
        return np.exp(self.log_f(r))

    def f_at(self, r: float) -> float:
        """f(r) at one radius r > 0: ``log_f`` branch for branch with the
        same numpy ufuncs on a float, so it equals ``float(self.f(r))`` bit
        for bit without the array overhead (QUADPACK integrands)."""
        if len(self.pieces) == 1:
            end, coef, k, _ = self.pieces[0]
            inside = math.log(coef)
            if k != 0.0:
                inside = inside - k * np.log(r)
            return float(np.exp(inside)) if r <= end else 0.0
        if self.family == LOG_SINGULARITY:
            return float(np.exp(np.log(-np.log(r)))) if r < 1.0 else 0.0
        for end, coef, k, _ in self.pieces:
            if r <= end:
                # a zero piece is -inf in log_f, whose exp is 0
                return float(np.exp(math.log(coef) - k * np.log(r))) if coef > 0.0 else 0.0
        return 0.0

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
        """``key = value`` lines that ``hlmax ... --config`` reads back."""
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


# -- radial mass (no sphere-area factor) -----------------------------------


def _mass_closed(density: RadialDensity, c: float) -> float:
    """The radial mass to c > 0 of a power-law density: the sum over the
    pieces below c of coef (hi^a - lo^a) / a, each term in log space."""
    terms = []
    lo = 0.0
    for end, coef, _, a in density.pieces:
        hi = min(c, end)
        if coef > 0.0:
            if lo == 0.0:
                terms.append(math.log(coef) + a * math.log(hi) - math.log(a))
            elif a == 0.0:
                terms.append(math.log(coef) + math.log(math.log(hi / lo)))
            else:
                # (hi^a - lo^a)/a = top^a (1 - (bot/top)^a)/|a|, top^a the larger
                top, bot = (hi, lo) if a > 0.0 else (lo, hi)
                terms.append(
                    math.log(coef) + a * math.log(top)
                    + math.log(-math.expm1(a * math.log(bot / top))) - math.log(abs(a))
                )
        if c <= end:
            break
        lo = end
    return log_sum(terms)


def _mass_quad(density: RadialDensity, radii, rel_tol: float) -> np.ndarray:
    """log of integral_0^c (-ln rho) rho^(d-1) d(rho), the log-singularity
    mass, by quadrature for each c > 0 in ``radii``.

    Each radius is clipped at the support radius 1, and each distinct
    clipped radius is one job of a ``log_integrate_batch`` call, with at
    most ``_MAX_MASS_JOBS`` jobs a call. A job is 16 panels in
    sigma = ln rho below its radius; its panels and refinement do not depend
    on the other jobs, so every mass has the bits of a call of its own.
    """
    hi = np.minimum(np.asarray(radii, dtype=float), density.support_radius)
    tops, job_of_radius = np.unique(hi, return_inverse=True)
    masses = np.empty(len(tops))
    d = density.dim

    def logf(x, tags):
        # f(e^s) e^(d s) ds
        return density.log_f(np.exp(x)) + (d - 1) * x + x

    for start in range(0, len(tops), _MAX_MASS_JOBS):
        chunk = tops[start:start + _MAX_MASS_JOBS].tolist()
        a, b = [], []
        for top in chunk:
            sig_hi = math.log(top)
            sig_lo = sig_hi - _SIGMA_MARGIN / d
            step = (sig_hi - sig_lo) / 16
            a += [sig_lo + i * step for i in range(16)]
            b += [sig_lo + (i + 1) * step for i in range(16)]
        job_of = np.repeat(np.arange(len(chunk)), 16)
        masses[start:start + len(chunk)] = log_integrate_batch(
            logf, a, b, job_of, job_of, len(chunk), rel_tol=rel_tol
        )
    return masses[job_of_radius]


def _log_radial_mass(density: RadialDensity, radii, rel_tol: float) -> np.ndarray:
    """log of integral_0^c f(rho) rho^(d-1) d(rho) for each c in ``radii``
    (-inf for c <= 0): the closed form of the power-law pieces, or for
    log-singularity one batched quadrature."""
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    out = np.full(len(radii), NEG_INF)
    pos = radii > 0.0
    if density.pieces:
        out[pos] = [_mass_closed(density, c) for c in radii[pos].tolist()]
    elif pos.any():
        out[pos] = _mass_quad(density, radii[pos], rel_tol)
    return out


# -- ball measures ----------------------------------------------------------


def log_ball_at_origin(density: RadialDensity, R: float) -> float:
    """log mu(B(0, R)) = log sigma^{d-1}(S^{d-1}) + log radial mass to R."""
    if not R > 0.0:
        raise DomainError(f"ball radius must be positive, got {R}")
    mass = float(_log_radial_mass(density, [R], DEFAULT_REL_TOL)[0])
    return log_sphere_area(density.dim) + mass  # -inf for a zero mass


def growth_h(density: RadialDensity, u: float, R):
    """log h_u(R) = log mu(B(0,R)) - log mu(B(0,uR)); lies in [0, -d ln u].

    ``R`` is a 1-D array of radii (a scalar counts as one radius), and the
    result is always an array of log h_u. The masses at R and uR of every
    radius come from one batched computation.
    """
    if not (0.0 < u < 1.0):
        raise DomainError(f"u must lie in (0, 1), got {u}")
    radii = np.atleast_1d(np.asarray(R, dtype=float))
    if not np.all(radii > 0.0):
        raise DomainError(f"ball radius must be positive, got {R}")
    n = len(radii)
    inner = u * radii
    log_sigma = log_sphere_area(density.dim)
    balls = log_sigma + _log_radial_mass(
        density, np.concatenate([radii, inner]), DEFAULT_REL_TOL
    )
    num, den = balls[:n], balls[n:]
    if np.any(den == NEG_INF):
        zero = float(inner[np.argmax(den == NEG_INF)])
        raise UndefinedGrowthError(f"mu(B(0, {zero})) = 0: growth ratio is undefined")
    return num - den


def _offcenter_logs(
    density: RadialDensity,
    center_radius,
    radii,
    rho_caps=None,
    rel_tol: float = DEFAULT_REL_TOL,
) -> np.ndarray:
    """log mu(B(x0, r) ∩ B(0, rho_cap)) for each r, ||x0|| = center_radius.

    ``center_radius`` is one norm for every ball or one per ball. The
    angular integral over each sphere of radius rho is an exact normalized
    cap area, leaving one radial integral per ball, and all balls share one
    quadrature call. The spheres a ball holds whole (all of them when its
    center is the origin) contribute a radial mass instead; the masses of
    all balls come from one batched computation.

    Where a sphere touches the ball's boundary (s = ±1) the cap fraction
    has a square-root endpoint at d = 2 (arccos(s)/pi) and a (1 - s)^(3/2)
    one at d = 4 ((phi - sin phi)/(2 pi)), which cost refinement rounds in
    rho. At these d each radial segment [mid - half, mid + half] is
    integrated in theta over [-pi/2, pi/2], with rho = mid + half sin theta
    and the Jacobian half cos theta, which makes both endpoints smooth, so an
    oracle call converges in its first round. At odd d the endpoint power
    (d - 1)/2 is whole, and from d = 6 on it is high enough that an oracle
    call in rho averages at most about 1.13 rounds.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if not np.all(radii > 0.0):
        raise DomainError("ball radii must be positive")
    n = len(radii)
    caps = np.full(n, math.inf) if rho_caps is None else np.atleast_1d(
        np.asarray(rho_caps, dtype=float)
    )
    if not np.all(caps >= 0.0):
        raise DomainError("cap radius must be nonnegative")
    centers = np.broadcast_to(np.asarray(center_radius, dtype=float), (n,))
    if not np.all(centers >= 0.0):
        raise DomainError("center radius must be nonnegative")
    d = density.dim
    log_sigma = log_sphere_area(d)

    lo = np.maximum(centers - radii, 0.0)
    hi = np.minimum(np.minimum(centers + radii, density.support_radius), caps)
    full_top = radii - centers  # below this radius whole spheres are inside
    reach = np.minimum(full_top, hi)
    full = (hi > lo) & (full_top > 0.0)
    full_parts = np.full(n, NEG_INF)
    if full.any():
        full_parts[full] = _log_radial_mass(density, reach[full], rel_tol)
    lo = np.where(full, np.maximum(lo, reach), lo)

    # radial segments between lo, the breakpoints inside (lo, hi) and hi; a
    # breakpoint outside clips to an empty segment, as does a ball with
    # hi <= lo
    edges = np.column_stack(
        [lo] + [np.clip(x, lo, hi) for x in density.breakpoints] + [hi]
    )
    seg_a = edges[:, :-1].ravel()
    seg_b = edges[:, 1:].ravel()
    seg_ball = np.repeat(np.arange(n), edges.shape[1] - 1)
    live = seg_b > seg_a
    seg_a, seg_b, seg_ball = seg_a[live], seg_b[live], seg_ball[live]

    quad_parts = np.full(n, NEG_INF)
    if len(seg_a):
        n_init = max(8, min(48, int(2.0 * math.sqrt(d))))
        k = np.arange(n_init)
        theta = d in (2, 4)
        if theta:
            step = math.pi / n_init
            left = np.tile(-0.5 * math.pi + k * step, len(seg_a))
            right = np.tile(-0.5 * math.pi + (k + 1) * step, len(seg_a))
            mid = 0.5 * (seg_a + seg_b)
            half = 0.5 * (seg_b - seg_a)
        else:
            step = ((seg_b - seg_a) / n_init)[:, None]
            left = seg_a[:, None] + k * step
            right = seg_a[:, None] + (k + 1) * step
        seg_r0 = centers[seg_ball]
        seg_r = radii[seg_ball]

        def logf(x, t):
            r0 = seg_r0[t]
            r = seg_r[t]
            rho = mid[t] + half[t] * np.sin(x) if theta else x
            s = (rho * rho + r0 * r0 - r * r) / (2.0 * rho * r0)
            with np.errstate(divide="ignore"):
                val = (
                    density.log_f(rho)
                    + (d - 1) * np.log(rho)
                    + log_cap_fraction(d, np.clip(s, -1.0, 1.0))
                )
                if theta:
                    val += np.log(half[t] * np.cos(x))
            return val

        quad_parts = log_integrate_batch(
            logf,
            left.ravel(),
            right.ravel(),
            np.repeat(np.arange(len(seg_a)), n_init),
            np.repeat(seg_ball, n_init),
            n,
            rel_tol=rel_tol,
        )

    # log_add of a part and -inf is the part itself, so only balls with both
    # parts need the scalar sum
    total = np.maximum(full_parts, quad_parts)
    for i in np.flatnonzero((full_parts > NEG_INF) & (quad_parts > NEG_INF)):
        total[i] = log_add(full_parts[i], quad_parts[i])
    return np.where(total > NEG_INF, log_sigma + total, NEG_INF)


def log_ball_offcenter(density: RadialDensity, center_radius: float, r: float) -> float:
    """log mu(B(x0, r)) for a center at distance ``center_radius`` from 0."""
    if not r > 0.0:
        raise DomainError(f"ball radius must be positive, got {r}")
    return float(_offcenter_logs(density, center_radius, [r])[0])

