"""Special functions and exact sphere/ball/cap measures, all in log space.

Everything here stays finite for dimensions well beyond 10^4: ball volumes
and cap areas are produced as logs, and the normalized cap area is computed
through a log-domain regularized incomplete beta rather than quadrature,
which would underflow for d beyond a few hundred.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .logspace import LogValue

LN_HALF = math.log(0.5)
LN_PI = math.log(math.pi)
_BETACF_MAX_ITER = 1000
_BETACF_EPS = 1e-15
_FPMIN = 1e-300


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0.

    Backed by the platform lgamma (Lanczos-class, ~1 ulp); certificates
    multiply dozens of Gamma factors so 13+ significant digits matter.
    """
    if x <= 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _log_ball_volume(d: int) -> float:
    if d < 1 or int(d) != d:
        raise DomainError(f"ball volume needs integer d >= 1, got {d}")
    return 0.5 * d * LN_PI - log_gamma(1.0 + 0.5 * d)


def _log_sphere_area(d: int) -> float:
    # surface area of the unit (d-1)-sphere equals d times the unit d-ball volume
    ball = _log_ball_volume(d)
    return math.log(d) + ball


def log_ball_volume(d: int) -> LogValue:
    """Log volume of the unit ball in R^d: (d/2) ln pi - ln Gamma(1 + d/2)."""
    return LogValue(_log_ball_volume(d))


def log_sphere_area(d: int) -> LogValue:
    """Log surface area of the unit (d-1)-sphere in R^d."""
    return LogValue(_log_sphere_area(d))


def gamma_ratio_bounds_hold(d: int) -> bool:
    """Check (d/2)^(1/2) <= Gamma(1+d/2)/Gamma(1/2+d/2) <= ((d+1)/2)^(1/2).

    Both sides are evaluated through log_gamma; a slack of -1e-12 is allowed
    for roundoff.
    """
    if d < 1:
        raise DomainError(f"d >= 1 required, got {d}")
    mid = log_gamma(1.0 + 0.5 * d) - log_gamma(0.5 + 0.5 * d)
    lo = 0.5 * math.log(0.5 * d)
    hi = 0.5 * math.log(0.5 * (d + 1))
    return (mid - lo) >= -1e-12 and (hi - mid) >= -1e-12


@dataclass(frozen=True)
class CapSpec:
    """A spherical cap given by (s, t) = (cos r, sin r) of its angular radius.

    Caps here are at most hemispheres: s in [0, 1), t in (0, 1].
    """

    dim: int
    s: float
    t: float

    def __post_init__(self):
        if self.dim < 2 or int(self.dim) != self.dim:
            raise DomainError(f"cap area formulas need integer dim >= 2, got {self.dim}")
        if not (0.0 <= self.s < 1.0):
            raise DomainError(f"s must lie in [0, 1), got {self.s}")
        if not (0.0 < self.t <= 1.0):
            raise DomainError(f"t must lie in (0, 1], got {self.t}")
        if abs(self.s * self.s + self.t * self.t - 1.0) > 1e-12:
            raise DomainError(
                f"(s, t) must satisfy s^2 + t^2 = 1 to 1e-12, got s={self.s}, t={self.t}"
            )

    @classmethod
    def from_cos(cls, dim: int, s: float) -> "CapSpec":
        t = math.sqrt(max((1.0 - s) * (1.0 + s), 0.0))
        return cls(dim, s, t)


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta (modified Lentz), vectorized.

    Converges for x < (a+1)/(a+b+2); callers route the other half through the
    symmetry I_x(a,b) = 1 - I_{1-x}(b,a).
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
    d = 1.0 / d
    h = d.copy()
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
        c = 1.0 + aa / c
        np.copyto(c, _FPMIN, where=np.abs(c) < _FPMIN)
        d = 1.0 / d
        h = h * d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
        c = 1.0 + aa / c
        np.copyto(c, _FPMIN, where=np.abs(c) < _FPMIN)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        if np.all(np.abs(delta - 1.0) < _BETACF_EPS):
            return h
    raise NumericalError(
        f"incomplete beta continued fraction failed to converge (a={a}, b={b})"
    )


def _log_betainc(a: float, b: float, x: np.ndarray, one_minus_x: np.ndarray) -> np.ndarray:
    """log of the regularized incomplete beta I_x(a, b), elementwise.

    ``one_minus_x`` must be the exact complement of ``x``; passing it
    separately avoids cancellation when x is close to 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(one_minus_x, dtype=float)
    out = np.empty_like(x)
    out[x <= 0.0] = -math.inf
    out[y <= 0.0] = 0.0
    inner = (x > 0.0) & (y > 0.0)
    if inner.any():
        xs = x[inner]
        ys = y[inner]
        res = np.empty_like(xs)
        log_b_ab = _log_beta(a, b)
        switch = (a + 1.0) / (a + b + 2.0)
        direct = xs < switch
        if direct.any():
            xd = xs[direct]
            yd = ys[direct]
            cf = _betacf(a, b, xd)
            res[direct] = (
                a * np.log(xd) + b * np.log(yd) - math.log(a) - log_b_ab + np.log(cf)
            )
        comp = ~direct
        if comp.any():
            xc = xs[comp]
            yc = ys[comp]
            cf = _betacf(b, a, yc)
            log_j = b * np.log(yc) + a * np.log(xc) - math.log(b) - log_b_ab + np.log(cf)
            res[comp] = np.log1p(-np.exp(log_j))
        out[inner] = res
    return out


def log_cap_fraction(dim: int, s) -> np.ndarray:
    """Log of the normalized area of {theta in S^{d-1}: <theta, e1> >= s}.

    Accepts any s in [-1, 1] (clipped), so caps larger than a hemisphere are
    handled via the complement. Vectorized over s.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.empty_like(s)
    if dim == 1:
        # S^0 = {-1, +1}: half the "sphere" lies on each side
        out[:] = LN_HALF
        out[s > 1.0] = -math.inf
        out[s <= -1.0] = 0.0
        return out
    a = 0.5 * (dim - 1)
    b = 0.5
    sc = np.clip(s, -1.0, 1.0)
    mag = np.abs(sc)
    x = (1.0 - mag) * (1.0 + mag)  # t^2, exact near |s| = 1
    y = mag * mag
    log_i = _log_betainc(a, b, x, y)
    pos = sc >= 0.0
    out[pos] = LN_HALF + log_i[pos]
    neg = ~pos
    if neg.any():
        out[neg] = np.log1p(-0.5 * np.exp(log_i[neg]))
    out[s > 1.0] = -math.inf
    out[s <= -1.0] = 0.0
    return out


def cap_area_exact(cap: CapSpec) -> LogValue:
    """Log of the normalized cap area, via the regularized incomplete beta.

    The slice integral of sin^{d-2} reduces to (1/2) I_{t^2}((d-1)/2, 1/2),
    which stays in log space at any dimension.
    """
    a = 0.5 * (cap.dim - 1)
    x = np.array([cap.t * cap.t])
    y = np.array([cap.s * cap.s])
    val = LN_HALF + float(_log_betainc(a, 0.5, x, y)[0])
    return LogValue(val)


def cap_area_bounds(cap: CapSpec) -> tuple[LogValue, LogValue]:
    """Two-sided estimate of the normalized cap area.

    Returns (t^{d-1}/sqrt(2 pi d), t^{d-1} sqrt(1+1/d)/(s sqrt(2 pi d))).
    The upper bound divides by s, so s = 0 is rejected.
    """
    if cap.s == 0.0:
        raise DomainError("cap_area_bounds needs s > 0 (upper bound divides by s)")
    d = cap.dim
    base = (d - 1) * math.log(cap.t) - 0.5 * math.log(2.0 * math.pi * d)
    lower = base
    upper = base - math.log(cap.s) + 0.5 * math.log1p(1.0 / d)
    return LogValue(lower), LogValue(upper)
