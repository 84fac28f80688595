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


# From this a up (with b = 1/2), I_x(a, b) avoids three losses of accuracy:
# - ln B(a, 1/2) comes from the asymptotic series of ln Gamma(a + 1/2) -
#   ln Gamma(a) (coefficients checked against 50-digit mpmath). The lgamma
#   difference cancels: absolute error 2e-13 at a = 500, 8e-12 at a = 5000.
#   The first omitted term is -31/(18432 a^9), below 4e-25 here.
# - ln x is log1p(-y) where y < 1/2: a ln x multiplies the rounding error
#   of x = (1-|s|)(1+|s|) by a (1.4e-12 in the log at a = 5e4, s = -0.001).
# - Where z = -(a - 1/4) ln x <= _NEAR_ONE_Z, that is near and above the
#   continued fraction's switch point, _log_betainc_near_one replaces the
#   continued fraction, which loses about a ulp times a to cancellation
#   there (8e-12 relative at a = 5e4, s = -0.0057).
# The threshold lies above the largest a of the golden records (249.5),
# which keep the plain forms byte for byte.
_LARGE_A = 256.0
_NEAR_ONE_Z = 100.0
# d_n of (sinh(w/2)/(w/2))^(-1/2) = sum_n d_n w^(2n), from 50-digit mpmath.
# For a >= _LARGE_A and z <= _NEAR_ONE_Z the first omitted term is below
# 1e-22 of the sum.
_NEAR_ONE_D = (
    1.0,
    -1.0 / 48.0,
    1.0 / 2560.0,
    -7.8796709656084656085e-6,
    1.6967665791721781305e-7,
    -3.8050641917219065657e-9,
    8.7483775963154073041e-11,
    -2.0445233594119738176e-12,
    4.8333517979677044083e-14,
)


def _log_gamma_ratio_half(a: float) -> float:
    """ln Gamma(a + 1/2) - ln Gamma(a), for a >= _LARGE_A."""
    r = 1.0 / a
    r2 = r * r
    return 0.5 * math.log(a) + r * (
        -1.0 / 8.0 + r2 * (1.0 / 192.0 + r2 * (-1.0 / 640.0 + r2 * (17.0 / 14336.0)))
    )


def _log_beta(a: float, b: float) -> float:
    if b == 0.5 and a >= _LARGE_A:
        return 0.5 * LN_PI - _log_gamma_ratio_half(a)
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _log_betainc_near_one(a: float, z: np.ndarray) -> np.ndarray:
    """ln I_x(a, 1/2) for a >= _LARGE_A, given z = -(a - 1/4) ln x <= _NEAR_ONE_Z.

    With x = e^-w and nu = a - 1/4 the integrand of I_x is
    e^(-nu w) w^(-1/2) (sinh(w/2)/(w/2))^(-1/2) / B(a, 1/2), so
    I_x = sum_n d_n Gamma(1/2 + 2n, z) / (B(a, 1/2) nu^(1/2 + 2n)). Every
    Gamma(s, z) follows from Gamma(1/2, z) = sqrt(pi) erfc(sqrt z) by
    Gamma(s + 1, z) = s Gamma(s, z) + z^s e^-z, which adds positive terms.
    """
    nu = a - 0.25
    root = np.sqrt(z)
    gam = math.sqrt(math.pi) * np.array([math.erfc(v) for v in root.tolist()])
    power = root * np.exp(-z)  # z^s e^-z at s = 1/2
    s = 0.5
    total = gam.copy()
    scale = 1.0
    for d_n in _NEAR_ONE_D[1:]:
        for _ in range(2):
            gam = s * gam + power
            power = power * z
            s += 1.0
        scale /= nu * nu
        total = total + d_n * scale * gam
    return _log_gamma_ratio_half(a) - 0.5 * math.log(math.pi * nu) + np.log(total)


def _betacf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta (modified Lentz), vectorized.

    Converges for x < (a+1)/(a+b+2); callers route the other half through the
    symmetry I_x(a,b) = 1 - I_{1-x}(b,a).

    Each lane stops at the first iteration where its own |delta - 1| drops
    below _BETACF_EPS, so its value does not depend on the other lanes of
    the batch. A converged lane's d becomes NaN, which fails every later
    test; the arrays drop such lanes once half or fewer remain live, which
    amortises the copying over the iterations.

    Inside the loop the Lentz guard |d| < _FPMIN can only meet d = +0: a
    double 1 + t is +0 or at least 2^-53 in magnitude. So the reciprocal
    1/d = +inf is clamped to 1/_FPMIN, which leaves NaN lanes NaN.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    out = np.empty_like(x)
    idx = np.arange(x.size)
    n_live = x.size
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
    d = 1.0 / d
    h = d.copy()
    with np.errstate(divide="ignore"):
        for m in range(1, _BETACF_MAX_ITER + 1):
            m2 = 2 * m
            aa = m * (b - m) * x / ((qam + m2) * (a + m2))
            d *= aa
            d += 1.0
            np.divide(1.0, d, out=d)
            np.minimum(d, 1.0 / _FPMIN, out=d)
            np.divide(aa, c, out=c)
            c += 1.0
            np.copyto(c, _FPMIN, where=c == 0.0)
            h *= d
            h *= c
            aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
            d *= aa
            d += 1.0
            np.divide(1.0, d, out=d)
            np.minimum(d, 1.0 / _FPMIN, out=d)
            np.divide(aa, c, out=c)
            c += 1.0
            np.copyto(c, _FPMIN, where=c == 0.0)
            delta = d * c
            h *= delta
            delta -= 1.0
            err = np.abs(delta, out=delta)
            if np.fmin.reduce(err) < _BETACF_EPS:  # fmin skips the NaN lanes
                done = err < _BETACF_EPS
                out[idx[done]] = h[done]
                n_live -= np.count_nonzero(done)
                if n_live == 0:
                    return out
                d[done] = np.nan
                if 2 * n_live <= d.size:
                    live = d == d
                    idx, x, c, d, h = idx[live], x[live], c[live], d[live], h[live]
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
        log_x = np.log(xs)
        use_cf = np.ones(xs.size, dtype=bool)
        if b == 0.5 and a >= _LARGE_A:
            near_one = ys < 0.5
            log_x[near_one] = np.log1p(-ys[near_one])
            z = -(a - 0.25) * log_x
            use_cf = z > _NEAR_ONE_Z
            res[~use_cf] = _log_betainc_near_one(a, z[~use_cf])
        switch = (a + 1.0) / (a + b + 2.0)
        direct = use_cf & (xs < switch)
        if direct.any():
            xd = xs[direct]
            yd = ys[direct]
            cf = _betacf(a, b, xd)
            res[direct] = (
                a * log_x[direct] + b * np.log(yd) - math.log(a) - log_b_ab + np.log(cf)
            )
        comp = use_cf & ~direct
        if comp.any():
            yc = ys[comp]
            cf = _betacf(b, a, yc)
            log_j = b * np.log(yc) + a * log_x[comp] - math.log(b) - log_b_ab + np.log(cf)
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
