"""Independent oracles used by the tests.

Everything here is deliberately primitive (closed-form plane geometry,
refined trapezoid sums, direct QUADPACK quadrature, seeded Monte Carlo) and
shares no code with the log-space engine it checks.
"""
import json
import math
import os

import mpmath
import numpy as np
from scipy import integrate

# dimensions of the stored 30-digit cap-fraction references
HIGH_D_DIMS = (2, 3, 4, 5, 200, 300, 500, 513, 5000, 10_000, 100_000)
HIGH_D_REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cap_refs_highd.json")


def lens_area(r1: float, r2: float, dist: float) -> float:
    """Area of the intersection of two disks with radii r1, r2 at distance d."""
    if dist >= r1 + r2:
        return 0.0
    if dist <= abs(r1 - r2):
        return math.pi * min(r1, r2) ** 2
    d1 = (dist * dist + r1 * r1 - r2 * r2) / (2.0 * dist)
    d2 = (dist * dist + r2 * r2 - r1 * r1) / (2.0 * dist)
    tri = 0.5 * math.sqrt(
        max(
            (-dist + r1 + r2) * (dist + r1 - r2) * (dist - r1 + r2) * (dist + r1 + r2),
            0.0,
        )
    )
    return (
        r1 * r1 * math.acos(max(min(d1 / r1, 1.0), -1.0))
        + r2 * r2 * math.acos(max(min(d2 / r2, 1.0), -1.0))
        - tri
    )


def refined_trapezoid(f, a: float, b: float, n: int = 2000) -> float:
    """Trapezoid sum at n and 2n subdivisions with one Richardson step."""

    def trap(m):
        xs = np.linspace(a, b, m + 1)
        ys = np.array([f(x) for x in xs])
        return float(np.trapezoid(ys, xs))

    t1 = trap(n)
    t2 = trap(2 * n)
    return t2 + (t2 - t1) / 3.0


def sin_power_integral(k: int, theta: float) -> float:
    """integral_0^theta sin(t)^k dt by direct adaptive quadrature."""
    val, _ = integrate.quad(lambda t: math.sin(t) ** k, 0.0, theta, epsabs=1e-14)
    return val


def sphere_area_linear(d: int) -> float:
    return 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)


def normalized_cap_by_quadrature(d: int, s: float) -> float:
    """Normalized cap area via the recursion sigma^{d-2} * int sin^{d-2}."""
    theta = math.acos(s)
    return (
        sphere_area_linear(d - 1)
        * sin_power_integral(d - 2, theta)
        / sphere_area_linear(d)
    )


def mc_ball_volume(d: int, n: int = 400000, seed: int = 12345) -> float:
    """Monte Carlo volume of the unit d-ball from the enclosing cube."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(n, d))
    inside = np.sum(np.sum(pts * pts, axis=1) <= 1.0)
    return 2.0 ** d * inside / n


def halfspace_ball_slab_volume(d: int, s: float) -> float:
    """lambda^d(B^d ∩ {x1 >= s}) through a 1-d slice integral."""
    vol_dm1 = math.pi ** (0.5 * (d - 1)) / math.gamma(0.5 * (d - 1) + 1.0)
    val, _ = integrate.quad(
        lambda x: (1.0 - x * x) ** (0.5 * (d - 1)), s, 1.0, epsabs=1e-14
    )
    return vol_dm1 * val


def halfspace_masses(
    density, center_radius: float, r: float, n: int = 20000, seed: int = 0
):
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


def unit_ball_rate_base(v, q):
    """Per-dimension base 2 v^(1/q) / sqrt(3 + 2 v^2 - v^4) of the witness
    bound for the unit-ball measure; the bound grows exponentially iff this
    exceeds 1. Vectorized."""
    v = np.asarray(v, dtype=float)
    return 2.0 * v ** (1.0 / q) / np.sqrt(3.0 + 2.0 * v * v - v ** 4)


def offcenter_mass_quadpack(density, center: float, r: float, rho_lo=None, rho_hi=None):
    """mu(B(center e1, r)) restricted to rho in [rho_lo, rho_hi], via nested
    QUADPACK integrals in linear scale (low dimensions only)."""
    d = density.dim
    lo = max(center - r, 0.0) if rho_lo is None else max(rho_lo, center - r, 0.0)
    hi = min(center + r, density.support_radius)
    if rho_hi is not None:
        hi = min(hi, rho_hi)
    if hi <= lo:
        return 0.0
    full = sin_power_integral(d - 2, math.pi) if d >= 2 else None

    def cap_frac(s):
        if s <= -1.0:
            return 1.0
        if s >= 1.0:
            return 0.0
        if d == 1:
            return 0.5
        return sin_power_integral(d - 2, math.acos(s)) / full * (
            sphere_area_linear(d - 1) / sphere_area_linear(d)
        ) * full  # == sigma^{d-2} int / sigma^{d-1}

    def integrand(rho):
        if center == 0.0:
            frac = 1.0 if rho <= r else 0.0
        else:
            s = (rho * rho + center * center - r * r) / (2.0 * rho * center)
            frac = cap_frac(s)
        return float(density.f(rho)) * rho ** (d - 1) * frac

    pts = [x for x in density.breakpoints if lo < x < hi]
    if center > 0.0 and lo < r - center < hi:
        pts.append(r - center)
    val, _ = integrate.quad(integrand, lo, hi, points=sorted(pts) or None, limit=400)
    return sphere_area_linear(d) * val


def mp_log_cap_fraction(d: int, s: float) -> mpmath.mpf:
    """ln of the normalized cap area at 30 digits.

    I_x(a, 1/2) = x^a 2F1(a, 1/2; a+1; x) / (a B(a, 1/2)) with x = 1 - s^2,
    and 2F1(a, 1/2; a+1; x) = int_0^inf e^-u (y - x expm1(-u/a))^(-1/2) du
    with y = s^2, which has no cancellation near x = 1. mpmath.betainc and
    hyp2f1 stop converging there at d = 10^5.
    """
    with mpmath.workdps(30):
        a = mpmath.mpf(d - 1) / 2
        half = mpmath.mpf(1) / 2
        y = mpmath.mpf(s) ** 2
        x = 1 - y
        f = mpmath.quad(
            lambda u: mpmath.exp(-u) / mpmath.sqrt(y - x * mpmath.expm1(-u / a)),
            [0, 1, 10, mpmath.inf],
        )
        log_i = a * mpmath.log(x) + mpmath.log(f) - mpmath.log(a)
        log_i -= mpmath.log(mpmath.beta(a, half))
        if s >= 0:
            return mpmath.log(half) + log_i
        return mpmath.log1p(-half * mpmath.exp(log_i))


def high_d_s_grid(d: int) -> np.ndarray:
    """The s values of the stored references at dimension d: the whole
    range, plus the band |s| < 8/sqrt(d) around the continued fraction's
    switch point, where the cap fraction changes fastest."""
    band = min(8.0 / math.sqrt(d), 0.999)
    return np.unique(
        np.concatenate([np.linspace(-0.999, 0.999, 41), np.linspace(-band, band, 21)])
    )


def load_high_d_refs() -> dict:
    """{d: (s, ln cap fraction)} as stored by scripts/make_cap_refs.py."""
    with open(HIGH_D_REFS) as fh:
        raw = json.load(fh)
    return {int(d): (np.array(v["s"]), np.array(v["log_cap"])) for d, v in raw.items()}
