"""Lower-bound certificates for the best weak-type (p,p) constants.

The basic witness is the indicator of B(0, vR): its maximal function at
distance R from the origin is at least
alpha = mu(B(0,vR)) / (2 mu(B(R e1, H))) with H = R sqrt(1 + v^2), and by
rotational invariance the whole ball B(0,R) sits inside the level set.
That yields

    c >= mu(B(0,vR))^(1/q) mu(B(0,R))^(1/p) / (2 mu(B(R e1, H))).

Construction-specific builders pick (v, R) so the denominator is
exponentially small against the numerator in the dimension d; each one also
carries an analytic floor whose constants come from the explicit two-sided
cap-area estimates, so every reported bound is fully numeric.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    EmptyTestFunctionError,
    HypothesisViolationError,
    NonSettlingTailError,
)
from .geometry import cap_containment_params, sphere_ball_cap
from .logspace import LN2, NEG_INF, LogValue, log_sum
from .radial import (
    RadialDensity,
    growth_h,
    log_ball_at_origin,
    log_ball_offcenter,
)
from .specfun import _log_ball_volume, _log_sphere_area

U_SPLIT = math.sqrt(2.0 / 3.0)  # shell ratio that makes the three-piece split work
T1_MAX = math.log(64.0 / 55.0) / math.log(9.0 / 4.0)
BESICOVITCH_BASE = 2.641  # covering-theorem constant; its o(1) term is dropped

# caps for the outer and middle pieces of the split at v = 1/2, H = R sqrt(5)/2
_OUT_CAP = sphere_ball_cap(1.0, 1.0, math.sqrt(5.0) / 2.0)  # s = 3/8
_MID_CAP = sphere_ball_cap(U_SPLIT, 1.0, math.sqrt(5.0) / 2.0)


def conjugate_exponent(p: float) -> float:
    if p < 1.0:
        raise DomainError(f"p must be >= 1, got {p}")
    return math.inf if p == 1.0 else p / (p - 1.0)


@dataclass(frozen=True)
class Certificate:
    """A complete lower-bound record: witness parameters, the three measure
    terms, and the resulting log bound (valid for both the weak-type and the
    strong-type constant)."""

    density: RadialDensity
    p: float
    q: float
    v: float
    R: float
    H: float
    term_inner: LogValue  # mu(B(0, vR))
    term_level: LogValue  # mu(B(0, R))
    term_denom: LogValue  # mu(B(R e1, H))
    log_lower_bound: float
    construction: str

    def __post_init__(self):
        if abs(self.H * self.H - self.R * self.R * (1.0 + self.v * self.v)) > 1e-12 * self.H * self.H:
            raise DomainError("H must equal R sqrt(1 + v^2)")
        if self.term_inner.log_magnitude > self.term_level.log_magnitude + 1e-9:
            raise DomainError("inner ball cannot outweigh the level ball")
        if abs(self.log_lower_bound - self.recompute_log_lower()) > 1e-9:
            raise DomainError("stored bound does not match its terms")

    def recompute_log_lower(self) -> float:
        return _witness_log(self.p, self.term_inner, self.term_level, self.term_denom)

    @property
    def alpha_log(self) -> float:
        """log of the maximal-function level witnessed at R e1."""
        return self.term_inner.log_magnitude - LN2 - self.term_denom.log_magnitude

    @property
    def rate_per_dim(self) -> float:
        return self.log_lower_bound / self.density.dim

    def to_record(self) -> dict:
        return {
            "construction": self.construction,
            "family": self.density.family.replace("_", "-"),
            "d": self.density.dim,
            "t": self.density.t,
            "p": self.p,
            "q": self.q,
            "v": self.v,
            "R": self.R,
            "H": self.H,
            "log_term_inner": self.term_inner.log_magnitude,
            "log_term_level": self.term_level.log_magnitude,
            "log_term_denom": self.term_denom.log_magnitude,
            "alpha_log": self.alpha_log,
            "log_lower_bound": self.log_lower_bound,
            "rate_per_dim": self.rate_per_dim,
            "weak_type_log_lower_bound": self.log_lower_bound,
            "strong_type_log_lower_bound": self.log_lower_bound,
            "upper_log": besicovitch_upper(self.density.dim, self.p),
            "provenance": "exact",
        }


@dataclass(frozen=True)
class ScanRow:
    """One sweep cell: a lower bound, its per-dimension rate, and the
    covering-theorem upper bound it must stay under."""

    family: str
    params: str
    d: int
    p: float
    log_lower_bound: float
    per_dim_rate: float
    upper_log: float
    error: str = ""

    def __post_init__(self):
        if not self.error and self.log_lower_bound > self.upper_log:
            raise DomainError(
                f"lower bound exp({self.log_lower_bound}) exceeds the universal "
                f"upper bound exp({self.upper_log}) at d={self.d}, p={self.p}"
            )


@dataclass(frozen=True)
class HypothesisReport:
    """Grid evidence for the growth hypothesis; a semi-decision by nature."""

    u: float
    sup_required_log: float
    sup_estimate_log: float
    sup_location: float
    tail_required_log: float
    tail_radii: tuple
    tail_log_values: tuple
    note: str = "verified on grid"


@dataclass(frozen=True)
class DecpResult:
    certificate: Certificate
    floor_log: float
    epsilon: float
    r1: float
    hypothesis: HypothesisReport
    degenerate_rate: bool


@dataclass(frozen=True)
class GeneralizedDecpResult:
    certificate: Certificate
    p0: float
    b: float
    beta_log: float
    hypothesis: HypothesisReport
    degenerate_rate: bool


@dataclass(frozen=True)
class DoublingResult:
    certificate: Certificate
    floor_log: float
    inner_term_log: float
    middle_bound_log: float
    outer_bound_log: float
    dominance_ok: bool
    d0: int
    b0: float


@dataclass(frozen=True)
class LebesgueBallResult:
    certificate: Certificate
    floor_log: float


# -- core operation ----------------------------------------------------------


def _weight_q(p: float) -> float:
    """1/q, the weight of the inner term (exactly 0 at p = 1)."""
    return 0.0 if p == 1.0 else 1.0 - 1.0 / p


def _witness_log(p: float, inner: LogValue, level: LogValue, denom: LogValue) -> float:
    return (
        _weight_q(p) * inner.log_magnitude
        + level.log_magnitude / p
        - LN2
        - denom.log_magnitude
    )


@dataclass(frozen=True)
class WitnessTerms:
    """The p-independent part of the witness bound at (v, R): the measures
    mu(B(0, vR)), mu(B(0, R)) and mu(B(R e1, H)). Only the weights that
    combine them depend on p, so one instance serves every p."""

    density: RadialDensity
    v: float
    R: float
    H: float
    inner: LogValue
    level: LogValue
    denom: LogValue

    @classmethod
    def prepare(
        cls, density: RadialDensity, v: float, R: float, rel_tol: float = None
    ) -> "WitnessTerms":
        if not (0.0 < v <= 1.0):
            raise DomainError(f"v must lie in (0, 1], got {v}")
        if R <= 0.0:
            raise DomainError(f"R must be positive, got {R}")
        H = R * math.sqrt(1.0 + v * v)
        inner = log_ball_at_origin(density, v * R, rel_tol)
        if inner.is_zero:
            raise EmptyTestFunctionError(f"mu(B(0, {v * R})) = 0: empty test function")
        level = log_ball_at_origin(density, R, rel_tol)
        denom = log_ball_offcenter(density, R, H, rel_tol)
        return cls(density, v, R, H, inner, level, denom)

    def certificate(self, p: float, construction: str = "lemma_direct") -> Certificate:
        """The witness bound at exponent p."""
        return Certificate(
            self.density, p, conjugate_exponent(p), self.v, self.R, self.H,
            self.inner, self.level, self.denom,
            _witness_log(p, self.inner, self.level, self.denom), construction,
        )


def lemma_certificate(
    density: RadialDensity,
    p: float,
    v: float,
    R: float,
    rel_tol: float = None,
    construction: str = "lemma_direct",
) -> Certificate:
    """Evaluate the witness bound at a given (v, R).

    At p = 1 the conjugate weight 1/q vanishes and the bound collapses to
    mu(B(0,R)) / (2 mu(B(R e1, H))).
    """
    conjugate_exponent(p)  # reject p < 1 before any quadrature
    return WitnessTerms.prepare(density, v, R, rel_tol).certificate(p, construction)


# -- growth-hypothesis machinery ---------------------------------------------

_TAIL_FACTORS = (1e3, 1e4, 1e5, 1e6)
_GRID_POINTS = 97  # log-spaced over 12 decades


def _density_scale(density: RadialDensity) -> float:
    supp = density.support_radius
    return supp if math.isfinite(supp) else 1.0


def _log_h(density: RadialDensity, u: float, R: float, rel_tol) -> float:
    return growth_h(density, u, R, rel_tol).log_magnitude


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, a, b, iters, tol: float = 0.0):
    """Golden-section search for a maximum of f on [a, b].

    Stops after ``iters`` steps or once the bracket is narrower than
    ``tol``; returns (x, f(x)) for the better of the two final probes. A
    log-spaced search passes the transformed variable, e.g.
    ``lambda x: g(math.exp(x))`` over [log lo, log hi].

    With sequences ``a`` and ``b`` the brackets are searched in lockstep,
    each for its own number of steps when ``iters`` is a sequence too. Then
    ``f(x, lanes)`` gets a list with one probe for each bracket still
    searching and the list of their indices, and returns their values, so
    one call serves a whole step; x and f(x) come back as arrays.
    """
    if np.ndim(a) == 0:
        x, fx = golden_section_max(lambda x, lanes: [f(x[0])], [a], [b], [iters], tol)
        return float(x[0]), float(fx[0])
    a = [float(t) for t in a]
    b = [float(t) for t in b]
    iters = [int(k) for k in iters] if np.ndim(iters) else [iters] * len(a)
    lanes = list(range(len(a)))
    c = [b[i] - _INVPHI * (b[i] - a[i]) for i in lanes]
    d = [a[i] + _INVPHI * (b[i] - a[i]) for i in lanes]
    fc, fd = list(f(c, lanes)), list(f(d, lanes))
    for step in range(max(iters, default=0)):
        live = [i for i in lanes if step < iters[i] and not b[i] - a[i] < tol]
        if not live:
            break
        up = [fc[i] > fd[i] for i in live]
        probes = []
        for i, left in zip(live, up):
            if left:
                b[i], d[i], fd[i] = d[i], c[i], fc[i]
                c[i] = b[i] - _INVPHI * (b[i] - a[i])
                probes.append(c[i])
            else:
                a[i], c[i], fc[i] = c[i], d[i], fd[i]
                d[i] = a[i] + _INVPHI * (b[i] - a[i])
                probes.append(d[i])
        for i, left, val in zip(live, up, f(probes, live)):
            if left:
                fc[i] = val
            else:
                fd[i] = val
    best = [(c[i], fc[i]) if fc[i] > fd[i] else (d[i], fd[i]) for i in lanes]
    return np.array([x for x, _ in best]), np.array([fx for _, fx in best])


def _check_hypothesis_and_pick_r1(
    density: RadialDensity,
    u: float,
    log_thr_sup: float,
    log_thr_tail: float,
    log_thr_window: float,
    epsilon: float,
    rel_tol,
) -> tuple[HypothesisReport, float]:
    """Verify sup/limsup growth thresholds on a grid and locate a radius R1
    with h(R1) above (1-eps) of the sup threshold while h at the next two
    shell radii stays below (1+eps) of the window threshold."""
    if not (0.0 < epsilon < 0.1):
        raise DomainError(f"epsilon must lie in (0, 1/10), got {epsilon}")
    scale = _density_scale(density)
    grid = np.geomspace(1e-6 * scale, 1e6 * scale, _GRID_POINTS)
    h_vals = np.array([_log_h(density, u, R, rel_tol) for R in grid])

    # sup over R > 0, sharpened around the grid argmax
    i_max = int(np.argmax(h_vals))
    lo = math.log(grid[max(i_max - 1, 0)])
    hi = math.log(grid[min(i_max + 1, len(grid) - 1)])
    x, sup_est = golden_section_max(
        lambda x: _log_h(density, u, math.exp(x), rel_tol), lo, hi, 24
    )
    sup_loc = math.exp(x)
    if h_vals[i_max] > sup_est:
        sup_loc, sup_est = grid[i_max], h_vals[i_max]
    if sup_est < log_thr_sup - 1e-9:
        raise HypothesisViolationError(
            "sup",
            f"grid sup of h_u is exp({sup_est:.6g}) but the hypothesis needs "
            f"exp({log_thr_sup:.6g})",
        )

    # limsup via tail samples, required monotone within tolerance
    tail_radii = tuple(f * scale for f in _TAIL_FACTORS)
    tail_vals = tuple(_log_h(density, u, R, rel_tol) for R in tail_radii)
    for a, b in zip(tail_vals[:-1], tail_vals[1:]):
        if b > a + 1e-9:
            raise NonSettlingTailError(
                "tail samples of h_u increase between "
                f"{tail_radii}; limsup check is inconclusive"
            )
    if tail_vals[-1] > log_thr_tail + 1e-9:
        raise HypothesisViolationError(
            "limsup",
            f"tail value of h_u is exp({tail_vals[-1]:.6g}) but the hypothesis "
            f"caps the limsup at exp({log_thr_tail:.6g})",
        )

    report = HypothesisReport(
        u=u,
        sup_required_log=log_thr_sup,
        sup_estimate_log=sup_est,
        sup_location=sup_loc,
        tail_required_log=log_thr_tail,
        tail_radii=tail_radii,
        tail_log_values=tail_vals,
    )

    thr_a = math.log1p(-epsilon) + log_thr_sup
    thr_w = math.log1p(epsilon) + log_thr_window

    def window_ok(R: float) -> bool:
        return (
            _log_h(density, u, R / u, rel_tol) < thr_w
            and _log_h(density, u, R / (u * u), rel_tol) < thr_w
        )

    in_a = h_vals >= thr_a
    if in_a[-1]:
        # the admissible set reaches the end of the grid: march outward
        R = float(grid[-1])
        for _ in range(60):
            if _log_h(density, u, R, rel_tol) >= thr_a and window_ok(R):
                return report, R
            R /= u * u
        raise NonSettlingTailError(
            "could not find a window radius: h_u stays above threshold "
            "arbitrarily far out but the shell values never settle"
        )

    candidates = [i for i in range(len(grid)) if in_a[i]]
    if not candidates and sup_est >= thr_a:
        # sup refinement found the only admissible spot
        if window_ok(sup_loc):
            return report, float(sup_loc)
    for i in reversed(candidates):
        r_lo, r_hi = float(grid[i]), float(grid[i + 1])
        for _ in range(90):  # bisect the upper boundary of the admissible set
            mid = math.sqrt(r_lo * r_hi)
            if _log_h(density, u, mid, rel_tol) >= thr_a:
                moved, r_lo = mid != r_lo, mid
            else:
                moved, r_hi = mid != r_hi, mid
            if not moved:
                break  # a fixed point: every later step would repeat this one
        if window_ok(r_lo):
            return report, r_lo
    raise HypothesisViolationError(
        "window",
        "no radius satisfies h(R1) >= (1-eps) sup-threshold with "
        "h(R1/u), h(R1/u^2) < (1+eps) window-threshold",
    )


# -- main construction -------------------------------------------------------


def _cap_upper_log(s: float, t: float, d: int) -> float:
    """Log of the explicit cap-area upper estimate t^(d-1) sqrt(1+1/d) /
    (s sqrt(2 pi d)); t = 1 gives the estimate's constant alone."""
    return (
        (d - 1) * math.log(t)
        + 0.5 * math.log1p(1.0 / d)
        - math.log(s)
        - 0.5 * math.log(2.0 * math.pi * d)
    )


def decp_denominator_factor_log(d: int, epsilon: float) -> float:
    """Log of D(d, eps): mu(B(R1 e1, H)) <= 2 (55/64)^(d/6) D(d, eps) mu(B(0, R1)).

    The three summands bound the core ball, the outer shell (through the
    s = 3/8 cap) and the middle shell (through the cap at radius
    sqrt(2/3) R1); all constants are explicit.
    """
    log_tau = (d / 6.0) * math.log(64.0 / 55.0)
    piece_core = -math.log1p(-epsilon)
    piece_outer = (
        2.0 * math.log1p(epsilon)
        + 2.0 * log_tau
        + _cap_upper_log(_OUT_CAP.s, _OUT_CAP.t, d)
        + log_tau  # normalize against the (55/64)^(d/6) prefactor
    )
    piece_middle = _cap_upper_log(_MID_CAP.s, _MID_CAP.t, d) + log_tau
    return log_sum([piece_core, piece_outer, piece_middle])


def decp_analytic_floor(d: int, p: float, epsilon: float = 0.01) -> float:
    """Closed-form floor d ln(2^(1/p) 55^(-1/6)) - ln(4 D(d, eps))."""
    rate = math.log(2.0) / p - math.log(55.0) / 6.0
    return d * rate - math.log(4.0) - decp_denominator_factor_log(d, epsilon)


def decp_explicit_constant(d: int) -> float:
    """C(d) with 4 D(d, 0) = 4 + C(d)/sqrt(d): the explicit replacement for
    the O(1/sqrt(d)) term in the denominator bound."""
    return math.sqrt(d) * (4.0 * math.exp(decp_denominator_factor_log(d, 0.0)) - 4.0)


@dataclass(frozen=True)
class DecpTerms:
    """What a decp certificate shares across p: growth evidence, R1 and the
    witness terms at (1/2, R1)."""

    witness: WitnessTerms
    epsilon: float
    hypothesis: HypothesisReport

    @classmethod
    def prepare(
        cls, density: RadialDensity, epsilon: float = 0.01, rel_tol: float = None
    ) -> "DecpTerms":
        log_tau = (density.dim / 6.0) * math.log(64.0 / 55.0)
        report, r1 = _check_hypothesis_and_pick_r1(
            density, U_SPLIT, log_tau, log_tau, log_tau, epsilon, rel_tol
        )
        return cls(WitnessTerms.prepare(density, 0.5, r1, rel_tol), epsilon, report)

    def result(self, p: float) -> DecpResult:
        cert = self.witness.certificate(p, "decp")
        floor = decp_analytic_floor(cert.density.dim, p, self.epsilon)
        p0 = critical_p("decp")
        degenerate = p >= p0
        if degenerate:
            warnings.warn(
                f"p = {p} >= {p0:.6f}: the certificate base 2^(1/p) 55^(-1/6) is <= 1, "
                "so the bound no longer grows with dimension",
                RuntimeWarning,
                stacklevel=2,
            )
        return DecpResult(
            cert, floor, self.epsilon, self.witness.R, self.hypothesis, degenerate
        )


def decp_certificate(
    density: RadialDensity,
    p: float,
    epsilon: float = 0.01,
    rel_tol: float = None,
) -> DecpResult:
    """Certificate from the three-piece ball split at u = sqrt(2/3), v = 1/2.

    Requires sup_R h_u(R) >= (64/55)^(d/6) >= limsup h_u(R); both are checked
    on a refined grid. Returns the exact witness certificate at the located
    R1 together with the analytic floor, whose sqrt(d) constants come from
    the explicit cap estimates.
    """
    return DecpTerms.prepare(density, epsilon, rel_tol).result(p)


@dataclass(frozen=True)
class GeneralizedDecpTerms:
    """What a decp-generalized certificate shares across p: growth evidence,
    the witness terms at (1/2, R1), the chain decay beta and p0."""

    witness: WitnessTerms
    hypothesis: HypothesisReport
    beta_log: float
    p0: float

    @classmethod
    def prepare(
        cls,
        density: RadialDensity,
        t0: float,
        t1: float,
        epsilon: float = 0.01,
        rel_tol: float = None,
    ) -> "GeneralizedDecpTerms":
        if not (0.0 < t0 < 1.0):
            raise DomainError(f"t0 must lie in (0, 1), got {t0}")
        if not (0.0 < t1 < T1_MAX):
            raise DomainError(f"t1 must lie in (0, {T1_MAX:.6f}), got {t1}")
        d = density.dim
        lu = -math.log(U_SPLIT)
        t_bar = max(t0, t1)
        report, r1 = _check_hypothesis_and_pick_r1(
            density, U_SPLIT, t0 * d * lu, t1 * d * lu, t_bar * d * lu, epsilon, rel_tol
        )
        witness = WitnessTerms.prepare(density, 0.5, r1, rel_tol)
        beta_log = max(
            -t0 * lu,
            2.0 * t_bar * lu + math.log(_OUT_CAP.t),
            math.log(_MID_CAP.t),
        )
        return cls(witness, report, beta_log, math.log(2.0) / (LN2 + beta_log))

    def result(self, p: float) -> GeneralizedDecpResult:
        cert = self.witness.certificate(p, "decp_generalized")
        b = math.exp(math.log(2.0) / p - LN2 - self.beta_log)
        degenerate = b <= 1.0
        if degenerate:
            warnings.warn(
                f"p = {p} >= p0 = {self.p0:.6f}: chain base b <= 1",
                RuntimeWarning,
                stacklevel=2,
            )
        return GeneralizedDecpResult(
            cert, self.p0, b, self.beta_log, self.hypothesis, degenerate
        )


def decp_generalized_certificate(
    density: RadialDensity,
    p: float,
    t0: float,
    t1: float,
    epsilon: float = 0.01,
    rel_tol: float = None,
) -> GeneralizedDecpResult:
    """Split-ball certificate under decoupled growth thresholds.

    Hypotheses: sup_R h_u(R) >= u^(-t0 d) and limsup h_u(R) <= u^(-t1 d)
    with u = sqrt(2/3). The per-dimension decay beta of the denominator chain
    is the worst of the three decomposition pieces,

        beta = max(u^t0, u^(-2 max(t0,t1)) sin_out, sin_mid),

    computed operationally from the same split as the main construction; the
    largest admissible base is b(p) = 2^(1/p) / (2 beta) and p0 solves
    b(p0) = 1. With t1 below log(64/55)/log(9/4) the outer-shell piece stays
    below 1, so p0 > 1 always.
    """
    return GeneralizedDecpTerms.prepare(density, t0, t1, epsilon, rel_tol).result(p)


@dataclass(frozen=True)
class DoublingTerms:
    """What a doubling certificate shares across p: the witness terms of
    f(r) = r^(-t d) at (v, R) = (1/2, 1)."""

    witness: WitnessTerms

    @classmethod
    def prepare(cls, t: float, d: int, rel_tol: float = None) -> "DoublingTerms":
        return cls(WitnessTerms.prepare(RadialDensity.power(d, t), 0.5, 1.0, rel_tol))

    def result(self, p: float, p0_budget: float, c: float) -> DoublingResult:
        if p0_budget < p:
            raise DomainError(f"p0_budget must be >= p, got {p0_budget} < {p}")
        limit = 2.0 ** (1.0 / p0_budget)
        if not (1.0 < c < limit):
            raise DomainError(
                f"c must lie in (1, 2^(1/p0)) = (1, {limit:.6f}) so the base "
                f"2^(1/p0)/c exceeds 1; got {c}"
            )
        cert = self.witness.certificate(p, "doubling")
        d, t = cert.density.dim, cert.density.t
        a = (1.0 - t) * d
        log_sigma = _log_sphere_area(d)
        inner = log_sigma + a * math.log(c / 2.0) - math.log(a)
        cone = cap_containment_params(c)
        middle = (
            log_sigma
            - math.log(a)
            + (d - 1) * math.log(cone.t)
            + _cap_upper_log(cone.s, 1.0, d)
        )
        outer = (
            log_sigma
            - math.log(a)
            + a * math.log1p(math.sqrt(5.0) / 2.0)
            + (d - 1) * math.log(_OUT_CAP.t)
            + _cap_upper_log(_OUT_CAP.s, 1.0, d)
        )
        dominance = middle <= inner and outer <= inner
        d0 = _doubling_d0(cone.s)
        b0 = min(6.0 ** (1.0 / d0), limit / c)
        floor = -math.log(6.0) + a * (math.log(2.0) / p - math.log(c))
        return DoublingResult(cert, floor, inner, middle, outer, dominance, d0, b0)


def doubling_certificate(
    t: float,
    d: int,
    p: float,
    p0_budget: float,
    c: float,
    rel_tol: float = None,
) -> DoublingResult:
    """Certificate for the doubling family f(r) = r^(-t d) at (v, R) = (1/2, 1).

    The floor (1/6) (2^(1/p)/c)^((1-t)d) holds once the core ball B(0, c/2)
    dominates the middle and outer shell pieces; the result reports all three
    closed-form terms, the dimension d0(c) beyond which the cap constants
    drop below 1, and b0 = min(6^(1/d0), 2^(1/p0) / c).
    """
    return DoublingTerms.prepare(t, d, rel_tol).result(p, p0_budget, c)


def _doubling_d0(s_mid: float) -> int:
    """Smallest dimension with both cap constants at most 1."""
    s = min(s_mid, _OUT_CAP.s)
    d0 = max(2, int(1.0 / (2.0 * math.pi * s * s)) - 2)
    while _cap_upper_log(s, 1.0, d0) > 0.0:
        d0 += 1
    while d0 > 2 and _cap_upper_log(s, 1.0, d0 - 1) <= 0.0:
        d0 -= 1
    return d0


@dataclass(frozen=True)
class LebesgueBallTerms:
    """What a lebesgue-ball certificate shares across p: the witness terms
    of the restricted Lebesgue measure at (v, R) = (1/2, 1)."""

    witness: WitnessTerms

    @classmethod
    def prepare(cls, d: int, rel_tol: float = None) -> "LebesgueBallTerms":
        if d < 2:
            raise DomainError(f"d >= 2 required (the floor uses a (d-1)-ball), got {d}")
        density = RadialDensity.restricted_lebesgue(d)
        return cls(WitnessTerms.prepare(density, 0.5, 1.0, rel_tol))

    def result(self, p: float) -> LebesgueBallResult:
        cert = self.witness.certificate(p, "lebesgue_ball")
        d = cert.density.dim
        floor = (
            -d * _weight_q(p) * LN2
            + _log_ball_volume(d)
            - LN2
            - _log_ball_volume(d - 1)
            + math.log(3.0 * (d + 1) / 16.0)
            + (d + 1) * math.log(8.0 / math.sqrt(55.0))
        )
        return LebesgueBallResult(cert, floor)


def lebesgue_ball_certificate(
    d: int, p: float, rel_tol: float = None
) -> LebesgueBallResult:
    """Certificate for Lebesgue measure restricted to the unit ball, at
    (v, R) = (1/2, 1), with its closed-form floor

        (1/2)^(d/q) * vol(B^d) / (2 vol(B^{d-1})) * 3(d+1)/16 * (8/sqrt55)^(d+1).
    """
    return LebesgueBallTerms.prepare(d, rel_tol).result(p)


# -- v optimization ----------------------------------------------------------


def unit_ball_rate_base(v, q):
    """Per-dimension base 2 v^(1/q) / sqrt(3 + 2 v^2 - v^4) of the witness
    bound for the unit-ball measure; the bound grows exponentially iff this
    exceeds 1. Vectorized."""
    v = np.asarray(v, dtype=float)
    return 2.0 * v ** (1.0 / q) / np.sqrt(3.0 + 2.0 * v * v - v ** 4)


def optimize_v(
    density: RadialDensity,
    p: float,
    R: float,
    rel_tol: float = None,
    coarse: int = 33,
) -> tuple[float, Certificate]:
    """Maximize the witness bound over v in (0, 1] by golden-section search.

    A coarse grid first checks unimodality of the log bound; if the sampled
    sequence is not unimodal the grid argmax is returned instead.
    """
    if p <= 1.0:
        raise DomainError("optimize_v needs p > 1 (finite conjugate exponent)")

    def bound(v: float) -> float:
        try:
            return lemma_certificate(density, p, v, R, rel_tol).log_lower_bound
        except EmptyTestFunctionError:
            return NEG_INF

    vs = np.linspace(1.0 / coarse, 1.0, coarse)
    vals = np.array([bound(v) for v in vs])
    if np.all(vals == NEG_INF):
        raise EmptyTestFunctionError("every v gives an empty test function")
    diffs = np.diff(vals)
    signs = np.sign(diffs[np.abs(diffs) > 1e-12])
    unimodal = np.count_nonzero(signs[:-1] != signs[1:]) <= 1 if len(signs) > 1 else True
    i = int(np.argmax(vals))
    if not unimodal:
        v_star = float(vs[i])
        return v_star, lemma_certificate(density, p, v_star, R, rel_tol)
    lo = float(vs[max(i - 1, 0)])
    hi = float(vs[min(i + 1, len(vs) - 1)])
    x, _ = golden_section_max(bound, lo, hi, 40, tol=1e-7)
    v_star = float(min(x, 1.0))
    return v_star, lemma_certificate(density, p, v_star, R, rel_tol)


# -- universal bounds --------------------------------------------------------


def besicovitch_upper(d: int, p: float) -> float:
    """Log of the covering-theorem upper bound (2.641)^(d/p).

    The o(1) correction to 2.641 is dropped; this bound is asymptotic in d.
    """
    if d < 1 or p < 1.0:
        raise DomainError(f"need d >= 1 and p >= 1, got d={d}, p={p}")
    return (d / p) * math.log(BESICOVITCH_BASE)


def critical_p(base_fn: str) -> float:
    """Exponent where a construction's per-dimension base crosses 1.

    "decp": 2^(1/p) 55^(-1/6) = 1 at p = 6 ln 2 / ln 55;
    "lebesgue_ball": 2^(2+1/p) = sqrt(55) at p = (ln 55/(2 ln 2) - 2)^(-1).
    """
    if base_fn == "decp":
        return 6.0 * math.log(2.0) / math.log(55.0)
    if base_fn == "lebesgue_ball":
        return 1.0 / (math.log(55.0) / (2.0 * math.log(2.0)) - 2.0)
    raise DomainError(f"unknown critical exponent tag {base_fn!r}")
