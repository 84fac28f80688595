"""Lower-bound certificates for the best weak-type (p,p) constants.

The basic witness is the indicator of B(0, vR): its maximal function at
distance R from the origin is at least
alpha = mu(B(0,vR)) / (2 mu(B(R e1, H))) with H = R sqrt(1 + v^2), and by
rotational invariance the whole ball B(0,R) sits inside the level set.
That yields

    c >= mu(B(0,vR))^(1/q) mu(B(0,R))^(1/p) / (2 mu(B(R e1, H))).

Each construction picks (v, R) so the denominator is exponentially small
against the numerator in the dimension d. Its ``*Terms`` class computes the
p-independent measures once through ``prepare(...)`` and assembles the
result at each p through ``result(p)`` (``WitnessTerms.certificate(p)`` for
the plain witness). Each result also carries an analytic floor whose
constants come from the explicit two-sided cap-area estimates, so every
reported bound is fully numeric.

The decp constructions first check a growth hypothesis on
h_u(R) = mu(B(0,R)) / mu(B(0,uR)), whose limsup part the last radius of a
grid decides exactly, and pick R1 by a grid, golden-section and bisection
search. The golden section and the bisection settle ``_LOOKAHEAD`` = 3
steps per ``growth_h`` call, with the bits of one call a step.
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
    NumericalError,
)
from .logspace import LN2, NEG_INF, log_sum
from .radial import (
    PIECEWISE,
    RadialDensity,
    growth_h,
    log_ball_at_origin,
    log_ball_offcenter,
)
from .specfun import log_ball_volume, log_cap_upper, log_sphere_area

U_SPLIT = math.sqrt(2.0 / 3.0)  # shell ratio that makes the three-piece split work
T1_MAX = math.log(64.0 / 55.0) / math.log(9.0 / 4.0)
BESICOVITCH_BASE = 2.641  # covering-theorem constant; its o(1) term is dropped


def _split_cap(rho: float) -> tuple[float, float]:
    """(s, t) = (cos r, sin r) of the cap that B(e1, sqrt(5)/2) cuts from the
    sphere of radius rho about 0: the circles x1^2 + x2^2 = rho^2 and
    (x1 - 1)^2 + x2^2 = 5/4 meet at x1 = s rho."""
    h = math.sqrt(5.0) / 2.0
    s = (rho * rho + 1.0 - h * h) / (2.0 * rho)
    return s, math.sqrt((1.0 - s) * (1.0 + s))


def _doubling_cone(c: float) -> tuple[float, float]:
    """(s, t) of the cone cap of the doubling construction's middle shell:
    height s = (c^2 - 1)/(4c) and enclosing-ball radius
    t = sqrt(18 c^2 - c^4 - 1)/(4c). t decreases from 1 to sqrt(55)/8 on
    (1, 2], and s^2 + t^2 = 1 only at c = 2."""
    return (c * c - 1.0) / (4.0 * c), math.sqrt(18.0 * c * c - c ** 4 - 1.0) / (4.0 * c)


# caps for the outer and middle pieces of the split at v = 1/2, H = R sqrt(5)/2.
# The outer s is two ulps below 3/8, since (sqrt(5)/2)^2 rounds; a smaller s
# only enlarges the upper estimate, so every floor stays a lower bound.
_OUT_S, _OUT_T = _split_cap(1.0)
_MID_S, _MID_T = _split_cap(U_SPLIT)


def conjugate_exponent(p: float) -> float:
    if not 1.0 <= p < math.inf:
        raise DomainError(f"p must lie in [1, inf), got {p}")
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
    term_inner: float  # log mu(B(0, vR))
    term_level: float  # log mu(B(0, R))
    term_denom: float  # log mu(B(R e1, H))
    log_lower_bound: float
    construction: str

    def __post_init__(self):
        # each check reads "not (ok)", so a NaN anywhere fails it
        h2 = self.H * self.H
        if not abs(h2 - self.R * self.R * (1.0 + self.v * self.v)) <= 1e-12 * h2:
            raise DomainError("H must equal R sqrt(1 + v^2)")
        if not self.term_inner <= self.term_level + 1e-9:
            raise DomainError("inner ball cannot outweigh the level ball")
        if not abs(self.log_lower_bound - self.recompute_log_lower()) <= 1e-9:
            raise DomainError("stored bound does not match its terms")

    def recompute_log_lower(self) -> float:
        return _witness_log(self.p, self.term_inner, self.term_level, self.term_denom)

    @property
    def alpha_log(self) -> float:
        """log of the maximal-function level witnessed at R e1."""
        return self.term_inner - LN2 - self.term_denom

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
            "q": None if self.q == math.inf else self.q,  # null, not Infinity, at p = 1
            "v": self.v,
            "R": self.R,
            "H": self.H,
            "log_term_inner": self.term_inner,
            "log_term_level": self.term_level,
            "log_term_denom": self.term_denom,
            "alpha_log": self.alpha_log,
            "log_lower_bound": self.log_lower_bound,
            "rate_per_dim": self.rate_per_dim,
            "weak_type_log_lower_bound": self.log_lower_bound,
            "strong_type_log_lower_bound": self.log_lower_bound,
            "upper_log": besicovitch_upper(self.density.dim, self.p),
            "provenance": "exact",
        }


@dataclass(frozen=True)
class HypothesisReport:
    """The growth hypothesis as checked: the largest log h_u the sup search
    found and where, and the exact limsup, log h_u at the grid's last radius."""

    u: float
    sup_required_log: float
    sup_estimate_log: float
    sup_location: float
    tail_required_log: float
    tail_log_value: float


@dataclass(frozen=True)
class DecpResult:
    certificate: Certificate
    floor_log: float
    epsilon: float
    r1: float
    degenerate_rate: bool
    hypothesis: HypothesisReport


@dataclass(frozen=True)
class GeneralizedDecpResult:
    certificate: Certificate
    p0: float
    b: float
    beta_log: float
    degenerate_rate: bool
    hypothesis: HypothesisReport


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


def _witness_log(p: float, inner: float, level: float, denom: float) -> float:
    return _weight_q(p) * inner + level / p - LN2 - denom


@dataclass(frozen=True)
class WitnessTerms:
    """The p-independent part of the witness bound at (v, R): the measures
    mu(B(0, vR)), mu(B(0, R)) and mu(B(R e1, H)). Only the weights that
    combine them depend on p, so one instance serves every p."""

    density: RadialDensity
    v: float
    R: float
    H: float
    inner: float
    level: float
    denom: float

    @classmethod
    def prepare(cls, density: RadialDensity, v: float, R: float) -> "WitnessTerms":
        if not (0.0 < v <= 1.0):
            raise DomainError(f"v must lie in (0, 1], got {v}")
        if not 0.0 < R < math.inf:
            raise DomainError(f"R must lie in (0, inf), got {R}")
        H = R * math.sqrt(1.0 + v * v)
        inner = log_ball_at_origin(density, v * R)
        if inner == NEG_INF:
            raise EmptyTestFunctionError(f"mu(B(0, {v * R})) = 0: empty test function")
        level = log_ball_at_origin(density, R)
        denom = log_ball_offcenter(density, R, H)
        return cls(density, v, R, H, inner, level, denom)

    def certificate(self, p: float, construction: str = "lemma_direct") -> Certificate:
        """The witness bound at exponent p."""
        return Certificate(
            self.density, p, conjugate_exponent(p), self.v, self.R, self.H,
            self.inner, self.level, self.denom,
            _witness_log(p, self.inner, self.level, self.denom), construction,
        )


def lemma_certificate(
    density: RadialDensity, p: float, v: float, R: float
) -> Certificate:
    """Evaluate the witness bound at a given (v, R).

    At p = 1 the conjugate weight 1/q vanishes and the bound collapses to
    mu(B(0,R)) / (2 mu(B(R e1, H))).
    """
    conjugate_exponent(p)  # reject p outside [1, inf) before any quadrature
    return WitnessTerms.prepare(density, v, R).certificate(p)


# -- growth-hypothesis machinery ---------------------------------------------

_GRID_POINTS = 97  # log-spaced over 12 decades


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# steps of a sequential search settled per call of its objective: the call
# carries the 2^3 - 1 = 7 probes the next three steps of a lane may make
_LOOKAHEAD = 3
_BISECTION_STEPS = 90


def _lookahead_search(f, states, steps, probe, decide, advance):
    """Run sequential searches in lockstep, lane i for ``steps[i]`` steps
    unless ``advance`` stops it first, and return their final states.

    A step evaluates f at ``probe(state)``, which depends on the state's
    positions alone, takes the outcome ``decide(state, fx)`` and moves to
    ``advance(state, fx, outcome)``, a pair (next state, go on); a probe's
    position depends on the earlier values only through the outcomes. So
    replaying ``advance`` with both outcomes and a NaN value gives every probe
    the next ``_LOOKAHEAD`` steps of a lane can make, and one call
    ``f(xs, lanes)`` evaluates them all (each (lane, probe) once). The lanes
    then walk their steps with the returned values, so every lane takes
    the probes, outcomes and bits of a search making one call a step. If a
    call raises ``NumericalError``, perhaps at a probe off every lane's
    path, that round is redone one step deep, so the search raises exactly
    where a one-step search would.
    """
    states = list(states)
    left = [int(k) for k in steps]
    while True:
        live = [i for i in range(len(states)) if left[i] > 0]
        if not live:
            return states
        depth = min(_LOOKAHEAD, max(left[i] for i in live))
        probes = {}
        for i in live:
            level = [states[i]]
            for _ in range(min(depth, left[i])):
                xs = [probe(s) for s in level]
                probes.update(dict.fromkeys((i, x) for x in xs))
                level = [
                    nxt for s in level for out in (True, False)
                    for nxt, more in [advance(s, math.nan, out)] if more
                ]
        keys = list(probes)
        try:
            vals = dict(zip(keys, f([x for _, x in keys], [i for i, _ in keys])))
        except NumericalError:
            if depth == 1:
                raise
            # the same step at depth 1: a call of the one-step search
            xs = [probe(states[i]) for i in live]
            vals = dict(zip(zip(live, xs), f(xs, live)))
            depth = 1
        for i in live:
            for _ in range(min(depth, left[i])):
                fx = vals[i, probe(states[i])]
                states[i], more = advance(states[i], fx, decide(states[i], fx))
                left[i] = left[i] - 1 if more else 0
                if not more:
                    break


# A golden-section state is (a, b, c, d, fc, fd): the bracket, its two
# inner probes and their values, the one still to evaluate held as None.


def _golden_probe(state):
    a, b, c, d, fc, fd = state
    return c if fc is None else d


def _golden_decide(state, fx):
    a, b, c, d, fc, fd = state
    return (fx if fc is None else fc) > (fx if fd is None else fd)


def _golden_advance(state, fx, left):
    """Fill in the pending value, then keep the left part [a, d] of the
    bracket if ``left`` (fc > fd), else the right part [c, b]."""
    a, b, c, d, fc, fd = state
    fc = fx if fc is None else fc
    fd = fx if fd is None else fd
    if left:
        return (a, d, d - _INVPHI * (d - a), c, None, fc), True
    return (c, b, d, c + _INVPHI * (b - c), fd, None), True


def golden_section_max(f, a, b, iters):
    """Golden-section searches for maxima of f on the brackets [a[i], b[i]],
    run in lockstep, each for its own number of steps ``iters[i]``.

    ``f(x, lanes)`` gets a list of probes and the list of the indices of
    their brackets, and returns their values. The first call carries both
    first probes of every bracket; each later call settles up to
    ``_LOOKAHEAD`` steps of every bracket still searching (see
    ``_lookahead_search``), with the probes and bits of a search making one
    call a step. So a lane index may appear several times in a call.
    Returns arrays of x and f(x), for each bracket the better of its two
    final probes. A log-spaced search passes the transformed variable, e.g.
    probes ``math.exp(t)`` for t over [log lo, log hi].
    """
    a = [float(t) for t in a]
    b = [float(t) for t in b]
    lanes = list(range(len(a)))
    c = [b[i] - _INVPHI * (b[i] - a[i]) for i in lanes]
    d = [a[i] + _INVPHI * (b[i] - a[i]) for i in lanes]
    first = list(f(c + d, lanes + lanes))
    fc, fd = first[:len(lanes)], first[len(lanes):]
    states = [
        _golden_advance((a[i], b[i], c[i], d[i], fc[i], fd[i]), math.nan, fc[i] > fd[i])[0]
        for i in lanes
    ]
    states = _lookahead_search(
        f, states, iters, _golden_probe, _golden_decide, _golden_advance
    )
    # the point the last step kept is the better of the last two probes
    best = [(s[3], s[5]) if s[4] is None else (s[2], s[4]) for s in states]
    return np.array([x for x, _ in best]), np.array([fx for _, fx in best])


def _bisect_upper_boundary(f, lo, hi, threshold):
    """Bisect [lo, hi] geometrically for the upper boundary of
    {f >= threshold}, with f(lo) >= threshold, for ``_BISECTION_STEPS``
    steps or until a fixed point; returns the last lo. ``f(xs, lanes)``
    is as for ``golden_section_max`` (one lane), and a call settles up to
    ``_LOOKAHEAD`` steps."""

    def probe(state):
        return math.sqrt(state[0] * state[1])

    def advance(state, fx, up):
        lo, hi = state
        mid = math.sqrt(lo * hi)
        # a fixed point: every later step would repeat this one
        return ((mid, hi), mid != lo) if up else ((lo, mid), mid != hi)

    ((r_lo, _),) = _lookahead_search(
        f, [(lo, hi)], [_BISECTION_STEPS], probe,
        lambda state, fx: fx >= threshold, advance,
    )
    return r_lo


def _check_hypothesis_and_pick_r1(
    density: RadialDensity,
    u: float,
    log_thr_sup: float,
    log_thr_tail: float,
    log_thr_window: float,
    epsilon: float,
) -> tuple[HypothesisReport, float]:
    """Check the sup and limsup growth thresholds and locate a radius R1
    with h(R1) above (1-eps) of the sup threshold while h at the next two
    shell radii stays below (1+eps) of the window threshold.

    The sup part is a witness search. The limsup part is exact: h_u is
    constant on [scale/u, inf), as log h_u = 0 once uR passes a bounded
    support and Lebesgue and power are homogeneous; so the last grid radius
    decides it and is the only radius beyond the grid worth trying as R1.

    Each ``growth_h`` call takes an array of radii, so it is one batched
    mass computation: the whole grid, the two first golden-section probes,
    every three golden-section or bisection steps (7 radii, all those the
    next three steps may probe) and each window check of both shells. A
    log-singularity prepare at d = 100 makes 39 quadrature calls, 89 at
    one call a step."""
    if not (0.0 < epsilon < 0.1):
        raise DomainError(f"epsilon must lie in (0, 1/10), got {epsilon}")
    supp = density.support_radius
    if density.family == PIECEWISE and math.isinf(supp):
        # a power-law tail only nears its limit, so no radius decides it
        raise DomainError("the growth search needs a bounded piecewise density")
    scale = supp if math.isfinite(supp) else 1.0
    grid = np.geomspace(1e-6 * scale, 1e6 * scale, _GRID_POINTS)
    h_vals = growth_h(density, u, grid)

    # sup over R > 0, sharpened around the grid argmax
    i_max = int(np.argmax(h_vals))
    lo = math.log(grid[max(i_max - 1, 0)])
    hi = math.log(grid[min(i_max + 1, len(grid) - 1)])
    # one lane of the lockstep search: the first call carries both first
    # probes; math.exp, as np.exp may round the last bit differently
    x, fx = golden_section_max(
        lambda xs, lanes: growth_h(density, u, [math.exp(t) for t in xs]),
        [lo], [hi], [24],
    )
    sup_loc, sup_est = math.exp(float(x[0])), float(fx[0])
    if h_vals[i_max] > sup_est:
        sup_loc, sup_est = float(grid[i_max]), float(h_vals[i_max])
    if sup_est < log_thr_sup - 1e-9:
        raise HypothesisViolationError(
            "sup",
            f"grid sup of h_u is exp({sup_est:.6g}) but the hypothesis needs "
            f"exp({log_thr_sup:.6g})",
        )

    # limsup: h_u is constant from scale/u on, so the grid end decides it
    tail_val = float(h_vals[-1])
    if tail_val > log_thr_tail + 1e-9:
        raise HypothesisViolationError(
            "limsup",
            f"tail value of h_u is exp({tail_val:.6g}) but the hypothesis "
            f"caps the limsup at exp({log_thr_tail:.6g})",
        )

    report = HypothesisReport(
        u=u,
        sup_required_log=log_thr_sup,
        sup_estimate_log=sup_est,
        sup_location=sup_loc,
        tail_required_log=log_thr_tail,
        tail_log_value=tail_val,
    )

    thr_a = math.log1p(-epsilon) + log_thr_sup
    thr_w = math.log1p(epsilon) + log_thr_window

    def window_ok(R: float) -> bool:
        return bool(np.all(growth_h(density, u, [R / u, R / (u * u)]) < thr_w))

    no_window = HypothesisViolationError(
        "window",
        "no radius satisfies h(R1) >= (1-eps) sup-threshold with "
        "h(R1/u), h(R1/u^2) < (1+eps) window-threshold",
    )

    in_a = h_vals >= thr_a
    if in_a[-1]:  # and h_u is constant from the grid end on
        if window_ok(grid[-1]):
            return report, float(grid[-1])
        raise no_window

    candidates = [i for i in range(len(grid)) if in_a[i]]
    if not candidates and sup_est >= thr_a:
        # sup refinement found the only admissible spot
        if window_ok(sup_loc):
            return report, sup_loc
    for i in reversed(candidates):
        # bisect the upper boundary of the admissible set
        r_lo = _bisect_upper_boundary(
            lambda xs, lanes: growth_h(density, u, xs),
            float(grid[i]), float(grid[i + 1]), thr_a,
        )
        if window_ok(r_lo):
            return report, r_lo
    raise no_window


# -- main construction -------------------------------------------------------


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
        + log_cap_upper(d, _OUT_S, _OUT_T)
        + log_tau  # normalize against the (55/64)^(d/6) prefactor
    )
    piece_middle = log_cap_upper(d, _MID_S, _MID_T) + log_tau
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
    witness terms at (1/2, R1).

    The three-piece ball split at u = sqrt(2/3), v = 1/2 requires
    sup_R h_u(R) >= (64/55)^(d/6) >= limsup h_u(R), witnessed on a refined
    grid and decided at its end. The analytic floor's sqrt(d) constants
    come from the explicit cap estimates.
    """

    witness: WitnessTerms
    epsilon: float
    hypothesis: HypothesisReport

    @classmethod
    def prepare(cls, density: RadialDensity, epsilon: float = 0.01) -> "DecpTerms":
        log_tau = (density.dim / 6.0) * math.log(64.0 / 55.0)
        report, r1 = _check_hypothesis_and_pick_r1(
            density, U_SPLIT, log_tau, log_tau, log_tau, epsilon
        )
        return cls(WitnessTerms.prepare(density, 0.5, r1), epsilon, report)

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
            cert, floor, self.epsilon, self.witness.R, degenerate, self.hypothesis
        )


# perfbench/tracer.py ENTRY_POINTS spans this; its deletion waits for ROADMAP 4A
def decp_certificate(density: RadialDensity, p: float, epsilon: float = 0.01) -> DecpResult:
    return DecpTerms.prepare(density, epsilon).result(p)


@dataclass(frozen=True)
class GeneralizedDecpTerms:
    """What a decp-generalized certificate shares across p: growth evidence,
    the witness terms at (1/2, R1), the chain decay beta and p0.

    The split of decp under sup_R h_u(R) >= u^(-t0 d) and
    limsup h_u(R) <= u^(-t1 d). beta is the worst of the three pieces,
    max(u^t0, u^(-2 max(t0,t1)) sin_out, sin_mid); the base is
    b(p) = 2^(1/p) / (2 beta) and p0 solves b(p0) = 1. With t1 below
    log(64/55)/log(9/4) the outer-shell piece stays below 1, so p0 > 1.
    """

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
    ) -> "GeneralizedDecpTerms":
        if not (0.0 < t0 < 1.0):
            raise DomainError(f"t0 must lie in (0, 1), got {t0}")
        if not (0.0 < t1 < T1_MAX):
            raise DomainError(f"t1 must lie in (0, {T1_MAX:.6f}), got {t1}")
        d = density.dim
        lu = -math.log(U_SPLIT)
        t_bar = max(t0, t1)
        report, r1 = _check_hypothesis_and_pick_r1(
            density, U_SPLIT, t0 * d * lu, t1 * d * lu, t_bar * d * lu, epsilon
        )
        witness = WitnessTerms.prepare(density, 0.5, r1)
        beta_log = max(
            -t0 * lu,
            2.0 * t_bar * lu + math.log(_OUT_T),
            math.log(_MID_T),
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
            cert, self.p0, b, self.beta_log, degenerate, self.hypothesis
        )


@dataclass(frozen=True)
class DoublingTerms:
    """What a doubling certificate shares across p: the witness terms of
    f(r) = r^(-t d) at (v, R) = (1/2, 1).

    The floor (1/6) (2^(1/p)/c)^((1-t)d) holds once the core ball B(0, c/2)
    dominates the middle and outer shell pieces. The result reports all
    three closed-form terms, the dimension d0(c) beyond which the cap
    constants drop below 1, and b0 = min(6^(1/d0), 2^(1/p0) / c).
    """

    witness: WitnessTerms

    @classmethod
    def prepare(cls, t: float, d: int) -> "DoublingTerms":
        return cls(WitnessTerms.prepare(RadialDensity.power(d, t), 0.5, 1.0))

    def result(self, p: float, p0_budget: float, c: float) -> DoublingResult:
        if not p <= p0_budget < math.inf:
            raise DomainError(f"p0_budget must lie in [p, inf) = [{p}, inf), got {p0_budget}")
        limit = 2.0 ** (1.0 / p0_budget)
        if not (1.0 < c < limit):
            raise DomainError(
                f"c must lie in (1, 2^(1/p0)) = (1, {limit:.6f}) so the base "
                f"2^(1/p0)/c exceeds 1; got {c}"
            )
        cert = self.witness.certificate(p, "doubling")
        d, t = cert.density.dim, cert.density.t
        a = (1.0 - t) * d
        log_sigma = log_sphere_area(d)
        inner = log_sigma + a * math.log(c / 2.0) - math.log(a)
        cone_s, cone_t = _doubling_cone(c)
        middle = (
            log_sigma
            - math.log(a)
            + (d - 1) * math.log(cone_t)
            + log_cap_upper(d, cone_s, 1.0)
        )
        outer = (
            log_sigma
            - math.log(a)
            + a * math.log1p(math.sqrt(5.0) / 2.0)
            + (d - 1) * math.log(_OUT_T)
            + log_cap_upper(d, _OUT_S, 1.0)
        )
        dominance = middle <= inner and outer <= inner
        d0 = _doubling_d0(cone_s)
        b0 = min(6.0 ** (1.0 / d0), limit / c)
        floor = -math.log(6.0) + a * (math.log(2.0) / p - math.log(c))
        return DoublingResult(cert, floor, inner, middle, outer, dominance, d0, b0)


def _doubling_d0(s_mid: float) -> int:
    """Smallest dimension with both cap constants at most 1."""
    s = min(s_mid, _OUT_S)
    d0 = max(2, int(1.0 / (2.0 * math.pi * s * s)) - 2)
    while log_cap_upper(d0, s, 1.0) > 0.0:
        d0 += 1
    while d0 > 2 and log_cap_upper(d0 - 1, s, 1.0) <= 0.0:
        d0 -= 1
    return d0


@dataclass(frozen=True)
class LebesgueBallTerms:
    """What a lebesgue-ball certificate shares across p: the witness terms
    of the restricted Lebesgue measure at (v, R) = (1/2, 1). The floor is

        (1/2)^(d/q) * vol(B^d) / (2 vol(B^{d-1})) * 3(d+1)/16 * (8/sqrt55)^(d+1).
    """

    witness: WitnessTerms

    @classmethod
    def prepare(cls, d: int) -> "LebesgueBallTerms":
        if d < 2:
            raise DomainError(f"d >= 2 required (the floor uses a (d-1)-ball), got {d}")
        density = RadialDensity.restricted_lebesgue(d)
        return cls(WitnessTerms.prepare(density, 0.5, 1.0))

    def result(self, p: float) -> LebesgueBallResult:
        cert = self.witness.certificate(p, "lebesgue_ball")
        d = cert.density.dim
        floor = (
            -d * _weight_q(p) * LN2
            + log_ball_volume(d)
            - LN2
            - log_ball_volume(d - 1)
            + math.log(3.0 * (d + 1) / 16.0)
            + (d + 1) * math.log(8.0 / math.sqrt(55.0))
        )
        return LebesgueBallResult(cert, floor)


# perfbench/tracer.py ENTRY_POINTS spans this; its deletion waits for ROADMAP 4A
def lebesgue_ball_certificate(d: int, p: float) -> LebesgueBallResult:
    return LebesgueBallTerms.prepare(d).result(p)


# -- universal bounds --------------------------------------------------------


def besicovitch_upper(d: int, p: float) -> float:
    """Log of the covering-theorem upper bound (2.641)^(d/p).

    The o(1) correction to 2.641 is dropped; this bound is asymptotic in d.
    """
    if not (d >= 1 and 1.0 <= p < math.inf):
        raise DomainError(f"need d >= 1 and p in [1, inf), got d={d}, p={p}")
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
