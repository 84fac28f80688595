"""Planar circle-intersection systems behind every cap construction.

Each construction needs the cap cut from a sphere about the origin by an
off-center ball. Intersecting the two circles in the x1-x2 plane gives the
cap cosine in closed form; no iterative solving is ever required.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateCapError, DomainError


@dataclass(frozen=True)
class ConeCapParams:
    """Cap parameters (s, t) = (cos r, sin r) of a cap of angular radius r.

    ``cone`` marks parameter pairs describing a subtending cone, where t is
    the radius of the smallest enclosing ball of the cap rather than sin r,
    so s^2 + t^2 = 1 is not expected.
    """

    s: float
    t: float
    cone: bool = False

    def __post_init__(self):
        if not (0.0 < self.t <= 1.0):
            raise DomainError(f"t must lie in (0, 1], got {self.t}")
        if not self.cone and abs(self.s * self.s + self.t * self.t - 1.0) > 1e-12:
            raise DomainError(
                f"(s, t) = ({self.s}, {self.t}) does not satisfy s^2 + t^2 = 1"
            )


def sphere_ball_cap(rho: float, R0: float, H: float) -> ConeCapParams:
    """Cap cut from the sphere of radius rho about 0 by the ball B(R0 e1, H).

    Solving x1^2 + x2^2 = rho^2 against (x1 - R0)^2 + x2^2 = H^2 gives
    s = (rho^2 + R0^2 - H^2) / (2 rho R0). A proper cap needs
    |R0 - H| < rho < R0 + H; tangency and containment are reported as
    distinct degenerate cases rather than clamped.
    """
    if rho <= 0 or R0 <= 0 or H <= 0:
        raise DomainError("rho, R0 and H must all be positive")
    if rho >= R0 + H:
        case = "tangent" if rho == R0 + H else "disjoint"
        raise DegenerateCapError(
            case, f"sphere of radius {rho} does not properly meet B({R0} e1, {H})"
        )
    if rho <= abs(R0 - H):
        if rho == abs(R0 - H):
            case = "tangent"
        elif H > R0:
            case = "contained"  # the sphere lies inside the ball
        else:
            case = "disjoint"
        raise DegenerateCapError(
            case, f"sphere of radius {rho} does not properly meet B({R0} e1, {H})"
        )
    s = (rho * rho + R0 * R0 - H * H) / (2.0 * rho * R0)
    t = math.sqrt(max((1.0 - s) * (1.0 + s), 0.0))
    return ConeCapParams(s, t)


def doubling_cap_x2(c: float) -> float:
    """x2(c) = (4c)^(-1) sqrt(18 c^2 - c^4 - 1): the enclosing-ball radius of
    the cone cap in the doubling construction. Strictly decreasing on (1, 2],
    with x2 -> 1 as c -> 1 and x2(2) = sqrt(55)/8."""
    if not (1.0 < c <= 2.0):
        raise DomainError(f"c must lie in (1, 2], got {c}")
    return math.sqrt(18.0 * c * c - c ** 4 - 1.0) / (4.0 * c)


def cap_containment_params(c: float) -> ConeCapParams:
    """Cone parameters for the middle shell in the doubling construction:
    cap height s = (c^2 - 1)/(4c) with enclosing radius t = x2(c).

    These describe a subtending cone, so s^2 + t^2 = 1 only at c = 2.
    """
    if not (1.0 < c <= 2.0):
        raise DomainError(f"c must lie in (1, 2], got {c}")
    s = (c * c - 1.0) / (4.0 * c)
    return ConeCapParams(s, doubling_cap_x2(c), cone=True)
