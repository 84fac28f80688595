"""Lower-bound certificates for the best weak-type (p,p) constants of
centered maximal operators defined by radial, radially decreasing densities
on R^d.

All measure magnitudes are carried in log space, so certificates remain
meaningful at dimensions where ball measures under- or overflow doubles.
"""

from .certificate import (
    Certificate,
    DecpResult,
    DoublingResult,
    GeneralizedDecpResult,
    HypothesisReport,
    LebesgueBallResult,
    T1_MAX,
    U_SPLIT,
    WitnessTerms,
    besicovitch_upper,
    conjugate_exponent,
    critical_p,
    decp_analytic_floor,
    lemma_certificate,
)
from .errors import (
    DomainError,
    EmptyTestFunctionError,
    HypothesisViolationError,
    NumericalError,
    QuadraturePrecisionError,
    UndefinedGrowthError,
)
from .oracle import OracleReport, empirical_weak_ratio, run_oracle
from .radial import RadialDensity, Segment, growth_h, log_ball_at_origin, log_ball_offcenter
from .specfun import (
    cap_area_bounds,
    cap_area_exact,
    log_ball_volume,
    log_cap_fraction,
    log_gamma,
    log_sphere_area,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "DecpResult",
    "DomainError",
    "DoublingResult",
    "EmptyTestFunctionError",
    "GeneralizedDecpResult",
    "HypothesisReport",
    "HypothesisViolationError",
    "LebesgueBallResult",
    "NumericalError",
    "OracleReport",
    "QuadraturePrecisionError",
    "RadialDensity",
    "Segment",
    "T1_MAX",
    "U_SPLIT",
    "UndefinedGrowthError",
    "WitnessTerms",
    "besicovitch_upper",
    "cap_area_bounds",
    "cap_area_exact",
    "conjugate_exponent",
    "critical_p",
    "decp_analytic_floor",
    "empirical_weak_ratio",
    "growth_h",
    "lemma_certificate",
    "log_ball_at_origin",
    "log_ball_offcenter",
    "log_ball_volume",
    "log_cap_fraction",
    "log_gamma",
    "log_sphere_area",
    "run_oracle",
]
