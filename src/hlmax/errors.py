"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class UndefinedGrowthError(DomainError):
    """Growth ratio undefined because the inner ball has zero measure."""


class EmptyTestFunctionError(DomainError):
    """Certificate test function has zero mass."""


class NumericalError(RuntimeError):
    """A numerical kernel could not reach its accuracy target."""


class QuadraturePrecisionError(NumericalError):
    """Adaptive quadrature exhausted its subdivision budget before reaching
    the requested tolerance."""


class HypothesisViolationError(RuntimeError):
    """A growth-hypothesis inequality failed its check.

    ``failed`` names the inequality: "sup", "limsup" or "window".
    """

    def __init__(self, failed: str, message: str):
        super().__init__(message)
        self.failed = failed

