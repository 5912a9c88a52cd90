"""Exception types shared across the library."""


class KernelSpaceError(Exception):
    """Base class for all library-specific errors."""


class DivergentNormError(KernelSpaceError):
    """The requested inner product does not converge.

    Raised when the real part of the combined quadratic form of a
    Gaussian pair integral has a non-positive eigenvalue, or when the
    quadrature oracle detects integrand growth at the domain boundary.
    """

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class IntegralOverflowError(KernelSpaceError):
    """A closed-form integral or one of its Gaussian moments exceeds the
    float range, typically because a monomial degree is very high."""


class DegenerateImmersionError(KernelSpaceError):
    """A map expected to be an immersion is rank-deficient at a point."""


class NonAffineMapError(KernelSpaceError):
    """A non-affine map was applied to Gaussian terms.

    The Gaussian family is closed only under affine pullbacks; non-affine
    diffeomorphisms act on delta spans alone.
    """


class ExpressionError(KernelSpaceError):
    """Parse or evaluation failure in the embedding expression language."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class CatalogConsistencyError(KernelSpaceError):
    """A declared analytic metric disagrees with the pullback of its map."""


class ReportError(KernelSpaceError):
    """A result file needed by the report generator is missing or corrupt."""
