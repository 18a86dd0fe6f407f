"""Exception types shared across the package."""


class BmadmmError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(BmadmmError, ValueError):
    """Matrix/factor shapes disagree."""


class EigenEstimateError(BmadmmError, RuntimeError):
    """An iterative eigenvalue solve exhausted its budget.

    Carries the best estimate seen so far so callers can decide whether
    it is still usable.  The package's own eigen-solves are dense and do
    not raise it.
    """

    def __init__(self, message, estimate, residual, iterations):
        super().__init__(message)
        self.estimate = estimate
        self.residual = residual
        self.iterations = iterations


class DegenerateProjection(BmadmmError, ValueError):
    """Projection input is (numerically) rank deficient."""

    def __init__(self, message, block=None):
        super().__init__(message)
        self.block = block


class OffManifold(BmadmmError, ValueError):
    """A factor that must lie on the constraint manifold does not."""


class UnsupportedManifold(BmadmmError, ValueError):
    """Operation is only defined for the sphere product (d = 1)."""


class AssumptionViolated(BmadmmError, RuntimeError):
    """A pre-projection update block collapsed to (near) zero norm.

    The solver cannot continue past this point: the projection onto the
    constraint set is undefined for the offending block.
    """

    def __init__(self, message, block, iteration):
        super().__init__(message)
        self.block = block
        self.iteration = iteration


class InvariantViolation(BmadmmError, RuntimeError):
    """A runtime solver invariant failed while strict checking was on."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class GsetFormatError(BmadmmError, ValueError):
    """Malformed graph edge-list input."""

    def __init__(self, message, line_no=None):
        super().__init__(message)
        self.line_no = line_no
