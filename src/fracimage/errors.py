"""Exception types shared across the package."""


class FracimageError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FracimageError):
    """A parameter or argument violates a documented validity condition."""


class PoleError(FracimageError):
    """A gamma factor was evaluated at a nonpositive integer."""


class DenominatorPoleError(PoleError):
    """The pole is in a denominator: a gamma factor of a product's
    denominator, or a lower series parameter reached before the series
    terminated, so a term denominator vanished."""


class DivergenceError(FracimageError):
    """The requested series does not converge for the given argument."""


class NonConvergedError(FracimageError):
    """An iterative evaluation failed to meet its tolerance within the
    configured budget."""


class UnsupportedKernelError(FracimageError):
    """The requested operator application has no supported quadrature
    scheme (e.g. a full two-variable Appell kernel)."""


class ConfigError(FracimageError):
    """A configuration file or command-line value could not be parsed."""
