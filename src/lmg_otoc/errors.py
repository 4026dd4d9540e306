"""Exception hierarchy shared by the library and the command line tool."""


class LmgOtocError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LmgOtocError):
    """Input outside the supported parameter or precondition domain."""


class NumericalError(LmgOtocError):
    """A numerical kernel failed (non-convergence, singular reference)."""
