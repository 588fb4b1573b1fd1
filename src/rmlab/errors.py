"""Exception hierarchy for rmlab.

Every error raised by the library derives from :class:`RmlabError`, so
callers can catch one type at module boundaries.  The CLI maps parse
failures to exit code 2 and everything else to exit code 1.
"""


class RmlabError(Exception):
    """Base class for all rmlab errors."""


class ShapeError(RmlabError):
    """Operands have incompatible shapes or a matrix is not square."""


class LevelError(RmlabError):
    """A level-tagged operation was asked to move in the wrong direction."""


class DomainError(RmlabError):
    """An argument is outside the documented domain of an operation."""


class NormalityError(RmlabError):
    """A matrix handed to a normal-only routine fails the normality test."""

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


class VerificationError(RmlabError):
    """A matrix failed unitarity or Yang-Baxter verification.

    Carries both residuals so callers can report which test failed.
    """

    def __init__(self, message, ybe_residual=None, unitarity_residual=None):
        super().__init__(message)
        self.ybe_residual = ybe_residual
        self.unitarity_residual = unitarity_residual


class InternalConsistencyError(RmlabError):
    """Two routes to the same quantity disagree beyond tolerance.

    Raised when a derived object fails a check that should hold by
    construction (e.g. a conjugated solution no longer verifying, or an
    intertwiner not intertwining).  Indicates a bug or severe
    ill-conditioning, never bad user input.
    """


class DegeneracyError(RmlabError):
    """Randomized structure detection hit a spectral collision: its
    probes linked no certified frames."""


class NormalFormError(RmlabError):
    """An operator is not equivalent to any involutive normal form."""


class ResourceError(RmlabError):
    """The request would exceed the documented memory budget."""


class ParseError(RmlabError):
    """Input file or parameter string could not be parsed."""
