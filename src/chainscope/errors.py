"""Exception types shared across the toolkit."""


class ChainscopeError(Exception):
    """Base class for all toolkit errors."""


class DomainError(ChainscopeError):
    """A point lies outside the domain it is used with."""


class ControlError(ChainscopeError):
    """A control value is not a member of the system's control set."""


class SelfMapError(ChainscopeError):
    """A map evaluation left the domain (violates the self-map assumption)."""


class ResolutionError(ChainscopeError):
    """A fattening radius is below the grid's ``resolution_floor``."""


class EmptySetError(ChainscopeError):
    """An operation that requires a nonempty cell set received an empty one."""


class GridMismatchError(ChainscopeError):
    """Two cell sets from different grids were combined."""


class PreconditionError(ChainscopeError):
    """An operation-specific precondition failed (e.g. non-invariant input set)."""


class InconclusiveError(ChainscopeError):
    """The analysis could not decide at the configured resolution/budget."""


class ResourceLimitError(ChainscopeError):
    """A size cap was exceeded.  ``partial`` carries any partial result."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ConfigError(ChainscopeError):
    """Configuration file is malformed; carries position info when known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column
