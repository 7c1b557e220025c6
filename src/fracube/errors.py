"""Exception types shared across the package."""


class FracubeError(Exception):
    """Base class for all package errors."""


class ParseError(FracubeError):
    """Digit-set text is malformed."""


class DuplicateDigit(ParseError):
    """The same digit appears twice in a digit-set literal."""


class OutOfRange(ParseError):
    """A digit coordinate falls outside {0, ..., n-1}."""


class NotSingleton(FracubeError):
    """Point extraction requested for a face that is not a singleton."""


class OnePointViolation(FracubeError):
    """Operation requires the one-point intersection property."""


class Disconnected(FracubeError):
    """Operation requires a connected attractor."""


class InternalInconsistency(FracubeError):
    """Two decision routes that must agree differ, or a result breaks a fact it must satisfy."""


class LabelConflict(FracubeError):
    """Two labels resolved to the same graph code."""


class UnknownCode(FracubeError):
    """A labelled digit set produced a graph code absent from the report."""


class BudgetExceeded(FracubeError):
    """A request exceeds a fixed work budget: voxel cells or scan candidates."""


class InvalidRequest(FracubeError, ValueError):
    """Request parameters are out of range: enumeration sizes, workers, voxel depth."""


class DataIntegrityError(FracubeError):
    """Bundled data file does not match its recorded checksum."""
