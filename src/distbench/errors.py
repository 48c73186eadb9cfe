"""Exception types shared across the package."""


class DistbenchError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(DistbenchError):
    """Two vectors (or a query and a training set) differ in dimension."""


class DomainViolationError(DistbenchError):
    """Input contains values outside a metric's declared domain."""


class UnknownMetricError(DistbenchError, KeyError):
    """Requested abbreviation is not in the metric registry."""

    # KeyError's str() is the repr of its argument; print the message bare
    __str__ = Exception.__str__


class MissingValueError(DistbenchError):
    """A CSV cell is empty."""


class NonNumericError(DistbenchError):
    """A value is not the number it must be: a CSV feature cell that does not
    parse as a finite real number, or a Wilcoxon sample value that is NaN."""


class EmptyDatasetError(DistbenchError):
    """A dataset has no usable rows (or no feature columns)."""


class InconsistentArityError(DistbenchError):
    """CSV rows do not all have the same number of columns."""


class TooSmallError(DistbenchError):
    """A split would leave a side empty, or k is outside [1, training examples]."""


class LengthMismatchError(DistbenchError):
    """Paired sequences differ in length (or are empty)."""


class ClassOutOfRangeError(DistbenchError):
    """A class id falls outside [0, n_classes)."""


class ConfigError(DistbenchError):
    """A configuration or argument is invalid, or an input file cannot be decoded or parsed."""
