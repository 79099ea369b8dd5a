"""Exception types raised by partcat, and the three argument checks shared
by its modules.

All domain errors derive from PartitionError so callers (and the CLI) can
distinguish violated preconditions from plain parse/usage problems.
"""


class PartitionError(Exception):
    """Base class for domain errors (violated operation preconditions)."""


class SizeMismatchError(PartitionError):
    """Composition attempted on a pair whose interface point counts differ."""


class ColorMismatchError(PartitionError):
    """Colored composition attempted with unequal interface color strings."""


class LevelMismatchError(PartitionError):
    """Spatial operation attempted on partitions with different level counts."""


class LevelStructureError(PartitionError):
    """Spatial partition whose flattened rows are not divisible by the level count."""


class VariantMismatchError(PartitionError):
    """A value of one partition variant given where another is expected."""


class EmptyRowError(PartitionError):
    """Rotation attempted from a row that has no points."""


class BoundError(PartitionError):
    """Size bound exceeded: oversized generator or out-of-bound closure query."""


class EnumerationLimitError(PartitionError):
    """Brute-force enumeration requested beyond the built-in size guard."""


class ParseError(ValueError):
    """Malformed textual input; carries the byte offset of the offending token."""

    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


def check_type(value, cls, role, error):
    """Raise `error` unless `value` is a `cls`.

    The exact type test comes first, so a value of the type itself costs
    one comparison.
    """
    if type(value) is not cls and not isinstance(value, cls):
        name = cls.__name__
        article = "an" if name[0] in "AEIOU" else "a"
        raise error(f"{role} must be {article} {name}, got {type(value).__name__}")


def check_iterable(value, what):
    """iter(value), raising ValueError naming `what` where `value` is not
    iterable."""
    try:
        return iter(value)
    except TypeError:
        raise ValueError(f"{what} must be iterable, got {type(value).__name__}") from None


def check_count(value, least, what):
    """Raise ValueError unless `value` is an int (not a bool) >= `least`,
    which is 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{what} must be a {kind} integer, got {value!r}")
