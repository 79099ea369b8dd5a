"""Exception types raised by partcat.

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
