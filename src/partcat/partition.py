"""Two-row set partitions in canonical form.

A partition has k upper points and l lower points, decomposed into blocks.
It is stored as the tuple of counts plus a block-label vector of length
k + l (upper row first, then lower row): two points belong to the same
block exactly when their labels are equal.

Every public constructor relabels to the canonical form, where labels read
1, 2, 3, ... in first-occurrence order. Equal canonical form is therefore
the same thing as partition equivalence, so values can be compared with
`==` and stored in sets and dicts directly.
"""

from collections.abc import Iterable, Sequence

from .errors import check_iterable


# Length above which canonical_labels relabels through a flat list indexed by
# label when every label is an int in [0, 2 * length]; shorter inputs and
# sparser or non-int labels go through a dict.
_FLAT_RELABEL = 64


def canonical_labels(labels: Iterable[int]) -> tuple[int, ...]:
    """Relabel a sequence so labels read 1, 2, 3, ... in first-occurrence order.

    A single left-to-right pass over a table from old label to new; at most
    two table accesses per element. Long inputs of small ints index a flat
    list, the rest a dict; both store each new label once, so equal labels
    of the result are one shared object.
    """
    table = None
    try:
        if len(labels) > _FLAT_RELABEL and min(labels) >= 0:
            top = max(labels)
            if top <= 2 * len(labels):
                table = [0] * (top + 1)
    except TypeError:  # an iterator, labels that are not ints, or no iterable
        labels = check_iterable(labels, "labels")
    if table is not None:
        nxt = 1
        out = []
        append = out.append
        try:
            for x in labels:
                y = table[x]
                if not y:
                    table[x] = y = nxt
                    nxt += 1
                append(y)
            return tuple(out)
        except TypeError:  # a non-int label between int extremes
            pass
    table = {}
    nxt = 1
    out = []
    append = out.append
    get = table.get
    for x in labels:
        y = get(x)
        if y is None:
            table[x] = y = nxt
            nxt += 1
        append(y)
    return tuple(out)


class Partition:
    """A two-row set partition, canonical and immutable.

    Built from two label sequences, one per row. Input labels may be any
    non-negative integers; they are relabeled on construction:

    >>> Partition([2, 4], [4, 99])
    Partition([1, 2], [2, 3])
    """

    __slots__ = ("upper_count", "lower_count", "blocks", "_hash")

    def __init__(self, upper: Sequence[int] = (), lower: Sequence[int] = ()):
        upper = tuple(check_iterable(upper, "the upper row"))
        lower = tuple(check_iterable(lower, "the lower row"))
        for row in (upper, lower):
            for x in row:
                # bool is an int subclass but not a label; the exact type
                # test first keeps the common case to one comparison.
                if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)) or x < 0:
                    raise ValueError(f"labels must be non-negative integers, got {x!r}")
        self.upper_count = len(upper)
        self.lower_count = len(lower)
        self.blocks = canonical_labels(upper + lower)
        self._hash = hash((self.upper_count, self.lower_count, self.blocks))

    @classmethod
    def _from_raw(cls, upper_count: int, lower_count: int, blocks: tuple[int, ...]) -> "Partition":
        # Internal: trusts `blocks` as given, so they must already be
        # canonical. `ops.compose` sizes its scratch space on that: no label
        # exceeds the number of points.
        p = object.__new__(cls)
        p.upper_count = upper_count
        p.lower_count = lower_count
        p.blocks = blocks
        p._hash = hash((upper_count, lower_count, blocks))
        return p

    @classmethod
    def _relabeled(cls, upper_count: int, labels: Sequence) -> "Partition":
        # Internal: the partition whose upper row holds the first
        # `upper_count` of `labels` and whose lower row the rest. Labels may
        # be any hashable values, since the relabel makes them canonical;
        # only the constructor's check for non-negative ints is skipped.
        return cls._from_raw(upper_count, len(labels) - upper_count, canonical_labels(labels))

    @property
    def upper(self) -> tuple[int, ...]:
        """Labels of the upper row."""
        return self.blocks[: self.upper_count]

    @property
    def lower(self) -> tuple[int, ...]:
        """Labels of the lower row."""
        return self.blocks[self.upper_count :]

    @property
    def size(self) -> int:
        """Total number of points (upper plus lower)."""
        return self.upper_count + self.lower_count

    @property
    def sort_key(self):
        """Deterministic ordering used for emitted partition lists."""
        return (self.size, self.upper_count, self.blocks)

    @property
    def num_blocks(self) -> int:
        return len(set(self.blocks))

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return (
            self.upper_count == other.upper_count
            and self.lower_count == other.lower_count
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Partition({list(self.upper)}, {list(self.lower)})"

    def __str__(self):
        up = ",".join(map(str, self.upper))
        lo = ",".join(map(str, self.lower))
        return f"{up}|{lo}"


# The value protocol's point counts, and the compose interface ((p, q)
# composes when q.lower_key == p.upper_key), are the count slots themselves.
Partition.upper_points = Partition.upper_key = Partition.upper_count
Partition.lower_points = Partition.lower_key = Partition.lower_count

#: The one-upper/one-lower single-block partition.
IDENTITY = Partition((1,), (1,))

#: The no-upper/two-lower single-block partition.
PAIR = Partition((), (1, 1))


def kernel_partition(values: Sequence[int]) -> Partition:
    """Partition with no upper points grouping equal entries of `values`.

    Lower points s and t share a block exactly when values[s] == values[t].
    """
    return Partition((), values)

