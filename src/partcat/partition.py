"""Two-row set partitions in canonical form.

A partition has k upper points and l lower points, decomposed into blocks.
It is stored as its raw member (k, blocks): the upper point count and a
block-label vector of length k + l (upper row first, then lower row); two
points belong to the same block exactly when their labels are equal.

Every public constructor relabels to the canonical form, where labels read
1, 2, 3, ... in first-occurrence order. Equal canonical form is therefore
the same thing as partition equivalence, so values can be compared with
`==` and stored in sets and dicts directly.

The private base `_Value` holds the raw member and its hash for this class
and for the colored and spatial ones of `partcat.variants`. Every public
field is a read-only view of the raw member, so no assignment can break the
canonical form, and `_from_raw` is the one path from a raw member to a value."""

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


class _Value:
    """The state of every value class: the raw member that the operation
    kernels take, and its hash. Equal values are those of one class with
    equal raw members; every public field is a read-only view of `_raw`."""

    __slots__ = ("_raw", "_hash")

    @classmethod
    def _from_raw(cls, raw):
        # Internal: the value of a raw member, trusted as given. Its block
        # vector must already be canonical: `ops.compose` sizes its scratch
        # space on that, since no label then exceeds the number of points.
        # A colored member's color rows must be valid and fit its rows.
        p = object.__new__(cls)
        p._raw = raw
        p._hash = hash(raw)
        return p

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._raw == other._raw

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Rebuilt through `_from_raw`, so the hash is that of the loading
        # interpreter: a colored value's hash covers str colors, which vary
        # with PYTHONHASHSEED.
        return self._from_raw, (self._raw,)


class Partition(_Value):
    """A two-row set partition, canonical and immutable.

    Built from two label sequences, one per row. Input labels may be any
    non-negative integers; they are relabeled on construction:

    >>> Partition([2, 4], [4, 99])
    Partition([1, 2], [2, 3])
    """

    __slots__ = ()

    def __init__(self, upper: Sequence[int] = (), lower: Sequence[int] = ()):
        upper = tuple(check_iterable(upper, "the upper row"))
        lower = tuple(check_iterable(lower, "the lower row"))
        for row in (upper, lower):
            for x in row:
                # bool is an int subclass but not a label; the exact type
                # test first keeps the common case to one comparison.
                if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)) or x < 0:
                    raise ValueError(f"labels must be non-negative integers, got {x!r}")
        self._raw = raw = (len(upper), canonical_labels(upper + lower))
        self._hash = hash(raw)

    # Views of the raw member (k, blocks). The value protocol's point counts,
    # and the compose interface ((p, q) composes when q.lower_key ==
    # p.upper_key), are the row counts themselves.
    upper_count = upper_points = upper_key = property(
        lambda p: p._raw[0], doc="Number of upper points.")
    lower_count = lower_points = lower_key = property(
        lambda p: len(p._raw[1]) - p._raw[0], doc="Number of lower points.")
    blocks = property(lambda p: p._raw[1], doc="Canonical labels, upper row first.")
    upper = property(lambda p: p._raw[1][: p._raw[0]], doc="Labels of the upper row.")
    lower = property(lambda p: p._raw[1][p._raw[0] :], doc="Labels of the lower row.")
    size = property(lambda p: len(p._raw[1]), doc="Total number of points (upper plus lower).")
    num_blocks = property(lambda p: len(set(p._raw[1])))
    sort_key = property(lambda p: (len(p._raw[1]),) + p._raw,
                        doc="Deterministic ordering used for emitted partition lists.")

    def __repr__(self):
        return f"Partition({list(self.upper)}, {list(self.lower)})"

    def __str__(self):
        up = ",".join(map(str, self.upper))
        lo = ",".join(map(str, self.lower))
        return f"{up}|{lo}"


#: The one-upper/one-lower single-block partition.
IDENTITY = Partition((1,), (1,))

#: The no-upper/two-lower single-block partition.
PAIR = Partition((), (1, 1))


def kernel_partition(values: Sequence[int]) -> Partition:
    """Partition with no upper points grouping equal entries of `values`.

    Lower points s and t share a block exactly when values[s] == values[t].
    """
    return Partition((), values)

