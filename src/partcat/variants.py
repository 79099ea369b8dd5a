"""Colored and multi-level (spatial) partitions.

A colored partition attaches a white/black color to every point of an
ordinary partition; composition additionally requires the interface color
strings to agree. A spatial partition stacks an ordinary partition shape on
m levels; it is stored in flattened form, where the level-j copy of point i
sits at flat position m*(i-1)+j. Its operations check that the level counts
agree and run the plain kernels on the flattened form, m points to a column.

Both classes keep only a raw member, in the base `partition._Value`: a
colored value its upper count, blocks and two color rows, a spatial value
its flattened raw member, with its level count beside it. Their public
fields are read-only views of these.
"""

from collections.abc import Iterable

from .errors import (
    ColorMismatchError,
    LevelMismatchError,
    LevelStructureError,
    VariantMismatchError,
    check_count,
    check_iterable,
    check_type,
)
from .ops import _Plain, check_interface, corner_move, reverse_columns
from .partition import IDENTITY, PAIR, Partition, _Value, canonical_labels

WHITE = "w"
BLACK = "b"
_COLORS = (WHITE, BLACK)


def _check_color(c):
    if c not in _COLORS:
        raise ValueError(f"colors must be {WHITE!r} or {BLACK!r}, got {c!r}")


def invert_color(c: str) -> str:
    _check_color(c)
    return BLACK if c == WHITE else WHITE


class ColoredPartition(_Value):
    """A partition with a white/black color on every point.

    Colors are given per row, as any iterable of "w"/"b" (a plain string
    like "wb" works), and must match the row lengths of the base partition.
    The raw member is (upper count, blocks, upper colors, lower colors).
    """

    __slots__ = ()

    def __init__(self, base: Partition, upper_colors: Iterable[str], lower_colors: Iterable[str]):
        check_type(base, Partition, "the base", VariantMismatchError)
        uc = tuple(check_iterable(upper_colors, "the upper colors"))
        lc = tuple(check_iterable(lower_colors, "the lower colors"))
        if len(uc) != base.upper_count or len(lc) != base.lower_count:
            raise ValueError(
                f"color strings of lengths {len(uc)}/{len(lc)} do not match "
                f"rows of lengths {base.upper_count}/{base.lower_count}"
            )
        for c in uc + lc:
            _check_color(c)
        self._raw = raw = base._raw + (uc, lc)
        self._hash = hash(raw)

    # Views of the raw member; the point counts and the size are those of
    # the base, and the compose interface is the color string, which fixes
    # the point count.
    base = property(lambda p: Partition._from_raw(p._raw[:2]), doc="The uncolored partition.")
    upper_colors = upper_key = property(lambda p: p._raw[2])
    lower_colors = lower_key = property(lambda p: p._raw[3])
    upper_points, lower_points = Partition.upper_points, Partition.lower_points
    size, sort_key = Partition.size, Partition.sort_key

    def __repr__(self):
        return (
            f"ColoredPartition({self.base!r}, "
            f"{''.join(self.upper_colors)!r}, {''.join(self.lower_colors)!r})"
        )


class _Colored:
    """The colored operations as kernels on raw members (upper count, blocks,
    upper colors, lower colors): the plain kernels plus the color rows.
    Unchecked like them; `colored_compose` trusts the interface colors."""

    def colored_tensor(p, q):
        return _Plain.tensor(p, q) + (p[2] + q[2], p[3] + q[3])

    def colored_involution(p):
        return _Plain.involution(p) + (p[3], p[2])

    def colored_compose(p, q):
        return _Plain.compose(p, q) + (q[2], p[3])

    def colored_rotate(p, corner, width):
        colors, k, at = corner_move(p[2] + p[3], p[0], corner, width)
        moved = tuple(map(invert_color, colors[at : at + width]))
        colors = colors[:at] + moved + colors[at + width :]
        return _Plain.rotate(p, corner, width) + (colors[:k], colors[k:])

    def colored_reflect(p, width):
        colors = tuple(reverse_columns(p[2] + p[3], p[0], width))
        return _Plain.reflect_vertical(p, width) + (colors[: p[0]], colors[p[0] :])

    def keys(p):  # the compose interfaces are the color rows
        return p[2], p[3]

    tensor, involution, compose = colored_tensor, colored_involution, colored_compose
    rotate, reflect_vertical = colored_rotate, colored_reflect


def colored_tensor(p: ColoredPartition, q: ColoredPartition) -> ColoredPartition:
    """Horizontal concatenation; color strings concatenate row-wise."""
    check_type(p, ColoredPartition, "an operand", VariantMismatchError)
    check_type(q, ColoredPartition, "an operand", VariantMismatchError)
    return ColoredPartition._from_raw(_Colored.colored_tensor(p._raw, q._raw))


def colored_involution(p: ColoredPartition) -> ColoredPartition:
    """Swap rows; the color strings swap rows with them, order unchanged."""
    check_type(p, ColoredPartition, "an operand", VariantMismatchError)
    return ColoredPartition._from_raw(_Colored.colored_involution(p._raw))


def colored_compose(p: ColoredPartition, q: ColoredPartition) -> ColoredPartition:
    """Stack `q` on top of `p`.

    Requires matching interface sizes and, point for point, matching
    interface colors; the two failure modes raise distinct errors.
    """
    check_type(p, ColoredPartition, "an operand", VariantMismatchError)
    check_type(q, ColoredPartition, "an operand", VariantMismatchError)
    check_interface(p.upper_points, q.lower_points)
    if q.lower_colors != p.upper_colors:
        raise ColorMismatchError(
            f"cannot compose: interface colors {''.join(q.lower_colors)!r} "
            f"of q do not match {''.join(p.upper_colors)!r} of p"
        )
    return ColoredPartition._from_raw(_Colored.colored_compose(p._raw, q._raw))


def colored_rotate(p: ColoredPartition, corner: str) -> ColoredPartition:
    """Rotate one end point to the other row, inverting the moved point's color."""
    check_type(p, ColoredPartition, "an operand", VariantMismatchError)
    return ColoredPartition._from_raw(_Colored.colored_rotate(p._raw, corner, 1))


def colored_reflect(p: ColoredPartition) -> ColoredPartition:
    """Reverse both rows; every point keeps its color."""
    check_type(p, ColoredPartition, "an operand", VariantMismatchError)
    return ColoredPartition._from_raw(_Colored.colored_reflect(p._raw, 1))


def colored_base_partitions() -> list[ColoredPartition]:
    """The four colored base partitions.

    The white and black identities, plus the two no-upper pair partitions
    with mixed colors.
    """
    return [
        ColoredPartition(IDENTITY, (WHITE,), (WHITE,)),
        ColoredPartition(IDENTITY, (BLACK,), (BLACK,)),
        ColoredPartition(PAIR, (), (WHITE, BLACK)),
        ColoredPartition(PAIR, (), (BLACK, WHITE)),
    ]


class SpatialPartition(_Value):
    """A partition on m stacked levels, stored flattened.

    `flattened` holds the image of the level structure under the reindexing
    (point i, level j) -> m*(i-1)+j, so its row lengths must be divisible by
    `levels`. The per-level point counts are exposed as `upper_points` and
    `lower_points`. The raw member is that of `flattened`; the level count
    is kept beside it, and equality and the hash cover both.
    """

    __slots__ = ("_levels",)

    def __init__(self, levels: int, flattened: Partition):
        check_count(levels, 1, "levels")
        check_type(flattened, Partition, "the flattened value", VariantMismatchError)
        if flattened.upper_count % levels or flattened.lower_count % levels:
            raise LevelStructureError(
                f"flattened rows of lengths {flattened.upper_count}/"
                f"{flattened.lower_count} are not divisible by {levels} levels"
            )
        self._raw = flattened._raw
        self._levels = levels
        self._hash = hash((levels, flattened._hash))

    @classmethod
    def _from_raw(cls, levels: int, raw) -> "SpatialPartition":
        # Internal: as `_Value._from_raw`, trusting `levels` to be a positive
        # integer dividing both row lengths of the flattened raw member.
        p = super()._from_raw(raw)
        p._levels = levels
        p._hash = hash((levels, p._hash))
        return p

    def __eq__(self, other):
        if type(other) is not SpatialPartition:
            return NotImplemented
        return self._levels == other._levels and self._raw == other._raw

    __hash__ = _Value.__hash__  # a class that defines __eq__ inherits no __hash__

    def __reduce__(self):
        return self._from_raw, (self._levels, self._raw)

    # Views of the flattened raw member and the level count.
    levels = property(lambda p: p._levels)
    flattened = property(lambda p: Partition._from_raw(p._raw), doc="The flattened partition.")
    upper_points = property(lambda p: p._raw[0] // p._levels)
    lower_points = property(lambda p: (len(p._raw[1]) - p._raw[0]) // p._levels)
    size = property(lambda p: len(p._raw[1]) // p._levels,
                    doc="Number of points of the level structure (not counting levels).")
    upper_key = property(lambda p: (p._levels, p.upper_points))
    lower_key = property(lambda p: (p._levels, p.lower_points))
    sort_key = property(lambda p: (p._levels, len(p._raw[1])) + p._raw)

    def __repr__(self):
        return f"SpatialPartition(levels={self.levels}, flattened={self.flattened!r})"


def flatten(k: int, l: int, m: int, blocks) -> Partition:
    """Flatten a decomposition of {1..k+l} x {1..m} into an ordinary partition.

    `blocks` is an iterable of blocks, each an iterable of (point, level)
    pairs; together they must cover the product set exactly once. The pair
    (i, j) lands at flat position m*(i-1)+j, preserving block membership.
    """
    check_count(k, 0, "upper point count")
    check_count(l, 0, "lower point count")
    check_count(m, 1, "levels")
    n = k + l
    labels = [0] * (n * m)
    seen = 0
    for index, block in enumerate(check_iterable(blocks, "blocks"), start=1):
        for entry in check_iterable(block, "a block"):
            try:
                i, j = entry
            except (TypeError, ValueError):
                raise LevelStructureError(
                    f"a block entry must be a (point, level) pair, got {entry!r}"
                ) from None
            if not (type(i) is type(j) is int and 1 <= i <= n and 1 <= j <= m):
                raise LevelStructureError(
                    f"point ({i!r}, {j!r}) is not in {{1..{n}}} x {{1..{m}}}"
                )
            pos = m * (i - 1) + j - 1
            if labels[pos]:
                raise LevelStructureError(f"point ({i}, {j}) covered twice")
            labels[pos] = index
            seen += 1
    if seen != n * m:
        raise LevelStructureError(
            f"blocks cover {seen} of {n * m} points of {{1..{n}}} x {{1..{m}}}"
        )
    return Partition(labels[: m * k], labels[m * k :])


def unflatten(sp: SpatialPartition) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Inverse of :func:`flatten`: blocks on the product set.

    Returns blocks as tuples of (point, level) pairs, each block sorted and
    the blocks ordered by their smallest pair, so the output is canonical.
    """
    check_type(sp, SpatialPartition, "an operand", VariantMismatchError)
    m = sp.levels
    by_label: dict[int, list[tuple[int, int]]] = {}
    for pos, label in enumerate(sp.flattened.blocks):
        point = pos // m + 1
        level = pos % m + 1
        by_label.setdefault(label, []).append((point, level))
    blocks = sorted(tuple(sorted(b)) for b in by_label.values())
    return tuple(blocks)


def lift_to_levels(p: Partition, m: int) -> SpatialPartition:
    """Place an independent copy of `p` on each of `m` levels."""
    check_type(p, Partition, "the lifted value", VariantMismatchError)
    check_count(m, 1, "levels")
    labels = []
    for b in p.blocks:
        labels.extend(b * m + j for j in range(1, m + 1))
    return SpatialPartition._from_raw(m, (p.upper_count * m, canonical_labels(labels)))


def spatial_base_partitions(m: int) -> list[SpatialPartition]:
    """The level-wise copies of the identity and pair base partitions."""
    return [lift_to_levels(IDENTITY, m), lift_to_levels(PAIR, m)]


def _check_operands(p: SpatialPartition, q: SpatialPartition):
    check_type(p, SpatialPartition, "an operand", VariantMismatchError)
    check_type(q, SpatialPartition, "an operand", VariantMismatchError)
    if p.levels != q.levels:
        raise LevelMismatchError(
            f"level counts differ: {p.levels} versus {q.levels}"
        )


def spatial_tensor(p: SpatialPartition, q: SpatialPartition) -> SpatialPartition:
    """Horizontal concatenation of same-level spatial partitions."""
    _check_operands(p, q)
    return SpatialPartition._from_raw(p.levels, _Plain.tensor(p._raw, q._raw))


def spatial_involution(p: SpatialPartition) -> SpatialPartition:
    """Swap the upper and lower rows of every level."""
    check_type(p, SpatialPartition, "an operand", VariantMismatchError)
    return SpatialPartition._from_raw(p.levels, _Plain.involution(p._raw))


def spatial_compose(p: SpatialPartition, q: SpatialPartition) -> SpatialPartition:
    """Stack `q` on top of `p`, level by level."""
    _check_operands(p, q)
    check_interface(p.upper_points, q.lower_points)
    return SpatialPartition._from_raw(p.levels, _Plain.compose(p._raw, q._raw))


def spatial_rotate(p: SpatialPartition, corner: str) -> SpatialPartition:
    """Rotate a whole point column (all m levels of one end point) at once."""
    check_type(p, SpatialPartition, "an operand", VariantMismatchError)
    return SpatialPartition._from_raw(p.levels, _Plain.rotate(p._raw, corner, p.levels))


def spatial_reflect(p: SpatialPartition) -> SpatialPartition:
    """Reverse the column order of both rows, keeping level order in each column."""
    check_type(p, SpatialPartition, "an operand", VariantMismatchError)
    return SpatialPartition._from_raw(p.levels, _Plain.reflect_vertical(p._raw, p.levels))
