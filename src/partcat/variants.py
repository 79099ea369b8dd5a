"""Colored and multi-level (spatial) partitions.

A colored partition attaches a white/black color to every point of an
ordinary partition; composition additionally requires the interface color
strings to agree. A spatial partition stacks an ordinary partition shape on
m levels; it is stored in flattened form, where the level-j copy of point i
sits at flat position m*(i-1)+j, and all operations are delegated to the
flattened partition after checking that the level counts agree.
"""

from collections.abc import Iterable

from .errors import (
    ColorMismatchError,
    LevelMismatchError,
    LevelStructureError,
    SizeMismatchError,
    VariantMismatchError,
    check_count,
    check_iterable,
    check_type,
)
from .ops import compose, corner_move, involution, reflect_vertical, rotate, tensor
from .partition import IDENTITY, PAIR, Partition

WHITE = "w"
BLACK = "b"
_COLORS = (WHITE, BLACK)


def _check_color(c):
    if c not in _COLORS:
        raise ValueError(f"colors must be {WHITE!r} or {BLACK!r}, got {c!r}")


def invert_color(c: str) -> str:
    _check_color(c)
    return BLACK if c == WHITE else WHITE


class ColoredPartition:
    """A partition with a white/black color on every point.

    Colors are given per row, as any iterable of "w"/"b" (a plain string
    like "wb" works), and must match the row lengths of the base partition.
    """

    __slots__ = ("base", "upper_colors", "lower_colors", "_hash")

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
        self.base = base
        self.upper_colors = uc
        self.lower_colors = lc
        self._hash = hash((base, uc, lc))

    @classmethod
    def _from_raw(cls, base: Partition, upper_colors: tuple, lower_colors: tuple) -> "ColoredPartition":
        # Internal: trusts the color tuples to hold valid colors and to match
        # the rows of `base`. Used for the results of operations on checked
        # values.
        p = object.__new__(cls)
        p.base = base
        p.upper_colors = upper_colors
        p.lower_colors = lower_colors
        p._hash = hash((base, upper_colors, lower_colors))
        return p

    @property
    def size(self) -> int:
        return self.base.size

    @property
    def upper_points(self) -> int:
        return self.base.upper_count

    @property
    def lower_points(self) -> int:
        return self.base.lower_count

    @property
    def sort_key(self):
        return self.base.sort_key + (self.upper_colors, self.lower_colors)

    def __eq__(self, other):
        if not isinstance(other, ColoredPartition):
            return NotImplemented
        return (
            self.base == other.base
            and self.upper_colors == other.upper_colors
            and self.lower_colors == other.lower_colors
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (
            f"ColoredPartition({self.base!r}, "
            f"{''.join(self.upper_colors)!r}, {''.join(self.lower_colors)!r})"
        )


# The compose interface is the color string (the color slots); it fixes the point count.
ColoredPartition.upper_key = ColoredPartition.upper_colors
ColoredPartition.lower_key = ColoredPartition.lower_colors


def colored_tensor(p: ColoredPartition, q: ColoredPartition) -> ColoredPartition:
    """Horizontal concatenation; color strings concatenate row-wise."""
    check_type(p, ColoredPartition, "an operand", VariantMismatchError)
    check_type(q, ColoredPartition, "an operand", VariantMismatchError)
    return ColoredPartition._from_raw(
        tensor(p.base, q.base),
        p.upper_colors + q.upper_colors,
        p.lower_colors + q.lower_colors,
    )


def colored_involution(p: ColoredPartition) -> ColoredPartition:
    """Swap rows; the color strings swap rows with them, order unchanged."""
    check_type(p, ColoredPartition, "an operand", VariantMismatchError)
    return ColoredPartition._from_raw(involution(p.base), p.lower_colors, p.upper_colors)


def colored_compose(p: ColoredPartition, q: ColoredPartition) -> ColoredPartition:
    """Stack `q` on top of `p`.

    Requires matching interface sizes and, point for point, matching
    interface colors; the two failure modes raise distinct errors.
    """
    check_type(p, ColoredPartition, "an operand", VariantMismatchError)
    check_type(q, ColoredPartition, "an operand", VariantMismatchError)
    base = compose(p.base, q.base)  # raises SizeMismatchError first
    if q.lower_colors != p.upper_colors:
        raise ColorMismatchError(
            f"cannot compose: interface colors {''.join(q.lower_colors)!r} "
            f"of q do not match {''.join(p.upper_colors)!r} of p"
        )
    return ColoredPartition._from_raw(base, q.upper_colors, p.lower_colors)


def colored_rotate(p: ColoredPartition, corner: str) -> ColoredPartition:
    """Rotate one end point to the other row, inverting the moved point's color."""
    check_type(p, ColoredPartition, "an operand", VariantMismatchError)
    colors, k, at = corner_move(
        p.upper_colors + p.lower_colors, len(p.upper_colors), corner, 1
    )
    colors = colors[:at] + (invert_color(colors[at]),) + colors[at + 1 :]
    return ColoredPartition._from_raw(rotate(p.base, corner), colors[:k], colors[k:])


def colored_reflect(p: ColoredPartition) -> ColoredPartition:
    """Reverse both rows; every point keeps its color."""
    check_type(p, ColoredPartition, "an operand", VariantMismatchError)
    return ColoredPartition._from_raw(
        reflect_vertical(p.base), p.upper_colors[::-1], p.lower_colors[::-1]
    )


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


class SpatialPartition:
    """A partition on m stacked levels, stored flattened.

    `flattened` holds the image of the level structure under the reindexing
    (point i, level j) -> m*(i-1)+j, so its row lengths must be divisible by
    `levels`. The per-level point counts are exposed as `upper_points` and
    `lower_points`.
    """

    __slots__ = ("levels", "flattened", "_hash")

    def __init__(self, levels: int, flattened: Partition):
        check_count(levels, 1, "levels")
        check_type(flattened, Partition, "the flattened value", VariantMismatchError)
        if flattened.upper_count % levels or flattened.lower_count % levels:
            raise LevelStructureError(
                f"flattened rows of lengths {flattened.upper_count}/"
                f"{flattened.lower_count} are not divisible by {levels} levels"
            )
        self.levels = levels
        self.flattened = flattened
        self._hash = hash((levels, flattened))

    @classmethod
    def _from_raw(cls, levels: int, flattened: Partition) -> "SpatialPartition":
        # Internal: trusts `levels` to be a positive integer dividing both
        # row lengths of `flattened`. Used for the results of operations on
        # checked values.
        p = object.__new__(cls)
        p.levels = levels
        p.flattened = flattened
        p._hash = hash((levels, flattened))
        return p

    @property
    def upper_points(self) -> int:
        return self.flattened.upper_count // self.levels

    @property
    def lower_points(self) -> int:
        return self.flattened.lower_count // self.levels

    @property
    def size(self) -> int:
        """Number of points of the level structure (not counting levels)."""
        return self.upper_points + self.lower_points

    @property
    def upper_key(self):
        return (self.levels, self.upper_points)

    @property
    def lower_key(self):
        return (self.levels, self.lower_points)

    @property
    def sort_key(self):
        return (self.levels,) + self.flattened.sort_key

    def __eq__(self, other):
        if not isinstance(other, SpatialPartition):
            return NotImplemented
        return self.levels == other.levels and self.flattened == other.flattened

    def __hash__(self):
        return self._hash

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
    return SpatialPartition(m, Partition._relabeled(p.upper_count * m, labels))


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
    return SpatialPartition._from_raw(p.levels, tensor(p.flattened, q.flattened))


def spatial_involution(p: SpatialPartition) -> SpatialPartition:
    """Swap the upper and lower rows of every level."""
    check_type(p, SpatialPartition, "an operand", VariantMismatchError)
    return SpatialPartition._from_raw(p.levels, involution(p.flattened))


def spatial_compose(p: SpatialPartition, q: SpatialPartition) -> SpatialPartition:
    """Stack `q` on top of `p`, level by level."""
    _check_operands(p, q)
    if q.lower_points != p.upper_points:
        raise SizeMismatchError(
            f"cannot compose: q has {q.lower_points} lower points "
            f"but p has {p.upper_points} upper points"
        )
    return SpatialPartition._from_raw(p.levels, compose(p.flattened, q.flattened))


def spatial_rotate(p: SpatialPartition, corner: str) -> SpatialPartition:
    """Rotate a whole point column (all m levels of one end point) at once."""
    check_type(p, SpatialPartition, "an operand", VariantMismatchError)
    m = p.levels
    moved, k, _ = corner_move(p.flattened.blocks, p.flattened.upper_count, corner, m)
    return SpatialPartition._from_raw(m, Partition._relabeled(k, moved))


def spatial_reflect(p: SpatialPartition) -> SpatialPartition:
    """Reverse the column order of both rows, keeping level order in each column."""
    check_type(p, SpatialPartition, "an operand", VariantMismatchError)
    m = p.levels
    flat = p.flattened
    ku = flat.upper_count
    b = flat.blocks
    # Within a row, the stride-m slice from j is level j, column by column.
    labels = list(b)
    for j in range(m):
        labels[j:ku:m] = b[j:ku:m][::-1]
        labels[ku + j :: m] = b[ku + j :: m][::-1]
    return SpatialPartition._from_raw(m, Partition._relabeled(ku, labels))
