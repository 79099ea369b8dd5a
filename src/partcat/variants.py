"""Colored and multi-level (spatial) partitions.

A colored partition attaches a white/black color to every point of an
ordinary partition; composition additionally requires the interface color
strings to agree. A spatial partition stacks an ordinary partition shape on
m levels; it is stored in flattened form, where the level-j copy of point i
sits at flat position m*(i-1)+j. The operations of `partcat.ops` take both:
each class names its kernel table as `_kernels`, `_Colored` the plain
kernels plus the color rows, `_Spatial` the plain kernels on the flattened
form, m points to a column.

Both classes keep only a raw member, in the base `partition._Value`: a
colored value its upper count, blocks and two color rows, a spatial value
its flat upper count, flat blocks and level count. Their public fields are
read-only views of these.
"""

from collections.abc import Iterable

from .errors import (
    LevelStructureError,
    VariantMismatchError,
    check_count,
    check_iterable,
    check_type,
)
from .ops import _Plain, corner_move
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

    def colored_rotate(p, corner):
        colors, k, at = corner_move(p[2] + p[3], p[0], corner, 1)
        colors = colors[:at] + (invert_color(colors[at]),) + colors[at + 1 :]
        return _Plain.rotate(p, corner) + (colors[:k], colors[k:])

    def colored_reflect(p):
        return _Plain.reflect_vertical(p) + (p[2][::-1], p[3][::-1])

    def keys(p):  # the compose interfaces are the color rows
        return p[2], p[3]

    tensor, involution, compose = colored_tensor, colored_involution, colored_compose
    rotate, reflect_vertical = colored_rotate, colored_reflect


class ColoredPartition(_Value):
    """A partition with a white/black color on every point.

    Colors are given per row, as any iterable of "w"/"b" (a plain string
    like "wb" works), and must match the row lengths of the base partition.
    The raw member is (upper count, blocks, upper colors, lower colors).
    """

    __slots__ = ()
    _kernels = _Colored

    def __new__(cls, base: Partition, upper_colors: Iterable[str], lower_colors: Iterable[str]):
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
        return cls._from_raw(base._raw + (uc, lc))

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


class _Spatial:
    """The spatial operations as kernels on raw members (flat upper count,
    flat blocks, levels): the plain kernels on the flattened form, moving
    columns of m points, plus the level count. Unchecked like them."""

    def spatial_tensor(p, q):
        return _Plain.tensor(p, q) + p[2:]

    def spatial_involution(p):
        return _Plain.involution(p) + p[2:]

    def spatial_compose(p, q):
        return _Plain.compose(p, q) + p[2:]

    def spatial_rotate(p, corner):
        return _Plain.rotate(p, corner, p[2]) + p[2:]

    def spatial_reflect(p):
        return _Plain.reflect_vertical(p, p[2]) + p[2:]

    keys = _Plain.keys  # the flat row lengths, as a run has one level count
    tensor, involution, compose = spatial_tensor, spatial_involution, spatial_compose
    rotate, reflect_vertical = spatial_rotate, spatial_reflect


class SpatialPartition(_Value):
    """A partition on m stacked levels, stored flattened.

    `flattened` holds the image of the level structure under the reindexing
    (point i, level j) -> m*(i-1)+j, so its row lengths must be divisible by
    `levels`. The per-level point counts are exposed as `upper_points` and
    `lower_points`. The raw member is that of `flattened` followed by the
    level count, so equality and the hash cover both.
    """

    __slots__ = ()
    _kernels = _Spatial

    def __new__(cls, levels: int, flattened: Partition):
        check_count(levels, 1, "levels")
        check_type(flattened, Partition, "the flattened value", VariantMismatchError)
        if flattened.upper_count % levels or flattened.lower_count % levels:
            raise LevelStructureError(
                f"flattened rows of lengths {flattened.upper_count}/"
                f"{flattened.lower_count} are not divisible by {levels} levels"
            )
        return cls._from_raw(flattened._raw + (levels,))

    # Views of the raw member (flat upper count, flat blocks, levels).
    levels = property(lambda p: p._raw[2])
    flattened = property(lambda p: Partition._from_raw(p._raw[:2]), doc="The flattened partition.")
    upper_points = property(lambda p: p._raw[0] // p._raw[2])
    lower_points = property(lambda p: (len(p._raw[1]) - p._raw[0]) // p._raw[2])
    size = property(lambda p: len(p._raw[1]) // p._raw[2],
                    doc="Number of points of the level structure (not counting levels).")
    upper_key = property(lambda p: (p._raw[2], p.upper_points))
    lower_key = property(lambda p: (p._raw[2], p.lower_points))
    sort_key = property(lambda p: (p._raw[2], len(p._raw[1])) + p._raw[:2])

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
    return SpatialPartition._from_raw((p.upper_count * m, canonical_labels(labels), m))


def spatial_base_partitions(m: int) -> list[SpatialPartition]:
    """The level-wise copies of the identity and pair base partitions."""
    return [lift_to_levels(IDENTITY, m), lift_to_levels(PAIR, m)]
