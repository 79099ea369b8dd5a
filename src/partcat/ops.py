"""Category operations on partitions.

involution, tensor product, composition, the four corner rotations and the
vertical reflection. All operations are pure, take canonical partitions and
return canonical partitions; label collisions between the two operands of a
binary operation are handled internally.
"""

from array import array

from .errors import EmptyRowError, SizeMismatchError, VariantMismatchError, check_type
from .partition import Partition, canonical_labels

#: Valid `corner` arguments for :func:`rotate`.
CORNERS = ("top-left", "top-right", "bottom-left", "bottom-right")

# Total points up to which :func:`compose` keeps its scratch space in lists,
# its forest copied from one of these.
_SMALL_COMPOSE = 64
_FORESTS = [list(range(n)) for n in range(_SMALL_COMPOSE + 3)]


class _Plain:
    """Kernels on raw members, tuples that start with an upper point count
    and a canonical block vector: each reads those two, returns such a pair
    and checks nothing. `width` is the number of points in a column, m for
    the flattened form of a spatial value. Never instantiated."""

    def involution(p):
        k, b = p[0], p[1]
        return len(b) - k, canonical_labels(b[k:] + b[:k])

    def tensor(p, q):
        k1, a = p[0], p[1]
        k2, b = q[0], q[1]
        t = max(b) + 1 if b else 1
        merged = [x + t for x in a[:k1]]
        merged += b[:k2]
        merged += [x + t for x in a[k1:]]
        merged += b[k2:]
        return k1 + k2, canonical_labels(merged)

    def compose(p, q):
        ell, a = p[0], p[1]
        k, b = q[0], q[1]
        # Shift p's labels above q's so the two block structures are
        # disjoint, then union each of p's upper labels with the facing lower
        # label of q in one parent forest, with no ranks. Canonical labels
        # never exceed the number of points, so small inputs size it by their
        # lengths in a list, which is cheaper to make; large ones size it by
        # their largest labels in an array("i"), which keeps million-point
        # inputs contiguous for the cache. Lists and arrays index alike, so
        # one body serves both.
        if len(a) + len(b) <= _SMALL_COMPOSE:
            t = len(b) + 1
            n = t + len(a) + 1
            parent = _FORESTS[n][:]
        else:
            t = max(b) + 1 if b else 1
            n = t + (max(a) + 1 if a else 1)
            parent = array("i", range(n))
        for x, y in zip(a, b[k:]):
            x += t
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            while parent[y] != y:
                parent[y] = parent[parent[y]]
                y = parent[y]
            parent[y] = x  # a no-op when x == y
        # Relabel the surviving rows by class representative, in one pass
        # that also assigns fresh consecutive labels (so the result is
        # canonical). The table is a list on both paths: it hands every
        # position of a block the one int object it stores, where an array
        # would box a fresh int per position and the result would retain
        # twice the memory.
        out = []
        append = out.append
        table = [0] * n
        nxt = 1
        for v in b[:k]:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            lab = table[v]
            if lab == 0:
                table[v] = lab = nxt
                nxt += 1
            append(lab)
        for v in a[ell:]:
            v += t
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            lab = table[v]
            if lab == 0:
                table[v] = lab = nxt
                nxt += 1
            append(lab)
        return k, tuple(out)

    def rotate(p, corner, width):
        moved, k, _ = corner_move(p[1], p[0], corner, width)
        return k, canonical_labels(moved)

    def reflect_vertical(p, width):
        return p[0], canonical_labels(reverse_columns(p[1], p[0], width))

    def keys(p):  # the compose interfaces: q fits on top of p when keys(q)[1] == keys(p)[0]
        return p[0], len(p[1]) - p[0]


def check_interface(upper_points: int, lower_points: int):
    """Raise SizeMismatchError unless q's `lower_points` meet p's `upper_points`."""
    if lower_points != upper_points:
        raise SizeMismatchError(
            f"cannot compose: q has {lower_points} lower points "
            f"but p has {upper_points} upper points"
        )


def involution(p: Partition) -> Partition:
    """Swap the upper and lower rows (reflection along the horizontal axis)."""
    check_type(p, Partition, "an operand", VariantMismatchError)
    return Partition._from_raw(_Plain.involution(p._raw))


def tensor(p: Partition, q: Partition) -> Partition:
    """Concatenate horizontally: upper rows side by side, then lower rows."""
    check_type(p, Partition, "an operand", VariantMismatchError)
    check_type(q, Partition, "an operand", VariantMismatchError)
    return Partition._from_raw(_Plain.tensor(p._raw, q._raw))


def compose(p: Partition, q: Partition) -> Partition:
    """Stack `q` on top of `p`, gluing q's lower row to p's upper row.

    Requires lower_count(q) == upper_count(p). The glued middle points are
    identified in one union-find forest; the result keeps q's upper row and
    p's lower row. Middle components not connected to either surviving row
    simply disappear (no loop factor is produced). Quasi-linear in the total
    number of points without union by rank: path halving alone bounds n
    unions and finds by O(n log n) (Tarjan & van Leeuwen, J. ACM 1984).
    """
    check_type(p, Partition, "an operand", VariantMismatchError)
    check_type(q, Partition, "an operand", VariantMismatchError)
    check_interface(p.upper_count, q.lower_count)
    return Partition._from_raw(_Plain.compose(p._raw, q._raw))


def corner_move(items, k: int, corner: str, width: int):
    """Move the `width` items at one end of a row to the facing end of the other.

    `items` is a tuple holding the upper row, then the lower row, with `k`
    items in the upper row; `corner` names the end that moves, as for
    :func:`rotate`. Returns the rearranged tuple, its new upper-row length
    and the index at which the moved items now start.
    """
    if corner == "top-left" or corner == "top-right":
        if k == 0:
            raise EmptyRowError(f"cannot rotate {corner}: upper row is empty")
        if corner == "top-left":
            return items[width:k] + items[:width] + items[k:], k - width, k - width
        moved = items[: k - width] + items[k:] + items[k - width : k]
        return moved, k - width, len(items) - width
    if corner == "bottom-left" or corner == "bottom-right":
        if k == len(items):
            raise EmptyRowError(f"cannot rotate {corner}: lower row is empty")
        if corner == "bottom-left":
            return items[k : k + width] + items[:k] + items[k + width :], k + width, 0
        return items[:k] + items[-width:] + items[k:-width], k + width, k
    raise ValueError(f"unknown corner {corner!r}, expected one of {CORNERS}")


def reverse_columns(items, k: int, width: int) -> list:
    """Reverse the order of the `width`-item columns in each row of `items`
    (the `k` upper items, then the lower), keeping each column's own order."""
    out = list(items)
    for j in range(width):
        out[j:k:width] = items[j:k:width][::-1]
        out[k + j :: width] = items[k + j :: width][::-1]
    return out


def rotate(p: Partition, corner: str) -> Partition:
    """Move one end point of a row to the matching end of the other row.

    `corner` names the point that moves: "top-left" sends the first upper
    point to the front of the lower row, "top-right" the last upper point to
    the end of the lower row; "bottom-left" and "bottom-right" are the
    inverse moves. Block membership of the moved point is preserved.
    """
    check_type(p, Partition, "an operand", VariantMismatchError)
    return Partition._from_raw(_Plain.rotate(p._raw, corner, 1))


def reflect_vertical(p: Partition) -> Partition:
    """Reverse both rows (reflection along the vertical axis)."""
    check_type(p, Partition, "an operand", VariantMismatchError)
    return Partition._from_raw(_Plain.reflect_vertical(p._raw, 1))
