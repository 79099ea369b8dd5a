"""Category operations on partitions.

involution, tensor product, composition, the four corner rotations and the
vertical reflection. All operations are pure, take canonical partitions and
return canonical partitions; label collisions between the two operands of a
binary operation are handled internally.
"""

from __future__ import annotations

from array import array

from .errors import EmptyRowError, SizeMismatchError
from .partition import Partition, canonical_labels
from .unionfind import components_by_dfs

#: Valid `corner` arguments for :func:`rotate`.
CORNERS = ("top-left", "top-right", "bottom-left", "bottom-right")


def involution(p: Partition) -> Partition:
    """Swap the upper and lower rows (reflection along the horizontal axis)."""
    k = p.upper_count
    b = p.blocks
    return Partition._from_raw(
        p.lower_count, k, canonical_labels(b[k:] + b[:k])
    )


def tensor(p: Partition, q: Partition) -> Partition:
    """Concatenate horizontally: upper rows side by side, then lower rows."""
    a, b = p.blocks, q.blocks
    k1, k2 = p.upper_count, q.upper_count
    t = max(b) + 1 if b else 1
    merged = [x + t for x in a[:k1]]
    merged += b[:k2]
    merged += [x + t for x in a[k1:]]
    merged += b[k2:]
    return Partition._from_raw(
        k1 + k2, p.lower_count + q.lower_count, canonical_labels(merged)
    )


def compose(p: Partition, q: Partition) -> Partition:
    """Stack `q` on top of `p`, gluing q's lower row to p's upper row.

    Requires lower_count(q) == upper_count(p). The glued middle points are
    identified with a union-find pass; the result keeps q's upper row and
    p's lower row. Middle components not connected to either surviving row
    simply disappear (no loop factor is produced). Quasi-linear in the
    total number of points.
    """
    ell = p.upper_count
    if q.lower_count != ell:
        raise SizeMismatchError(
            f"cannot compose: q has {q.lower_count} lower points "
            f"but p has {ell} upper points"
        )
    a, b = p.blocks, q.blocks
    k = q.upper_count
    # Shift p's labels above q's so the two block structures are disjoint,
    # then union each of p's upper labels with the facing lower label of q.
    # Flat arrays keep the working set contiguous, which matters for the
    # cache behavior on million-point inputs.
    t = max(b) + 1 if b else 1
    n = t + (max(a) + 1 if a else 1)
    parent = array("i", range(n))
    rank = bytearray(n)
    for x, y in zip(a, b[k:]):
        x += t
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        if x != y:
            if rank[x] < rank[y]:
                x, y = y, x
            parent[y] = x
            if rank[x] == rank[y]:
                rank[x] += 1
    # Relabel the surviving rows by class representative, in one pass that
    # also assigns fresh consecutive labels (so the result is canonical).
    out = []
    append = out.append
    table = array("i", bytes(4 * n))
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
    return Partition._from_raw(k, p.lower_count, tuple(out))


def compose_via_dfs(p: Partition, q: Partition) -> Partition:
    """Same contract as :func:`compose`, connectivity computed by graph search."""
    ell = p.upper_count
    if q.lower_count != ell:
        raise SizeMismatchError(
            f"cannot compose: q has {q.lower_count} lower points "
            f"but p has {ell} upper points"
        )
    a, b = p.blocks, q.blocks
    k = q.upper_count
    t = max(b) + 1 if b else 1
    vertices = set(b)
    vertices.update(x + t for x in a)
    edges = [(a[i] + t, b[k + i]) for i in range(ell)]
    rep = components_by_dfs(vertices, edges)
    out = [rep[v] for v in b[:k]]
    out += [rep[v + t] for v in a[ell:]]
    return Partition._from_raw(k, p.lower_count, canonical_labels(out))


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


def rotate(p: Partition, corner: str) -> Partition:
    """Move one end point of a row to the matching end of the other row.

    `corner` names the point that moves: "top-left" sends the first upper
    point to the front of the lower row, "top-right" the last upper point to
    the end of the lower row; "bottom-left" and "bottom-right" are the
    inverse moves. Block membership of the moved point is preserved.
    """
    moved, k, _ = corner_move(p.blocks, p.upper_count, corner, 1)
    return Partition._from_raw(k, len(moved) - k, canonical_labels(moved))


def reflect_vertical(p: Partition) -> Partition:
    """Reverse both rows (reflection along the vertical axis)."""
    k = p.upper_count
    b = p.blocks
    return Partition._from_raw(
        k, p.lower_count, canonical_labels(b[:k][::-1] + b[k:][::-1])
    )
