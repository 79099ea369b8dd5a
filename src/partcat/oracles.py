"""Brute-force reference implementations used to cross-check the fast paths.

Everything here is deliberately naive: enumeration by restricted growth
strings, structural predicates checked position by position, a composition
that merges blocks to a fixpoint instead of using union-find or graph
search, and a closure worklist that applies every operation to every pair
of members. Sizes are guarded so a typo cannot trigger an explosion.
"""

from __future__ import annotations

from collections import defaultdict
from math import comb

from .errors import EmptyRowError, EnumerationLimitError, SizeMismatchError
from .ops import CORNERS
from .partition import Partition

#: Largest point count enumerate_all / reference_counts will touch.
ENUMERATION_LIMIT = 10


def growth_strings(n: int):
    """Yield all restricted growth strings of length n.

    The first entry is 1 and every later entry is at most one greater than
    the maximum so far, so each string is already a canonical block vector.
    """
    if n == 0:
        yield ()
        return
    vec = [1] * n

    def rec(i, mx):
        if i == n:
            yield tuple(vec)
            return
        for v in range(1, mx + 2):
            vec[i] = v
            yield from rec(i + 1, mx if v <= mx else v)

    yield from rec(1, 1)


def enumerate_all(k: int, l: int) -> set[Partition]:
    """All canonical partitions with k upper and l lower points."""
    if k < 0 or l < 0:
        raise ValueError("point counts must be non-negative")
    n = k + l
    if n > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"refusing to enumerate partitions on {n} points (limit {ENUMERATION_LIMIT})"
        )
    return {Partition._from_raw(k, l, g) for g in growth_strings(n)}


def bell_number(n: int) -> int:
    """Number of set partitions of an n-element set, via the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def catalan_number(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def is_pair_partition(p: Partition) -> bool:
    """True when every block has exactly two points."""
    counts: dict[int, int] = {}
    for b in p.blocks:
        counts[b] = counts.get(b, 0) + 1
    return all(c == 2 for c in counts.values())


def is_noncrossing(p: Partition) -> bool:
    """True when the diagram can be drawn without crossing strings.

    Walks the boundary counterclockwise (upper row left to right, then lower
    row right to left) and looks for positions a < b < c < d where a, c lie
    in one block and b, d in a different one.
    """
    k = p.upper_count
    seq = p.blocks[:k] + p.blocks[k:][::-1]
    n = len(seq)
    for a in range(n):
        for b in range(a + 1, n):
            if seq[b] == seq[a]:
                continue
            for c in range(b + 1, n):
                if seq[c] != seq[a]:
                    continue
                for d in range(c + 1, n):
                    if seq[d] == seq[b]:
                        return False
    return True


def merge_overlapping(blocks) -> list[set]:
    """Merge groups sharing an element until no two groups overlap."""
    groups = [set(b) for b in blocks if b]
    changed = True
    while changed:
        changed = False
        owner: dict = {}
        merged: list[set] = []
        for g in groups:
            hit = None
            for e in g:
                hit = owner.get(e)
                if hit is not None:
                    break
            if hit is None:
                merged.append(set(g))
                idx = len(merged) - 1
            else:
                merged[hit] |= g
                idx = hit
                changed = True
            for e in g:
                owner[e] = idx
        groups = merged
    return groups


def compose_reference(p: Partition, q: Partition) -> Partition:
    """Composition computed the slow way, as an independent oracle.

    Builds the full point graph of the stacked diagram (every point of both
    operands is a vertex, with q's lower row glued to p's upper row) and
    takes the transitive closure by merging overlapping point sets.
    """
    ell = p.upper_count
    if q.lower_count != ell:
        raise SizeMismatchError(
            f"cannot compose: q has {q.lower_count} lower points "
            f"but p has {ell} upper points"
        )
    k, m = q.upper_count, p.lower_count
    offset = q.size  # p's points live after q's in the vertex numbering
    by_label: dict = {}
    for i, lab in enumerate(q.blocks):
        by_label.setdefault(("q", lab), []).append(i)
    for i, lab in enumerate(p.blocks):
        by_label.setdefault(("p", lab), []).append(offset + i)
    point_sets = list(by_label.values())
    point_sets.extend([k + i, offset + i] for i in range(ell))
    components = merge_overlapping(point_sets)
    owner = {e: idx for idx, g in enumerate(components) for e in g}
    upper = [owner[i] for i in range(k)]
    lower = [owner[offset + ell + j] for j in range(m)]
    return Partition(upper, lower)


def reference_counts(size: int) -> dict[str, int]:
    """Counts of all / non-crossing / pair partitions of a given total size.

    Computed by filtering the full enumeration over every (upper, lower)
    split, not from closed formulas, so the formulas stay independent.
    """
    if size > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"refusing to count partitions on {size} points (limit {ENUMERATION_LIMIT})"
        )
    counts = {"all": 0, "noncrossing": 0, "pair": 0}
    for k in range(size + 1):
        parts = enumerate_all(k, size - k)
        counts["all"] += len(parts)
        counts["noncrossing"] += sum(1 for x in parts if is_noncrossing(x))
        counts["pair"] += sum(1 for x in parts if is_pair_partition(x))
    return counts


def saturate_reference(seed, bound, variant):
    """Bounded closure of `seed`, every operation applied to every member pair.

    The worklist engine the symmetry-quotiented `closure._saturate` replaced,
    kept as its differential reference. `variant` is one of the variant
    records of :mod:`partcat.closure`; nothing is skipped by symmetry.
    """
    members = set()
    queue = []

    def add(x):
        if x not in members:
            members.add(x)
            queue.append(x)

    for s in seed:
        add(s)

    by_size = defaultdict(list)
    as_bottom = defaultdict(list)  # indexed by the interface of the upper row
    as_top = defaultdict(list)  # indexed by the interface of the lower row
    tensor = variant.tensor
    compose = variant.compose

    while queue:
        x = queue.pop()
        sx = x.size
        by_size[sx].append(x)
        as_bottom[x.upper_key].append(x)
        as_top[x.lower_key].append(x)

        add(variant.involution(x))
        add(variant.reflect(x))
        for corner in CORNERS:
            try:
                add(variant.rotate(x, corner))
            except EmptyRowError:
                pass

        for s in range(bound - sx + 1):
            bucket = by_size.get(s)
            if not bucket:
                continue
            for y in bucket:
                add(tensor(x, y))
                if y is not x:
                    add(tensor(y, x))

        # x as the top factor against every registered bottom, and the
        # other way around; the x-with-x pair is covered by the first loop.
        for bottom in as_bottom.get(x.lower_key, ()):
            if x.upper_points + bottom.lower_points <= bound:
                add(compose(bottom, x))
        for top in as_top.get(x.upper_key, ()):
            if top is x:
                continue
            if top.upper_points + x.lower_points <= bound:
                add(compose(x, top))
    return members
