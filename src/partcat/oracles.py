"""Brute-force reference implementations used to cross-check the fast paths.

Everything here is deliberately naive or independent of the fast paths:
enumeration by restricted growth strings, structural predicates checked
position by position (among them the membership tests of the easy
categories a closure is checked against), two compositions that find
connectivity without union-find (by depth-first graph search, and by
merging blocks to a fixpoint), and a closure worklist that applies every
operation to every pair of members. Sizes are guarded so a typo cannot
trigger an explosion.
"""

from collections import Counter, defaultdict
from math import comb

from .errors import EmptyRowError, EnumerationLimitError, SizeMismatchError, VariantMismatchError
from .errors import check_count, check_iterable, check_type
from .ops import CORNERS
from .partition import Partition
from .variants import BLACK, WHITE, ColoredPartition, invert_color

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
    check_count(k, 0, "upper point count")
    check_count(l, 0, "lower point count")
    n = k + l
    if n > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"refusing to enumerate partitions on {n} points (limit {ENUMERATION_LIMIT})"
        )
    return {Partition._from_raw(k, l, g) for g in growth_strings(n)}


def canonical_labels_reference(labels) -> tuple:
    """First-occurrence relabelling read off `dict.fromkeys`, as an
    independent oracle for :func:`partcat.partition.canonical_labels`."""
    labels = list(labels)
    new = {x: i for i, x in enumerate(dict.fromkeys(labels), 1)}
    return tuple(new[x] for x in labels)


def bell_number(n: int) -> int:
    """Number of set partitions of an n-element set, via the Bell triangle."""
    check_count(n, 0, "the set size")
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
    check_type(p, Partition, "an operand", VariantMismatchError)
    return all(c == 2 for c in Counter(p.blocks).values())


def has_even_blocks(p: Partition) -> bool:
    """True when every block has an even number of points."""
    check_type(p, Partition, "an operand", VariantMismatchError)
    return all(c % 2 == 0 for c in Counter(p.blocks).values())


def has_blocks_of_at_most_two(p: Partition) -> bool:
    """True when every block has one or two points."""
    check_type(p, Partition, "an operand", VariantMismatchError)
    return all(c <= 2 for c in Counter(p.blocks).values())


def is_free_unitary(cp: ColoredPartition) -> bool:
    """Membership in the free unitary category (Tarrago & Weber, IMRN 2017).

    The base is a noncrossing pair partition, and once the upper row is
    rotated down, inverting its colors, every block joins a white and a
    black point.
    """
    check_type(cp, ColoredPartition, "an operand", VariantMismatchError)
    p = cp.base
    if not (is_pair_partition(p) and is_noncrossing(p)):
        return False
    colors = [invert_color(c) for c in cp.upper_colors] + list(cp.lower_colors)
    by_block: dict[int, set] = defaultdict(set)
    for label, c in zip(p.blocks, colors):
        by_block[label].add(c)
    return all(cs == {WHITE, BLACK} for cs in by_block.values())


def is_noncrossing(p: Partition) -> bool:
    """True when the diagram can be drawn without crossing strings.

    Walks the boundary counterclockwise (upper row left to right, then lower
    row right to left) and looks for positions a < b < c < d where a, c lie
    in one block and b, d in a different one.
    """
    check_type(p, Partition, "an operand", VariantMismatchError)
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


def components_by_dfs(vertices, edges) -> dict:
    """Map each vertex to a canonical representative of its connected component.

    Runs an iterative depth-first search over the undirected graph given by
    `edges`, in time linear in vertices plus edges. Vertices must be
    hashable, and each edge a pair of vertices listed in `vertices`.
    """
    adjacency = {}
    for v in check_iterable(vertices, "the vertices"):
        try:
            adjacency[v] = []
        except TypeError:
            raise ValueError(f"a vertex must be hashable, got {v!r}") from None
    for edge in check_iterable(edges, "the edges"):
        try:
            u, v = edge
            adjacency[u].append(v)
            adjacency[v].append(u)
        except (TypeError, ValueError, KeyError):
            raise ValueError(f"an edge must be a pair of listed vertices, got {edge!r}") from None
    representative = {}
    for start in adjacency:
        if start in representative:
            continue
        representative[start] = start
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adjacency[u]:
                if w not in representative:
                    representative[w] = start
                    stack.append(w)
    return representative


def compose_via_dfs(p: Partition, q: Partition) -> Partition:
    """Same contract as :func:`partcat.ops.compose`, connectivity computed by
    depth-first search over the blocks of both operands, joined at the
    interface."""
    check_type(p, Partition, "an operand", VariantMismatchError)
    check_type(q, Partition, "an operand", VariantMismatchError)
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
    return Partition._relabeled(k, out)


def compose_reference(p: Partition, q: Partition) -> Partition:
    """Composition computed the slow way, as an independent oracle.

    Builds the full point graph of the stacked diagram (every point of both
    operands is a vertex, with q's lower row glued to p's upper row) and
    takes the transitive closure by merging overlapping point sets.
    """
    check_type(p, Partition, "an operand", VariantMismatchError)
    check_type(q, Partition, "an operand", VariantMismatchError)
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
    check_count(size, 0, "size")
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
