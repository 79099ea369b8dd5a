"""Brute-force references the tests compare the library against.

Each is deliberately naive or independent of the fast paths: the Bell,
Catalan and double factorial counts, membership in the easy categories and
in the free unitary category checked block by block, a composition that
merges overlapping point sets to a fixpoint, counts by filtering the full
enumeration, and a closure worklist that applies every operation to every
pair of members. No program path runs them, so the package does not ship
them: there they would be public surface, owing every caller a checked
boundary, while here they only need to be right on what the tests pass.
"""

from collections import Counter, defaultdict
from math import comb

from partcat import (
    BLACK,
    CORNERS,
    WHITE,
    ColoredPartition,
    EmptyRowError,
    EnumerationLimitError,
    Partition,
    VariantMismatchError,
    invert_color,
)
from partcat.errors import check_count, check_type
from partcat.ops import check_interface
from partcat.oracles import ENUMERATION_LIMIT, enumerate_all, is_noncrossing, is_pair_partition


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
    check_type(p, Partition, "an operand", VariantMismatchError)
    check_type(q, Partition, "an operand", VariantMismatchError)
    ell = p.upper_count
    check_interface(ell, q.lower_count)
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

    The worklist engine that `closure._saturate` replaced, with nothing
    skipped by symmetry, kept as its differential reference. `variant` holds
    one variant's public involution, reflect, rotate, tensor and compose.
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
