"""The brute-force routines the program itself runs.

The CLI's `enumerate` command lists partitions by restricted growth
strings and filters them with two structural predicates checked position
by position. `compose_via_dfs` finds the connectivity of a composition by
depth-first graph search, without union-find, and the benchmark checks
`compose` against it. Sizes are guarded so a typo cannot trigger an
explosion. The references that only the tests run live in `tests/oracles.py`.
"""

from collections import Counter

from .errors import EnumerationLimitError, VariantMismatchError
from .errors import check_count, check_iterable, check_type
from .ops import check_interface
from .partition import Partition, canonical_labels

#: Largest point count enumerate_all will touch.
ENUMERATION_LIMIT = 10


def growth_strings(n: int):
    """Yield all restricted growth strings of length n.

    The first entry is 1 and every later entry is at most one greater than
    the maximum so far, so each string is already a canonical block vector.
    """
    check_count(n, 0, "length")
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
    return {Partition._from_raw(k, g) for g in growth_strings(n)}


def is_pair_partition(p: Partition) -> bool:
    """True when every block has exactly two points."""
    check_type(p, Partition, "an operand", VariantMismatchError)
    return all(c == 2 for c in Counter(p.blocks).values())


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
    check_interface(ell, q.lower_count)
    a, b = p.blocks, q.blocks
    k = q.upper_count
    t = max(b) + 1 if b else 1
    vertices = set(b)
    vertices.update(x + t for x in a)
    edges = [(a[i] + t, b[k + i]) for i in range(ell)]
    rep = components_by_dfs(vertices, edges)
    out = [rep[v] for v in b[:k]]
    out += [rep[v + t] for v in a[ell:]]
    return Partition._from_raw(k, canonical_labels(out))
