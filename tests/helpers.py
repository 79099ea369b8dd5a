"""Shared random generators for the test suite."""

import sys

from partcat import ColoredPartition, ParseError, Partition, SpatialPartition, flatten

#: Every code point that str.isspace() accepts; texts may be padded with any.
WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


def parse_outcome(read, *args):
    """What a reader gives: its result, or its error's type, message and offset."""
    try:
        return ("ok", read(*args))
    except ParseError as e:
        return ("error", type(e), str(e), e.offset)


def random_labels(rng, n, spread=None):
    if n == 0:
        return []
    spread = spread or max(2, n // 2 + 1)
    return [rng.randrange(1, spread + 1) for _ in range(n)]


def random_partition(rng, max_points=12, min_points=0):
    n = rng.randint(min_points, max_points)
    k = rng.randint(0, n)
    labels = random_labels(rng, n)
    return Partition(labels[:k], labels[k:])


def random_composable_pair(rng, max_total=16):
    """A pair (p, q) with lower_count(q) == upper_count(p)."""
    interface = rng.randint(0, max_total // 2)
    k = rng.randint(0, max(0, (max_total - 2 * interface) // 2))
    m = rng.randint(0, max(0, max_total - 2 * interface - k))
    labels = random_labels(rng, k + interface)
    q = Partition(labels[:k], labels[k:])
    labels = random_labels(rng, interface + m)
    p = Partition(labels[:interface], labels[interface:])
    return p, q


def random_colored(rng, max_points=10):
    base = random_partition(rng, max_points)
    colors = "wb"
    return ColoredPartition(
        base,
        [rng.choice(colors) for _ in range(base.upper_count)],
        [rng.choice(colors) for _ in range(base.lower_count)],
    )


def random_spatial_blocks(rng, k, l, m):
    """A random decomposition of {1..k+l} x {1..m} as a list of blocks."""
    points = [(i, j) for i in range(1, k + l + 1) for j in range(1, m + 1)]
    if not points:
        return []
    group_count = rng.randint(1, len(points))
    groups = {}
    for pt in points:
        groups.setdefault(rng.randrange(group_count), []).append(pt)
    return list(groups.values())


def random_spatial(rng, max_levels=4, max_points=6, levels=None, k=None, l=None):
    m = levels if levels is not None else rng.randint(1, max_levels)
    if k is None or l is None:
        n = rng.randint(0, max_points)
        k = rng.randint(0, n)
        l = n - k
    blocks = random_spatial_blocks(rng, k, l, m)
    return SpatialPartition(m, flatten(k, l, m, blocks))
