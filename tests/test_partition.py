import random

import pytest

from partcat import (
    IDENTITY,
    PAIR,
    Partition,
    canonical_labels,
    equivalent,
    kernel_partition,
    make_disjoint,
    normalize,
)

from helpers import random_labels, random_partition


def bijection_related(a, b):
    """Definition-level equivalence check: a label bijection position by position."""
    if len(a) != len(b):
        return False
    fwd, bwd = {}, {}
    for x, y in zip(a, b):
        if fwd.setdefault(x, y) != y or bwd.setdefault(y, x) != x:
            return False
    return True


class CountingTable(dict):
    def __init__(self):
        super().__init__()
        self.accesses = 0

    def get(self, key, default=None):
        self.accesses += 1
        return super().get(key, default)

    def __setitem__(self, key, value):
        self.accesses += 1
        super().__setitem__(key, value)


def test_constructor_normalizes():
    assert Partition([2, 4], [4, 99]) == Partition([1, 2], [2, 3])
    assert Partition([2, 4], [4, 99]).blocks == (1, 2, 2, 3)


def test_empty_and_identity():
    empty = Partition([], [])
    assert empty.size == 0 and empty.blocks == ()
    assert Partition([7], [7]) == IDENTITY
    assert IDENTITY.blocks == (1, 1)
    assert PAIR.upper_count == 0 and PAIR.blocks == (1, 1)


def test_rejects_bad_labels():
    with pytest.raises(ValueError):
        Partition([-1], [])
    with pytest.raises(ValueError):
        Partition(["a"], [])
    with pytest.raises(ValueError):
        Partition([True], [False])


def test_normalize_worked_example():
    # the label vector (1,3,1,5,5,3) relabels to (1,2,1,3,3,2)
    assert canonical_labels((1, 3, 1, 5, 5, 3)) == (1, 2, 1, 3, 3, 2)
    assert Partition([1, 3], [1, 5, 5, 3]) == Partition([1, 2], [1, 3, 3, 2])


def test_already_normalized_fixed_point():
    p = Partition([1, 1, 2], [1, 3, 3, 2])
    assert p.blocks == (1, 1, 2, 1, 3, 3, 2)
    assert normalize(p) == p


def test_normalize_idempotent_random():
    rng = random.Random(1)
    for _ in range(300):
        p = random_partition(rng)
        assert normalize(normalize(p)) == normalize(p) == p


def test_relabeling_invariance():
    rng = random.Random(2)
    for _ in range(300):
        labels = random_labels(rng, rng.randint(0, 12))
        k = rng.randint(0, len(labels))
        p = Partition(labels[:k], labels[k:])
        # apply a random injection to the labels
        image = rng.sample(range(1, 100), len(set(labels)) or 1)
        sigma = dict(zip(sorted(set(labels)), image))
        q = Partition([sigma[x] for x in labels[:k]], [sigma[x] for x in labels[k:]])
        assert p == q


def test_single_pass_access_bound():
    rng = random.Random(3)
    for _ in range(100):
        labels = random_labels(rng, rng.randint(0, 30))
        table = CountingTable()
        canonical_labels(labels, table)
        assert table.accesses <= 2 * len(labels)


def test_equivalence_examples():
    assert equivalent(Partition([1, 3], [1, 5, 5, 3]), Partition([1, 2], [1, 3, 3, 2]))
    p = Partition([1, 9], [3])
    assert equivalent(p, p)
    # same underlying decomposition, different row counts: distinct
    assert not equivalent(Partition([1], [1]), Partition([1, 1], []))


def test_equivalence_matches_bijection_search():
    rng = random.Random(4)
    for _ in range(500):
        n = rng.randint(0, 8)
        k = rng.randint(0, n)
        a = random_labels(rng, n, spread=4)
        b = random_labels(rng, n, spread=4)
        p = Partition(a[:k], a[k:])
        q = Partition(b[:k], b[k:])
        assert equivalent(p, q) == bijection_related(a, b)
        assert equivalent(p, q) == (normalize(p) == normalize(q))


def test_make_disjoint_examples():
    assert make_disjoint(Partition([1], [1]), Partition([1], [2])).blocks == (4, 4)
    assert make_disjoint(Partition([], [1, 1]), Partition([], [])).blocks == (2, 2)


def test_make_disjoint_properties():
    rng = random.Random(5)
    for _ in range(300):
        p = random_partition(rng)
        q = random_partition(rng)
        d = make_disjoint(p, q)
        assert not (set(d.blocks) & set(q.blocks))
        assert equivalent(d, p)
        assert normalize(d) == p


def test_size():
    assert Partition([1, 1, 2], [1, 3, 3, 2]).size == 7
    assert Partition([], []).size == 0
    assert IDENTITY.size == 2


def test_kernel_partition():
    p = kernel_partition((1, 2, 1, 3, 2, 1, 4, 1, 1, 3, 1, 4))
    assert p.upper_count == 0 and p.lower_count == 12
    assert p.blocks == (1, 2, 1, 3, 2, 1, 4, 1, 1, 3, 1, 4)
    assert kernel_partition(()) == Partition([], [])
    assert kernel_partition((5, 5, 5)) == Partition([], [1, 1, 1])


def test_hashing_and_sets():
    rng = random.Random(6)
    seen = set()
    for _ in range(200):
        p = random_partition(rng, 8)
        seen.add(p)
        assert p in seen
        assert normalize(p) in seen
