import random

import pytest

from partcat import IDENTITY, PAIR, Partition, canonical_labels

from helpers import random_labels, random_partition
from oracles import canonical_labels_reference


def bijection_related(a, b):
    """Definition-level equivalence check: a label bijection position by position."""
    if len(a) != len(b):
        return False
    fwd, bwd = {}, {}
    for x, y in zip(a, b):
        if fwd.setdefault(x, y) != y or bwd.setdefault(y, x) != x:
            return False
    return True


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
    # Rows that are not iterable at all.
    for make in (
        lambda: Partition(5),
        lambda: Partition([1], None),
        lambda: Partition(None, [1]),
        lambda: canonical_labels(5),
    ):
        with pytest.raises(ValueError):
            make()


def test_normalize_worked_example():
    # the label vector (1,3,1,5,5,3) relabels to (1,2,1,3,3,2)
    assert canonical_labels((1, 3, 1, 5, 5, 3)) == (1, 2, 1, 3, 3, 2)
    assert Partition([1, 3], [1, 5, 5, 3]) == Partition([1, 2], [1, 3, 3, 2])


def test_already_normalized_fixed_point():
    p = Partition([1, 1, 2], [1, 3, 3, 2])
    assert p.blocks == (1, 1, 2, 1, 3, 3, 2)
    assert canonical_labels(p.blocks) == p.blocks


def test_normalize_idempotent_random():
    rng = random.Random(1)
    for _ in range(300):
        p = random_partition(rng)
        relabeled = canonical_labels(p.blocks)
        assert canonical_labels(relabeled) == relabeled == p.blocks


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


def test_equivalence_examples():
    assert Partition([1, 3], [1, 5, 5, 3]) == Partition([1, 2], [1, 3, 3, 2])
    p = Partition([1, 9], [3])
    assert p == p
    # same underlying decomposition, different row counts: distinct
    assert Partition([1], [1]) != Partition([1, 1], [])


def test_equivalence_matches_bijection_search():
    rng = random.Random(4)
    for _ in range(500):
        n = rng.randint(0, 8)
        k = rng.randint(0, n)
        a = random_labels(rng, n, spread=4)
        b = random_labels(rng, n, spread=4)
        p = Partition(a[:k], a[k:])
        q = Partition(b[:k], b[k:])
        assert (p == q) == bijection_related(a, b)


def test_size():
    assert Partition([1, 1, 2], [1, 3, 3, 2]).size == 7
    assert Partition([], []).size == 0
    assert IDENTITY.size == 2


def test_hashing_and_sets():
    rng = random.Random(6)
    seen = set()
    for _ in range(200):
        p = random_partition(rng, 8)
        seen.add(p)
        assert p in seen


def _relabel_outcome(relabel, labels):
    try:
        return relabel(labels)
    except Exception as e:  # the exception type is the outcome compared
        return type(e)


def test_canonical_labels_matches_reference_across_the_flat_cut():
    from partcat.partition import _FLAT_RELABEL

    rng = random.Random(9)
    cases = []
    for n in (0, 1, 2, _FLAT_RELABEL - 1, _FLAT_RELABEL, _FLAT_RELABEL + 1, 100, 777):
        for low, high in ((0, 1), (0, n // 2), (1, n), (0, 2 * n), (0, 2 * n + 1), (5, 3 * n)):
            labels = [rng.randint(low, max(low, high)) for _ in range(n)]
            if n:
                labels[rng.randrange(n)] = max(low, high)  # reach the top of the range
            cases += [labels, tuple(labels)]
    long = _FLAT_RELABEL + 36
    cases += [
        [-1] + [rng.randrange(10) for _ in range(long)],
        [rng.randrange(-5, 5) for _ in range(long)],
        [10**18] + [rng.randrange(10) for _ in range(long)],
        [rng.choice((0, 1, True, False)) for _ in range(long)],
        [True] * long,
        [rng.choice((1, 1.0, 2, 2.5)) for _ in range(long)],
        [0] * 50 + [1.5] + [100] * 50,
        [3] * 50 + [float("nan")] + [4] * 50,
        [rng.choice("abc") for _ in range(long)],
        [rng.choice((1, "a")) for _ in range(long)],
        [(1,), (2,)] * long,
        [None] * long,
        [[1]] * long,
        [1, [1]] * long,
    ]
    for labels in cases:
        expected = _relabel_outcome(canonical_labels_reference, labels)
        assert _relabel_outcome(canonical_labels, labels) == expected, labels
        assert _relabel_outcome(canonical_labels, iter(labels)) == expected, labels
