import random

import pytest

from partcat import (
    CORNERS,
    EnumerationLimitError,
    IDENTITY,
    PAIR,
    Partition,
    canonical_labels,
    involution,
    rotate,
    tensor,
)
from partcat.oracles import (
    bell_number,
    catalan_number,
    compose_reference,
    double_factorial,
    enumerate_all,
    is_noncrossing,
    is_pair_partition,
    merge_overlapping,
    reference_counts,
)

from conftest import CROSSING, FORK


def test_bell_numbers():
    assert [bell_number(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]


def test_enumerate_counts_match_bell():
    for k in range(4):
        for l in range(4):
            assert len(enumerate_all(k, l)) == bell_number(k + l)


def test_enumerate_examples():
    assert len(enumerate_all(0, 3)) == 5
    assert enumerate_all(0, 0) == {Partition([], [])}
    assert len(enumerate_all(2, 2)) == 15


def test_enumerate_emits_canonical_forms():
    for p in enumerate_all(2, 3):
        assert canonical_labels(p.blocks) == p.blocks


def test_enumeration_guard():
    with pytest.raises(EnumerationLimitError):
        enumerate_all(6, 6)
    with pytest.raises(EnumerationLimitError):
        reference_counts(11)
    with pytest.raises(ValueError):
        enumerate_all(-1, 2)


def test_pair_predicate():
    assert is_pair_partition(PAIR)
    assert is_pair_partition(tensor(IDENTITY, IDENTITY))
    assert not is_pair_partition(FORK)
    assert is_pair_partition(Partition([], []))  # vacuously


def test_noncrossing_predicate():
    assert not is_noncrossing(CROSSING)
    assert is_noncrossing(FORK)
    assert is_noncrossing(PAIR)


def test_noncrossing_counts_per_split():
    for total in range(7):
        for k in range(total + 1):
            count = sum(1 for p in enumerate_all(k, total - k) if is_noncrossing(p))
            assert count == catalan_number(total)


def test_pair_counts_per_split():
    for total in range(0, 7, 2):
        for k in range(total + 1):
            count = sum(1 for p in enumerate_all(k, total - k) if is_pair_partition(p))
            assert count == double_factorial(total - 1)


def test_noncrossing_invariant_under_rotations_and_involution():
    for total in range(7):
        for k in range(total + 1):
            for p in enumerate_all(k, total - k):
                nc = is_noncrossing(p)
                assert is_noncrossing(involution(p)) == nc
                for corner in CORNERS:
                    upper_side = corner.startswith("top")
                    if upper_side and p.upper_count == 0:
                        continue
                    if not upper_side and p.lower_count == 0:
                        continue
                    assert is_noncrossing(rotate(p, corner)) == nc


def test_pair_preserved_by_tensor_and_compose():
    pairs = [
        p
        for total in range(0, 7, 2)
        for k in range(total + 1)
        for p in enumerate_all(k, total - k)
        if is_pair_partition(p)
    ]
    assert len(pairs) == 1 + 3 * 1 + 5 * 3 + 7 * 15
    for p in pairs:
        for q in pairs:
            assert is_pair_partition(tensor(p, q))
            if q.lower_count == p.upper_count:
                assert is_pair_partition(compose_reference(p, q))


def test_reference_counts():
    assert reference_counts(6)["noncrossing"] == 924
    four = reference_counts(4)
    assert four == {"all": 75, "noncrossing": 70, "pair": 15}
    assert reference_counts(3)["pair"] == 0  # odd size has no pair partitions


def test_merge_overlapping():
    merged = merge_overlapping([{1, 2}, {3, 4}, {2, 3}, {7}])
    assert sorted(map(sorted, merged)) == [[1, 2, 3, 4], [7]]
    assert merge_overlapping([]) == []
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randint(1, 30)
        groups = [
            {rng.randrange(n) for _ in range(rng.randint(1, 4))}
            for _ in range(rng.randint(0, 12))
        ]
        merged = merge_overlapping(groups)
        # pairwise disjoint and same union
        union = set()
        for g in merged:
            assert not (union & g)
            union |= g
        assert union == set().union(*groups) if groups else union == set()
