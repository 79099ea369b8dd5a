import random

import pytest

from partcat import (
    CORNERS,
    ColoredPartition,
    EnumerationLimitError,
    IDENTITY,
    PAIR,
    Partition,
    VariantMismatchError,
    canonical_labels,
    components_by_dfs,
    compose_via_dfs,
    involution,
    rotate,
    tensor,
)
from partcat.oracles import enumerate_all, growth_strings, is_noncrossing, is_pair_partition

from conftest import CROSSING, FORK
from oracles import (
    bell_number,
    catalan_number,
    compose_reference,
    double_factorial,
    has_blocks_of_at_most_two,
    has_even_blocks,
    is_free_unitary,
    merge_overlapping,
    reference_counts,
)


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
    with pytest.raises(ValueError):
        reference_counts(-1)
    with pytest.raises(ValueError):
        bell_number(-1)
    with pytest.raises(ValueError):
        list(growth_strings(-1))
    for count in (1.5, "2", None):
        for call in (
            lambda: enumerate_all(count, 1),
            lambda: enumerate_all(1, count),
            lambda: bell_number(count),
            lambda: reference_counts(count),
            lambda: list(growth_strings(count)),
        ):
            with pytest.raises(ValueError):
                call()


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


def test_dfs_examples():
    rep = components_by_dfs({1, 2, 3}, [(1, 2)])
    assert rep[1] == rep[2] != rep[3]
    rep = components_by_dfs({1, 2, 3}, [])
    assert len(set(rep.values())) == 3
    with pytest.raises(ValueError):
        components_by_dfs({1}, [(1, 2)])
    for vertices, edges in ((5, []), ([1], 5)):
        with pytest.raises(ValueError, match="must be iterable"):
            components_by_dfs(vertices, edges)
    # An unhashable vertex, or an edge that is not a pair of listed
    # vertices, is named in the ValueError.
    for vertices, edges, entry in (
        ([1], [5], "5"),
        ([1], [None], "None"),
        ([[1]], [], r"\[1\]"),
        ([1], [([1], 1)], r"\(\[1\], 1\)"),
    ):
        with pytest.raises(ValueError, match=f"got {entry}$"):
            components_by_dfs(vertices, edges)


@pytest.mark.parametrize(
    "wrong", [5, None, ColoredPartition(IDENTITY, "w", "w")], ids=["int", "None", "colored"]
)
@pytest.mark.parametrize(
    "function, arity",
    [
        pytest.param(function, arity, id=function.__name__)
        for function, arity in (
            (is_noncrossing, 1),
            (is_pair_partition, 1),
            (has_even_blocks, 1),
            (has_blocks_of_at_most_two, 1),
            (compose_via_dfs, 2),
            (compose_reference, 2),
        )
    ],
)
def test_oracles_reject_operands_that_are_not_partitions(function, arity, wrong):
    # The same error and message as the operations in `ops`.
    for operands in [(wrong,)] if arity == 1 else [(wrong, IDENTITY), (IDENTITY, wrong)]:
        with pytest.raises(VariantMismatchError, match="an operand must be a Partition"):
            function(*operands)


@pytest.mark.parametrize("wrong", [5, None, IDENTITY], ids=["int", "None", "partition"])
def test_is_free_unitary_rejects_operands_that_are_not_colored(wrong):
    with pytest.raises(VariantMismatchError, match="an operand must be a ColoredPartition"):
        is_free_unitary(wrong)


def test_dfs_matches_merge_overlapping_on_random_graphs():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 1000)
        vertices = list(range(n))
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        rep = components_by_dfs(vertices, edges)
        dfs_classes = {}
        for v in vertices:
            dfs_classes.setdefault(rep[v], set()).add(v)
        # each vertex as a singleton group, so isolated vertices are classes too
        merged = merge_overlapping([{v} for v in vertices] + [set(e) for e in edges])
        assert sorted(map(sorted, merged)) == sorted(map(sorted, dfs_classes.values()))
