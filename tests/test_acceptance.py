"""Acceptance suite: one test per release criterion, each printing a PASS
line on success (run with `pytest tests/test_acceptance.py -v -s`). Failures
show up as ordinary pytest failures naming the criterion."""

import random
import statistics
import time

import pytest

from partcat import (
    BoundError,
    IDENTITY,
    PAIR,
    Partition,
    canonical_labels,
    compose,
    compose_via_dfs,
    construct_closure,
    flatten,
    involution,
    parse_word,
    partition_of_word,
    reflect_vertical,
    rotate,
    tensor,
    unflatten,
)
from partcat.oracles import enumerate_all, is_pair_partition

from conftest import CROSSING, FORK
from helpers import (
    random_composable_pair,
    random_partition,
    random_spatial,
    random_spatial_blocks,
)
from oracles import compose_reference
from test_variants import _blocks_compose, _blocks_involution, _blocks_tensor


def report(number, text):
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_noncrossing_count_924():
    t0 = time.perf_counter()
    closure = construct_closure([FORK, IDENTITY, PAIR], 6)
    elapsed = time.perf_counter() - t0
    count = len(closure.members_of_size(6))
    assert count == 924, f"expected 924 size-6 members, got {count}"
    assert elapsed < 60.0, f"generation took {elapsed:.1f}s, budget is 60s"
    report(1, f"closure of {{fork, identity, pair}} at bound 6 has 924 "
              f"size-6 members ({elapsed:.2f}s)")


def test_criterion_2_constructor_and_operation_fidelity():
    assert Partition([2, 4], [4, 99]) == Partition([1, 2], [2, 3])
    assert tensor(Partition([1, 2], [2, 1]), Partition([1, 1], [1])) == Partition(
        [1, 2, 3, 3], [2, 1, 3]
    )
    assert involution(Partition([1, 2, 2], [1, 1, 3])) == Partition(
        [1, 1, 2], [1, 3, 3]
    )
    assert compose(Partition([1, 2, 2], [1, 2]), Partition([1], [2, 2, 1])) == Partition(
        [1], [1, 1]
    )
    report(2, "constructor, tensor, involution and compose reproduce the "
              "four reference session outputs exactly")


def test_criterion_3_normalization_example():
    assert canonical_labels((1, 3, 1, 5, 5, 3)) == (1, 2, 1, 3, 3, 2)
    # the same relabeling through the partition constructor
    assert Partition([1, 3], [1, 5, 5, 3]) == Partition([1, 2], [1, 3, 3, 2])
    report(3, "block vector (1,3,1,5,5,3) normalizes to (1,2,1,3,3,2)")


def test_criterion_4_composition_oracle_agreement():
    checked = 0
    for interface in range(5):
        for m in range(9):
            for k in range(9):
                if 2 * interface + m + k > 8:
                    continue
                for p in enumerate_all(interface, m):
                    for q in enumerate_all(k, interface):
                        expected = compose_reference(p, q)
                        assert compose(p, q) == expected
                        assert compose_via_dfs(p, q) == expected
                        checked += 1
    rng = random.Random(41)
    for _ in range(10_000):
        p, q = random_composable_pair(rng, max_total=200)
        expected = compose_reference(p, q)
        assert compose(p, q) == expected
        assert compose_via_dfs(p, q) == expected
    report(4, f"compose, compose_via_dfs and the transitive-closure oracle "
              f"agree on all {checked} composable pairs with <= 8 points "
              f"and on 10^4 random pairs with <= 200 points")


def test_criterion_5_algebraic_laws():
    rng = random.Random(42)
    cases = 10_000
    inverse = {
        "top-left": "bottom-left",
        "top-right": "bottom-right",
        "bottom-left": "top-left",
        "bottom-right": "top-right",
    }
    for _ in range(cases):
        p = random_partition(rng, 14)
        q = random_partition(rng, 14)
        assert involution(involution(p)) == p
        assert involution(tensor(p, q)) == tensor(involution(p), involution(q))
        assert reflect_vertical(reflect_vertical(p)) == p
        for corner, back in inverse.items():
            source_upper = corner.startswith("top")
            if (p.upper_count if source_upper else p.lower_count) == 0:
                continue
            assert rotate(rotate(p, corner), back) == p

        bottom, top = random_composable_pair(rng, max_total=18)
        assert involution(compose(bottom, top)) == compose(
            involution(top), involution(bottom)
        )

        r = random_partition(rng, 10)
        assert tensor(tensor(p, q), r) == tensor(p, tensor(q, r))

        a, b, c, d = (rng.randint(0, 5) for _ in range(4))
        labels = [rng.randint(1, 4) for _ in range(a + b)]
        low = Partition(labels[:a], labels[a:])
        labels = [rng.randint(1, 4) for _ in range(c + a)]
        mid = Partition(labels[:c], labels[c:])
        labels = [rng.randint(1, 4) for _ in range(d + c)]
        high = Partition(labels[:d], labels[d:])
        assert compose(compose(low, mid), high) == compose(low, compose(mid, high))
    report(5, f"involution, tensor, composition, rotation and reflection laws "
              f"hold on {cases} randomized cases each")


def test_criterion_6_counting_cross_checks():
    # expected values from the enumeration oracle, not from the engine
    pair_by_shape = {
        (k, 4 - k): {p for p in enumerate_all(k, 4 - k) if is_pair_partition(p)}
        for k in range(5)
    }
    oracle_pair_count = sum(map(len, pair_by_shape.values()))
    assert oracle_pair_count == 15

    closure = construct_closure([CROSSING], 4)
    assert len(closure.members_of_size(4)) == 15
    for shape, expected in pair_by_shape.items():
        assert closure.members_of_shape(*shape) == expected

    oracle_all_count = sum(len(enumerate_all(k, 4 - k)) for k in range(5))
    assert oracle_all_count == 75
    closure = construct_closure([FORK, CROSSING], 6)
    size4 = closure.members_of_size(4)
    assert len(size4) == 75
    assert size4 == {p for k in range(5) for p in enumerate_all(k, 4 - k)}
    report(6, "closure counts match the oracle: 15 pair partitions at "
              "size 4, 75 partitions of size 4 from {fork, crossing}")


def test_criterion_7_word_embedding():
    word = parse_word("x1 x2 x1^-1 x3^-1 x2 x3")
    p = partition_of_word(word)
    assert p.upper_count == 0
    assert p.blocks == (1, 2, 1, 3, 2, 1, 4, 1, 1, 3, 1, 4)
    report(7, "the six-letter reference word maps to the kernel partition "
              "(1,2,1,3,2,1,4,1,1,3,1,4)")


def test_criterion_8_spatial_functoriality():
    rng = random.Random(43)
    cases = 1000
    for _ in range(cases):
        m = rng.randint(1, 4)
        sp = random_spatial(rng, levels=m, max_points=6)
        sq = random_spatial(rng, levels=m, max_points=6)
        p_blocks, q_blocks = unflatten(sp), unflatten(sq)
        p_shape = (sp.upper_points, sp.lower_points)
        q_shape = (sq.upper_points, sq.lower_points)

        t = _blocks_tensor(p_blocks, p_shape, q_blocks, q_shape)
        assert flatten(
            p_shape[0] + q_shape[0], p_shape[1] + q_shape[1], m, t
        ) == tensor(sp, sq).flattened

        inv = _blocks_involution(p_blocks, p_shape)
        assert flatten(p_shape[1], p_shape[0], m, inv) == involution(sp).flattened

        # a composable partner with matching interface width
        k = rng.randint(0, 6 - min(6, p_shape[0]))
        blocks = random_spatial_blocks(rng, k, p_shape[0], m)
        from partcat import SpatialPartition

        sq2 = SpatialPartition(m, flatten(k, p_shape[0], m, blocks))
        q2_blocks = unflatten(sq2)
        comp = _blocks_compose(p_blocks, p_shape, q2_blocks, (k, p_shape[0]), m)
        assert flatten(k, p_shape[1], m, comp) == compose(sp, sq2).flattened
    report(8, f"flattening commutes with tensor, involution and composition "
              f"on {cases} random level-matched pairs (levels <= 4)")


def test_criterion_9_quasilinear_composition():
    import gc

    rng = random.Random(44)

    def build(n):
        k = n // 2
        labels = rng.choices(range(1, max(2, n // 2)), k=n)
        return Partition(labels[:k], labels[k:])

    sizes = [2 ** exp for exp in range(16, 21)]
    inputs = {n: (build(n), build(n)) for n in sizes}
    samples = {n: [] for n in sizes}
    for p, q in inputs.values():
        compose(p, q)  # warm-up, excluded from the measurement
    # Sample the sizes round-robin so a transient load spike cannot skew
    # one size against its neighbors.
    gc.collect()
    gc.disable()
    try:
        for _ in range(7):
            for n in sizes:
                p, q = inputs[n]
                t0 = time.perf_counter()
                compose(p, q)
                samples[n].append(time.perf_counter() - t0)
    finally:
        gc.enable()
    medians = {n: statistics.median(samples[n]) for n in sizes}

    for n in sizes[:-1]:
        ratio = medians[2 * n] / medians[n]
        assert ratio <= 3.0, f"t(2*{n})/t({n}) = {ratio:.2f} exceeds 3"
    assert medians[2 ** 20] < 2.0, (
        f"composing two 2^20-point partitions took {medians[2**20]:.2f}s"
    )
    report(9, f"compose scales quasi-linearly (max doubling ratio "
              f"{max(medians[2 * n] / medians[n] for n in sizes[:-1]):.2f}) "
              f"and handles 2^20 points in {medians[2**20]:.2f}s")


def test_criterion_10_membership_is_a_bounded_semi_decision():
    closure = construct_closure([FORK, IDENTITY, PAIR], 4)
    # queries above the bound are refused rather than answered
    with pytest.raises(BoundError):
        closure.contains_within_bound(Partition([1, 2, 3], [1, 2, 3]))
    # a False answer states only "not derivable within this bound"
    assert not closure.contains_within_bound(CROSSING)
    assert closure.contains_within_bound(FORK)
    doc = closure.contains_within_bound.__doc__
    assert doc and "bound" in doc
    report(10, "membership is exposed as a bounded semi-decision only; "
               "the undecidability of full membership is documentation-level")
