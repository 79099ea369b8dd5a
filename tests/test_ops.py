import random

import pytest

from partcat import (
    CORNERS,
    EmptyRowError,
    IDENTITY,
    Partition,
    SizeMismatchError,
    compose,
    compose_via_dfs,
    involution,
    reflect_vertical,
    rotate,
    tensor,
)
from partcat import ops
from partcat.oracles import enumerate_all

from helpers import random_composable_pair, random_labels, random_partition
from oracles import compose_reference


def test_involution_examples():
    assert involution(Partition([1, 2, 2], [1, 1, 3])) == Partition([1, 1, 2], [1, 3, 3])
    assert involution(IDENTITY) == IDENTITY


def test_involution_is_involutive():
    rng = random.Random(1)
    for _ in range(300):
        p = random_partition(rng)
        assert involution(involution(p)) == p


def test_tensor_examples():
    p = Partition([1, 2], [2, 1])
    q = Partition([1, 1], [1])
    assert tensor(p, q) == Partition([1, 2, 3, 3], [2, 1, 3])
    assert tensor(IDENTITY, IDENTITY) == Partition([1, 2], [1, 2])


def test_tensor_unit_and_associativity():
    rng = random.Random(2)
    empty = Partition([], [])
    for _ in range(300):
        p, q, r = (random_partition(rng, 8) for _ in range(3))
        assert tensor(p, empty) == p == tensor(empty, p)
        assert tensor(tensor(p, q), r) == tensor(p, tensor(q, r))


def test_compose_example():
    p = Partition([1, 2, 2], [1, 2])
    q = Partition([1], [2, 2, 1])
    assert compose(p, q) == Partition([1], [1, 1])
    assert compose_via_dfs(p, q) == Partition([1], [1, 1])
    assert compose_reference(p, q) == Partition([1], [1, 1])


def test_compose_identity_law():
    rng = random.Random(3)
    for _ in range(200):
        p = random_partition(rng, 10)
        id_row = Partition(range(1, p.upper_count + 1), range(1, p.upper_count + 1))
        assert compose(p, id_row) == p
        id_row = Partition(range(1, p.lower_count + 1), range(1, p.lower_count + 1))
        assert compose(id_row, p) == p


def test_compose_size_mismatch():
    with pytest.raises(SizeMismatchError):
        compose(Partition([1], [1]), Partition([], [1, 1]))
    with pytest.raises(SizeMismatchError):
        compose_via_dfs(Partition([1], [1]), Partition([], [1, 1]))
    with pytest.raises(SizeMismatchError):
        compose_reference(Partition([1], [1]), Partition([], [1, 1]))


def test_compose_discards_isolated_middle_components():
    # q's lower block meets a p upper block that goes nowhere: it vanishes
    p = Partition([1], [])  # one upper singleton, no lower points
    q = Partition([], [1])  # one lower singleton, no upper points
    assert compose(p, q) == Partition([], [])


def test_compose_agreement_exhaustive_small():
    # every composable canonical pair with at most 6 total points
    shapes = [
        ((li, m), (k, li))
        for li in range(4)
        for m in range(7)
        for k in range(7)
        if 2 * li + m + k <= 6
    ]
    checked = 0
    for (li, m), (k, _) in shapes:
        for p in enumerate_all(li, m):
            for q in enumerate_all(k, li):
                expected = compose_reference(p, q)
                assert compose(p, q) == expected
                assert compose_via_dfs(p, q) == expected
                checked += 1
    assert checked > 1000


def test_compose_agreement_random():
    rng = random.Random(4)
    for _ in range(500):
        p, q = random_composable_pair(rng, max_total=40)
        expected = compose_reference(p, q)
        assert compose(p, q) == expected
        assert compose_via_dfs(p, q) == expected


def test_one_row_factor_law():
    # A factor with points in one row only passes through a composite:
    # compose(tensor(W, L), q) == tensor(compose(W, q), L) when L has no
    # upper points, and compose(p, tensor(W, U)) == tensor(compose(p, W), U)
    # when U has no lower points, with the mirrored tensors alike. The
    # closure engine skips compose pairs by this law.
    rng = random.Random(17)
    for _ in range(300):
        bottom, top = random_composable_pair(rng, max_total=12)
        result = compose(bottom, top)
        lower_only = Partition([], random_labels(rng, rng.randint(1, 3)))
        upper_only = Partition(random_labels(rng, rng.randint(1, 3)), [])
        for p, q, expected in (
            (tensor(bottom, lower_only), top, tensor(result, lower_only)),
            (tensor(lower_only, bottom), top, tensor(lower_only, result)),
            (bottom, tensor(top, upper_only), tensor(result, upper_only)),
            (bottom, tensor(upper_only, top), tensor(upper_only, result)),
        ):
            assert compose(p, q) == compose_via_dfs(p, q) == expected


def _composable_pair(rng, ell, k, m, style):
    """(p, q) with ell interface points, k upper points on q and m lower
    points on p; labels random, all distinct, or one block per operand."""

    def make(top, bottom):
        n = top + bottom
        if style == "singletons":
            labels = list(range(1, n + 1))
        elif style == "one-block":
            labels = [1] * n
        else:
            labels = random_labels(rng, n)
        return Partition(labels[:top], labels[top:])

    return make(ell, m), make(k, ell)


def test_compose_matches_dfs_across_small_cut():
    # compose sizes its scratch space by the input lengths up to the cut and
    # by the largest labels above it; both sides must agree with the search.
    rng = random.Random(64)
    cut = ops._SMALL_COMPOSE
    for n in range(2 * cut + 1):
        ell = rng.randint(0, n // 2)
        k = rng.randint(0, n - 2 * ell)
        free = n - 2 * ell
        shapes = [(ell, k, free - k), (ell, 0, free), (ell, free, 0), (0, k, n - k)]
        if n % 2 == 0:
            shapes.append((n // 2, 0, 0))  # both outer rows empty
        for ell, k, m in shapes:
            for style in ("random", "singletons", "one-block"):
                p, q = _composable_pair(rng, ell, k, m, style)
                assert p.size + q.size == n
                assert compose(p, q) == compose_via_dfs(p, q), (ell, k, m, style)


def test_star_laws():
    rng = random.Random(5)
    for _ in range(300):
        p = random_partition(rng, 10)
        q = random_partition(rng, 10)
        assert involution(tensor(p, q)) == tensor(involution(p), involution(q))
        bottom, top = random_composable_pair(rng, max_total=16)
        assert involution(compose(bottom, top)) == compose(
            involution(top), involution(bottom)
        )


def test_composition_associativity():
    rng = random.Random(6)
    for _ in range(300):
        a, b, c, d = (rng.randint(0, 5) for _ in range(4))
        def rand(k, l):
            labels = [rng.randint(1, 4) for _ in range(k + l)]
            return Partition(labels[:k], labels[k:])
        r = rand(a, b)   # bottom
        q = rand(c, a)   # its lower row matches r's upper row
        p = rand(d, c)   # top
        assert compose(compose(r, q), p) == compose(r, compose(q, p))


def test_rotate_examples():
    assert rotate(Partition([1, 2], [2, 1]), "top-left") == Partition([1], [2, 1, 2])
    for corner in CORNERS:
        empty_row = Partition([], [1, 1]) if corner.startswith("top") else Partition([1, 1], [])
        with pytest.raises(EmptyRowError):
            rotate(empty_row, corner)
    with pytest.raises(ValueError):
        rotate(IDENTITY, "sideways")
    with pytest.raises(ValueError):
        rotate(Partition([], []), "sideways")


def test_rotation_round_trips():
    rng = random.Random(7)
    inverse = {
        "top-left": "bottom-left",
        "top-right": "bottom-right",
        "bottom-left": "top-left",
        "bottom-right": "top-right",
    }
    for _ in range(300):
        p = random_partition(rng, 10, min_points=1)
        for corner in CORNERS:
            source_is_upper = corner.startswith("top")
            if source_is_upper and p.upper_count == 0:
                continue
            if not source_is_upper and p.lower_count == 0:
                continue
            r = rotate(p, corner)
            assert r.size == p.size
            assert r.num_blocks == p.num_blocks
            assert rotate(r, inverse[corner]) == p


def test_reflect_examples():
    assert reflect_vertical(Partition([1, 2], [2, 3])) == Partition([1, 2], [3, 1])
    assert reflect_vertical(IDENTITY) == IDENTITY


def test_reflect_involutive():
    rng = random.Random(8)
    for _ in range(300):
        p = random_partition(rng)
        assert reflect_vertical(reflect_vertical(p)) == p


def test_size_behavior():
    rng = random.Random(9)
    for _ in range(200):
        p = random_partition(rng, 8)
        q = random_partition(rng, 8)
        assert tensor(p, q).size == p.size + q.size
        bottom, top = random_composable_pair(rng, max_total=14)
        composed = compose(bottom, top)
        assert composed.size == top.upper_count + bottom.lower_count
        assert composed.num_blocks <= bottom.num_blocks + top.num_blocks


def test_long_results_hold_one_object_per_label():
    # Every distinct label of a result is one shared int object. A relabel
    # table that hands out a fresh int per position, as an array("i") does,
    # would hold one int object per point past 256.
    from partcat import parse_partition, parse_word, partition_of_word

    rng = random.Random(12)
    n = 1 << 12

    def row_text():
        labels = [rng.randrange(n // 2) for _ in range(n)]
        return ",".join(map(str, labels[: n // 2])) + "|" + ",".join(map(str, labels[n // 2 :]))

    p, q = parse_partition(row_text()), parse_partition(row_text())
    word = " ".join(f"x{rng.randint(1, 600)}" + rng.choice(("", "^-1")) for _ in range(n // 2))
    results = [p, compose(p, q), tensor(p, q), involution(p), reflect_vertical(p)]
    results += [rotate(p, corner) for corner in CORNERS]
    results.append(partition_of_word(parse_word(word)))
    for r in results:
        assert r.size >= n and r.num_blocks > 256
        assert len({id(x) for x in r.blocks}) == r.num_blocks
