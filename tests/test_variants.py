import random

import pytest

from partcat import (
    BLACK,
    CORNERS,
    ColorMismatchError,
    ColoredPartition,
    EmptyRowError,
    IDENTITY,
    LevelMismatchError,
    LevelStructureError,
    PAIR,
    Partition,
    SizeMismatchError,
    SpatialPartition,
    WHITE,
    colored_base_partitions,
    colored_compose,
    colored_involution,
    colored_reflect,
    colored_rotate,
    colored_tensor,
    compose,
    construct_closure,
    construct_spatial_closure,
    flatten,
    invert_color,
    involution,
    lift_to_levels,
    reflect_vertical,
    rotate,
    spatial_compose,
    spatial_involution,
    spatial_reflect,
    spatial_rotate,
    spatial_tensor,
    tensor,
    unflatten,
)
from partcat.oracles import merge_overlapping
from partcat.textio import parse_spatial, render_spatial, spatial_from_json

from helpers import random_colored, random_partition, random_spatial

WID = ColoredPartition(IDENTITY, (WHITE,), (WHITE,))
BID = ColoredPartition(IDENTITY, (BLACK,), (BLACK,))


# ---------------------------------------------------------------- colored


def test_color_validation():
    with pytest.raises(ValueError):
        ColoredPartition(IDENTITY, "wb", "w")
    with pytest.raises(ValueError):
        ColoredPartition(IDENTITY, "x", "w")


def test_colored_base_partitions():
    bases = colored_base_partitions()
    assert len(bases) == 4
    identities = [b for b in bases if b.base == IDENTITY]
    pairs = [b for b in bases if b.base == PAIR]
    assert len(identities) == 2 and len(pairs) == 2
    for b in identities:
        assert b.upper_colors == b.lower_colors
    assert {p.lower_colors for p in pairs} == {(WHITE, BLACK), (BLACK, WHITE)}
    for p in pairs:
        assert p.base.upper_count == 0 and p.base.lower_count == 2


def test_colored_tensor_example():
    t = colored_tensor(WID, BID)
    assert t.base == Partition([1, 2], [1, 2])
    assert t.upper_colors == (WHITE, BLACK)
    assert t.lower_colors == (WHITE, BLACK)


def test_colored_compose_mismatches_are_distinct():
    with pytest.raises(ColorMismatchError):
        colored_compose(WID, BID)
    with pytest.raises(SizeMismatchError):
        colored_compose(WID, ColoredPartition(PAIR, (), (WHITE, WHITE)))


def test_colored_compose_succeeds_iff_interface_matches():
    rng = random.Random(1)
    for _ in range(300):
        p = random_colored(rng, 6)
        q = random_colored(rng, 6)
        sizes_match = q.base.lower_count == p.base.upper_count
        colors_match = q.lower_colors == p.upper_colors
        if sizes_match and colors_match:
            r = colored_compose(p, q)
            assert r.upper_colors == q.upper_colors
            assert r.lower_colors == p.lower_colors
        elif sizes_match:
            with pytest.raises(ColorMismatchError):
                colored_compose(p, q)
        else:
            with pytest.raises(SizeMismatchError):
                colored_compose(p, q)


def test_colored_involution_preserves_color_multiset():
    rng = random.Random(2)
    for _ in range(200):
        p = random_colored(rng)
        q = colored_involution(p)
        assert sorted(q.upper_colors + q.lower_colors) == sorted(
            p.upper_colors + p.lower_colors
        )
        assert colored_involution(q) == p


def test_colored_rotate_inverts_moved_color():
    p = ColoredPartition(PAIR, (), (WHITE, BLACK))
    r = colored_rotate(p, "bottom-left")
    assert r.base == IDENTITY
    assert r.upper_colors == (BLACK,)  # the moved white point turned black
    assert r.lower_colors == (BLACK,)
    assert r in colored_base_partitions()
    for corner in CORNERS:
        empty_row = p if corner.startswith("top") else colored_involution(p)
        with pytest.raises(EmptyRowError):
            colored_rotate(empty_row, corner)
    with pytest.raises(ValueError):
        colored_rotate(p, "sideways")
    with pytest.raises(ValueError):
        colored_rotate(ColoredPartition(Partition([], []), "", ""), "sideways")


def _rotated_colors(uc, lc, corner):
    """The color rows after a rotation at `corner`, built point by point."""
    if corner == "top-left":
        return uc[1:], (invert_color(uc[0]),) + lc
    if corner == "top-right":
        return uc[:-1], lc + (invert_color(uc[-1]),)
    if corner == "bottom-left":
        return (invert_color(lc[0]),) + uc, lc[1:]
    return uc + (invert_color(lc[-1]),), lc[:-1]


def test_colored_ops_forget_to_plain_ops():
    rng = random.Random(3)
    for _ in range(300):
        p = random_colored(rng, 8)
        q = random_colored(rng, 8)
        assert colored_tensor(p, q).base == tensor(p.base, q.base)
        assert colored_involution(p).base == involution(p.base)
        assert colored_reflect(p).base == reflect_vertical(p.base)
        for corner in CORNERS:
            if not (p.upper_colors if corner.startswith("top") else p.lower_colors):
                continue
            r = colored_rotate(p, corner)
            assert r.base == rotate(p.base, corner)
            assert (r.upper_colors, r.lower_colors) == _rotated_colors(
                p.upper_colors, p.lower_colors, corner
            )
        try:
            r = colored_compose(p, q)
        except (SizeMismatchError, ColorMismatchError):
            pass
        else:
            assert r.base == compose(p.base, q.base)


def test_invert_color():
    assert invert_color(WHITE) == BLACK and invert_color(BLACK) == WHITE


# ---------------------------------------------------------------- spatial


def test_flatten_shape_example():
    # one upper point, two lower points, three levels lands in P(3, 6)
    blocks = [[(1, 1), (2, 1)], [(1, 2), (3, 2)], [(2, 2), (3, 1)],
              [(1, 3), (2, 3), (3, 3)]]
    flat = flatten(1, 2, 3, blocks)
    assert flat.upper_count == 3 and flat.lower_count == 6


def test_flatten_m1_is_identity_reindexing():
    blocks = [[(1, 1), (3, 1)], [(2, 1)]]
    assert flatten(1, 2, 1, blocks) == Partition([1], [2, 1])


def test_flatten_rejects_malformed_blocks():
    with pytest.raises(LevelStructureError):
        flatten(1, 1, 2, [[(1, 1)]])  # not a full cover
    with pytest.raises(LevelStructureError):
        flatten(1, 1, 2, [[(1, 1), (1, 1), (1, 2), (2, 1), (2, 2)]])
    with pytest.raises(LevelStructureError):
        flatten(1, 0, 1, [[(1, 1), (2, 1)]])  # out of range


def test_divisibility_invariant():
    with pytest.raises(LevelStructureError):
        SpatialPartition(2, Partition([1], [1]))
    with pytest.raises(ValueError):
        SpatialPartition(0, Partition([], []))


def test_bool_is_not_a_level_count_or_bound():
    with pytest.raises(ValueError):
        SpatialPartition(True, IDENTITY)
    with pytest.raises(ValueError):
        lift_to_levels(IDENTITY, True)
    # `true` used to be read as one level and rendered as "m=True;1|1",
    # which parse_spatial rejects; integer levels round-trip through text.
    with pytest.raises(ValueError):
        spatial_from_json('{"levels": true, "upper": [1], "lower": [1]}')
    sp = spatial_from_json('{"levels": 1, "upper": [1], "lower": [1]}')
    assert parse_spatial(render_spatial(sp)) == sp
    with pytest.raises(ValueError):
        construct_closure([], True)
    with pytest.raises(ValueError):
        construct_spatial_closure([], 2, levels=True)
    with pytest.raises(ValueError):
        construct_spatial_closure([SpatialPartition(1, IDENTITY)], 2, levels=True)


def test_unflatten_roundtrip_random():
    rng = random.Random(4)
    for _ in range(300):
        sp = random_spatial(rng)
        k, l, m = sp.upper_points, sp.lower_points, sp.levels
        assert flatten(k, l, m, unflatten(sp)) == sp.flattened
        assert SpatialPartition(m, flatten(k, l, m, unflatten(sp))) == sp


def test_lift_examples():
    assert lift_to_levels(IDENTITY, 3).flattened == Partition([1, 2, 3], [1, 2, 3])
    assert lift_to_levels(PAIR, 1) == SpatialPartition(1, PAIR)
    rng = random.Random(5)
    for _ in range(100):
        p = random_partition(rng, 6)
        m = rng.randint(1, 4)
        assert lift_to_levels(p, m).flattened.num_blocks == m * p.num_blocks


def test_spatial_level_mismatch():
    a = lift_to_levels(IDENTITY, 2)
    b = lift_to_levels(IDENTITY, 3)
    with pytest.raises(LevelMismatchError):
        spatial_tensor(a, b)
    with pytest.raises(LevelMismatchError):
        spatial_compose(a, b)
    with pytest.raises(SizeMismatchError):
        spatial_compose(lift_to_levels(PAIR, 2), lift_to_levels(PAIR, 2))


def test_spatial_m1_matches_plain_ops():
    rng = random.Random(6)
    for _ in range(200):
        p = random_partition(rng, 6)
        q = random_partition(rng, 6)
        sp, sq = SpatialPartition(1, p), SpatialPartition(1, q)
        assert spatial_tensor(sp, sq).flattened == tensor(p, q)
        assert spatial_involution(sp).flattened == involution(p)
        assert spatial_reflect(sp).flattened == reflect_vertical(p)
        if q.lower_count == p.upper_count:
            assert spatial_compose(sp, sq).flattened == compose(p, q)


def test_spatial_rotate_moves_whole_columns():
    sp = lift_to_levels(Partition([1, 2], [2, 1]), 2)
    r = spatial_rotate(sp, "top-left")
    assert (r.upper_points, r.lower_points) == (1, 3)
    assert spatial_rotate(r, "bottom-left") == sp
    inverse = dict(zip(CORNERS, ("bottom-left", "bottom-right", "top-left", "top-right")))
    rng = random.Random(8)
    for _ in range(200):
        m = rng.randint(1, 3)
        p = random_partition(rng, 6)
        sp = random_spatial(rng, levels=m)
        for corner in CORNERS:
            if (p.upper_count if corner.startswith("top") else p.lower_count):
                assert spatial_rotate(lift_to_levels(p, m), corner) == lift_to_levels(
                    rotate(p, corner), m
                )
            if (sp.upper_points if corner.startswith("top") else sp.lower_points):
                assert spatial_rotate(spatial_rotate(sp, corner), inverse[corner]) == sp
    for corner in CORNERS:
        empty_row = PAIR if corner.startswith("top") else involution(PAIR)
        with pytest.raises(EmptyRowError):
            spatial_rotate(lift_to_levels(empty_row, 2), corner)
    with pytest.raises(ValueError):
        spatial_rotate(sp, "sideways")
    with pytest.raises(ValueError):
        spatial_rotate(lift_to_levels(Partition([], []), 2), "sideways")


# ------------------------------------------- block-level functoriality

def _blocks_tensor(p_blocks, p_shape, q_blocks, q_shape):
    (k1, l1), (k2, l2) = p_shape, q_shape

    def move_p(i):
        return i if i <= k1 else i + k2

    def move_q(i):
        return k1 + i if i <= k2 else k1 + l1 + i

    out = [[(move_p(i), j) for i, j in b] for b in p_blocks]
    out += [[(move_q(i), j) for i, j in b] for b in q_blocks]
    return out


def _blocks_involution(blocks, shape):
    k, l = shape
    return [[(i + l, j) if i <= k else (i - k, j) for i, j in b] for b in blocks]


def _blocks_compose(p_blocks, p_shape, q_blocks, q_shape, m):
    """Glue q's lower row onto p's upper row at every level; drop the middle."""
    (ell, mp), (kq, _) = p_shape, q_shape
    tagged = [{("q", i, j) for i, j in b} for b in q_blocks]
    tagged += [{("p", i, j) for i, j in b} for b in p_blocks]
    tagged += [
        {("q", kq + i, j), ("p", i, j)}
        for i in range(1, ell + 1)
        for j in range(1, m + 1)
    ]
    components = merge_overlapping(tagged)
    result = []
    for group in components:
        block = [(i, j) for side, i, j in group if side == "q" and i <= kq]
        block += [
            (kq + (i - ell), j)
            for side, i, j in group
            if side == "p" and i > ell
        ]
        if block:
            result.append(block)
    return result


def test_flatten_respects_operations():
    rng = random.Random(7)
    for _ in range(300):
        m = rng.randint(1, 4)
        sp = random_spatial(rng, levels=m)
        sq = random_spatial(rng, levels=m)
        p_blocks, q_blocks = unflatten(sp), unflatten(sq)
        p_shape = (sp.upper_points, sp.lower_points)
        q_shape = (sq.upper_points, sq.lower_points)

        t = _blocks_tensor(p_blocks, p_shape, q_blocks, q_shape)
        assert flatten(
            p_shape[0] + q_shape[0], p_shape[1] + q_shape[1], m, t
        ) == spatial_tensor(sp, sq).flattened

        inv = _blocks_involution(p_blocks, p_shape)
        assert flatten(
            p_shape[1], p_shape[0], m, inv
        ) == spatial_involution(sp).flattened

        if q_shape[1] == p_shape[0]:
            comp = _blocks_compose(p_blocks, p_shape, q_blocks, q_shape, m)
            assert flatten(
                q_shape[0], p_shape[1], m, comp
            ) == spatial_compose(sp, sq).flattened
