import random
import subprocess
import sys
from pathlib import Path

import pytest

import partcat
from partcat import (
    BLACK,
    CORNERS,
    ColorMismatchError,
    ColoredPartition,
    EmptyRowError,
    FreeWord,
    IDENTITY,
    InvolutiveWord,
    LevelMismatchError,
    LevelStructureError,
    PAIR,
    Partition,
    SizeMismatchError,
    SpatialPartition,
    VariantMismatchError,
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
from partcat.ops import _Plain
from partcat.oracles import compose_via_dfs
from partcat.textio import parse_spatial, render_spatial
from partcat.variants import _Colored, _Spatial

from helpers import (
    random_colored,
    random_composable_pair,
    random_labels,
    random_partition,
    random_spatial,
)
from oracles import merge_overlapping

WID = ColoredPartition(IDENTITY, (WHITE,), (WHITE,))
BID = ColoredPartition(IDENTITY, (BLACK,), (BLACK,))


# ---------------------------------------------------------------- colored


def test_color_validation():
    # The operations build their results unchecked; the constructor does not.
    fork = Partition([1], [1, 1])
    for upper, lower in (("w", "w"), ("ww", "ww"), ("", "ww"), ("x", "ww"), ("w", ("b", 1))):
        with pytest.raises(ValueError):
            ColoredPartition(fork, upper, lower)
    # Color rows that are not iterable at all.
    for upper, lower in ((5, "w"), ("w", 5), (None, "w"), ("w", None)):
        with pytest.raises(ValueError):
            ColoredPartition(IDENTITY, upper, lower)


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


def _validated(r):
    """`r` rebuilt through its checking public constructor."""
    if isinstance(r, ColoredPartition):
        return ColoredPartition(r.base, r.upper_colors, r.lower_colors)
    return SpatialPartition(r.levels, r.flattened)


def _unary_results(p, involution_op, reflect_op, rotate_op):
    out = [involution_op(p), reflect_op(p)]
    for corner in CORNERS:
        try:
            out.append(rotate_op(p, corner))
        except EmptyRowError:
            pass
    return out


def test_op_results_equal_validated_construction():
    rng = random.Random(8)

    def colors(n):
        return [rng.choice((WHITE, BLACK)) for _ in range(n)]

    for _ in range(200):
        bp, bq = random_composable_pair(rng, 10)
        p = ColoredPartition(bp, colors(bp.upper_count), colors(bp.lower_count))
        q = ColoredPartition(bq, colors(bq.upper_count), p.upper_colors)
        results = [colored_tensor(p, q), colored_tensor(q, p), colored_compose(p, q)]
        results += _unary_results(p, colored_involution, colored_reflect, colored_rotate)
        m = rng.randint(1, 3)
        sp = random_spatial(rng, levels=m, max_points=4)
        sq = random_spatial(rng, levels=m, k=rng.randint(0, 2), l=sp.upper_points)
        results += [spatial_tensor(sp, sq), spatial_compose(sp, sq)]
        results += _unary_results(sp, spatial_involution, spatial_reflect, spatial_rotate)
        for r in results:
            v = _validated(r)
            assert r == v and hash(r) == hash(v), r


def test_invert_color():
    assert invert_color(WHITE) == BLACK and invert_color(BLACK) == WHITE
    for bad in ("x", 5, None, "wb", ""):
        with pytest.raises(ValueError, match="colors must be 'w' or 'b'"):
            invert_color(bad)


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
    for point in ((1.0, 1), (1, 1.0), (True, 1), (1, True), ("1", 1)):
        with pytest.raises(LevelStructureError):
            flatten(1, 1, 1, [[point, (2, 1)]])
    # Block entries that are not (point, level) pairs.
    for entry in (1, None, (1,), (1, 1, 1)):
        with pytest.raises(LevelStructureError):
            flatten(1, 1, 1, [[entry, (2, 1)]])
    # Blocks, or a block, that are not iterable: ValueError, as for any
    # iterable argument.
    for blocks in (5, None, [5]):
        with pytest.raises(ValueError, match="must be iterable"):
            flatten(1, 1, 1, blocks)
    # Point and level counts that are not counts.
    for k, l, m in ((1.5, 1, 1), (1, 1.5, 1), (1, 1, 1.5), (-1, 1, 1), (1, -1, 1), (1, 1, -1),
                    (1, 1, 0), (True, 1, 1), ("1", 1, 1)):
        with pytest.raises(ValueError):
            flatten(k, l, m, [])


def test_checking_constructors_reject_non_partitions():
    for make in (
        lambda: ColoredPartition("x", "", ""),
        lambda: ColoredPartition(None, "", ""),
        lambda: ColoredPartition(lift_to_levels(IDENTITY, 1), "w", "w"),
        lambda: SpatialPartition(2, "x"),
        lambda: SpatialPartition(1, ColoredPartition(IDENTITY, "w", "w")),
        lambda: lift_to_levels("x", 2),
        lambda: lift_to_levels(ColoredPartition(IDENTITY, "w", "w"), 1),
    ):
        with pytest.raises(VariantMismatchError):
            make()


def test_divisibility_invariant():
    # The operations build their results unchecked; the constructor does not.
    for flat in (Partition([1], [1]), Partition([1, 1], [1]), Partition([1], [1, 1])):
        with pytest.raises(LevelStructureError):
            SpatialPartition(2, flat)
    for levels in (0, -1, "1", 1.0):
        with pytest.raises(ValueError):
            SpatialPartition(levels, Partition([], []))


def test_bool_is_not_a_level_count_or_bound():
    with pytest.raises(ValueError):
        SpatialPartition(True, IDENTITY)
    with pytest.raises(ValueError):
        lift_to_levels(IDENTITY, True)
    # A bool level count would render as "m=True;1|1", which parse_spatial
    # rejects; integer levels round-trip through text.
    sp = SpatialPartition(1, IDENTITY)
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


def _reflected_by_levels(sp):
    """Built through unflatten/flatten: each point moves to its mirror
    position in its own row and keeps its level."""
    k, l, m = sp.upper_points, sp.lower_points, sp.levels

    def mirror(i):
        return k + 1 - i if i <= k else 2 * k + l + 1 - i

    blocks = [[(mirror(i), j) for i, j in block] for block in unflatten(sp)]
    return SpatialPartition(m, flatten(k, l, m, blocks))


def _top_left_by_levels(sp):
    """Built through unflatten/flatten: the first upper point becomes the
    first lower point on every level, and the other points keep their
    places in the point order."""
    k, l, m = sp.upper_points, sp.lower_points, sp.levels

    def move(i):
        return k if i == 1 else i - 1 if i <= k else i

    blocks = [[(move(i), j) for i, j in block] for block in unflatten(sp)]
    return SpatialPartition(m, flatten(k - 1, l + 1, m, blocks))


def test_spatial_reflect_mirrors_columns_keeping_levels():
    assert render_spatial(spatial_reflect(parse_spatial("m=2;1,2,2,3|"))) == "m=2;1,2,3,1|"
    rng = random.Random(12)
    for _ in range(300):
        sp = random_spatial(rng, levels=rng.randint(2, 4))
        assert spatial_reflect(sp) == _reflected_by_levels(sp)


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


def _kernel_cases(rng):
    """(kernels, public operations, p, q) for each variant: a random value p
    and a random q whose lower row fits p's upper row."""
    p, q = random_composable_pair(rng, 10)
    plain = (involution, reflect_vertical, rotate, tensor, compose)
    yield _Plain, plain, p, q
    colors = [rng.choice((WHITE, BLACK)) for _ in range(p.size + q.upper_count)]
    cp = ColoredPartition(p, colors[: p.upper_count], colors[p.upper_count : p.size])
    cq = ColoredPartition(q, colors[p.size :], cp.upper_colors)
    colored = (colored_involution, colored_reflect, colored_rotate, colored_tensor, colored_compose)
    yield _Colored, colored, cp, cq
    m = rng.choice((2, 3))
    sp = random_spatial(rng, levels=m, max_points=5)
    sq = random_spatial(rng, levels=m, k=rng.randint(0, 3), l=sp.upper_points)
    spatial = (spatial_involution, spatial_reflect, spatial_rotate, spatial_tensor, spatial_compose)
    yield _Spatial, spatial, sp, sq


def test_kernels_match_public_operations():
    # The closure engine runs the kernels on raw members and wraps only the
    # members it keeps. Wrapped, each kernel result is the public operation's
    # result; compose also matches a search that shares no code with it, and
    # the spatial moves match a point-by-point construction per level.
    rng = random.Random(16)
    for _ in range(300):
        for kernels, public, p, q in _kernel_cases(rng):
            inv, refl, rot, tens, comp = public
            wrap = type(p)._from_raw
            x, y = p._raw, q._raw
            assert wrap(kernels.involution(x)) == inv(p)
            assert wrap(kernels.reflect_vertical(x)) == refl(p)
            for corner in CORNERS:
                if p.upper_points if corner.startswith("top") else p.lower_points:
                    assert wrap(kernels.rotate(x, corner)) == rot(p, corner)
            assert wrap(kernels.tensor(x, y)) == tens(p, q)
            assert wrap(kernels.tensor(y, x)) == tens(q, p)
            assert wrap(kernels.compose(x, y)) == comp(p, q)
            assert Partition._from_raw(_Plain.compose(x, y)) == compose_via_dfs(
                Partition._from_raw(x[:2]), Partition._from_raw(y[:2])
            )
            if kernels is _Spatial:
                assert wrap(kernels.reflect_vertical(x)) == _reflected_by_levels(p)
                if p.upper_points:
                    assert wrap(kernels.rotate(x, "top-left")) == _top_left_by_levels(p)


def _one_row(rng, like, upper):
    """A random nonempty value of the variant of `like`, colored or spatial
    at its level count, with points in the upper row only if `upper`, else
    in the lower row only."""
    n = rng.randint(1, 3)
    k, l = (n, 0) if upper else (0, n)
    if isinstance(like, SpatialPartition):
        return random_spatial(rng, levels=like.levels, k=k, l=l)
    labels = random_labels(rng, n)
    colors = [rng.choice((WHITE, BLACK)) for _ in range(n)]
    return ColoredPartition(Partition(labels[:k], labels[k:]), colors[:k], colors[k:])


def test_one_row_factor_law_on_colored_and_spatial_values():
    # The law the closure engine skips compose pairs by, on the variants it
    # runs: a one-row tensor factor passes through a composite unchanged.
    # tests/test_ops.py checks it on plain values.
    rng = random.Random(17)
    for _ in range(300):
        for _, public, p, q in _kernel_cases(rng):
            if type(p) is Partition:
                continue
            tens, comp = public[3:]
            lower, upper = _one_row(rng, p, False), _one_row(rng, p, True)
            result = comp(p, q)
            assert comp(tens(p, lower), q) == tens(result, lower)
            assert comp(tens(lower, p), q) == tens(lower, result)
            assert comp(p, tens(q, upper)) == tens(result, upper)
            assert comp(p, tens(upper, q)) == tens(upper, result)


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


def _public_fields(cls):
    return {name for name in dir(cls) if not name.startswith("_")
            and isinstance(getattr(cls, name), property)}


def test_value_fields_are_read_only():
    # Every public field is a view of the one raw member, so no assignment
    # can leave a value that the operations misread.
    p = Partition([1, 2, 2], [1, 3])
    cp = ColoredPartition(p, "wbw", "bw")
    sp = lift_to_levels(p, 2)
    protocol = {"size", "upper_points", "lower_points", "upper_key", "lower_key", "sort_key"}
    for value, fields in (
        (p, protocol | {"upper_count", "lower_count", "blocks", "upper", "lower", "num_blocks"}),
        (cp, protocol | {"base", "upper_colors", "lower_colors"}),
        (sp, protocol | {"levels", "flattened"}),
    ):
        assert _public_fields(type(value)) == fields
        before = {name: getattr(value, name) for name in fields}
        for name in fields | {"extra"}:
            with pytest.raises(AttributeError):
                setattr(value, name, 5)
        assert {name: getattr(value, name) for name in fields} == before
    assert involution(p) == Partition([1, 2], [1, 3, 3])


def test_a_second_init_call_changes_nothing():
    # Each class builds its value in `__new__`, so calling `__init__` again
    # with other arguments leaves the value as it was: its repr (for a
    # closure, its bound and member count), its hash and its set membership.
    p = Partition([1], [1, 1])
    closure = construct_closure([p], 4)
    count = len(closure)
    for value, args in (
        (p, ([1, 2], [2, 1])),
        (ColoredPartition(p, "w", "bw"), (Partition([1, 2], []), "wb", "")),
        (lift_to_levels(p, 2), (3, Partition([1, 2, 3], [1, 2, 3]))),
        (FreeWord(((1, 1),)), (((2, -1),),)),
        (InvolutiveWord((1, 2)), ((3,),)),
        (closure, (100, [], [], Partition)),
    ):
        before, held = (repr(value), hash(value)), {value}
        value.__init__(*args)
        assert (repr(value), hash(value)) == before, before
        assert value in held, before
    assert (closure.bound, len(closure), len(closure.members)) == (4, count, count)


def test_spatial_equality_covers_levels_and_class():
    flat = Partition([1, 2], [1, 2])
    one, two = SpatialPartition(1, flat), SpatialPartition(2, flat)
    assert one != two
    assert len({one, two}) == 2 and one not in {two} and two not in {one}
    assert one != flat and flat != one and flat not in {one}
    assert one == SpatialPartition(1, flat) and one in {SpatialPartition(1, flat)}


def test_pickle_recomputes_the_hash():
    # A colored value's hash covers its str colors, which hash differently
    # under another PYTHONHASHSEED: a loaded value must hash as a fresh one.
    src = str(Path(partcat.__file__).resolve().parent.parent)
    make = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from partcat import *\n"
        "p = Partition([1, 2, 2], [1, 3])\n"
        "values = [p, ColoredPartition(p, 'wbw', 'bw'), lift_to_levels(p, 2)]\n"
    )
    dump = make + "import pickle; print(pickle.dumps(values).hex())"
    load = make + (
        "import pickle; loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
        "print([x == y and x in {y} and hash(x) == hash(y) for x, y in zip(loaded, values)])"
    )

    def run(code, seed, stdin=None):
        env = {"PYTHONHASHSEED": str(seed)}
        return subprocess.run([sys.executable, "-I", "-c", code, src], input=stdin, env=env,
                              capture_output=True, text=True, check=True).stdout

    assert run(load, 2, run(dump, 1)) == "[True, True, True]\n"
