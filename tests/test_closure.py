import cProfile
import pstats
import random
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from partcat import (
    CORNERS,
    BoundError,
    EmptyRowError,
    IDENTITY,
    PAIR,
    Partition,
    VariantMismatchError,
    colored_base_partitions,
    construct_closure,
    construct_colored_closure,
    construct_spatial_closure,
    lift_to_levels,
    spatial_base_partitions,
)
from partcat.closure import _COLORED, _PLAIN, _SPATIAL, _saturate
from partcat.oracles import (
    enumerate_all,
    is_noncrossing,
    is_pair_partition,
    saturate_reference,
)

from conftest import CROSSING, FORK
from helpers import random_colored, random_partition, random_spatial


def test_empty_generators_contains_bases():
    c = construct_closure([], 2)
    assert IDENTITY in c.members
    assert PAIR in c.members


def test_bad_bound_and_oversized_generator():
    with pytest.raises(ValueError):
        construct_closure([], 0)
    with pytest.raises(BoundError):
        construct_closure([FORK], 2)


def test_crossing_closure_counts():
    c = construct_closure([CROSSING], 4)
    size4 = c.members_of_size(4)
    assert len(size4) == 15
    # the engine's size-4 members are exactly the pair partitions
    for k in range(5):
        expected = {p for p in enumerate_all(k, 4 - k) if is_pair_partition(p)}
        assert c.members_of_shape(k, 4 - k) == expected


def test_nc_closure_against_oracle(nc_closure_6):
    c = nc_closure_6
    assert len(c.members_of_size(6)) == 924
    for k in range(7):
        expected = {p for p in enumerate_all(k, 6 - k) if is_noncrossing(p)}
        assert c.members_of_shape(k, 6 - k) == expected
    assert len(c.members_of_shape(0, 6)) == 132


def test_members_of_size_bounds(nc_closure_6):
    assert nc_closure_6.members_of_size(0) == {Partition([], [])}
    with pytest.raises(BoundError):
        nc_closure_6.members_of_size(7)
    with pytest.raises(BoundError):
        nc_closure_6.members_of_shape(4, 4)


def test_rotation_bijection_between_shapes(nc_closure_6):
    for total in range(7):
        reference = len(nc_closure_6.members_of_shape(0, total))
        for k in range(total + 1):
            assert len(nc_closure_6.members_of_shape(k, total - k)) == reference


def test_identity_shape_contains_identity(nc_closure_6):
    assert IDENTITY in nc_closure_6.members_of_shape(1, 1)


def test_contains_within_bound(nc_closure_6):
    assert nc_closure_6.contains_within_bound(PAIR)
    assert nc_closure_6.contains_within_bound(FORK)
    assert not nc_closure_6.contains_within_bound(CROSSING)
    with pytest.raises(BoundError):
        nc_closure_6.contains_within_bound(Partition([1] * 4, [1] * 4))


def _rotations(variant, x):
    out = []
    for corner in CORNERS:
        try:
            out.append(variant.rotate(x, corner))
        except EmptyRowError:
            pass
    return out


def _saturation_holes(closure):
    """Apply every operation to every member (pair); collect escapees."""
    variant = closure._variant
    members = closure.members
    holes = []
    for x in members:
        for r in (variant.involution(x), variant.reflect(x), *_rotations(variant, x)):
            if r not in members:
                holes.append(("unary", x, r))
        for y in members:
            if x.size + y.size <= closure.bound:
                for r in (variant.tensor(x, y), variant.tensor(y, x)):
                    if r not in members:
                        holes.append(("tensor", x, y))
            if y.lower_key == x.upper_key and y.upper_points + x.lower_points <= closure.bound:
                if variant.compose(x, y) not in members:
                    holes.append(("compose", x, y))
    return holes


def test_saturation_nc_bound_4():
    c = construct_closure([FORK, IDENTITY, PAIR], 4)
    assert _saturation_holes(c) == []


def test_saturation_pair_category_bound_6():
    c = construct_closure([CROSSING], 6)
    assert _saturation_holes(c) == []


def test_wrong_generator_type_raises_variant_mismatch():
    colored = colored_base_partitions()[0]
    spatial = lift_to_levels(IDENTITY, 2)
    for construct, wrong in (
        (construct_closure, colored),
        (construct_closure, spatial),
        (construct_colored_closure, FORK),
        (construct_spatial_closure, FORK),
        (construct_spatial_closure, "1|1,1"),
    ):
        with pytest.raises(VariantMismatchError):
            construct([wrong], 4)
    with pytest.raises(VariantMismatchError):
        construct_closure([FORK, colored], 4)


def _differential_corpus(rng):
    """Yield (ops, seed, bound) runs for the reference comparison.

    Random spatial generators at m = 2 and bound 4, or m = 3 and bound 3,
    can generate tens of thousands of members, which the reference cannot
    saturate in test time; there the generators are lifted plain ones.
    """
    plain_bases = [IDENTITY, PAIR]
    for bound, runs in ((3, 6), (4, 6), (5, 6), (6, 3)):
        for _ in range(runs):
            gens = [random_partition(rng, bound, 1) for _ in range(rng.randint(1, 2))]
            yield _PLAIN, plain_bases + gens, bound
    for bound, runs in ((3, 5), (4, 5), (5, 5)):
        for _ in range(runs):
            gens = [random_colored(rng, bound) for _ in range(rng.randint(1, 2))]
            yield _COLORED, colored_base_partitions() + gens, bound
    for m, bound, lifted in (
        (1, 3, False), (1, 4, False), (2, 2, False), (2, 3, False),
        (2, 4, True), (3, 2, False), (3, 3, True), (3, 4, True),
    ):
        for _ in range(3):
            if lifted:
                gens = [lift_to_levels(random_partition(rng, bound, 1), m)]
            else:
                gens = [random_spatial(rng, levels=m, max_points=bound)]
            yield _SPATIAL, spatial_base_partitions(m) + gens, bound


def test_engine_matches_reference_saturation():
    rng = random.Random(20250207)
    kinds = set()
    for ops, seed, bound in _differential_corpus(rng):
        assert set(_saturate(seed, bound, ops)) == saturate_reference(seed, bound, ops), (
            ops.kind, seed, bound,
        )
        kinds.add(ops.kind)
    assert kinds == {"plain", "colored", "spatial"}


class _CountingOps:
    """An operation table that counts its compose and tensor calls."""

    def __init__(self, ops):
        self._ops = ops
        self.calls = Counter()

    def __getattr__(self, name):
        return getattr(self._ops, name)

    def compose(self, p, q):
        self.calls["compose"] += 1
        return self._ops.compose(p, q)

    def tensor(self, p, q):
        self.calls["tensor"] += 1
        return self._ops.tensor(p, q)


def _orbit_counts(members, bound, variant):
    """Orbits of in-bound compose and tensor pairs under reflection and
    involution, counted from the member set alone."""
    r = {x: variant.reflect(x) for x in members}
    i = {x: variant.involution(x) for x in members}
    composes, tensors = set(), set()
    for p in members:
        for q in members:
            if p.size + q.size <= bound:
                tensors.add(frozenset({(p, q), (r[q], r[p]), (i[p], i[q]), (r[i[q]], r[i[p]])}))
            if p.upper_key == q.lower_key and q.upper_points + p.lower_points <= bound:
                composes.add(frozenset({(p, q), (r[p], r[q]), (i[q], i[p]), (r[i[q]], r[i[p]])}))
    return Counter(compose=len(composes), tensor=len(tensors))


def test_one_evaluation_per_orbit():
    for ops, seed, bound in (
        (_PLAIN, [IDENTITY, PAIR, FORK], 5),
        (_PLAIN, [IDENTITY, PAIR, CROSSING, Partition([1], [1, 2])], 4),
        (_COLORED, colored_base_partitions(), 5),
        (_SPATIAL, spatial_base_partitions(2) + [lift_to_levels(FORK, 2)], 4),
    ):
        counting = _CountingOps(ops)
        members = set(_saturate(seed, bound, counting))
        assert counting.calls == _orbit_counts(members, bound, ops), ops.kind


def _closure_callers(construct, *args):
    """For each function of the package that the closure run calls, the
    modules that call it directly, from a `cProfile` run."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        construct(*args)
    finally:
        prof.disable()
    callers = defaultdict(set)
    for (filename, _, func), row in pstats.Stats(prof).stats.items():
        where = Path(filename)
        if where.parent.name == "partcat":
            for caller_file, _, _ in row[4]:
                callers[where.stem, func].add(Path(caller_file).stem)
    return callers


def test_engine_calls_each_operation_from_closure_module():
    # The benchmark's traced run counts these calls by their direct caller.
    for module, prefix, construct, args in (
        ("ops", "", construct_closure, ([FORK], 4)),
        ("variants", "colored_", construct_colored_closure, ([], 4)),
        ("variants", "spatial_", construct_spatial_closure, ([lift_to_levels(FORK, 2)], 4)),
    ):
        callers = _closure_callers(construct, *args)
        for op in ("compose", "tensor", "involution", "rotate"):
            assert "closure" in callers[module, prefix + op], (module, prefix + op)
        reflect = "reflect_vertical" if module == "ops" else prefix + "reflect"
        assert "closure" in callers[module, reflect], (module, reflect)


def test_monotone_in_bound():
    for bound in (3, 4, 5):
        smaller = construct_closure([FORK], bound)
        larger = construct_closure([FORK], bound + 1)
        assert smaller.members <= larger.members


def test_order_independence():
    gens = [FORK, CROSSING, Partition([1], [1, 2])]
    reference = construct_closure(gens, 5).members
    rng = random.Random(1)
    for _ in range(4):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert construct_closure(shuffled, 5).members == reference


def test_generators_recorded_and_iteration():
    c = construct_closure([FORK], 4)
    assert c.generators == (FORK,)
    assert c.saturated
    assert set(iter(c)) == c.members
    assert len(c) == len(c.members)


def test_sorted_members_deterministic(nc_closure_6):
    ordered = nc_closure_6.sorted_members()
    assert ordered == sorted(nc_closure_6.members, key=lambda p: p.sort_key)
    keys = [p.sort_key for p in ordered]
    assert keys == sorted(keys)
    assert keys == [(p.size, p.upper_count, p.blocks) for p in ordered]
    assert len(set(ordered)) == len(ordered)


# ----------------------------------------------------------- variants


def test_colored_closure_contains_bases():
    c = construct_colored_closure([], 3)
    for b in colored_base_partitions():
        assert b in c.members
    assert all(m.size <= 3 for m in c.members)


def test_colored_closure_saturated_small():
    c = construct_colored_closure([], 4)
    assert _saturation_holes(c) == []


def test_colored_closure_forgets_into_plain():
    colored = construct_colored_closure([], 4)
    plain = construct_closure([], 4)
    assert {m.base for m in colored.members} <= plain.members


def test_spatial_closure_smoke():
    c = construct_spatial_closure([], 4, levels=2)
    assert lift_to_levels(IDENTITY, 2) in c.members
    assert lift_to_levels(PAIR, 2) in c.members
    assert all(m.levels == 2 for m in c.members)
    assert all(m.size <= 4 for m in c.members)
    assert _saturation_holes(c) == []


def test_spatial_closure_needs_levels():
    with pytest.raises(ValueError):
        construct_spatial_closure([], 4)
    from partcat import LevelMismatchError

    with pytest.raises(LevelMismatchError):
        construct_spatial_closure(
            [lift_to_levels(IDENTITY, 2), lift_to_levels(IDENTITY, 3)], 4
        )


def test_spatial_closure_m1_equals_plain():
    from partcat import SpatialPartition

    plain = construct_closure([FORK], 4)
    spatial = construct_spatial_closure([SpatialPartition(1, FORK)], 4)
    assert {m.flattened for m in spatial.members} == plain.members
