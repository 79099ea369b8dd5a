import copy
import cProfile
import pickle
import pstats
import random
from collections import Counter, defaultdict
from functools import cache
from itertools import product
from pathlib import Path

import pytest

from partcat import (
    CORNERS,
    BLACK,
    WHITE,
    BoundError,
    ClosureSet,
    ColoredPartition,
    EmptyRowError,
    IDENTITY,
    PAIR,
    Partition,
    SpatialPartition,
    VariantMismatchError,
    colored_base_partitions,
    compose,
    construct_closure,
    construct_colored_closure,
    construct_spatial_closure,
    involution,
    lift_to_levels,
    reflect_vertical,
    rotate,
    spatial_base_partitions,
    tensor,
)
from partcat.closure import _capacity, _saturate
from partcat.ops import _Plain
from partcat.oracles import enumerate_all, is_noncrossing, is_pair_partition
from partcat.variants import _Colored, _Spatial

from conftest import CROSSING, FORK
from helpers import random_colored, random_partition, random_spatial
from oracles import (
    bell_number,
    catalan_number,
    double_factorial,
    has_blocks_of_at_most_two,
    has_even_blocks,
    is_free_unitary,
    pair_partitions,
    saturate_reference,
)


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


@cache
def _all_up_to(bound):
    return tuple(p for n in range(bound + 1) for k in range(n + 1) for p in enumerate_all(k, n - k))


SINGLETON = Partition([], [1])
FOUR_BLOCK = Partition([], [1, 1, 1, 1])


@pytest.mark.parametrize(
    "generators, predicate, count",
    [
        ([], lambda p: is_pair_partition(p) and is_noncrossing(p), 49),
        ([FORK], is_noncrossing, 1275),
        ([FOUR_BLOCK], lambda p: has_even_blocks(p) and is_noncrossing(p), 103),
        ([SINGLETON], lambda p: has_blocks_of_at_most_two(p) and is_noncrossing(p), 553),
        ([CROSSING], is_pair_partition, 124),
        ([FORK, CROSSING], lambda p: True, 1837),
        ([FOUR_BLOCK, CROSSING], has_even_blocks, 241),
        ([SINGLETON, CROSSING], has_blocks_of_at_most_two, 763),
    ],
    ids=["NC2", "NC", "NC_even", "NC_12", "P2", "P", "P_even", "P_12"],
)
def test_easy_categories_at_bound_6(generators, predicate, count):
    # The eight orthogonal easy categories (Banica & Speicher 2009): a rule
    # that skips work wrongly shows up only as a missing member.
    expected = {p for p in _all_up_to(6) if predicate(p)}
    assert len(expected) == count
    assert construct_closure(generators, 6).members == expected


def test_deep_closures_equal_their_classes():
    # Cheap since full shapes are sized by the seed's class, and checked
    # against the oracles: {crossing} @10 is every pair partition of at most
    # 10 points, {fork} @8 every noncrossing partition of at most 8.
    pairs = {p for n in range(11) for k in range(n + 1) for p in pair_partitions(k, n - k)}
    assert len(pairs) == 11_464
    assert construct_closure([CROSSING], 10).members == pairs
    noncrossing = {p for p in _all_up_to(8) if is_noncrossing(p)}
    assert len(noncrossing) == 17_577
    assert construct_closure([FORK], 8).members == noncrossing


@pytest.mark.parametrize(
    "pair, noncrossing, predicate",
    [
        (True, True, lambda p: is_pair_partition(p) and is_noncrossing(p)),
        (True, False, is_pair_partition),
        (False, True, is_noncrossing),
        (False, False, lambda p: True),
    ],
    ids=["NC2", "P2", "NC", "P"],
)
def test_capacity_is_the_class_size_of_every_shape(pair, noncrossing, predicate):
    # c(n) is the size of each shape of n points in P, NC, P2 or NC2.
    capacity = _capacity(8, pair, noncrossing)
    shapes = Counter((p.upper_points, p.lower_points) for p in _all_up_to(8) if predicate(p))
    for n in range(9):
        assert [shapes[k, n - k] for k in range(n + 1)] == [capacity[n]] * (n + 1)


def test_capacity_of_all_partitions_is_the_bell_row():
    assert _capacity(10, False, False) == [bell_number(n) for n in range(11)]


def test_colored_base_closure_is_free_unitary():
    # The colored base partitions generate the free unitary category
    # (Tarrago & Weber, IMRN 2017).
    for bound, count in ((4, 47), (6, 327)):
        expected = {
            ColoredPartition(p, colors[: p.upper_count], colors[p.upper_count :])
            for p in _all_up_to(bound)
            if is_pair_partition(p) and is_noncrossing(p)
            for colors in product((WHITE, BLACK), repeat=p.size)
        }
        expected = {x for x in expected if is_free_unitary(x)}
        assert len(expected) == count
        assert construct_colored_closure([], bound).members == expected


def test_members_of_size_bounds(nc_closure_6):
    assert nc_closure_6.members_of_size(0) == {Partition([], [])}
    with pytest.raises(BoundError):
        nc_closure_6.members_of_size(7)
    with pytest.raises(BoundError):
        nc_closure_6.members_of_shape(4, 4)
    with pytest.raises(ValueError):
        nc_closure_6.members_of_size(-1)
    for k, l in ((-1, 3), (3, -1), (-1, 99)):
        with pytest.raises(ValueError):
            nc_closure_6.members_of_shape(k, l)
    for size in (1.5, 1.0, "a", None, True):
        with pytest.raises(ValueError):
            nc_closure_6.members_of_size(size)
        for shape in ((size, 1), (1, size)):
            with pytest.raises(ValueError):
                nc_closure_6.members_of_shape(*shape)


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


def test_contains_within_bound_rejects_other_variants(nc_closure_6):
    colored = construct_colored_closure([], 2)
    for closure, wrong in (
        (nc_closure_6, colored_base_partitions()[0]),
        (colored, IDENTITY),
        (nc_closure_6, "1|1"),
    ):
        with pytest.raises(VariantMismatchError):
            closure.contains_within_bound(wrong)


def test_shape_queries_match_full_scan(nc_closure_6):
    for closure in (
        nc_closure_6,
        construct_colored_closure([], 4),
        construct_spatial_closure([lift_to_levels(FORK, 2)], 4),
    ):
        bound = closure.bound
        for size in range(bound + 1):
            assert closure.members_of_size(size) == {
                x for x in closure.members if x.size == size
            }
            for k in range(size + 1):
                expected = {
                    x for x in closure.members
                    if (x.upper_points, x.lower_points) == (k, size - k)
                }
                closure.members_of_shape(k, size - k).clear()  # a fresh set each call
                assert closure.members_of_shape(k, size - k) == expected
        with pytest.raises(BoundError):
            closure.members_of_size(bound + 1)
        with pytest.raises(BoundError):
            closure.members_of_shape(bound, 1)


def _rotations(x):
    out = []
    for corner in CORNERS:
        try:
            out.append(rotate(x, corner))
        except EmptyRowError:
            pass
    return out


def _saturation_holes(closure):
    """Apply every operation to every member (pair); collect escapees."""
    members = closure.members
    holes = []
    for x in members:
        for r in (involution(x), reflect_vertical(x), *_rotations(x)):
            if r not in members:
                holes.append(("unary", x, r))
        for y in members:
            if x.size + y.size <= closure.bound:
                for r in (tensor(x, y), tensor(y, x)):
                    if r not in members:
                        holes.append(("tensor", x, y))
            if y.lower_key == x.upper_key and y.upper_points + x.lower_points <= closure.bound:
                if compose(x, y) not in members:
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


def test_generators_must_be_iterable():
    for construct, args in (
        (construct_closure, (4,)),
        (construct_colored_closure, (4,)),
        (construct_spatial_closure, (4, 2)),
    ):
        with pytest.raises(ValueError, match="generators must be iterable"):
            construct(5, *args)


def _differential_corpus(rng):
    """Yield (kind, bases, generators, bound) runs for the reference comparison.

    Random spatial generators at m = 2 and bound 4, or m = 3 and bound 3,
    can generate tens of thousands of members, which the reference cannot
    saturate in test time; there the generators are lifted plain ones.
    """
    for bound, runs in ((3, 6), (4, 6), (5, 6), (6, 3)):
        for _ in range(runs):
            gens = [random_partition(rng, bound, 1) for _ in range(rng.randint(1, 2))]
            yield "plain", [IDENTITY, PAIR], gens, bound
    # Seeds at the edges of NC2, P2, NC and P, which size the full shapes.
    for gens, bound in (
        ([IDENTITY, PAIR], 6), ([CROSSING], 6), ([FORK], 6), ([FORK, CROSSING], 5),
        ([CROSSING, Partition([1], [2])], 6),
    ):
        yield "plain", [IDENTITY, PAIR], gens, bound
    for bound, runs in ((3, 5), (4, 5), (5, 5)):
        for _ in range(runs):
            gens = [random_colored(rng, bound) for _ in range(rng.randint(1, 2))]
            yield "colored", colored_base_partitions(), gens, bound
    for m, bound, lifted in (
        (1, 3, False), (1, 4, False), (2, 2, False), (2, 3, False),
        (2, 4, True), (3, 2, False), (3, 3, True), (3, 4, True),
    ):
        for _ in range(3):
            if lifted:
                gens = [lift_to_levels(random_partition(rng, bound, 1), m)]
            else:
                gens = [random_spatial(rng, levels=m, max_points=bound)]
            yield "spatial", spatial_base_partitions(m), gens, bound


def test_constructors_match_reference_saturation():
    rng = random.Random(20250207)
    kinds = set()
    for kind, bases, gens, bound in _differential_corpus(rng):
        if kind == "plain":
            closure = construct_closure(gens, bound)
        elif kind == "colored":
            closure = construct_colored_closure(gens, bound)
        else:
            closure = construct_spatial_closure(gens, bound, bases[0].levels)
        expected = saturate_reference(bases + gens, bound)
        assert closure.members == expected, (kind, gens, bound)
        kinds.add(kind)
    assert kinds == {"plain", "colored", "spatial"}


class _CountingOps:
    """A kernel table that counts its calls and records its compose and
    tensor pairs and the members it rotates."""

    def __init__(self, kernels):
        self._kernels = kernels
        self.calls = Counter()
        self.pairs = defaultdict(list)
        self.rotated = []

    def __getattr__(self, name):
        return getattr(self._kernels, name)

    def involution(self, p):
        self.calls["involution"] += 1
        return self._kernels.involution(p)

    def reflect_vertical(self, p):
        self.calls["reflect"] += 1
        return self._kernels.reflect_vertical(p)

    def rotate(self, p, corner):
        self.calls["rotate"] += 1
        self.rotated.append(p)
        return self._kernels.rotate(p, corner)

    def compose(self, p, q):
        self.calls["compose"] += 1
        self.pairs["compose"].append((p, q))
        return self._kernels.compose(p, q)

    def tensor(self, p, q):
        self.calls["tensor"] += 1
        self.pairs["tensor"].append((p, q))
        return self._kernels.tensor(p, q)


def _run_engine(kernels, bases, generators, bound):
    """The engine's raw members for values, and its bound, as the
    constructors run it: a spatial run counts flat points, and only a plain
    run sizes its shapes by the class of its seed."""
    flat_bound = bound * getattr(bases[0], "levels", 1)
    pair = noncrossing = False
    if type(bases[0]) is Partition:
        seed = [*bases, *generators]
        pair, noncrossing = all(map(is_pair_partition, seed)), all(map(is_noncrossing, seed))
    raw = _saturate([b._raw for b in bases], [g._raw for g in generators], flat_bound, kernels,
                    _capacity(flat_bound, pair, noncrossing))
    return set(raw), flat_bound


def _shape(x):
    """Upper and lower point counts of a raw member, flat for a spatial one."""
    return x[0], len(x[1]) - x[0]


class _Orbits:
    """Orbits of raw pairs under reflection R and involution I, and the
    in-bound compose and tensor orbits of a raw member set."""

    def __init__(self, members, bound, kernels):
        self.r = {x: kernels.reflect_vertical(x) for x in members}
        self.i = {x: kernels.involution(x) for x in members}
        keys = kernels.keys
        self.tensors = {
            self.of_tensor(p, q)
            for p in members for q in members if len(p[1]) + len(q[1]) <= bound
        }
        self.composes = {
            self.of_compose(p, q)
            for p in members
            for q in members
            if keys(p)[0] == keys(q)[1] and q[0] + _shape(p)[1] <= bound
        }

    def of_tensor(self, p, q):
        r, i = self.r, self.i
        return frozenset({(p, q), (r[q], r[p]), (i[p], i[q]), (r[i[q]], r[i[p]])})

    def of_compose(self, p, q):
        r, i = self.r, self.i
        return frozenset({(p, q), (r[p], r[q]), (i[q], i[p]), (r[i[q]], r[i[p]])})


def _shape_capacity(members, kernels):
    """c(n), the most members a shape of n points can hold, for the smallest
    of P, NC, P2 and NC2 that holds the raw plain `members`, by the counting
    oracles; B(n) for colored and spatial members."""
    values = [Partition._from_raw(x) for x in members] if kernels is _Plain else None
    pair = values is not None and all(map(is_pair_partition, values))
    noncrossing = values is not None and all(map(is_noncrossing, values))

    def capacity(n):
        if pair and n % 2:
            return 0
        if pair:
            return catalan_number(n // 2) if noncrossing else double_factorial(n - 1)
        return catalan_number(n) if noncrossing else bell_number(n)

    return capacity


def _compose_cover(members, bound, kernels, bases):
    """A test for raw compose pairs (p bottom, q top) whose result follows
    from smaller pairs, built from tensor over all member pairs: an empty
    interface, an identity base (a base with one point, or one column of
    levels, in each row) beside a member on either side, a bottom that is a
    tensor of two nonempty members, one with no upper points, a top that is
    one with a factor with no lower points, or an interface that both sides
    split at the same position into members; or whose result shape, which
    for k + l points holds at most c(k + l) members of the members' class,
    is full in the final members."""
    keys = kernels.keys
    filled = Counter(keys(x) for x in members)
    capacity = _shape_capacity(members, kernels)
    upper_splits, lower_splits = defaultdict(set), defaultdict(set)
    identities = {e._raw for e in bases if e.upper_points == e.lower_points == 1}
    beside_identity = identities & members
    upper_one_row, lower_one_row = set(), set()
    for p in members:
        for q in members:
            if len(p[1]) + len(q[1]) <= bound:
                z = kernels.tensor(p, q)
                (pu, pl), (qu, ql) = _shape(p), _shape(q)
                if pu and qu:
                    upper_splits[z].add(pu)
                if pl and ql:
                    lower_splits[z].add(pl)
                if p[1] and q[1]:
                    if not (pu and qu):
                        upper_one_row.add(z)
                    if not (pl and ql):
                        lower_one_row.add(z)
                if p in identities or q in identities:
                    beside_identity.add(z)

    def covered(p, q):
        return (
            not p[0]
            or p in beside_identity
            or q in beside_identity
            or p in upper_one_row
            or q in lower_one_row
            or bool(upper_splits[p] & lower_splits[q])
            or filled[keys(q)[0], keys(p)[1]] == capacity(q[0] + _shape(p)[1])
        )

    return covered


@pytest.mark.parametrize(
    "kernels, bases, generators, bound, work",
    [
        # {fork, identity, pair} @6: the 924 run.
        pytest.param(
            _Plain, [IDENTITY, PAIR], [FORK, IDENTITY, PAIR], 6,
            (1_275, 18, 749, 792, 396, 546), id="nc6",
        ),
        pytest.param(
            _Plain, [IDENTITY, PAIR], [FORK, CROSSING], 6,
            (1_837, 661, 830, 1_132, 566, 787), id="all6",
        ),
        pytest.param(
            _Plain, [IDENTITY, PAIR], [CROSSING], 8,
            (1_069, 272, 255, 674, 337, 472), id="pair8",
        ),
        pytest.param(
            _Colored, colored_base_partitions(), [], 8,
            (2_343, 6, 1_424, 1_260, 630, 1_034), id="col8",
        ),
        pytest.param(
            _Spatial, spatial_base_partitions(2), [lift_to_levels(FORK, 2)], 6,
            (1_275, 2_472, 749, 792, 396, 546), id="sp6",
        ),
        # {fork} @7: a larger run, where the full-shape rule saves most.
        pytest.param(
            _Plain, [IDENTITY, PAIR], [FORK], 7,
            (4_707, 64, 3_129, 2_648, 1_324, 2_065), id="fork7",
        ),
    ],
)
def test_engine_work_on_the_generate_jobs(kernels, bases, generators, bound, work):
    # The five jobs of the `generate` benchmark as it runs them, and one
    # larger run: one pair per orbit, less the tensor pairs with the empty
    # partition, the compose pairs the tensor and identity laws give and
    # those whose result shape is already full for the seed's class. The
    # bucketed partner lists may skip only over-bound pairs, never an
    # evaluated one. Two involutions and one reflection per orbit visit each
    # orbit once, and one top-left rotation runs per inverse pair. Work is
    # members / compose / tensor / involution / reflect / rotate.
    counting = _CountingOps(kernels)
    members, _ = _run_engine(counting, bases, generators, bound)
    count, *calls = work
    assert len(members) == count
    assert counting.calls == Counter(
        dict(zip(("compose", "tensor", "involution", "reflect", "rotate"), calls))
    )


_SMALL_RUNS = (
    (_Plain, [IDENTITY, PAIR], [FORK], 5),
    (_Plain, [IDENTITY, PAIR], [CROSSING, Partition([1], [1, 2])], 4),
    (_Plain, [IDENTITY, PAIR], [FORK, Partition([1], [2])], 5),
    (_Plain, [IDENTITY, PAIR], [Partition([], [1, 2])], 6),
    (_Plain, [IDENTITY, PAIR], [Partition([1], [2])], 6),
    (_Colored, colored_base_partitions(), [], 5),
    (_Spatial, spatial_base_partitions(2), [lift_to_levels(FORK, 2)], 4),
)


def test_one_rotation_per_inverse_pair():
    # tl(I tl(m)) == I m, so of each member m with upper points and
    # I tl(m) the engine rotates exactly one, once, and nothing else.
    for kernels, bases, gens, bound in _SMALL_RUNS:
        counting = _CountingOps(kernels)
        members, _ = _run_engine(counting, bases, gens, bound)
        rotated = Counter(counting.rotated)
        assert set(rotated.values()) == {1}
        assert all(m[0] for m in rotated)
        for m in members:
            if m[0]:
                mate = kernels.involution(kernels.rotate(m, "top-left"))
                assert len({m, mate} & rotated.keys()) == 1, (type(bases[0]).__name__, m)


def test_one_evaluation_per_orbit():
    # Every tensor orbit without the empty partition is evaluated exactly
    # once, and no compose orbit twice; by the identity law a tensor with
    # the empty partition is its other factor. A compose orbit left out must
    # have a pair whose result the laws give from smaller pairs, or whose
    # result shape is full, by a check built from the final members alone.
    for kernels, bases, gens, bound in _SMALL_RUNS:
        kind = type(bases[0]).__name__
        counting = _CountingOps(kernels)
        members, flat_bound = _run_engine(counting, bases, gens, bound)
        orbits = _Orbits(members, flat_bound, kernels)
        tensors = Counter(orbits.of_tensor(p, q) for p, q in counting.pairs["tensor"])
        composes = Counter(orbits.of_compose(p, q) for p, q in counting.pairs["compose"])
        with_empty = {o for o in orbits.tensors if any(not p[1] or not q[1] for p, q in o)}
        assert set(tensors) == orbits.tensors - with_empty, kind
        assert set(tensors.values()) == {1}, kind
        assert set(composes) <= orbits.composes, kind
        assert set(composes.values()) == {1}, kind
        covered = _compose_cover(members, flat_bound, kernels, bases)
        for orbit in orbits.composes - set(composes):
            assert any(covered(p, q) for p, q in orbit), (kind, orbit)


def _profiled(construct, *args):
    """The `pstats` rows of a `cProfile` run of one closure construction."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        construct(*args)
    finally:
        prof.disable()
    return pstats.Stats(prof).stats


def _calls_from_closure(construct, *args):
    """For each function of the package that the closure run calls, the
    calls the closure module makes to it directly, by (module, function)."""
    calls = Counter()
    for (filename, _, func), row in _profiled(construct, *args).items():
        where = Path(filename)
        if where.parent.name == "partcat":
            for (caller_file, _, _), caller_row in row[4].items():
                if Path(caller_file).stem == "closure":
                    calls[where.stem, func] += caller_row[1]
    return calls


def test_engine_calls_each_operation_from_closure_module():
    # The benchmark's traced run counts these calls by their direct caller
    # and by the function's name in `ops` or `variants`: the plain engine
    # runs the kernels of `ops`, the colored and spatial ones those of
    # `variants`.
    plain = ("compose", "tensor", "involution", "reflect_vertical", "rotate")
    variant_ops = ("compose", "tensor", "involution", "reflect", "rotate")
    colored = tuple(f"colored_{op}" for op in variant_ops)
    spatial = tuple(f"spatial_{op}" for op in variant_ops)
    for module, names, counts, construct, args in (
        ("ops", plain, (18, 749, 792, 396, 546), construct_closure, ([FORK, IDENTITY, PAIR], 6)),
        ("variants", colored, (6, 1_424, 1_260, 630, 1_034), construct_colored_closure, ([], 8)),
        ("variants", spatial, (2_472, 749, 792, 396, 546), construct_spatial_closure,
         ([lift_to_levels(FORK, 2)], 6)),
    ):
        calls = _calls_from_closure(construct, *args)
        assert {name: calls[module, name] for name in names} == dict(zip(names, counts))


def test_closure_wraps_only_the_members_it_keeps():
    # The engine deduplicates raw members and builds a value once per member
    # it keeps: at most one wrap per member, and one per base.
    rows = _profiled(construct_closure, [FORK], 6)
    wraps = sum(
        row[1] for (filename, _, func), row in rows.items()
        if Path(filename).stem == "partition" and func == "_from_raw"
    )
    assert wraps <= 1_275 + 2


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


def test_spatial_closure_checks_levels_before_the_generators():
    # A wrong `levels` is named as such, not reported as a generator whose
    # level count differs from it.
    for levels in ("2", True, 2.0, 0):
        with pytest.raises(ValueError, match="levels must be a positive integer"):
            construct_spatial_closure([lift_to_levels(IDENTITY, 2)], 4, levels)


def test_spatial_closure_m1_equals_plain():
    from partcat import SpatialPartition

    plain = construct_closure([FORK], 4)
    spatial = construct_spatial_closure([SpatialPartition(1, FORK)], 4)
    assert {m.flattened for m in spatial.members} == plain.members


def test_closure_set_fields_are_read_only():
    # The queries check sizes against the bound of the member set they
    # read, so neither can be swapped out from under them.
    c = construct_closure([FORK], 4)
    for name, value in (("bound", 100), ("generators", ()), ("members", frozenset()),
                        ("saturated", False), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(c, name, value)
    assert (c.bound, c.generators, c.saturated) == (4, (FORK,), True)
    with pytest.raises(BoundError):
        c.members_of_size(50)
    with pytest.raises(BoundError):
        c.contains_within_bound(Partition(range(10), range(10)))
    assert c.contains_within_bound(FORK)


def test_only_the_constructors_build_a_closure_set():
    # A set built by hand could hold members over its bound, or a value type
    # its queries do not know, and still report itself saturated.
    for args in ((3, [], [Partition([1, 2, 3], [1])], Partition), (3, [], [], int)):
        with pytest.raises(TypeError, match="construct_closure, construct_colored_closure "
                                            "or construct_spatial_closure"):
            ClosureSet(*args)


def test_closure_set_survives_pickle_and_copy():
    # `ClosureSet.__new__` only raises, so pickling and copying must go
    # through `__reduce__` to `ClosureSet._from_members`.
    c = construct_closure([FORK], 4)
    for twin in (pickle.loads(pickle.dumps(c)), copy.copy(c), copy.deepcopy(c)):
        assert (twin.bound, twin.generators, twin.members) == (c.bound, c.generators, c.members)
        assert twin.members_of_shape(1, 3) == c.members_of_shape(1, 3)
        with pytest.raises(VariantMismatchError):
            twin.contains_within_bound(lift_to_levels(FORK, 1))
