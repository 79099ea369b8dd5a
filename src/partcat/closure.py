"""Bounded closure generation for categories of partitions.

construct_closure saturates a generator set under the category operations
(involution, the four rotations, vertical reflection, tensor product and
composition), seeded with the identity and pair base partitions, while
discarding every result whose size exceeds a fixed bound. The universe of
canonical partitions up to the bound is finite, so the worklist terminates
with the least fixpoint; the member set is independent of exploration
order.

The size-preserving operations are applied as primitive moves even though a
category is automatically closed under them, because deriving a rotation
through base partitions temporarily grows the diagram and would silently
lose members near the bound.

A bound caveat: membership in the generated *category* is only
semi-decided. Some partitions of size <= n are reachable only through
intermediates larger than n, so absence from a bounded closure never proves
absence from the category (and no general decision procedure can exist).

The same engine runs over colored and spatial partitions, parameterized by
the operations and base partitions of the variant.

Only one pair per symmetry orbit is composed or tensored. With R the
vertical reflection and I the involution,

    R(compose(p, q)) == compose(R p, R q)
    I(compose(p, q)) == compose(I q, I p)
    R(tensor(p, q)) == tensor(R q, R p)
    I(tensor(p, q)) == tensor(I p, I q)

for every variant, and R, I are commuting involutions. So the results of
the four pairs in an orbit are the images under 1, R, I and RI of one
result. Members are numbered in insertion order, a total order fixed for
the run, and a pair is evaluated only when its pair of numbers is
lexicographically least in its orbit. This is exact: the member set is
closed under R and I, so the least pair of every orbit consists of members
and is evaluated once its later element is popped; the unary step then
adds the other three results; and R and I preserve sizes, so every pair of
an orbit passes or fails the bound test together. The reference engine
without this quotient is :func:`partcat.oracles.saturate_reference`.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterable
from operator import attrgetter
from typing import NamedTuple

from . import ops as _ops
from . import variants as _v
from .errors import BoundError, LevelMismatchError, VariantMismatchError
from .partition import IDENTITY, PAIR, Partition


class _Variant(NamedTuple):
    """The operations of one partition variant, as the functions themselves.

    The engine calls them directly, not through wrappers or methods on the
    values, so a profile attributes each call into `ops` or `variants` to
    this module; the benchmark's traced counters rely on that. Everything
    else the engine needs is read off the values: `size`,
    `upper_points`/`lower_points`, the compose interface
    `upper_key`/`lower_key`, and `sort_key`.
    """

    kind: str
    value_type: type
    involution: Callable
    reflect: Callable
    rotate: Callable
    tensor: Callable
    compose: Callable


_PLAIN = _Variant(
    "plain", Partition, _ops.involution, _ops.reflect_vertical, _ops.rotate,
    _ops.tensor, _ops.compose,
)
_COLORED = _Variant(
    "colored", _v.ColoredPartition, _v.colored_involution, _v.colored_reflect,
    _v.colored_rotate, _v.colored_tensor, _v.colored_compose,
)
_SPATIAL = _Variant(
    "spatial", _v.SpatialPartition, _v.spatial_involution, _v.spatial_reflect,
    _v.spatial_rotate, _v.spatial_tensor, _v.spatial_compose,
)

_sort_key = attrgetter("sort_key")


class ClosureSet:
    """The saturated member set of a bounded closure run.

    Membership queries answer relative to this bound only: a True from
    contains_within_bound means "derivable without any intermediate larger
    than the bound", while False merely means "not derivable within this
    bound". False is *not* a proof that the partition lies outside the
    generated category, since a derivation may need larger intermediates;
    no procedure can decide full membership in general.
    """

    __slots__ = ("bound", "generators", "members", "saturated", "_variant")

    def __init__(self, bound, generators, members, variant):
        self.bound = bound
        self.generators = tuple(generators)
        self.members = frozenset(members)
        self.saturated = True
        self._variant = variant

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __repr__(self):
        return (
            f"<ClosureSet {self._variant.kind}: {len(self.members)} members, "
            f"bound={self.bound}, generators={len(self.generators)}>"
        )

    def members_of_size(self, size: int):
        """All members with the given total number of points."""
        if size > self.bound:
            raise BoundError(f"size {size} exceeds the bound {self.bound}")
        return {x for x in self.members if x.size == size}

    def members_of_shape(self, k: int, l: int):
        """All members with k upper and l lower points."""
        if k + l > self.bound:
            raise BoundError(f"shape ({k}, {l}) exceeds the bound {self.bound}")
        return {x for x in self.members if x.upper_points == k and x.lower_points == l}

    def contains_within_bound(self, p) -> bool:
        """Semi-decision: was `p` derived within this bound?

        False only states that no derivation stayed within the bound; it
        does not rule out membership in the generated category.
        """
        if p.size > self.bound:
            raise BoundError(
                f"partition of size {p.size} exceeds the bound {self.bound}"
            )
        return p in self.members

    def sorted_members(self) -> list:
        """Members in the deterministic output order (size, shape, blocks)."""
        return sorted(self.members, key=_sort_key)


def _saturate(seed, bound, variant):
    members = {}  # member -> insertion index, the order that picks orbit representatives
    queue = []

    def add(x):
        if x not in members:
            members[x] = len(members)
            queue.append(x)

    for s in seed:
        add(s)

    # Popped members as entries (y, b, rb, ib, rib, yu, yl): y with the
    # indices of y, R y, I y and R I y, where R reflects and I is the
    # involution, and the point counts of y's upper and lower rows.
    by_size = defaultdict(list)
    as_bottom = defaultdict(list)  # indexed by the interface of the upper row
    as_top = defaultdict(list)  # indexed by the interface of the lower row
    involution = variant.involution
    reflect = variant.reflect
    rotate = variant.rotate
    tensor = variant.tensor
    compose = variant.compose

    while queue:
        x = queue.pop()
        xu, xl = x.upper_points, x.lower_points
        upper_key, lower_key = x.upper_key, x.lower_key
        inv = involution(x)
        ref = reflect(x)
        ref_inv = reflect(inv)
        add(inv)
        add(ref)
        add(ref_inv)
        if xu:
            add(rotate(x, "top-left"))
            add(rotate(x, "top-right"))
        if xl:
            add(rotate(x, "bottom-left"))
            add(rotate(x, "bottom-right"))
        a, ra, ia, ria = members[x], members[ref], members[inv], members[ref_inv]
        ex = (x, a, ra, ia, ria, xu, xl)

        sx = xu + xl
        by_size[sx].append(ex)
        as_bottom[upper_key].append(ex)
        as_top[lower_key].append(ex)

        # Each pair is evaluated only if its indices are the least in its
        # orbit: (p, q) is tensored if it is below (R q, R p), (I p, I q)
        # and (R I q, R I p), composed if below (R p, R q), (I q, I p) and
        # (R I q, R I p).
        for s in range(bound - sx + 1):
            for ey in by_size.get(s, ()):
                y, b, rb, ib, rib, _, _ = ey
                if (a, b) <= (rb, ra) and (a, b) <= (ia, ib) and (a, b) <= (rib, ria):
                    add(tensor(x, y))
                if (
                    ey is not ex
                    and (b, a) <= (ra, rb) and (b, a) <= (ib, ia) and (b, a) <= (ria, rib)
                ):
                    add(tensor(y, x))

        # x as the top factor against every registered bottom, and the
        # other way around; the x-with-x pair is covered by the first loop.
        for bottom, b, rb, ib, rib, _, bl in as_bottom.get(lower_key, ()):
            if (
                xu + bl <= bound
                and (b, a) <= (rb, ra) and (b, a) <= (ia, ib) and (b, a) <= (ria, rib)
            ):
                add(compose(bottom, x))
        for et in as_top.get(upper_key, ()):
            top, b, rb, ib, rib, tu, _ = et
            if (
                et is not ex
                and tu + xl <= bound
                and (a, b) <= (ra, rb) and (a, b) <= (ib, ia) and (a, b) <= (rib, ria)
            ):
                add(compose(x, top))
    return members.keys()


def _checked(generators, variant):
    generators = list(generators)
    for g in generators:
        if not isinstance(g, variant.value_type):
            raise VariantMismatchError(
                f"{variant.kind} closure needs {variant.value_type.__name__} generators, "
                f"got {type(g).__name__}"
            )
    return generators


def _construct(generators, bound, variant, bases):
    if isinstance(bound, bool) or not isinstance(bound, int) or bound < 1:
        raise ValueError(f"bound must be a positive integer, got {bound!r}")
    for g in generators:
        if g.size > bound:
            raise BoundError(f"generator of size {g.size} exceeds the bound {bound}")
    seed = [b for b in bases if b.size <= bound] + generators
    members = _saturate(seed, bound, variant)
    return ClosureSet(bound, generators, members, variant)


def construct_closure(generators: Iterable[Partition], bound: int) -> ClosureSet:
    """Generate all partitions of size at most `bound` reachable from the
    generators and the base partitions (identity and pair).

    Results larger than the bound are discarded as they arise, so the run
    always terminates; see :class:`ClosureSet` for what membership in the
    result does and does not mean.
    """
    return _construct(_checked(generators, _PLAIN), bound, _PLAIN, [IDENTITY, PAIR])


def construct_colored_closure(generators, bound: int) -> ClosureSet:
    """Bounded closure over colored partitions.

    Seeds the four colored base partitions; composition is gated on
    matching interface colors.
    """
    return _construct(
        _checked(generators, _COLORED), bound, _COLORED, _v.colored_base_partitions()
    )


def construct_spatial_closure(generators, bound: int, levels: int | None = None) -> ClosureSet:
    """Bounded closure over spatial partitions on a common level count.

    The level count is taken from the generators (which must agree) or from
    `levels` when no generators are given. Sizes count points of the level
    structure, not flattened points.
    """
    generators = _checked(generators, _SPATIAL)
    for g in generators:
        if levels is None:
            levels = g.levels
        elif g.levels != levels:
            raise LevelMismatchError(
                f"generator has {g.levels} levels, expected {levels}"
            )
    if levels is None:
        raise ValueError("levels is required when no generators are given")
    return _construct(generators, bound, _SPATIAL, _v.spatial_base_partitions(levels))
