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
the operation set and base partitions of the variant.

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
from collections.abc import Iterable

from . import ops as _ops
from . import variants as _v
from .errors import BoundError, LevelMismatchError, VariantMismatchError
from .partition import IDENTITY, PAIR, Partition, canonical_sort_key, normalize


class _PlainOps:
    kind = "plain"
    value_type = Partition

    @staticmethod
    def size(p):
        return p.size

    @staticmethod
    def shape(p):
        return (p.upper_count, p.lower_count)

    @staticmethod
    def normal(p):
        return normalize(p)

    @staticmethod
    def upper_key(p):
        return p.upper_count

    @staticmethod
    def lower_key(p):
        return p.lower_count

    involution = staticmethod(_ops.involution)
    reflect = staticmethod(_ops.reflect_vertical)

    @staticmethod
    def rotations(p):
        if p.upper_count:
            yield _ops.rotate(p, "top-left")
            yield _ops.rotate(p, "top-right")
        if p.lower_count:
            yield _ops.rotate(p, "bottom-left")
            yield _ops.rotate(p, "bottom-right")

    tensor = staticmethod(_ops.tensor)
    compose = staticmethod(_ops.compose)

    @staticmethod
    def compose_size(bottom, top):
        return top.upper_count + bottom.lower_count

    @staticmethod
    def sort_key(p):
        return canonical_sort_key(p)


class _ColoredOps:
    kind = "colored"
    value_type = _v.ColoredPartition

    @staticmethod
    def size(p):
        return p.base.size

    @staticmethod
    def shape(p):
        return (p.base.upper_count, p.base.lower_count)

    @staticmethod
    def normal(p):
        return _v.ColoredPartition(normalize(p.base), p.upper_colors, p.lower_colors)

    @staticmethod
    def upper_key(p):
        return (p.base.upper_count, p.upper_colors)

    @staticmethod
    def lower_key(p):
        return (p.base.lower_count, p.lower_colors)

    involution = staticmethod(_v.colored_involution)
    reflect = staticmethod(_v.colored_reflect)

    @staticmethod
    def rotations(p):
        if p.base.upper_count:
            yield _v.colored_rotate(p, "top-left")
            yield _v.colored_rotate(p, "top-right")
        if p.base.lower_count:
            yield _v.colored_rotate(p, "bottom-left")
            yield _v.colored_rotate(p, "bottom-right")

    tensor = staticmethod(_v.colored_tensor)
    compose = staticmethod(_v.colored_compose)

    @staticmethod
    def compose_size(bottom, top):
        return top.base.upper_count + bottom.base.lower_count

    @staticmethod
    def sort_key(p):
        return canonical_sort_key(p.base) + (p.upper_colors, p.lower_colors)


class _SpatialOps:
    kind = "spatial"
    value_type = _v.SpatialPartition

    @staticmethod
    def size(p):
        return p.size

    @staticmethod
    def shape(p):
        return (p.upper_points, p.lower_points)

    @staticmethod
    def normal(p):
        return _v.SpatialPartition(p.levels, normalize(p.flattened))

    @staticmethod
    def upper_key(p):
        return (p.levels, p.upper_points)

    @staticmethod
    def lower_key(p):
        return (p.levels, p.lower_points)

    involution = staticmethod(_v.spatial_involution)
    reflect = staticmethod(_v.spatial_reflect)

    @staticmethod
    def rotations(p):
        if p.upper_points:
            yield _v.spatial_rotate(p, "top-left")
            yield _v.spatial_rotate(p, "top-right")
        if p.lower_points:
            yield _v.spatial_rotate(p, "bottom-left")
            yield _v.spatial_rotate(p, "bottom-right")

    tensor = staticmethod(_v.spatial_tensor)
    compose = staticmethod(_v.spatial_compose)

    @staticmethod
    def compose_size(bottom, top):
        return top.upper_points + bottom.lower_points

    @staticmethod
    def sort_key(p):
        return (p.levels,) + canonical_sort_key(p.flattened)


_PLAIN = _PlainOps()
_COLORED = _ColoredOps()
_SPATIAL = _SpatialOps()


class ClosureSet:
    """The saturated member set of a bounded closure run.

    Membership queries answer relative to this bound only: a True from
    contains_within_bound means "derivable without any intermediate larger
    than the bound", while False merely means "not derivable within this
    bound". False is *not* a proof that the partition lies outside the
    generated category, since a derivation may need larger intermediates;
    no procedure can decide full membership in general.
    """

    __slots__ = ("bound", "generators", "members", "saturated", "_ops")

    def __init__(self, bound, generators, members, ops):
        self.bound = bound
        self.generators = tuple(generators)
        self.members = frozenset(members)
        self.saturated = True
        self._ops = ops

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __repr__(self):
        return (
            f"<ClosureSet {self._ops.kind}: {len(self.members)} members, "
            f"bound={self.bound}, generators={len(self.generators)}>"
        )

    def members_of_size(self, size: int):
        """All members with the given total number of points."""
        if size > self.bound:
            raise BoundError(f"size {size} exceeds the bound {self.bound}")
        sz = self._ops.size
        return {x for x in self.members if sz(x) == size}

    def members_of_shape(self, k: int, l: int):
        """All members with k upper and l lower points."""
        if k + l > self.bound:
            raise BoundError(f"shape ({k}, {l}) exceeds the bound {self.bound}")
        shape = self._ops.shape
        return {x for x in self.members if shape(x) == (k, l)}

    def contains_within_bound(self, p) -> bool:
        """Semi-decision: was `p` derived within this bound?

        False only states that no derivation stayed within the bound; it
        does not rule out membership in the generated category.
        """
        if self._ops.size(p) > self.bound:
            raise BoundError(
                f"partition of size {self._ops.size(p)} exceeds the bound {self.bound}"
            )
        return self._ops.normal(p) in self.members

    def sorted_members(self) -> list:
        """Members in the deterministic output order (size, shape, blocks)."""
        return sorted(self.members, key=self._ops.sort_key)


def _saturate(seed, bound, ops):
    members = {}  # member -> insertion index, the order that picks orbit representatives
    queue = []

    def add(x):
        if x not in members:
            members[x] = len(members)
            queue.append(x)

    for s in seed:
        add(s)

    # Popped members as entries (y, b, rb, ib, rib): y with the indices of
    # y, R y, I y and R I y, where R reflects and I is the involution.
    by_size = defaultdict(list)
    as_bottom = defaultdict(list)  # indexed by the interface of the upper row
    as_top = defaultdict(list)  # indexed by the interface of the lower row
    size = ops.size
    tensor = ops.tensor
    compose = ops.compose
    compose_size = ops.compose_size

    while queue:
        x = queue.pop()
        inv = ops.involution(x)
        ref = ops.reflect(x)
        ref_inv = ops.reflect(inv)
        for r in (inv, ref, ref_inv, *ops.rotations(x)):
            add(r)
        ex = (x, members[x], members[ref], members[inv], members[ref_inv])
        _, a, ra, ia, ria = ex

        sx = size(x)
        by_size[sx].append(ex)
        as_bottom[ops.upper_key(x)].append(ex)
        as_top[ops.lower_key(x)].append(ex)

        # Each pair is evaluated only if its indices are the least in its
        # orbit: (p, q) is tensored if it is below (R q, R p), (I p, I q)
        # and (R I q, R I p), composed if below (R p, R q), (I q, I p) and
        # (R I q, R I p).
        for s in range(bound - sx + 1):
            for ey in by_size.get(s, ()):
                y, b, rb, ib, rib = ey
                if (a, b) <= (rb, ra) and (a, b) <= (ia, ib) and (a, b) <= (rib, ria):
                    add(tensor(x, y))
                if (
                    ey is not ex
                    and (b, a) <= (ra, rb) and (b, a) <= (ib, ia) and (b, a) <= (ria, rib)
                ):
                    add(tensor(y, x))

        # x as the top factor against every registered bottom, and the
        # other way around; the x-with-x pair is covered by the first loop.
        for bottom, b, rb, ib, rib in as_bottom.get(ops.lower_key(x), ()):
            if (
                compose_size(bottom, x) <= bound
                and (b, a) <= (rb, ra) and (b, a) <= (ia, ib) and (b, a) <= (ria, rib)
            ):
                add(compose(bottom, x))
        for et in as_top.get(ops.upper_key(x), ()):
            top, b, rb, ib, rib = et
            if (
                et is not ex
                and compose_size(x, top) <= bound
                and (a, b) <= (ra, rb) and (a, b) <= (ib, ia) and (a, b) <= (rib, ria)
            ):
                add(compose(x, top))
    return members.keys()


def _checked(generators, ops):
    generators = list(generators)
    for g in generators:
        if not isinstance(g, ops.value_type):
            raise VariantMismatchError(
                f"{ops.kind} closure needs {ops.value_type.__name__} generators, "
                f"got {type(g).__name__}"
            )
    return generators


def _construct(generators, bound, ops, bases):
    if not isinstance(bound, int) or bound < 1:
        raise ValueError(f"bound must be a positive integer, got {bound!r}")
    generators = [ops.normal(g) for g in generators]
    for g in generators:
        if ops.size(g) > bound:
            raise BoundError(
                f"generator of size {ops.size(g)} exceeds the bound {bound}"
            )
    seed = [b for b in bases if ops.size(b) <= bound] + generators
    members = _saturate(seed, bound, ops)
    return ClosureSet(bound, generators, members, ops)


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
