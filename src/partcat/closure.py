"""Bounded closure generation for categories of partitions.

construct_closure saturates a generator set under the category operations
(involution, the four rotations, vertical reflection, tensor product and
composition), seeded with the identity and pair base partitions, while
discarding every result whose size exceeds a fixed bound. The universe of
canonical partitions up to the bound is finite, so the worklist terminates
with the least fixpoint; the member set is independent of exploration
order.

The size-preserving operations (the involution, the vertical reflection
and the top-left corner move) are applied as primitive moves even though a
category is automatically closed under them, because deriving a rotation
through base partitions temporarily grows the diagram and would silently
lose members near the bound.

A bound caveat: membership in the generated *category* is only
semi-decided. Some partitions of size <= n are reachable only through
intermediates larger than n, so absence from a bounded closure never proves
absence from the category (and no general decision procedure can exist).

One engine runs all three variants, on raw members: the hashable tuples
that the kernel tables `ops._Plain`, `variants._Colored` and
`variants._Spatial` take, an upper point count and a block vector, then a
colored member's color rows or a spatial member's level count. A spatial
member's rows are flattened, m points to a column, so its sizes and the
bound count flat points. The member dict deduplicates raw members, and a
value object is built once per member kept, when the run returns.

Only one pair per symmetry orbit is composed or tensored. With R the
vertical reflection and I the involution,

    R(compose(p, q)) == compose(R p, R q)
    I(compose(p, q)) == compose(I q, I p)
    R(tensor(p, q)) == tensor(R q, R p)
    I(tensor(p, q)) == tensor(I p, I q)

for every variant, and R, I are commuting involutions. So the results of
the four pairs in an orbit are the images under 1, R, I and RI of one
result, which the unary step adds, and R and I preserve sizes, so every
pair of an orbit passes or fails the bound test together. The reference
engine without this quotient is `saturate_reference` in `tests/oracles.py`.

Each member orbit {x, R x, I x, RI x} enters the worklist whole, as one
entry, when its first member is found; the engine processes it once, when
that entry is popped, and pairs it with itself and with the orbits
processed before it. Call C the map that keeps the order of the factors
and S the one that swaps it: for tensor C = I and S = R, for compose
C = R and S = I. C splits the orbit into the classes A = {x, C x} and
B = {S x, SC x}, which may be one class. The engine files A; if B is
another class, it runs S x as the first factor against every filed member
and then files B; last it runs x against every filed member. A first
factor y with C y == y runs only against the first filed member of each
class, because (y, q) and (y, C q) are one orbit; the identity and the
crossing are such factors for both maps, the empty partition for tensor
and the pair 1,1| for compose.

Each pair orbit has exactly one pair that the engine runs. Take a pair
orbit with factors from the member orbit O' of x and an orbit O processed
before it. S moves a pair whose first factor lies in O to one whose first
factor lies in O', and only 1 and C keep it there. C keeps A and B, so the
pair orbit has a pair (y, q) with y = x or y = S x, and it is the only one
but for (y, C q) when C y == y; the run of y against the filed members of
O takes exactly one of them. Within O' itself, when B != A, S carries
A x A onto B x B and maps A x B and B x A each onto itself, and C keeps all
four. The orbits in A x A and B x B are those of (x, x) and (x, C x), run
by x against A. The orbits in B x A are those of (S x, x), which S fixes,
and of (S x, C x), which C takes to (SC x, x), so the two differ; S x runs
them against A, which is all of O' that is filed when S x runs. Likewise
x runs (x, S x) and (x, SC x) against B. When B == A the orbits in A x A
are again those of (x, x) and (x, C x), and when C x == x each list loses
its C-images, as the fixed-factor rule does. Filing B before S x runs
would also run (S x, S x) and (S x, SC x), whose orbits x runs already.
Every member is filed under its own interface, since R reverses a colored
one.

Of the four corner moves only top-left (tl) is applied; the other three
are conjugates of it,

    tr == R tl R        bl == I tl I        br == RI tl RI

on every value with a point in the row that moves. This is exact too:
every orbit is processed once, and that adds the images of its members
under R, I and tl, so the final member set M is closed under them;
rotations preserve sizes, so no bound test is involved; and for x in M
with an upper point, R x is in M and has one, so tl(R x) is in M and so is
R tl R x = tr(x).
The same argument through I gives bl, and through RI gives br, for x with
a lower point. Any one corner would do.

Of the compose pairs left, the engine skips those whose result the tensor
and identity laws give from smaller pairs. Orbits are popped smallest size
first. Each member z has one split mask, splits[z]: bit i says that z is a
tensor of two nonempty members, the left one with i upper points, so for z
with k upper points bits 0 and k say that a factor has no upper points;
z's lower row splits as its I-image's upper row does. The mask -1, which
has every bit and which -1 | m keeps, says that z is an identity base (one
with as many upper as lower points) or a tensor of one and a member. Every
evaluated z = tensor(y, q) writes to the whole orbit of z at once,
following R z == tensor(R q, R y) and I z == tensor(I y, I q): -1 to all
four when y or q is an identity base, else, when both have points, bit
y.upper_points to z, q.upper_points to R z, y.lower_points to I z and
q.lower_points to RI z.

A compose pair (p bottom, q top) with n interface points is skipped when

1. the interface is empty, so a member with no upper points is never a
   bottom and one with no lower points never a top;
2. the mask test holds: splits[p] or splits[I q] has bit 0 or bit n, or
   splits[p] & splits[I q] != 0.

This is exact too. Every mask holds in the final member set M: bit i of
splits[z] means z == tensor(z1, z2) with z1, z2 nonempty members of M, z1
with i upper points, and -1 means z is an identity base e, or tensor(e, w)
or tensor(w, e) with w in M. Masks come from evaluated tensors of members,
and each write follows the two laws above, with R e == I e == e, inside M,
which is closed under R and I. Now show, by induction on p.size + q.size,
that compose(p, q) is in M for every composable pair of members whose
result fits the bound. If the pair the engine ran in its orbit was
composed, the orbit argument above applies. Otherwise a rule held for the
pair the engine ran, when the later of its two orbits was processed, and
masks only grow:

1. compose(p, q) == tensor(q, p), a tensor within the bound, and tensor
   pairs are never skipped.
2. The mask test holds in one of three cases.
   - A mask is -1, the identity column. If p is an identity base the
     result is q, and if q is one it is p. If p == tensor(e, p'), the
     identity column carries q's first lower point straight down, so
     compose(p, q) == tl(compose(p', bl q)): the pair (p', bl q) has two
     points fewer and a result of the same size, and M is closed under tl
     and bl. p == tensor(p', e) is its mirror image under R, through tr
     and br; q == tensor(e, q') gives bl(compose(tl p, q')), and
     q == tensor(q', e) its mirror image.
   - The masks share a bit i, the interchange law. With
     p == tensor(p1, p2) and q == tensor(q1, q2) split at the same
     interface position i, compose(p, q) == tensor(compose(p1, q1),
     compose(p2, q2)). All four factors have points, so both pairs are
     smaller, and their results are no larger than compose(p, q), so both
     are in M, and so is their tensor.
   - A mask has an end bit, a one-row factor: the interchange law with the
     empty partition o, as q == tensor(q, o) == tensor(o, q). Bit n of
     splits[p] gives p == tensor(w, l), l with points but none upper, so
     compose(p, q) == tensor(compose(w, q), compose(l, o)), which is
     tensor(compose(w, q), l). The pair (w, q) is smaller, as l has
     points, with a result no larger, so it is in M, and so is the tensor.
     Bit 0, and an end bit of splits[I q], are alike.

The other pairs of the orbit follow by R and I. Colored identities have
one color and spatial ones are lifted, so the identity law holds for every
variant. Pop order changes only how many pairs are skipped, never the
members; smallest first records most splits before the pairs that need
them.
"""

from collections import defaultdict
from collections.abc import Iterable
from operator import attrgetter

from .errors import BoundError, LevelMismatchError, VariantMismatchError
from .errors import check_count, check_iterable, check_type
from .ops import _Plain
from .partition import IDENTITY, PAIR, Partition
from .variants import ColoredPartition, SpatialPartition, _Colored, _Spatial
from .variants import colored_base_partitions, spatial_base_partitions

_sort_key = attrgetter("sort_key")
_KIND = {Partition: "plain", ColoredPartition: "colored", SpatialPartition: "spatial"}


class ClosureSet:
    """The saturated member set of a bounded closure run.

    Membership queries answer relative to this bound only: a True from
    contains_within_bound means "derivable without any intermediate larger
    than the bound", while False merely means "not derivable within this
    bound". False is *not* a proof that the partition lies outside the
    generated category, since a derivation may need larger intermediates;
    no procedure can decide full membership in general.
    """

    __slots__ = ("_bound", "_generators", "_members", "_type", "_by_shape")

    def __new__(cls, *args, **kwargs):
        raise TypeError("a ClosureSet is built by construct_closure, "
                        "construct_colored_closure or construct_spatial_closure")

    @classmethod
    def _from_members(cls, bound, generators, members, value_type):
        # Internal: the set of a saturated run, whose members fit the bound.
        c = object.__new__(cls)
        c._bound, c._generators, c._type = bound, tuple(generators), value_type
        c._members = frozenset(members)
        c._by_shape = None  # (upper points, lower points) -> members, built on first use
        return c

    def __reduce__(self):
        return self._from_members, (self._bound, self._generators, self._members, self._type)

    # Read-only, so the queries' bound checks always hold for the member set.
    bound = property(attrgetter("_bound"))
    generators = property(attrgetter("_generators"))
    members = property(attrgetter("_members"))
    saturated = property(lambda c: True, doc="Whether the run reached its fixpoint; always so.")

    def __len__(self):
        return len(self._members)

    def __iter__(self):
        return iter(self._members)

    def __repr__(self):
        return (
            f"<ClosureSet {_KIND[self._type]}: {len(self._members)} members, "
            f"bound={self._bound}, generators={len(self._generators)}>"
        )

    def _shapes(self):
        if self._by_shape is None:
            by_shape = defaultdict(list)
            for x in self._members:
                by_shape[x.upper_points, x.lower_points].append(x)
            self._by_shape = {shape: frozenset(xs) for shape, xs in by_shape.items()}
        return self._by_shape

    def members_of_size(self, size: int):
        """All members with the given total number of points."""
        check_count(size, 0, "size")
        if size > self._bound:
            raise BoundError(f"size {size} exceeds the bound {self._bound}")
        return {x for (k, l), xs in self._shapes().items() if k + l == size for x in xs}

    def members_of_shape(self, k: int, l: int):
        """All members with k upper and l lower points."""
        check_count(k, 0, "upper point count")
        check_count(l, 0, "lower point count")
        if k + l > self._bound:
            raise BoundError(f"shape ({k}, {l}) exceeds the bound {self._bound}")
        return set(self._shapes().get((k, l), ()))

    def contains_within_bound(self, p) -> bool:
        """Semi-decision: was `p` derived within this bound?

        False only states that no derivation stayed within the bound; it
        does not rule out membership in the generated category.
        """
        check_type(p, self._type, "the queried value", VariantMismatchError)
        if p.size > self._bound:
            raise BoundError(
                f"partition of size {p.size} exceeds the bound {self._bound}"
            )
        return p in self._members

    def sorted_members(self) -> list:
        """Members in the deterministic output order (size, shape, blocks)."""
        return sorted(self._members, key=_sort_key)


def _saturate(bases, generators, bound, kernels):
    """The raw members of the closure of the raw `bases` and `generators`
    within `bound`, in insertion order, by the kernel table `kernels`.

    Sizes and `bound` count block-vector points. The bases that fit the
    bound are added first, then the generators; the bases with as many upper
    as lower points are the identity bases. Each R/I orbit enters the
    worklist whole when its first member is found, and is processed once,
    when popped. The kernels are called directly, so a profile credits each
    call to this module, for the benchmark's counters.
    """
    members = {}  # raw member -> index into the lists below
    stacks = [[] for _ in range(bound + 1)]  # unpopped orbits by size
    # By member index: mates holds the indices of the member and of its R, I
    # and RI images, and splits its split mask, as the module docstring says.
    mates = []
    splits = []
    involution = kernels.involution
    reflect = kernels.reflect_vertical

    def add(x):
        if x not in members:
            inv = involution(x)
            orbit = x, reflect(x), inv, reflect(inv)
            frame = [members.setdefault(y, len(members)) for y in orbit]
            # New members come in index order; R, I and RI move orbit
            # position pos to pos ^ 1, pos ^ 2 and pos ^ 3.
            for pos, i in enumerate(frame):
                if i == len(mates):
                    mates.append((i, frame[pos ^ 1], frame[pos ^ 2], frame[pos ^ 3]))
                    splits.append(0)
            stacks[len(x[1])].append(orbit)

    identity = set()  # indices of the identity bases
    for b in bases:
        if len(b[1]) <= bound:
            add(b)
            if b[0] == len(b[1]) - b[0]:
                identity.add(members[b])
                splits[members[b]] = -1  # R and I fix it
    for g in generators:
        add(g)

    # Processed members: tensor right factors by size as (y, index, first
    # filed of its class, upper points, lower points), and compose tops by
    # their lower-row interface and upper points as (y, index of its
    # I-image, first filed), so a run visits only the buckets within the
    # bound.
    by_size = defaultdict(list)
    as_top = defaultdict(list)
    keys = kernels.keys
    rotate = kernels.rotate
    tensor = kernels.tensor
    compose = kernels.compose

    while True:
        for stack in stacks:  # the smallest unpopped orbit first
            if stack:
                break
        else:
            return members.keys()
        x, ref, inv, ref_inv = stack.pop()
        a, ra, ia, ria = mates[members[x]]
        for y in {a: x, ra: ref, ia: inv, ria: ref_inv}.values():
            if y[0]:
                add(rotate(y, "top-left"))

        # Tensor: I-classes; y is the left factor. Each split is written to
        # the whole orbit of z: R z == tensor(R q, R y), I z == tensor(I y, I q).
        sx = len(x[1])
        fixed = ia == a  # I fixes x, and so R x
        for y, i, first in _orbit_steps(x, a, inv, ia, ref, ra, ref_inv, ria):
            yu, yl = y[0], sx - y[0]
            if first is not None:
                by_size[sx].append((y, i, first, yu, yl))
                continue
            beside = i in identity
            for s in range(bound - sx + 1):
                for q, j, q_first, qu, ql in by_size.get(s, ()):
                    if q_first or not fixed:
                        z = tensor(y, q)
                        add(z)
                        k, rk, ik, rik = mates[members[z]]
                        if beside or j in identity:
                            splits[k] = splits[rk] = splits[ik] = splits[rik] = -1
                        elif sx and s:
                            splits[k] |= 1 << yu
                            splits[rk] |= 1 << qu
                            splits[ik] |= 1 << yl
                            splits[rik] |= 1 << ql

        # Compose: R-classes; y is the bottom. A pair runs when its interface
        # is nonempty and the mask test fails: neither mask has an end bit
        # (0 or yu, as the top's I-image has yu upper points too), and the
        # two share no bit.
        fixed = ra == a  # R fixes x, and so I x
        for y, i, first in _orbit_steps(x, a, ref, ra, inv, ia, ref_inv, ria):
            yu = y[0]
            if first is not None:
                if yu < sx:
                    as_top[keys(y)[1], yu].append((y, mates[i][2], first))
                continue
            ends = 1 | 1 << yu
            if yu and not splits[i] & ends:
                key, mask = keys(y)[0], splits[i] | ends
                for tu in range(bound - sx + yu + 1):
                    for q, j, q_first in as_top.get((key, tu), ()):
                        if (q_first or not fixed) and not splits[j] & mask:
                            z = compose(y, q)
                            if z not in members:  # most are known; skip the call
                                add(z)


def _orbit_steps(x, a, mate, b, y, c, y_mate, d):
    """The steps for one member orbit split into the classes {x, mate} and
    {y, y_mate} (indices a, b, c, d), in the order the module docstring
    gives: (member, index, first) files the member, first telling whether it
    is the first filed of its class, and (member, index, None) runs it as
    the first factor against every filed member."""
    steps = [(x, a, True)]
    if b != a:
        steps.append((mate, b, False))
    if c != a and c != b:
        steps += (y, c, None), (y, c, True)
        if d != c:
            steps.append((y_mate, d, False))
    steps.append((x, a, None))
    return steps


def _checked(generators, value_type):
    generators = list(check_iterable(generators, "generators"))
    role = f"a {_KIND[value_type]} closure generator"
    for g in generators:
        check_type(g, value_type, role, VariantMismatchError)
    return generators


def _construct(generators, bound, value_type, bases, kernels, levels=1):
    """Saturate the raw forms of the values, and make each member kept a value."""
    check_count(bound, 1, "bound")
    for g in generators:
        if g.size > bound:
            raise BoundError(f"generator of size {g.size} exceeds the bound {bound}")
    raw = _saturate([b._raw for b in bases], [g._raw for g in generators], bound * levels, kernels)
    return ClosureSet._from_members(bound, generators, map(value_type._from_raw, raw), value_type)


def construct_closure(generators: Iterable[Partition], bound: int) -> ClosureSet:
    """Generate all partitions of size at most `bound` reachable from the
    generators and the base partitions (identity and pair).

    Results larger than the bound are discarded as they arise, so the run
    always terminates; see :class:`ClosureSet` for what membership in the
    result does and does not mean.
    """
    generators = _checked(generators, Partition)
    return _construct(generators, bound, Partition, [IDENTITY, PAIR], _Plain)


def construct_colored_closure(generators, bound: int) -> ClosureSet:
    """Bounded closure over colored partitions.

    Seeds the four colored base partitions; composition is gated on
    matching interface colors.
    """
    generators = _checked(generators, ColoredPartition)
    return _construct(generators, bound, ColoredPartition, colored_base_partitions(), _Colored)


def construct_spatial_closure(generators, bound: int, levels: int | None = None) -> ClosureSet:
    """Bounded closure over spatial partitions on a common level count.

    The level count is taken from the generators (which must agree) or from
    `levels` when no generators are given. Sizes count points of the level
    structure, not flattened points.
    """
    generators = _checked(generators, SpatialPartition)
    if levels is not None:
        check_count(levels, 1, "levels")
    for g in generators:
        if levels is None:
            levels = g.levels
        elif g.levels != levels:
            raise LevelMismatchError(
                f"generator has {g.levels} levels, expected {levels}"
            )
    if levels is None:
        raise ValueError("levels is required when no generators are given")
    return _construct(generators, bound, SpatialPartition, spatial_base_partitions(levels),
                      _Spatial, levels)
