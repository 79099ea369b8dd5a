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
that the kernels of :class:`partcat.ops._Plain` and
:class:`partcat.variants._Colored` take, an upper point count and a block
vector, then a colored member's color rows. A spatial member is its
flattened form, m points to a column, so its sizes and the bound count
flat points. The member dict deduplicates raw members, and a value object
is built once per member kept, when the run returns.

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
first. Each member has a split record, the set splits[z] of the upper
point counts i at which z splits into a tensor of two members, each with
an upper point; z's lower row splits as its I-image's upper row does. The
engine also flags the bases of shape (1, 1), the identity bases, with a
column flag, and has a one-row flag per member. Every evaluated
z = tensor(y, q) writes its record to the whole orbit of z at once,
following R z == tensor(R q, R y) and I z == tensor(I y, I q):

- when y and q both have upper points, bit y.upper_points to z and bit
  q.upper_points to R z; else, when both have points, the one-row flag to
  z and R z;
- when both have lower points, bit y.lower_points to I z and bit
  q.lower_points to RI z; else, when both have points, the one-row flag to
  I z and RI z;
- when y or q is an identity base, the column flag to all four.

A compose pair (p bottom, q top) is skipped when

1. the interface is empty, so a member with no upper points is never a
   bottom and one with no lower points never a top;
2. p or q has the column flag: flagged members are never partners;
3. splits[p] & splits[I q] != 0;
4. p or I q has the one-row flag.

This is exact too. Every record holds in the final member set M: bit i of
splits[z] means z == tensor(z1, z2) with z1, z2 in M, z1 with i upper
points and z2 with at least one; the column flag means z is an identity
base e, or tensor(e, w) or tensor(w, e) with w in M; the one-row flag
means z == tensor(w, l) or tensor(l, w) with w, l in M, l with points but
none upper. Records come from evaluated
tensors of members, and each write follows the two laws above, with
R e == I e == e, inside M, which is closed under R and I. Now show, by
induction on p.size + q.size, that compose(p, q) is in M for every
composable pair of members whose result fits the bound. If the pair the
engine ran in its orbit was composed, the orbit argument above applies.
Otherwise a rule held for the pair the engine ran, when the later of its
two orbits was processed, and records only grow:

1. compose(p, q) == tensor(q, p), a tensor within the bound, and tensor
   pairs are never skipped.
2. If p is an identity base the result is q, and if q is one it is p. If
   p == tensor(e, p'), the identity column carries q's first lower point
   straight down, so compose(p, q) == tl(compose(p', bl q)): the pair
   (p', bl q) has two points fewer and a result of the same size, and M is
   closed under tl and bl. p == tensor(p', e) is its mirror image under R,
   through tr and br; q == tensor(e, q') gives bl(compose(tl p, q')), and
   q == tensor(q', e) its mirror image.
3. With p == tensor(p1, p2) and q == tensor(q1, q2) split at the same
   interface position, compose(p, q) == tensor(compose(p1, q1),
   compose(p2, q2)). Both pairs are smaller and their results are no
   larger than compose(p, q), so both are in M, and so is their tensor.
4. The points of l take no part in the composite: p == tensor(w, l) gives
   compose(p, q) == tensor(compose(w, q), l), and the pair (w, q) is
   smaller, with a result no larger, so it is in M, and so is the tensor.
   p == tensor(l, w) is alike. If I q has the flag, q == tensor(w, u) or
   tensor(u, w) with u in M, with points but none lower, and
   compose(p, q) == tensor(compose(p, w), u) or its mirror. l and u must
   have points: tensor(e, w) == w for the empty partition e.

The other pairs of the orbit follow by R and I. Colored identities have
one color and spatial ones are lifted, so the identity law holds for every
variant. Pop order changes only how many pairs are skipped, never the
members; smallest first records most splits before the pairs that need
them.
"""

from collections import defaultdict
from collections.abc import Iterable
from functools import partial
from operator import attrgetter

from .errors import BoundError, LevelMismatchError, VariantMismatchError
from .errors import check_count, check_iterable, check_type
from .ops import _Plain
from .partition import IDENTITY, PAIR, Partition
from .variants import ColoredPartition, SpatialPartition, _Colored
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

    def __init__(self, bound, generators, members, value_type):
        self._bound = bound
        self._generators = tuple(generators)
        self._members = frozenset(members)
        self._type = value_type
        self._by_shape = None  # (upper points, lower points) -> members, built on first use

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


def _saturate(bases, generators, bound, kernels, width):
    """The raw members of the closure of the raw `bases` and `generators`
    within `bound`, in insertion order, by the kernel table `kernels`.

    Sizes and `bound` count points, `width` to a column. The bases that fit
    the bound are added first, then the generators; the bases of shape
    (width, width) are flagged as identity bases. Each R/I orbit enters the
    worklist whole when its first member is found, and is processed once,
    when it is popped. Each evaluated tensor writes its split record to its
    result's whole orbit. The kernels are called directly, so a profile
    attributes each call to this module, as the benchmark's counters need.
    """
    members = {}  # raw member -> index into the lists below
    stacks = [[] for _ in range(bound + 1)]  # unpopped orbits by size
    # By member index: mates holds the indices of the member and of its R, I
    # and RI images; bit i of splits says the member is a tensor of two
    # members, the left one with i upper points and each with one at least
    # (the lower-row splits are those of the I-image); column says it is an
    # identity base, or a tensor of one and a member; one_row says it is a
    # tensor of two nonempty members, one with no upper points.
    mates = []
    splits = []
    column = []
    one_row = []
    involution = kernels.involution
    reflect = kernels.reflect_vertical

    def add(x):
        if x not in members:
            inv = involution(x)
            orbit = x, reflect(x, width), inv, reflect(inv, width)
            frame = [members.setdefault(y, len(members)) for y in orbit]
            # New members come in index order; R, I and RI move orbit
            # position pos to pos ^ 1, pos ^ 2 and pos ^ 3.
            for pos, i in enumerate(frame):
                if i == len(mates):
                    mates.append((i, frame[pos ^ 1], frame[pos ^ 2], frame[pos ^ 3]))
                    splits.append(0)
                    column.append(False)
                    one_row.append(False)
            stacks[len(x[1])].append(orbit)

    identity = set()  # indices of the identity bases
    for b in bases:
        if len(b[1]) <= bound:
            add(b)
            if b[0] == len(b[1]) - b[0] == width:
                identity.add(members[b])
                column[members[b]] = True  # R and I fix it
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
                add(rotate(y, "top-left", width))

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
                        if yu and qu:
                            splits[k] |= 1 << yu
                            splits[rk] |= 1 << qu
                        elif sx and s:
                            one_row[k] = one_row[rk] = True
                        if yl and ql:
                            splits[ik] |= 1 << yl
                            splits[rik] |= 1 << ql
                        elif sx and s:
                            one_row[ik] = one_row[rik] = True
                        if beside or j in identity:
                            column[k] = column[rk] = column[ik] = column[rik] = True

        # Compose: R-classes; y is the bottom. A member beside an identity
        # column is never a partner, nor one whose interface is empty, nor a
        # tensor with a factor that has points only away from the interface;
        # and a pair whose interface splits alike on both sides is not composed.
        if column[a]:
            continue
        fixed = ra == a  # R fixes x, and so I x
        for y, i, first in _orbit_steps(x, a, ref, ra, inv, ia, ref_inv, ria):
            yu = y[0]
            if first is not None:
                if yu < sx:
                    as_top[keys(y)[1], yu].append((y, mates[i][2], first))
            elif yu and not one_row[i]:
                key, mask = keys(y)[0], splits[i]
                for tu in range(bound - sx + yu + 1):
                    for q, j, q_first in as_top.get((key, tu), ()):
                        if (q_first or not fixed) and not (mask & splits[j] or one_row[j]):
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


def _construct(generators, bound, value_type, bases, kernels, wrap, width=1):
    """Saturate the raw forms of the values; `wrap` makes each member kept a value."""
    check_count(bound, 1, "bound")
    for g in generators:
        if g.size > bound:
            raise BoundError(f"generator of size {g.size} exceeds the bound {bound}")
    raw = _saturate([b._raw for b in bases], [g._raw for g in generators], bound * width,
                    kernels, width)
    return ClosureSet(bound, generators, map(wrap, raw), value_type)


def construct_closure(generators: Iterable[Partition], bound: int) -> ClosureSet:
    """Generate all partitions of size at most `bound` reachable from the
    generators and the base partitions (identity and pair).

    Results larger than the bound are discarded as they arise, so the run
    always terminates; see :class:`ClosureSet` for what membership in the
    result does and does not mean.
    """
    generators = _checked(generators, Partition)
    return _construct(generators, bound, Partition, [IDENTITY, PAIR], _Plain, Partition._from_raw)


def construct_colored_closure(generators, bound: int) -> ClosureSet:
    """Bounded closure over colored partitions.

    Seeds the four colored base partitions; composition is gated on
    matching interface colors.
    """
    generators = _checked(generators, ColoredPartition)
    return _construct(generators, bound, ColoredPartition, colored_base_partitions(), _Colored,
                      ColoredPartition._from_raw)


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
    return _construct(generators, bound, SpatialPartition, spatial_base_partitions(levels), _Plain,
                      partial(SpatialPartition._from_raw, levels), levels)
