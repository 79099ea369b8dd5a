"""Reflection and involution laws of compose, tensor and the corner moves.

The closure engine composes and tensors only one pair per orbit of these
maps, and applies only the top-left corner move, reaching the other three
as its conjugates by R and I; so its member sets are exact only while the
laws hold. A pair whose interfaces do not fit must fail on both sides of a
law with the same error.
"""

import random

from partcat import (
    ColoredPartition,
    PartitionError,
    compose,
    involution,
    reflect_vertical,
    rotate,
    tensor,
)

from helpers import random_composable_pair, random_partition, random_spatial

def _outcome(fn):
    try:
        return fn()
    except PartitionError as e:
        return type(e)


def _check_laws(p, q):
    """Assert the laws on (p, q), values of any one class; return the error
    types compose raised."""
    comp, tens, refl, inv, rot = compose, tensor, reflect_vertical, involution, rotate
    for x in (p, q):
        assert refl(refl(x)) == x
        assert inv(inv(x)) == x
        assert refl(inv(x)) == inv(refl(x))
        if x.upper_points:
            assert rot(x, "top-right") == refl(rot(refl(x), "top-left"))
        if x.lower_points:
            assert rot(x, "bottom-left") == inv(rot(inv(x), "top-left"))
            assert rot(x, "bottom-right") == refl(inv(rot(inv(refl(x)), "top-left")))
    composed = _outcome(lambda: refl(comp(p, q)))
    assert composed == _outcome(lambda: comp(refl(p), refl(q)))
    assert _outcome(lambda: inv(comp(p, q))) == _outcome(lambda: comp(inv(q), inv(p)))
    assert _outcome(lambda: refl(tens(p, q))) == _outcome(lambda: tens(refl(q), refl(p)))
    assert _outcome(lambda: inv(tens(p, q))) == _outcome(lambda: tens(inv(p), inv(q)))
    return composed if isinstance(composed, type) else None


def _colors(rng, n):
    return [rng.choice("wb") for _ in range(n)]


def test_plain_laws():
    rng = random.Random(11)
    errors = set()
    for _ in range(1500):
        p, q = random_composable_pair(rng, 12)
        assert _check_laws(p, q) is None
        errors.add(_check_laws(random_partition(rng, 8), random_partition(rng, 8)))
    assert {e.__name__ for e in errors if e} == {"SizeMismatchError"}


def test_colored_laws():
    rng = random.Random(12)
    errors = set()
    for _ in range(1500):
        p, q = random_composable_pair(rng, 12)
        upper = _colors(rng, p.upper_count)
        interface = list(upper)
        if interface and rng.random() < 0.3:
            i = rng.randrange(len(interface))
            interface[i] = "b" if interface[i] == "w" else "w"
        cp = ColoredPartition(p, upper, _colors(rng, p.lower_count))
        cq = ColoredPartition(q, _colors(rng, q.upper_count), interface)
        errors.add(_check_laws(cp, cq))
        a, b = random_partition(rng, 8), random_partition(rng, 8)
        ca = ColoredPartition(a, _colors(rng, a.upper_count), _colors(rng, a.lower_count))
        cb = ColoredPartition(b, _colors(rng, b.upper_count), _colors(rng, b.lower_count))
        errors.add(_check_laws(ca, cb))
    assert {e.__name__ for e in errors if e} == {"ColorMismatchError", "SizeMismatchError"}
    assert None in errors


def test_spatial_laws():
    rng = random.Random(13)
    errors = set()
    for _ in range(600):
        m = rng.randint(1, 3)
        interface = rng.randint(0, 2)
        p = random_spatial(rng, levels=m, k=interface, l=rng.randint(0, 2))
        q = random_spatial(rng, levels=m, k=rng.randint(0, 2), l=interface)
        errors.add(_check_laws(p, q))
        other = random_spatial(rng, levels=rng.randint(1, 3), max_points=4)
        errors.add(_check_laws(p, other))
    assert {e.__name__ for e in errors if e} == {"LevelMismatchError", "SizeMismatchError"}
    assert None in errors
