import pytest

import partcat
from partcat import (
    IDENTITY,
    ColoredPartition,
    VariantMismatchError,
    compose,
    involution,
    lift_to_levels,
    partition_of_word,
    reduce_involutive,
    reflect_vertical,
    render_colored,
    render_partition,
    render_spatial,
    rotate,
    tensor,
    to_involutive,
    unflatten,
)

COLORED = ColoredPartition(IDENTITY, "w", "w")
SPATIAL = lift_to_levels(IDENTITY, 2)
VALUES = {"plain": IDENTITY, "colored": COLORED, "spatial": SPATIAL}


def _rotate(p):
    return rotate(p, "top-left")


# (name, function, operand count, a valid operand, the error for a wrong one).
# A colored_ or spatial_ name runs the generic operation on that class's values.
_CASES = [
    ("compose", compose, 2, IDENTITY, VariantMismatchError),
    ("tensor", tensor, 2, IDENTITY, VariantMismatchError),
    ("involution", involution, 1, IDENTITY, VariantMismatchError),
    ("reflect_vertical", reflect_vertical, 1, IDENTITY, VariantMismatchError),
    ("rotate", _rotate, 1, IDENTITY, VariantMismatchError),
    ("render_partition", render_partition, 1, IDENTITY, VariantMismatchError),
    ("colored_compose", compose, 2, COLORED, VariantMismatchError),
    ("colored_tensor", tensor, 2, COLORED, VariantMismatchError),
    ("colored_involution", involution, 1, COLORED, VariantMismatchError),
    ("colored_reflect", reflect_vertical, 1, COLORED, VariantMismatchError),
    ("colored_rotate", _rotate, 1, COLORED, VariantMismatchError),
    ("render_colored", render_colored, 1, COLORED, VariantMismatchError),
    ("spatial_compose", compose, 2, SPATIAL, VariantMismatchError),
    ("spatial_tensor", tensor, 2, SPATIAL, VariantMismatchError),
    ("spatial_involution", involution, 1, SPATIAL, VariantMismatchError),
    ("spatial_reflect", reflect_vertical, 1, SPATIAL, VariantMismatchError),
    ("spatial_rotate", _rotate, 1, SPATIAL, VariantMismatchError),
    ("unflatten", unflatten, 1, SPATIAL, VariantMismatchError),
    ("render_spatial", render_spatial, 1, SPATIAL, VariantMismatchError),
    ("partition_of_word", partition_of_word, 1, None, ValueError),
    ("to_involutive", to_involutive, 1, None, ValueError),
    ("reduce_involutive", reduce_involutive, 1, None, ValueError),
]


@pytest.mark.parametrize("wrong", ["1|1", None], ids=["str", "None"])
@pytest.mark.parametrize(
    "function, arity, valid, error", [pytest.param(*case[1:], id=case[0]) for case in _CASES]
)
def test_operations_reject_operands_of_the_wrong_type(function, arity, valid, error, wrong):
    # Partition operations and renderers raise VariantMismatchError, word
    # functions ValueError, as the constructors do; no AttributeError leaks
    # and no value is rendered as its str().
    for operands in [(wrong,)] if arity == 1 else [(wrong, valid), (valid, wrong)]:
        with pytest.raises(error):
            function(*operands)


_GENERIC = {"compose": compose, "tensor": tensor}


@pytest.mark.parametrize(
    "function, valid, wrong",
    [
        pytest.param(_GENERIC[op], VALUES[kind], VALUES[other], id=f"{op}-{kind}-{other}")
        for op in _GENERIC
        for kind in VALUES
        for other in VALUES
        if other != kind
    ],
)
def test_binary_operations_reject_values_of_another_class(function, valid, wrong):
    # Each class composes and tensors with itself, and with no other class,
    # in either position.
    assert type(function(valid, valid)) is type(valid)
    for operands in (wrong, valid), (valid, wrong):
        with pytest.raises(VariantMismatchError, match="^an operand must be a "):
            function(*operands)


@pytest.mark.parametrize("kind", VALUES)
def test_unary_operations_keep_the_class(kind):
    value = VALUES[kind]
    for function in involution, reflect_vertical, _rotate:
        assert type(function(value)) is type(value)


def test_first_operand_that_is_no_value_names_the_three_classes():
    message = "^an operand must be a Partition, ColoredPartition or SpatialPartition, got str$"
    for function in compose, tensor:
        with pytest.raises(VariantMismatchError, match=message):
            function("1|1", IDENTITY)
    for function in involution, reflect_vertical, _rotate:
        with pytest.raises(VariantMismatchError, match=message):
            function("1|1")
    # A second operand is held to the first one's class, with the message
    # that a plain pair has always given.
    with pytest.raises(VariantMismatchError, match="^an operand must be a Partition, got str$"):
        compose(IDENTITY, "1|1")


_REMOVED = [f"{kind}_{op}" for kind in ("colored", "spatial")
            for op in ("compose", "tensor", "involution", "reflect", "rotate")]


def test_public_surface():
    # Every exported name resolves, the list is sorted and has no duplicates,
    # and the per-class operation wrappers are gone: the five operations of
    # partcat.ops take values of every class.
    names = partcat.__all__
    assert names == sorted(set(names))
    for name in names:
        assert getattr(partcat, name) is not None
    for name in _REMOVED:
        assert not hasattr(partcat, name)
        assert not hasattr(partcat.variants, name)
