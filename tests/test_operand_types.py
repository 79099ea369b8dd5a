import pytest

from partcat import (
    IDENTITY,
    ColoredPartition,
    VariantMismatchError,
    colored_compose,
    colored_involution,
    colored_reflect,
    colored_rotate,
    colored_tensor,
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
    spatial_compose,
    spatial_involution,
    spatial_reflect,
    spatial_rotate,
    spatial_tensor,
    tensor,
    to_involutive,
    unflatten,
)

COLORED = ColoredPartition(IDENTITY, "w", "w")
SPATIAL = lift_to_levels(IDENTITY, 2)

# (name, function, operand count, a valid operand, the error for a wrong one)
_CASES = [
    ("compose", compose, 2, IDENTITY, VariantMismatchError),
    ("tensor", tensor, 2, IDENTITY, VariantMismatchError),
    ("involution", involution, 1, IDENTITY, VariantMismatchError),
    ("reflect_vertical", reflect_vertical, 1, IDENTITY, VariantMismatchError),
    ("rotate", lambda p: rotate(p, "top-left"), 1, IDENTITY, VariantMismatchError),
    ("render_partition", render_partition, 1, IDENTITY, VariantMismatchError),
    ("colored_compose", colored_compose, 2, COLORED, VariantMismatchError),
    ("colored_tensor", colored_tensor, 2, COLORED, VariantMismatchError),
    ("colored_involution", colored_involution, 1, COLORED, VariantMismatchError),
    ("colored_reflect", colored_reflect, 1, COLORED, VariantMismatchError),
    ("colored_rotate", lambda p: colored_rotate(p, "top-left"), 1, COLORED, VariantMismatchError),
    ("render_colored", render_colored, 1, COLORED, VariantMismatchError),
    ("spatial_compose", spatial_compose, 2, SPATIAL, VariantMismatchError),
    ("spatial_tensor", spatial_tensor, 2, SPATIAL, VariantMismatchError),
    ("spatial_involution", spatial_involution, 1, SPATIAL, VariantMismatchError),
    ("spatial_reflect", spatial_reflect, 1, SPATIAL, VariantMismatchError),
    ("spatial_rotate", lambda p: spatial_rotate(p, "top-left"), 1, SPATIAL, VariantMismatchError),
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
