"""Property tests for the text and JSON boundary.

Laws, round trips and the bulk-vs-scanner comparisons have seeded random
tests elsewhere; this file covers what those cannot draw: arbitrary text
and arbitrary JSON values.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from partcat import ParseError, PartitionError
from partcat.textio import (
    colored_from_json,
    parse_colored,
    parse_partition,
    parse_spatial,
    partition_from_json,
    spatial_from_json,
)
from partcat.words import parse_word

# Mostly characters of the four grammars, so examples get past the first
# check; any code point can still appear.
_TEXT = st.one_of(
    st.text(alphabet="0123456789,|:;m=xw^-bB \t\n", max_size=40),
    st.text(max_size=40),
)


@settings(max_examples=500)
@given(_TEXT)
def test_parsers_return_or_raise_typed_errors(text):
    for parse in (parse_partition, parse_colored, parse_spatial, parse_word):
        try:
            parse(text)
        except ParseError as e:
            assert e.offset is not None and 0 <= e.offset <= len(text), (parse, e)
        except PartitionError:
            pass


# JSON values whose objects mostly use the readers' keys, so examples reach
# the field checks; given parsed, as JSON text, and as text near JSON.
_KEYS = st.sampled_from(["upper", "lower", "upper_colors", "lower_colors", "levels", "x"])
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.sampled_from("wb"), st.text(max_size=3)
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=5),
    max_leaves=12,
)
_JSON_INPUT = st.one_of(
    _JSON,
    _JSON.map(json.dumps),
    st.text(alphabet='[]{}":,0123456789-.eE wbupperlowvsNaIfiy', max_size=60),
    st.integers(0, 20_000).map(lambda depth: '{"upper": ' + "[" * depth),
)


@settings(max_examples=300)
@given(_JSON_INPUT)
def test_json_readers_return_or_raise_typed_errors(obj):
    for read in (partition_from_json, colored_from_json, spatial_from_json):
        try:
            read(obj)
        except (ValueError, PartitionError):  # ParseError is a ValueError
            pass
