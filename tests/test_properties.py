"""Property tests for the text boundary.

Laws, round trips and the bulk-vs-scanner comparisons have seeded random
tests elsewhere; this file covers what those cannot draw: arbitrary text.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from partcat import ParseError, PartitionError
from partcat.textio import parse_colored, parse_partition, parse_spatial
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
