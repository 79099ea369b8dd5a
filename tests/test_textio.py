import json
import random

import pytest

from partcat import ParseError, Partition
from partcat.textio import (
    colored_from_json,
    colored_to_json,
    parse_colored,
    parse_partition,
    parse_spatial,
    partition_from_json,
    partition_to_json,
    render_colored,
    render_partition,
    render_spatial,
    spatial_from_json,
    spatial_to_json,
)

from helpers import random_colored, random_partition, random_spatial


def test_parse_basic():
    assert parse_partition("1,2|2,1") == Partition([1, 2], [2, 1])
    assert parse_partition("|") == Partition([], [])
    assert parse_partition("|1,1") == Partition([], [1, 1])
    assert parse_partition(" 1 , 2 | 2 ") == Partition([1, 2], [2])


def test_parse_normalizes():
    assert render_partition(parse_partition("2,4|4,99")) == "1,2|2,3"


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as e:
        parse_partition("1,2")
    assert e.value.offset == 3
    with pytest.raises(ParseError) as e:
        parse_partition("1|2|3")
    assert e.value.offset == 3
    with pytest.raises(ParseError) as e:
        parse_partition("1,x|2")
    assert e.value.offset == 2
    with pytest.raises(ParseError) as e:
        parse_partition("1,-2|3")
    assert e.value.offset == 2
    with pytest.raises(ParseError) as e:
        parse_partition("1,,2|3")
    assert "offset" in str(e.value)


def test_labels_are_ascii_digits_only():
    # str.isdigit accepts fullwidth, Arabic-Indic and superscript digits;
    # int() reads the first two and rejects the third.
    with pytest.raises(ParseError) as e:
        parse_partition("\uff11,\u0663|1")
    assert e.value.offset == 0
    with pytest.raises(ParseError) as e:
        parse_partition("1|1,\u0663")
    assert e.value.offset == 4
    with pytest.raises(ParseError) as e:
        parse_partition("\u00b2|1")
    assert e.value.offset == 0
    with pytest.raises(ParseError) as e:
        parse_spatial("m=\u00b2;1|1")
    assert e.value.offset == 2
    with pytest.raises(ParseError):
        parse_spatial("m=\uff12;1,2|1,2")


def test_text_roundtrip_random():
    rng = random.Random(1)
    for _ in range(10_000):
        p = random_partition(rng, 10)
        assert parse_partition(render_partition(p, "text")) == p


def test_json_roundtrip_random():
    rng = random.Random(2)
    for _ in range(10_000):
        p = random_partition(rng, 10)
        assert partition_from_json(render_partition(p, "json")) == p


def test_json_shape():
    obj = partition_to_json(Partition([2, 4], [4, 99]))
    assert obj == {"upper": [1, 2], "lower": [2, 3]}
    assert json.loads(render_partition(Partition([], []), "json")) == {
        "upper": [],
        "lower": [],
    }


def test_unknown_format():
    with pytest.raises(ValueError):
        render_partition(Partition([], []), "xml")


def test_colored_roundtrip():
    rng = random.Random(3)
    for _ in range(2000):
        cp = random_colored(rng)
        assert parse_colored(render_colored(cp, "text")) == cp
        assert colored_from_json(render_colored(cp, "json")) == cp


def test_colored_format_examples():
    cp = parse_colored("wb:1,2|w:2")
    assert cp.base == Partition([1, 2], [2])
    assert cp.upper_colors == ("w", "b")
    assert render_colored(cp) == "wb:1,2|w:2"
    assert parse_colored(":|:").base == Partition([], [])
    with pytest.raises(ParseError):
        parse_colored("w:1,2|w:2")  # color count mismatch
    with pytest.raises(ParseError):
        parse_colored("zz:1,2|w:2")
    with pytest.raises(ParseError):
        parse_colored("1,2|2")  # missing colons


def test_colored_json_shape():
    cp = parse_colored("wb:1,2|w:2")
    assert colored_to_json(cp) == {
        "upper": [1, 2],
        "lower": [2],
        "upper_colors": "wb",
        "lower_colors": "w",
    }


def test_spatial_roundtrip():
    rng = random.Random(4)
    for _ in range(2000):
        sp = random_spatial(rng)
        assert parse_spatial(render_spatial(sp, "text")) == sp
        assert spatial_from_json(render_spatial(sp, "json")) == sp


def test_spatial_format_examples():
    sp = parse_spatial("m=2;1,2,3,4|4,3,2,1")
    assert sp.levels == 2
    assert sp.upper_points == 2 and sp.lower_points == 2
    assert render_spatial(sp) == "m=2;1,2,3,4|4,3,2,1"
    with pytest.raises(ParseError):
        parse_spatial("1,2|2,1")
    with pytest.raises(ParseError):
        parse_spatial("m=0;|")
    with pytest.raises(ParseError):
        parse_spatial("m=2")
    from partcat import LevelStructureError

    with pytest.raises(LevelStructureError):
        parse_spatial("m=2;1|1")


def test_spatial_json_shape():
    sp = parse_spatial("m=2;1,2|1,2")
    assert spatial_to_json(sp) == {"levels": 2, "upper": [1, 2], "lower": [1, 2]}


def test_json_missing_keys_raise_parse_error():
    with pytest.raises(ParseError, match="'lower'"):
        partition_from_json('{"upper": [1]}')
    with pytest.raises(ParseError, match="'upper_colors'"):
        colored_from_json({"upper": [], "lower": [], "lower_colors": ""})
    with pytest.raises(ParseError, match="'levels'"):
        spatial_from_json({"upper": [1], "lower": [1]})
    with pytest.raises(ParseError):
        partition_from_json("[1, 2]")
    with pytest.raises(ParseError) as e:
        partition_from_json('{"upper": [1], ')
    assert e.value.offset == 15
