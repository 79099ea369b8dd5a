import json
import random
import re
import sys

import pytest

from partcat import ParseError, Partition, parse_word
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

from helpers import WHITESPACE, parse_outcome, random_colored, random_partition, random_spatial


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
    # offsets within the whole spatial text, not within the part after ';'
    for text, offset in (("m=2;1,x|1", 6), ("m=2; 1,2|1,y", 11), ("m=2;1,2|1,2|3", 11)):
        with pytest.raises(ParseError) as e:
            parse_spatial(text)
        assert e.value.offset == offset, text
    with pytest.raises(ParseError) as e:
        parse_colored("w:1|w:1|w:1")
    assert e.value.offset == 7 and "second '|'" in str(e.value)


@pytest.mark.parametrize("parse", [parse_partition, parse_colored, parse_spatial, parse_word])
@pytest.mark.parametrize("text", [5, None, b"1|1"])
def test_parsers_reject_values_that_are_not_text(parse, text):
    with pytest.raises(ParseError, match="must be a str"):
        parse(text)


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
    for render, value in (
        (render_partition, Partition([], [])),
        (render_colored, parse_colored("w:1|w:1")),
        (render_spatial, parse_spatial("m=2;1,2|1,2")),
    ):
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            render(value, "xml")


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


def test_json_value_types_raise_parse_error():
    for text in ('{"upper": 5, "lower": []}', '{"upper": [1], "lower": "1"}',
                 '{"upper": [1], "lower": null}', '{"upper": {}, "lower": [1]}'):
        with pytest.raises(ParseError, match="must be an array"):
            partition_from_json(text)
    for colors in ('5', 'null', '{"w": 1}', 'true'):
        with pytest.raises(ParseError, match="must be a string or an array"):
            colored_from_json(
                f'{{"upper": [1], "lower": [1], "upper_colors": {colors}, "lower_colors": "w"}}'
            )
    assert colored_from_json(
        '{"upper": [1], "lower": [1], "upper_colors": ["b"], "lower_colors": "b"}'
    ) == parse_colored("b:1|b:1")
    for levels in ('"2"', "2.0", "true", "null", "[2]"):
        with pytest.raises(ParseError, match="must be an integer"):
            spatial_from_json(f'{{"levels": {levels}, "upper": [1, 2], "lower": [1, 2]}}')
    with pytest.raises(ParseError, match="must be an array"):
        spatial_from_json('{"levels": 1, "upper": 5, "lower": []}')


def test_json_too_deep_or_too_long_raises_parse_error():
    # json.loads raises RecursionError on deep nesting and a plain ValueError
    # on a number over int()'s digit limit; neither is a JSONDecodeError.
    deep = "[" * 100_000
    long_number = '{"levels": 1, "upper": [' + "1" * 5000 + '], "lower": []}'
    for read in (partition_from_json, colored_from_json, spatial_from_json):
        for text in (deep, '{"upper": ' + deep, long_number):
            with pytest.raises(ParseError, match="invalid JSON"):
                read(text)


def test_overlong_digit_runs_raise_parse_error():
    # int() refuses more than 4300 digits by default; the error must still be
    # a ParseError at the token, in the bulk path and the scanner alike.
    run = "1" * 5000
    cases = [
        (parse_partition, run + "|", 0),
        (parse_partition, "1, 2|3," + run, 7),
        (parse_partition, " " + "0" * 4999 + "1|", 1),
        (parse_colored, "w:" + run + "|:", 2),
        (parse_spatial, "m=" + run + ";|", 2),
        (parse_spatial, "m=2;" + run + "|", 4),
    ]
    for parse, text, offset in cases:
        with pytest.raises(ParseError, match="too long") as e:
            parse(text)
        assert e.value.offset == offset


def test_re_whitespace_class_is_str_isspace():
    # The bulk row reader relies on `\s` in _NOT_LABEL_TEXT meaning what
    # str.strip() strips in the scanner, and on int() stripping no more.
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", everything) == WHITESPACE
    others = "".join(re.findall(r"\S", everything))
    assert len(others) + len(WHITESPACE) == len(everything)
    assert others.strip() == others and others.split() == [others]
    for c in WHITESPACE:
        assert (c + "a" + c).strip() == "a" and ("a" + c + "b").split() == ["a", "b"]
        with pytest.raises(ValueError):
            int("0" + c + "7")
        try:
            assert int(c + "07" + c) == 7
        except ValueError:  # int() does not strip U+001C..U+001F
            pass


_ROW_TOKENS = ("1", "7", "42", "300", "007", "0", "65536", "999999")
_BAD_ROW_TOKENS = ("", "1 2", "+1", "-1", "1_0", "\u0663", "\uff11", "\u00b2", "a", "1.5", "0x1")


def _random_row(rng):
    if rng.random() < 0.02:
        return "1" * rng.choice((4300, 4301, 5000))
    tokens = []
    for _ in range(rng.randint(1, 90)):
        pad = [rng.choice(WHITESPACE) for _ in range(rng.choice((0, 0, 0, 1, 2)))]
        cut = rng.randint(0, len(pad))
        token = rng.choice(_BAD_ROW_TOKENS if rng.random() < 0.01 else _ROW_TOKENS)
        tokens.append("".join(pad[:cut]) + token + "".join(pad[cut:]))
    return ",".join(tokens)


def test_bulk_rows_match_the_token_scanner():
    from partcat.textio import _parse_labels, _scan_labels

    rng = random.Random(5)
    kinds = {"ok": 0, "error": 0}
    for _ in range(3000):
        row = rng.choice(("", " ", rng.choice(WHITESPACE))) if rng.random() < 0.03 else _random_row(rng)
        text = "prefix" * rng.randint(0, 1) + row
        start = len(text) - len(row)
        bulk = parse_outcome(_parse_labels, text, start, len(text))
        assert bulk == parse_outcome(_scan_labels, text, start, len(text)), repr(row)
        kinds[bulk[0]] += 1
    assert kinds["ok"] > 300 and kinds["error"] > 300


def test_parse_partition_matches_the_checking_constructor():
    from partcat.textio import _scan_labels

    rng = random.Random(6)
    seen = 0
    while seen < 300:
        text = _random_row(rng) + "|" + _random_row(rng)
        bar = text.index("|")
        try:
            upper, lower = _scan_labels(text, 0, bar), _scan_labels(text, bar + 1, len(text))
        except ParseError:
            continue
        seen += 1
        assert parse_partition(text) == Partition(upper, lower)
