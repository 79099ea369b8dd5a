"""Text and JSON encodings for partitions and their variants.

Plain partitions read `<upper>|<lower>` with comma-separated decimal labels
and either side possibly empty, e.g. `1,2|2,1`, `|1,1`, `|`. Colored
partitions prefix each side with its color string: `wb:1,2|w:2`. Spatial
partitions carry the level count up front: `m=2;1,2,3,4|4,3,2,1`. Parsing
always normalizes.
"""

import json
import re

from .errors import ParseError, VariantMismatchError, check_type
from .partition import Partition, canonical_labels
from .variants import ColoredPartition, SpatialPartition


# Any character that cannot occur in a row of labels.
_NOT_LABEL_TEXT = re.compile(r"[^0-9,\s]")


def _read_int(digits: str, what: str, offset: int) -> int:
    """int() of a run of ASCII digits, as a ParseError where the run is too
    long for int() to read."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"{what} of {len(digits)} digits is too long to read", offset=offset
        ) from None


def _scan_labels(text: str, start: int, end: int) -> list[int]:
    """The labels of `text[start:end]`, read token by token.

    Reports the first bad token as a ParseError at its offset.
    """
    segment = text[start:end]
    if not segment.strip():
        return []
    labels = []
    pos = start
    for token in segment.split(","):
        stripped = token.strip()
        where = pos + (token.index(stripped) if stripped else 0)
        if not (stripped.isascii() and stripped.isdigit()):
            raise ParseError(
                f"expected a non-negative integer label, got {stripped!r}",
                offset=where,
            )
        labels.append(_read_int(stripped, "label", where))
        pos += len(token) + 1
    return labels


def _parse_labels(text: str, start: int, end: int) -> list[int]:
    """The labels of `text[start:end]`, converted in bulk.

    A row holding only ASCII digits, commas and whitespace whose tokens all
    convert with int() gives what `_scan_labels` gives: int() strips no
    character that str.strip() keeps, and reads ASCII digits alike. Any
    other row goes to `_scan_labels`, which reads it or reports the error.
    """
    segment = text[start:end]
    if segment and not segment.isspace() and not _NOT_LABEL_TEXT.search(segment):
        try:
            return list(map(int, segment.split(",")))
        except ValueError:  # a bad token, or padding int() does not strip
            pass
    return _scan_labels(text, start, end)


def parse_partition(text: str) -> Partition:
    """Parse the `<upper>|<lower>` format; the result is canonical."""
    check_type(text, str, "the parsed text", ParseError)
    return _parse_rows(text, 0)


def _row_bar(text: str, start: int) -> int:
    """The offset of the one '|' that splits `text[start:]` into two rows."""
    bar = text.find("|", start)
    if bar < 0:
        raise ParseError("expected '|' between upper and lower rows", offset=len(text))
    second = text.find("|", bar + 1)
    if second >= 0:
        raise ParseError("unexpected second '|'", offset=second)
    return bar


def _parse_rows(text: str, start: int) -> Partition:
    """Parse `text[start:]` as `<upper>|<lower>`; error offsets are within `text`."""
    bar = _row_bar(text, start)
    upper = _parse_labels(text, start, bar)
    lower = _parse_labels(text, bar + 1, len(text))
    # The labels are ints read from ASCII digits, so none is negative and
    # the constructor's check would pass.
    return Partition._from_raw(len(upper), canonical_labels(upper + lower))


def render_partition(p: Partition, fmt: str = "text") -> str:
    check_type(p, Partition, "the rendered value", VariantMismatchError)
    if fmt == "text":
        return str(p)
    if fmt == "json":
        return json.dumps(partition_to_json(p))
    raise ValueError(f"unknown format {fmt!r}")


def partition_to_json(p: Partition) -> dict:
    check_type(p, Partition, "the rendered value", VariantMismatchError)
    return {"upper": list(p.upper), "lower": list(p.lower)}


# The JSON types a field may hold, with the name used in error messages.
_ARRAY = ((list,), "an array")
_COLORS = ((str, list), "a string or an array")
_INTEGER = ((int,), "an integer")


def _json_fields(obj, **fields) -> list:
    """The values of `fields` in a JSON object, given parsed or as text.

    Each field maps to the JSON types its value may have; `true` and
    `false` are not integers.
    """
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e.msg}", offset=e.pos) from None
        except (RecursionError, ValueError) as e:  # too deep, or an over-long number
            raise ParseError(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}")
    values = []
    for key, (types, expected) in fields.items():
        if key not in obj:
            raise ParseError(f"missing key {key!r}")
        value = obj[key]
        if type(value) not in types:
            raise ParseError(f"{key!r} must be {expected}, got {type(value).__name__}")
        values.append(value)
    return values


def partition_from_json(obj) -> Partition:
    return Partition(*_json_fields(obj, upper=_ARRAY, lower=_ARRAY))


def _parse_colored_side(text: str, start: int, end: int):
    colon = text.find(":", start, end)
    if colon < 0:
        raise ParseError("expected ':' between colors and labels", offset=end)
    colors = text[start:colon].strip()
    if set(colors) - {"w", "b"}:
        raise ParseError(f"colors must be 'w'/'b', got {colors!r}", offset=start)
    labels = _parse_labels(text, colon + 1, end)
    if len(colors) != len(labels):
        raise ParseError(
            f"{len(colors)} colors for {len(labels)} labels", offset=start
        )
    return colors, labels


def parse_colored(text: str) -> ColoredPartition:
    """Parse the `<colors>:<upper>|<colors>:<lower>` format."""
    check_type(text, str, "the parsed text", ParseError)
    bar = _row_bar(text, 0)
    ucolors, ulabels = _parse_colored_side(text, 0, bar)
    lcolors, llabels = _parse_colored_side(text, bar + 1, len(text))
    return ColoredPartition(Partition(ulabels, llabels), ucolors, lcolors)


def render_colored(cp: ColoredPartition, fmt: str = "text") -> str:
    check_type(cp, ColoredPartition, "the rendered value", VariantMismatchError)
    if fmt == "text":
        up = ",".join(map(str, cp.base.upper))
        lo = ",".join(map(str, cp.base.lower))
        return f"{''.join(cp.upper_colors)}:{up}|{''.join(cp.lower_colors)}:{lo}"
    if fmt == "json":
        return json.dumps(colored_to_json(cp))
    raise ValueError(f"unknown format {fmt!r}")


def colored_to_json(cp: ColoredPartition) -> dict:
    check_type(cp, ColoredPartition, "the rendered value", VariantMismatchError)
    out = partition_to_json(cp.base)
    out["upper_colors"] = "".join(cp.upper_colors)
    out["lower_colors"] = "".join(cp.lower_colors)
    return out


def colored_from_json(obj) -> ColoredPartition:
    upper, lower, upper_colors, lower_colors = _json_fields(
        obj, upper=_ARRAY, lower=_ARRAY, upper_colors=_COLORS, lower_colors=_COLORS
    )
    return ColoredPartition(Partition(upper, lower), upper_colors, lower_colors)


def parse_spatial(text: str) -> SpatialPartition:
    """Parse the `m=<levels>;<flattened partition>` format."""
    check_type(text, str, "the parsed text", ParseError)
    if not text.startswith("m="):
        raise ParseError("expected 'm=<levels>;' prefix", offset=0)
    semi = text.find(";")
    if semi < 0:
        raise ParseError("expected ';' after the level count", offset=len(text))
    levels_text = text[2:semi].strip()
    if (
        not (levels_text.isascii() and levels_text.isdigit())
        or _read_int(levels_text, "level count", 2) < 1
    ):
        raise ParseError(f"expected a positive level count, got {levels_text!r}", offset=2)
    flattened = _parse_rows(text, semi + 1)
    return SpatialPartition(int(levels_text), flattened)


def render_spatial(sp: SpatialPartition, fmt: str = "text") -> str:
    check_type(sp, SpatialPartition, "the rendered value", VariantMismatchError)
    if fmt == "text":
        return f"m={sp.levels};{sp.flattened}"
    if fmt == "json":
        return json.dumps(spatial_to_json(sp))
    raise ValueError(f"unknown format {fmt!r}")


def spatial_to_json(sp: SpatialPartition) -> dict:
    check_type(sp, SpatialPartition, "the rendered value", VariantMismatchError)
    out = {"levels": sp.levels}
    out.update(partition_to_json(sp.flattened))
    return out


def spatial_from_json(obj) -> SpatialPartition:
    levels, upper, lower = _json_fields(obj, levels=_INTEGER, upper=_ARRAY, lower=_ARRAY)
    return SpatialPartition(levels, Partition(upper, lower))
