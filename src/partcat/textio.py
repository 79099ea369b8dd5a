"""Text and JSON encodings for partitions and their variants.

Plain partitions read `<upper>|<lower>` with comma-separated decimal labels
and either side possibly empty, e.g. `1,2|2,1`, `|1,1`, `|`. Colored
partitions prefix each side with its color string: `wb:1,2|w:2`. Spatial
partitions carry the level count up front: `m=2;1,2,3,4|4,3,2,1`. Parsing
always normalizes.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .partition import Partition
from .variants import ColoredPartition, SpatialPartition


def _parse_labels(text: str, start: int, end: int) -> list[int]:
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
        labels.append(int(stripped))
        pos += len(token) + 1
    return labels


def parse_partition(text: str) -> Partition:
    """Parse the `<upper>|<lower>` format; the result is canonical."""
    bar = text.find("|")
    if bar < 0:
        raise ParseError("expected '|' between upper and lower rows", offset=len(text))
    second = text.find("|", bar + 1)
    if second >= 0:
        raise ParseError("unexpected second '|'", offset=second)
    return Partition(
        _parse_labels(text, 0, bar), _parse_labels(text, bar + 1, len(text))
    )


def render_partition(p: Partition, fmt: str = "text") -> str:
    if fmt == "text":
        return str(p)
    if fmt == "json":
        return json.dumps(partition_to_json(p))
    raise ValueError(f"unknown format {fmt!r}")


def partition_to_json(p: Partition) -> dict:
    return {"upper": list(p.upper), "lower": list(p.lower)}


def _json_fields(obj, *keys) -> list:
    """The values of `keys` in a JSON object, given parsed or as text."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON: {e.msg}", offset=e.pos) from None
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise ParseError(f"missing key {key!r}")
    return [obj[key] for key in keys]


def partition_from_json(obj) -> Partition:
    return Partition(*_json_fields(obj, "upper", "lower"))


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
    bar = text.find("|")
    if bar < 0:
        raise ParseError("expected '|' between upper and lower rows", offset=len(text))
    ucolors, ulabels = _parse_colored_side(text, 0, bar)
    lcolors, llabels = _parse_colored_side(text, bar + 1, len(text))
    return ColoredPartition(Partition(ulabels, llabels), ucolors, lcolors)


def render_colored(cp: ColoredPartition, fmt: str = "text") -> str:
    if fmt == "text":
        up = ",".join(map(str, cp.base.upper))
        lo = ",".join(map(str, cp.base.lower))
        return f"{''.join(cp.upper_colors)}:{up}|{''.join(cp.lower_colors)}:{lo}"
    if fmt == "json":
        return json.dumps(colored_to_json(cp))
    raise ValueError(f"unknown format {fmt!r}")


def colored_to_json(cp: ColoredPartition) -> dict:
    out = partition_to_json(cp.base)
    out["upper_colors"] = "".join(cp.upper_colors)
    out["lower_colors"] = "".join(cp.lower_colors)
    return out


def colored_from_json(obj) -> ColoredPartition:
    upper, lower, upper_colors, lower_colors = _json_fields(
        obj, "upper", "lower", "upper_colors", "lower_colors"
    )
    return ColoredPartition(Partition(upper, lower), upper_colors, lower_colors)


def parse_spatial(text: str) -> SpatialPartition:
    """Parse the `m=<levels>;<flattened partition>` format."""
    if not text.startswith("m="):
        raise ParseError("expected 'm=<levels>;' prefix", offset=0)
    semi = text.find(";")
    if semi < 0:
        raise ParseError("expected ';' after the level count", offset=len(text))
    levels_text = text[2:semi].strip()
    if not (levels_text.isascii() and levels_text.isdigit()) or int(levels_text) < 1:
        raise ParseError(f"expected a positive level count, got {levels_text!r}", offset=2)
    flattened = parse_partition(text[semi + 1 :])
    return SpatialPartition(int(levels_text), flattened)


def render_spatial(sp: SpatialPartition, fmt: str = "text") -> str:
    if fmt == "text":
        return f"m={sp.levels};{sp.flattened}"
    if fmt == "json":
        return json.dumps(spatial_to_json(sp))
    raise ValueError(f"unknown format {fmt!r}")


def spatial_to_json(sp: SpatialPartition) -> dict:
    out = {"levels": sp.levels}
    out.update(partition_to_json(sp.flattened))
    return out


def spatial_from_json(obj) -> SpatialPartition:
    levels, upper, lower = _json_fields(obj, "levels", "upper", "lower")
    return SpatialPartition(levels, Partition(upper, lower))
