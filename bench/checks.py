"""Independent checks for every output the benchmark times.

No expected value here comes from the code path under test. Member sets
come from brute-force enumeration (`partcat.oracles`), the colored set from
the free-unitary characterisation (Tarrago & Weber, IMRN 2017), compose
results from `compose_via_dfs`, and the other operations from relabelling
written out below. CLI output is read back with the small parsers in this
file, not with `partcat.textio`.

A value is compared in the plain form `(k, l, blocks)`: upper and lower
point counts plus the canonical block-label vector.
"""

from __future__ import annotations

import json
from itertools import product

from partcat import compose_via_dfs, lift_to_levels
from partcat.oracles import enumerate_all, is_noncrossing, is_pair_partition


def canon(labels) -> tuple:
    """Relabel to 1, 2, 3, ... in first-occurrence order."""
    table = {}
    return tuple(table.setdefault(x, len(table) + 1) for x in labels)


def key(p) -> tuple:
    return (p.upper_count, p.lower_count, p.blocks)


# --- closure member sets -------------------------------------------------


def partitions_upto(bound):
    for size in range(bound + 1):
        for k in range(size + 1):
            yield from enumerate_all(k, size - k)


def is_free_unitary(p, upper_colors, lower_colors) -> bool:
    """Noncrossing pair partition whose every block joins one white and one
    black point once the upper colors are inverted (rotated to one row)."""
    if not (is_pair_partition(p) and is_noncrossing(p)):
        return False
    flip = {"w": "b", "b": "w"}
    colors = [flip[c] for c in upper_colors] + list(lower_colors)
    seen = {}
    for label, c in zip(p.blocks, colors):
        seen.setdefault(label, []).append(c)
    return all(sorted(cs) == ["b", "w"] for cs in seen.values())


def expected_members(oracle: str, bound: int) -> set:
    """The exact member set of a closure job, in the form its output parses to."""
    if oracle == "noncrossing":
        return {key(p) for p in partitions_upto(bound) if is_noncrossing(p)}
    if oracle == "all":
        return {key(p) for p in partitions_upto(bound)}
    if oracle == "pair":
        return {key(p) for p in partitions_upto(bound) if is_pair_partition(p)}
    if oracle == "free-unitary":
        out = set()
        for p in partitions_upto(bound):
            if not (is_pair_partition(p) and is_noncrossing(p)):
                continue
            k = p.upper_count
            for colors in product("wb", repeat=p.size):
                uc, lc = "".join(colors[:k]), "".join(colors[k:])
                if is_free_unitary(p, uc, lc):
                    out.add(key(p) + (uc, lc))
        return out
    if oracle == "lifted-noncrossing":
        return {
            (2,) + key(lift_to_levels(p, 2).flattened)
            for p in partitions_upto(bound)
            if is_noncrossing(p)
        }
    raise ValueError(f"unknown oracle {oracle!r}")


def _row(text: str) -> list[int]:
    return [int(x) for x in text.split(",")] if text.strip() else []


def _plain(upper, lower) -> tuple:
    return (len(upper), len(lower), tuple(upper) + tuple(lower))


def parse_cli_output(text: str, variant: str, fmt: str) -> list[tuple]:
    """Read `partcat generate` stdout back into comparable tuples."""
    out = []
    if fmt == "json":
        for obj in json.loads(text):
            value = _plain(obj["upper"], obj["lower"])
            if variant == "colored":
                value += (obj["upper_colors"], obj["lower_colors"])
            elif variant == "spatial":
                value = (obj["levels"],) + value
            out.append(value)
        return out
    for line in text.splitlines():
        if variant == "colored":
            up, lo = line.split("|")
            uc, ul = up.split(":")
            lc, ll = lo.split(":")
            out.append(_plain(_row(ul), _row(ll)) + (uc, lc))
        elif variant == "spatial":
            levels, flat = line.split(";")
            up, lo = flat.split("|")
            out.append((int(levels.removeprefix("m=")),) + _plain(_row(up), _row(lo)))
        else:
            up, lo = line.split("|")
            out.append(_plain(_row(up), _row(lo)))
    return out


def _order_key(value: tuple, variant: str) -> tuple:
    # The documented output order: size, upper count, blocks, then the
    # variant's extra fields (colors), with the level count first for spatial.
    if variant == "spatial":
        m, k, l, blocks = value
        return (m, k + l, k, blocks)
    k, l, blocks = value[:3]
    return (k + l, k, blocks) + value[3:]


def check_members(values: list[tuple], variant: str, expected: set) -> str | None:
    """None when `values` is exactly `expected`, canonical and in output
    order; otherwise a one-line reason."""
    for v in values:
        blocks = v[3] if variant == "spatial" else v[2]
        if blocks != canon(blocks):
            return f"non-canonical member {v}"
    keys = [_order_key(v, variant) for v in values]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return "members not strictly in output order"
    got = set(values)
    if got != expected:
        return f"{len(expected - got)} members missing, {len(got - expected)} unexpected"
    return None


# --- large operations ----------------------------------------------------


def expected_tensor(p, q) -> tuple:
    k1, k2 = p.upper_count, q.upper_count
    shift = max(p.blocks, default=0)
    a, b = p.blocks, [x + shift for x in q.blocks]
    labels = list(a[:k1]) + b[:k2] + list(a[k1:]) + b[k2:]
    return (k1 + k2, p.lower_count + q.lower_count, canon(labels))


def expected_unary(p, op: str, corner: str | None = None) -> tuple:
    k, l = p.upper_count, p.lower_count
    up, lo = list(p.blocks[:k]), list(p.blocks[k:])
    if op == "involution":
        return (l, k, canon(lo + up))
    if op == "reflect":
        return (k, l, canon(up[::-1] + lo[::-1]))
    # rotate: move one end point to the matching end of the other row
    if corner == "top-left":
        up, lo = up[1:], up[:1] + lo
    elif corner == "top-right":
        up, lo = up[:-1], lo + up[-1:]
    elif corner == "bottom-left":
        up, lo = lo[:1] + up, lo[1:]
    else:
        up, lo = up + lo[-1:], lo[:-1]
    return (len(up), len(lo), canon(up + lo))


def expected_word_partition(letters) -> tuple:
    """Kernel of the unreduced involutive expansion: x_n -> a1 a(n+1),
    x_n^-1 -> a(n+1) a1."""
    seq = []
    for gen, exp in letters:
        seq += [1, gen + 1] if exp == 1 else [gen + 1, 1]
    return (0, len(seq), canon(seq))


def compose_oracle(p, q) -> tuple:
    return key(compose_via_dfs(p, q))


def parsed_text(text: str) -> tuple:
    up, lo = text.split("|")
    return _plain(_row(up), _row(lo))


def parsed_json(text: str) -> tuple:
    obj = json.loads(text)
    return _plain(obj["upper"], obj["lower"])
