"""`bigops` workload: one pipeline of public calls per pass at 2^20 points.

Why: per-point costs in `partition`, `ops`, `textio` and `words` dominate
and `closure` never runs, so this shows whether a small-input fast path or a
representation change costs the large case. It also guards the thin
headroom of the 2-second compose gate at 2^20 points.

The seed draws the two partitions (2^19 upper and 2^19 lower points each,
labels uniform below 2^19), the rotation corner and a free word of 2^19
letters over x1..x8. The unary operations run on the 2^20-point input, not
on the 2^21-point tensor, to keep a pass near 9 s.
"""

from __future__ import annotations

import random
from array import array
from time import perf_counter

from partcat import (
    CORNERS,
    Partition,
    canonical_labels,
    compose,
    involution,
    parse_partition,
    parse_word,
    partition_of_word,
    reflect_vertical,
    render_partition,
    rotate,
    tensor,
)

import checks
from spans import low_decile

N = 1 << 20
N16 = 1 << 16
WORD_LETTERS = 1 << 19

STAGES = (
    "parse_p", "parse_q", "compose", "tensor", "involution", "reflect",
    "rotate", "render_text", "render_json", "parse_word", "embed",
)

_LAYER_OF_STAGE = {
    "compose": "ops.compose_s",
    "tensor": "ops.tensor_s",
    "involution": "ops.involution_s",
    "reflect": "ops.reflect_s",
    "rotate": "ops.rotate_s",
    "render_text": "textio.render_text_s",
    "render_json": "textio.render_json_s",
    "parse_word": "words.parse_word_s",
    "embed": "words.embed_s",
}


class _Failed:
    """Stands in for the result of a stage that raised."""

    def __init__(self, error):
        self.error = repr(error)

    def __repr__(self):
        return f"<raised {self.error}>"


def _labels(rng, n):
    return array("i", rng.choices(range(n // 2), k=n))


def _text(labels):
    h = len(labels) // 2
    return ",".join(map(str, labels[:h])) + "|" + ",".join(map(str, labels[h:]))


class Workload:
    name = "bigops"
    setup_repeats = 5
    same_ops_each_pass = True

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.raw_p, self.raw_q = _labels(rng, N), _labels(rng, N)
        self.text_p, self.text_q = _text(self.raw_p), _text(self.raw_q)
        self.corner = rng.choice(CORNERS)
        self.gens = bytes(rng.choices(range(1, 9), k=WORD_LETTERS))
        self.inverse = bytes(rng.choices((0, 1), k=WORD_LETTERS))
        self.word = " ".join(
            f"x{g}^-1" if inv else f"x{g}" for g, inv in zip(self.gens, self.inverse)
        )
        self.small = (_text(_labels(rng, N16)), _text(_labels(rng, N16)))
        self._first = None
        self._same = dict.fromkeys(STAGES, 0)
        self._differ = dict.fromkeys(STAGES, 0)
        self._n16_ok = None  # set by a traced run

    def setup(self):
        pass

    def run_pass(self):
        steps = (
            ("parse_p", lambda o: parse_partition(self.text_p)),
            ("parse_q", lambda o: parse_partition(self.text_q)),
            ("compose", lambda o: compose(o["parse_p"], o["parse_q"])),
            ("tensor", lambda o: tensor(o["parse_p"], o["parse_q"])),
            ("involution", lambda o: involution(o["parse_p"])),
            ("reflect", lambda o: reflect_vertical(o["parse_p"])),
            ("rotate", lambda o: rotate(o["parse_p"], self.corner)),
            ("render_text", lambda o: render_partition(o["compose"], "text")),
            ("render_json", lambda o: render_partition(o["compose"], "json")),
            ("parse_word", lambda o: parse_word(self.word)),
            ("embed", lambda o: partition_of_word(o["parse_word"])),
        )
        times, out = [], {}
        for name, step in steps:
            start = perf_counter()
            try:
                out[name] = step(out)
            except Exception as e:  # a raising stage is a failed operation
                out[name] = _Failed(e)
            times.append(perf_counter() - start)
        return times, out

    def record(self, out):
        """Keep the first pass for the oracle; later passes must equal it."""
        if self._first is None:
            self._first = out
            return
        for name in STAGES:
            same = type(out[name]) is type(self._first[name]) and out[name] == self._first[name]
            (self._same if same else self._differ)[name] += 1

    def _verdicts(self):
        # Outputs are dropped as soon as they are checked, to keep the
        # oracle's peak memory down.
        first, self._first = self._first, None
        h = N // 2
        ok = {}
        expect_p = Partition(self.raw_p[:h], self.raw_p[h:])
        expect_q = Partition(self.raw_q[:h], self.raw_q[h:])
        ok["parse_p"] = checks.key(expect_p) == (h, h, checks.canon(self.raw_p))
        ok["parse_q"] = checks.key(expect_q) == (h, h, checks.canon(self.raw_q))
        ok["parse_p"] &= first.pop("parse_p") == expect_p
        ok["parse_q"] &= first.pop("parse_q") == expect_q

        def matches(name, expected):
            got = first.pop(name)
            return not isinstance(got, _Failed) and checks.key(got) == expected

        ok["tensor"] = matches("tensor", checks.expected_tensor(expect_p, expect_q))
        ok["involution"] = matches("involution", checks.expected_unary(expect_p, "involution"))
        ok["reflect"] = matches("reflect", checks.expected_unary(expect_p, "reflect"))
        ok["rotate"] = matches("rotate", checks.expected_unary(expect_p, "rotate", self.corner))
        letters = tuple((g, -1 if inv else 1) for g, inv in zip(self.gens, self.inverse))
        ok["parse_word"] = getattr(first.pop("parse_word"), "letters", None) == letters
        ok["embed"] = matches("embed", checks.expected_word_partition(letters))
        del letters

        rendered = first["compose"]
        text, js = first.pop("render_text"), first.pop("render_json")
        if isinstance(rendered, _Failed):
            ok["render_text"] = ok["render_json"] = False
        else:
            ok["render_text"] = (
                isinstance(text, str)
                and checks.parsed_text(text) == checks.key(rendered)
                and parse_partition(text) == rendered
            )
            ok["render_json"] = isinstance(js, str) and checks.parsed_json(js) == checks.key(rendered)
        del rendered, text, js
        # The graph-search oracle is the most memory-hungry step; run it last.
        ok["compose"] = matches("compose", checks.compose_oracle(expect_p, expect_q))
        return ok

    def finish(self):
        ok = self._verdicts()
        attempted = failed = 0
        reasons = []
        for name in STAGES:
            n = 1 + self._same[name] + self._differ[name]
            attempted += n
            bad = self._differ[name] + (0 if ok[name] else 1 + self._same[name])
            failed += bad
            if bad:
                reasons.append(f"{name}: {bad} of {n} outputs wrong")
        if self._n16_ok is not None:
            attempted += 1
            if not self._n16_ok:
                failed += 1
                reasons.append("compose at 2^16 points wrong")
        return attempted, failed, reasons

    def detail(self, walls, passes):
        return {"pipeline_s": sum(low_decile(times) for times in zip(*passes))}

    def trace(self):
        """An untraced and a traced pass; the traced one also times the
        constructor, `canonical_labels` and a 2^16-point compose."""
        start = perf_counter()
        _, out = self.run_pass()
        untraced = perf_counter() - start
        self.record(out)
        del out
        start = perf_counter()
        times, out = self.run_pass()
        traced = perf_counter() - start
        self.record(out)
        del out
        metrics = {"trace.overhead_bigops_s": traced - untraced}
        stage = dict(zip(STAGES, times))
        metrics["textio.parse_s"] = stage["parse_p"] + stage["parse_q"]
        for name, metric in _LAYER_OF_STAGE.items():
            metrics[metric] = stage[name]

        h = N // 2
        upper, lower, flat = self.raw_p[:h].tolist(), self.raw_p[h:].tolist(), self.raw_p.tolist()
        start = perf_counter()
        Partition(upper, lower)
        metrics["partition.ctor_s"] = perf_counter() - start
        start = perf_counter()
        canonical_labels(flat)
        metrics["partition.canonical_labels_s"] = perf_counter() - start
        del upper, lower, flat
        p16, q16 = (parse_partition(t) for t in self.small)
        start = perf_counter()
        c16 = compose(p16, q16)
        metrics["ops.compose_n16_s"] = perf_counter() - start
        self._n16_ok = checks.key(c16) == checks.compose_oracle(p16, q16)
        return metrics
