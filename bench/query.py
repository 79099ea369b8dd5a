"""`query` workload: one closed-loop client sends small requests back to back
to the {fork, identity, pair} @6 closure, which set-up builds once.

Why: this is the read side of the closure layer. A lookup costs about
10 us, while `members_of_shape` scans every member (about 300 us), so an
index built at construction would show here (and in `setup_s` and
`generate`), as would an engine change to the member representation.

The seed draws 60,000 requests, mixed about 60% `parse_partition` then
`contains_within_bound`, 25% `parse_word` then `partition_of_word` then
`contains_within_bound`, 12% `members_of_shape(k, l)` and 3% over-bound
queries that must raise `BoundError`. A pass sends the next 2,000 of them,
wrapping around. Answers are checked after each pass against
`is_noncrossing` and the enumerated noncrossing set of each shape.
"""

from __future__ import annotations

import random
from time import perf_counter, perf_counter_ns

from partcat import (
    BoundError,
    IDENTITY,
    PAIR,
    Partition,
    construct_closure,
    enumerate_all,
    is_noncrossing,
    parse_partition,
    parse_word,
    partition_of_word,
)

import checks
from spans import Tracer, low_decile

BOUND = 6
REQUESTS = 60_000
PASS_REQUESTS = 2_000
TRACE_REQUESTS = 20_000

CONTAINS, WORD, SHAPE, REJECT_CONTAINS, REJECT_SHAPE = range(5)
_KIND_NAMES = {CONTAINS: "contains", WORD: "word", SHAPE: "shape",
               REJECT_CONTAINS: "reject", REJECT_SHAPE: "reject"}
REJECTED = "BoundError"


def _direct(name, trace_id, fn, *args):
    return fn(*args)


def _random_text(rng, size):
    k = rng.randint(0, size)
    labels = [rng.randint(1, size) for _ in range(size)]
    spelled = dict(zip(range(1, size + 1), rng.sample(range(1, 50), size)))
    row = lambda xs: ",".join(str(spelled[x]) for x in xs)
    return row(labels[:k]) + "|" + row(labels[k:]), (k, size - k, checks.canon(labels))


class Workload:
    name = "query"
    setup_repeats = 5
    same_ops_each_pass = False

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self._nc = {}
        self._shapes = {}
        self.requests = [self._request(rng) for _ in range(REQUESTS)]
        self.cursor = 0
        self.closure = None
        self.attempted = self.failed = 0
        self.reasons = []

    def _noncrossing(self, value):
        if value not in self._nc:
            k, l, blocks = value
            self._nc[value] = is_noncrossing(Partition(blocks[:k], blocks[k:]))
        return self._nc[value]

    def _request(self, rng):
        """(kind, argument, argument, expected answer)"""
        r = rng.random()
        if r < 0.60:
            text, value = _random_text(rng, rng.randint(1, BOUND))
            return CONTAINS, text, None, self._noncrossing(value)
        if r < 0.85:
            letters = [(rng.randint(1, 4), rng.choice((1, -1))) for _ in range(rng.randint(1, BOUND // 2))]
            text = " ".join(f"x{g}" if e == 1 else f"x{g}^-1" for g, e in letters)
            return WORD, text, None, self._noncrossing(checks.expected_word_partition(letters))
        if r < 0.97:
            k = rng.randint(0, BOUND)
            l = rng.randint(0, BOUND - k)
            if (k, l) not in self._shapes:
                self._shapes[k, l] = {checks.key(p) for p in enumerate_all(k, l) if is_noncrossing(p)}
            return SHAPE, k, l, (k, l)
        if r < 0.985:
            return REJECT_CONTAINS, _random_text(rng, rng.randint(BOUND + 1, BOUND + 2))[0], None, REJECTED
        k = rng.randint(0, BOUND + 2)
        return REJECT_SHAPE, k, BOUND + 2 - k, REJECTED

    def setup(self):
        fork = parse_partition("1|1,1")
        self.closure = construct_closure([fork, IDENTITY, PAIR], BOUND)

    def run_pass(self, count=PASS_REQUESTS, tracer=None):
        """Send the next `count` requests; returns (latencies in s, answers)."""
        call = tracer.call if tracer else _direct
        cs = self.closure
        reqs = self.requests
        latencies, answers = [], []
        start_index = self.cursor
        for i in range(start_index, start_index + count):
            kind, a, b, _ = reqs[i % REQUESTS]
            start = perf_counter_ns()
            try:
                if kind == CONTAINS:
                    p = call("textio.parse", i, parse_partition, a)
                    answer = call("closure.contains", i, cs.contains_within_bound, p)
                elif kind == WORD:
                    p = call("words.embed", i, lambda: partition_of_word(parse_word(a)))
                    answer = call("closure.contains", i, cs.contains_within_bound, p)
                elif kind == SHAPE:
                    answer = call("closure.shape", i, cs.members_of_shape, a, b)
                elif kind == REJECT_CONTAINS:
                    answer = call("closure.reject", i, lambda: cs.contains_within_bound(parse_partition(a)))
                else:
                    answer = call("closure.reject", i, cs.members_of_shape, a, b)
            except BoundError:
                answer = REJECTED
            except Exception as e:  # an unexpected raise is a failed request
                answer = repr(e)
            latencies.append((perf_counter_ns() - start) * 1e-9)
            answers.append(answer)
        self.cursor = (start_index + count) % REQUESTS
        return latencies, (start_index, answers)

    def record(self, outputs):
        start_index, answers = outputs
        for i, answer in enumerate(answers, start_index):
            kind, _, _, expected = self.requests[i % REQUESTS]
            if kind == SHAPE:
                ok = isinstance(answer, set) and {checks.key(p) for p in answer} == self._shapes[expected]
            else:
                ok = answer == expected and type(answer) is type(expected)
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.reasons) < 5:
                    self.reasons.append(f"request {i % REQUESTS} ({_KIND_NAMES[kind]}): got {answer!r:.80}")

    def finish(self):
        return self.attempted, self.failed, self.reasons

    def detail(self, walls, passes):
        requests = sum(n for _, _, n in passes)
        return {
            "query_p50_us": low_decile(p50 for p50, _, _ in passes) * 1e6,
            "query_p99_us": low_decile(p99 for _, p99, _ in passes) * 1e6,
            "query_samples": requests,
            "query_per_s": requests / sum(walls),
        }

    def trace(self):
        """The closure build as a span, then the same requests untraced,
        with a span around each call into a layer, and untraced again."""
        tracer = Tracer()
        tracer.call("closure.build", -1, self.setup)
        cursor = self.cursor
        walls = []
        for pass_tracer in (None, tracer, None):
            self.cursor = cursor
            start = perf_counter()
            _, outputs = self.run_pass(TRACE_REQUESTS, pass_tracer)
            walls.append(perf_counter() - start)
            self.record(outputs)
        untraced = (walls[0] + walls[2]) / 2
        kinds = [self.requests[i % REQUESTS][0] for i in range(cursor, cursor + TRACE_REQUESTS)]
        return {
            "textio.parse_us": tracer.p50_us("textio.parse"),
            "closure.contains_us": tracer.p50_us("closure.contains"),
            "words.embed_us": tracer.p50_us("words.embed"),
            "closure.shape_us": tracer.p50_us("closure.shape"),
            "closure.reject_us": tracer.p50_us("closure.reject"),
            "query.contains_n": kinds.count(CONTAINS),
            "query.word_n": kinds.count(WORD),
            "query.shape_n": kinds.count(SHAPE),
            "query.reject_n": kinds.count(REJECT_CONTAINS) + kinds.count(REJECT_SHAPE),
            "closure.build_s": tracer.total_s("closure.build"),
            "trace.overhead_query_s": walls[1] - untraced,
        }
