"""`generate` workload: five `partcat generate` jobs run in process through
`partcat.cli.main`, stdout captured.

Why: the closure engine does almost all the work here and every operation
it calls sees at most 8 points, so this is where an engine change shows,
while the 2^20-point paths never run. Each job's member set has an exact,
independent oracle (see checks.expected_members). Bound 7 is left out: one
{fork} @7 job alone takes about 16 s.

The seed respells the generators (injective relabelling, spacing); the
work done does not depend on it, so the operation counts of a traced run
repeat exactly. The output format is fixed per job, so that both renderers
run and memory use does not depend on the seed.
"""

from __future__ import annotations

import cProfile
import io
import random
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass
from time import perf_counter

from partcat import cli

import checks
from spans import ProfileTotals, Tracer, low_decile


@dataclass(frozen=True)
class Job:
    name: str
    variant: str  # plain, colored or spatial
    bound: int
    generators: tuple[str, ...]
    oracle: str
    format: str


JOBS = (
    # {fork, identity, pair} @6: the 924 run, all noncrossing partitions.
    Job("nc6", "plain", 6, ("1|1,1", "1|1", "|1,1"), "noncrossing", "text"),
    Job("all6", "plain", 6, ("1|1,1", "1,2|2,1"), "all", "json"),
    Job("pair8", "plain", 8, ("1,2|2,1",), "pair", "text"),
    Job("col8", "colored", 8, (), "free-unitary", "json"),
    Job("sp6", "spatial", 6, ("m=2;1,2|1,2,1,2",), "lifted-noncrossing", "text"),
)

_CONSTRUCTORS = {
    "plain": "construct_closure",
    "colored": "construct_colored_closure",
    "spatial": "construct_spatial_closure",
}

# Functions the closure engine calls once per operation it applies.
_ENGINE_OPS = {
    "ops": {"compose", "tensor", "involution", "reflect_vertical", "rotate"},
    "variants": {
        f"{kind}_{op}"
        for kind in ("colored", "spatial")
        for op in ("compose", "tensor", "involution", "reflect", "rotate")
    },
}
_ENGINE_COMPOSES = {"ops": {"compose"}, "variants": {"colored_compose", "spatial_compose"}}


def _respell(text: str, rng: random.Random) -> str:
    """Same partition, other labels and spacing."""
    prefix, _, body = text.rpartition(";")
    rows = [[int(x) for x in row.split(",")] if row else [] for row in body.split("|")]
    labels = sorted({x for row in rows for x in row})
    new = dict(zip(labels, rng.sample(range(1, 100), len(labels))))
    sep = rng.choice((",", ", "))
    body = "|".join(sep.join(str(new[x]) for x in row) for row in rows)
    return f"{prefix};{body}" if prefix else body


class Workload:
    name = "generate"
    setup_repeats = 5
    same_ops_each_pass = True

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.argvs = []
        for job in JOBS:
            argv = ["generate", "--bound", str(job.bound), "--format", job.format]
            if job.variant == "colored":
                argv.append("--colored")
            elif job.variant == "spatial":
                argv += ["--levels", "2"]
            self.argvs.append(argv + [_respell(g, rng) for g in job.generators])
        self._seen = [Counter() for _ in JOBS]

    def setup(self):
        pass

    def _job(self, i: int):
        buf = io.StringIO()
        with redirect_stdout(buf):
            try:
                rc = cli.main(self.argvs[i])
            except Exception as e:  # an unexpected raise is a failed job
                rc = repr(e)
        return rc, buf.getvalue()

    def run_pass(self):
        times, outputs = [], []
        for i in range(len(JOBS)):
            start = perf_counter()
            outputs.append(self._job(i))
            times.append(perf_counter() - start)
        return times, outputs

    def record(self, outputs):
        for seen, out in zip(self._seen, outputs):
            seen[out] += 1

    def finish(self):
        """Check every distinct output against its job's oracle."""
        attempted = failed = 0
        reasons = []
        for job, seen in zip(JOBS, self._seen):
            expected = checks.expected_members(job.oracle, job.bound)
            for (rc, text), n in seen.items():
                attempted += n
                if rc != 0:
                    reason = f"exit status {rc}"
                else:
                    try:
                        values = checks.parse_cli_output(text, job.variant, job.format)
                    except (ValueError, KeyError, TypeError) as e:
                        reason = f"unreadable output: {e!r}"
                    else:
                        reason = checks.check_members(values, job.variant, expected)
                if reason:
                    failed += n
                    reasons.append(f"{job.name}: {reason}")
        return attempted, failed, reasons

    def detail(self, walls, passes):
        per_job = [low_decile(times) for times in zip(*passes)]
        return {
            f"generate_{variant}_s": sum(t for t, job in zip(per_job, JOBS) if job.variant == variant)
            for variant in ("plain", "colored", "spatial")
        }

    def trace(self):
        """Three passes: untraced, with spans around the closure constructors
        and with `cProfile` on. Returns per-layer metrics."""
        start = perf_counter()
        _, outputs = self.run_pass()
        untraced = perf_counter() - start
        self.record(outputs)

        tracer = Tracer()
        saved = {variant: getattr(cli, name) for variant, name in _CONSTRUCTORS.items()}

        def spanned(variant, job):
            def construct(*args, **kwargs):
                return tracer.call(f"closure.construct_{variant}", job,
                                   lambda: saved[variant](*args, **kwargs))
            return construct

        start = perf_counter()
        try:
            for i, job in enumerate(JOBS):
                setattr(cli, _CONSTRUCTORS[job.variant], spanned(job.variant, i))
                job_start = perf_counter()
                out = self._job(i)
                _, last, _, construct_end = tracer.spans[-1] if tracer.spans else (None, None, 0, 0)
                tracer.add("cli.emit", i, construct_end if last == i else job_start, perf_counter())
                self._seen[i][out] += 1
        finally:
            for variant, name in _CONSTRUCTORS.items():
                setattr(cli, name, saved[variant])
        spanned_wall = perf_counter() - start

        profiles = []
        start = perf_counter()
        for i in range(len(JOBS)):
            prof = cProfile.Profile()
            prof.enable()
            try:
                out = self._job(i)
            finally:
                prof.disable()
            profiles.append(prof)
            self._seen[i][out] += 1
        profiled_wall = perf_counter() - start

        p = ProfileTotals(profiles)
        engine_calls = sum(p.calls_from("closure", m, f) for m, f in _ENGINE_OPS.items())
        engine_composes = sum(p.calls_from("closure", m, f) for m, f in _ENGINE_COMPOSES.items())
        per_job = {job.name: ProfileTotals([prof]) for job, prof in zip(JOBS, profiles)}
        members = sum(len(checks.parse_cli_output(text, job.variant, job.format))
                      for job, (_, text) in zip(JOBS, outputs))
        return {
            "ops.compose_calls": p.calls("ops", {"compose"}),
            "ops.compose_calls_nc6": per_job["nc6"].calls("ops", {"compose"}),
            "ops.compose_calls_all6": per_job["all6"].calls("ops", {"compose"}),
            "ops.tensor_calls": p.calls("ops", {"tensor"}),
            "ops.unary_calls": p.calls("ops", {"involution", "reflect_vertical", "rotate"}),
            "variants.compose_calls": p.calls("variants", {"colored_compose", "spatial_compose"}),
            "partition.from_raw_calls": p.calls("partition", {"_from_raw"}),
            "closure.members": members,
            "closure.composes_per_member": engine_composes / members,
            "closure.useful_share": members / engine_calls,
            "ops.compose_self_s": p.self_s("ops", {"compose"}),
            "ops.tensor_self_s": p.self_s("ops", {"tensor"}),
            "ops.unary_self_s": p.self_s("ops", {"involution", "reflect_vertical", "rotate"}),
            "closure.saturate_self_s": p.self_s("closure", {"_saturate", "add"}),
            "partition.self_s": p.self_s("partition"),
            "closure.construct_plain_s": tracer.total_s("closure.construct_plain"),
            "closure.construct_colored_s": tracer.total_s("closure.construct_colored"),
            "closure.construct_spatial_s": tracer.total_s("closure.construct_spatial"),
            "cli.emit_s": tracer.total_s("cli.emit"),
            "trace.overhead_generate_s": spanned_wall - untraced,
            "trace.profile_overhead_generate_s": profiled_wall - untraced,
        }
