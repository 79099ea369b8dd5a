"""partcat benchmark: oracle-checked `generate`, `bigops` and `query` workloads.

    python3 bench/run.py --workload generate --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the package is imported from `src/`.
A run makes its inputs from `--seed`, does the workload's set-up several
times, runs passes of the workload for about `--seconds`, and then checks
every output against an independent oracle, outside the timed region (see
checks.py).

Output: an environment line, a detail line with the workload's own
figures, and as the last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`. `failed / attempted` is the share of operations
whose output failed its oracle check or raised unexpectedly.

With `--trace 0` the metrics are the end-to-end ones:

- setup_s      median over set-ups of the `partcat` import, timed in a fresh
               interpreter, plus the library work done once before timing
- peak_rss_mb  peak resident memory, read before the oracle checks run
- pass_s       wall time of one pass, as a low percentile over the run's
               passes (see spans.low_decile and pass_time)

With `--trace 1` the metrics are the per-layer ones, measured by one
traced pass of every workload (the named one first), so each layer is
measured on the workload that exercises it. `cProfile` (generate only)
inflates times but its call counts are exact; the `trace.*overhead*`
metrics are traced minus untraced wall time of the same work.

`--plant` injects a known wrong answer, for the self-test (selftest.py).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import low_decile, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import partcat, partcat.cli; print(time.perf_counter() - t)"
)


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "partcat").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "loadavg": os.getloadavg(),
    }


def import_seconds() -> float:
    """The package import, timed inside a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def timed_setup(workload) -> float:
    times = []
    for _ in range(workload.setup_repeats):
        imported = import_seconds()
        start = perf_counter()
        workload.setup()
        times.append(imported + perf_counter() - start)
    return statistics.median(times)


def measure(workload, seconds: float):
    """At least two passes, and more while the next one fits in `seconds`.

    Returns each pass's wall time and either its operation latencies, when
    every pass repeats the same operations, or else their (median, p99,
    count), so that memory use does not grow with the number of passes.
    """
    walls, passes = [], []
    began = perf_counter()
    while len(walls) < 2 or perf_counter() - began + walls[-1] <= seconds:
        gc.collect()
        start = perf_counter()
        op_times, outputs = workload.run_pass()
        walls.append(perf_counter() - start)
        if not workload.same_ops_each_pass:
            op_times.sort()
            op_times = (statistics.median(op_times), percentile(op_times, 99), len(op_times))
        passes.append(op_times)
        workload.record(outputs)
        del outputs
    return walls, passes


def pass_time(workload, walls, passes) -> float:
    """One pass's wall time, robust to bursts of interference.

    Where every pass repeats the same operations, it is the sum over
    operations of each one's low decile over passes, so that a burst spoils
    one sample of one operation rather than a whole pass. Otherwise it is
    the low decile of the pass wall times.
    """
    if workload.same_ops_each_pass:
        return sum(low_decile(times) for times in zip(*passes))
    return low_decile(walls)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def plant(fault: str, modules: dict):
    """Make the package give one known wrong answer (self-test only)."""
    from partcat import Partition, closure

    if fault == "missing-member":
        sorted_members = closure.ClosureSet.sorted_members
        closure.ClosureSet.sorted_members = lambda self: sorted_members(self)[:-1]
    elif fault == "swapped-labels":
        compose = modules["bigops"].compose

        def swapped(p, q):
            r = compose(p, q)
            b = list(r.blocks)
            i = next(i for i in range(1, len(b)) if b[i] != b[0])
            b[0], b[i] = b[i], b[0]
            return Partition(b[: r.upper_count], b[r.upper_count:])

        modules["bigops"].compose = swapped
    elif fault == "silent-bound":
        members_of_shape = closure.ClosureSet.members_of_shape

        def unchecked(self, k, l):
            if k + l > self.bound:
                return set()
            return members_of_shape(self, k, l)

        closure.ClosureSet.members_of_shape = unchecked
    else:
        raise ValueError(f"unknown fault {fault!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("generate", "bigops", "query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", choices=("missing-member", "swapped-labels", "silent-bound"))
    args = parser.parse_args(argv)

    if not (SRC / "partcat" / "__init__.py").is_file():
        print(f"error: no partcat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bigops
    import generate
    import query

    modules = {"generate": generate, "bigops": bigops, "query": query}
    print(json.dumps({"environment": environment(args.seed)}), flush=True)

    if args.trace:
        order = [args.workload] + [w for w in modules if w != args.workload]
        metrics, attempted, failed, reasons = {}, 0, 0, []
        for name in order:
            workload = modules[name].Workload(args.seed)
            gc.collect()
            metrics.update(workload.trace())
            a, f, r = workload.finish()
            attempted, failed, reasons = attempted + a, failed + f, reasons + r
            del workload
        result_metrics = metrics
        note = "cProfile inflates the *_self_s times; its call counts are exact"
        print(json.dumps({"trace": {"workloads": order, "note": note}}), flush=True)
    else:
        workload = modules[args.workload].Workload(args.seed)
        setup_s = timed_setup(workload)
        if args.plant:
            plant(args.plant, modules)
        walls, passes = measure(workload, args.seconds)
        rss = peak_rss_mb()
        attempted, failed, reasons = workload.finish()
        result_metrics = {"setup_s": setup_s, "peak_rss_mb": rss, "pass_s": pass_time(workload, walls, passes)}
        detail = workload.detail(walls, passes)
        detail.update(passes=len(walls), fail_share=failed / attempted)
        print(json.dumps({"detail": detail}), flush=True)

    for reason in reasons:
        print(f"check failed: {reason}", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in wanted} != set(result_metrics):
        raise RuntimeError("measured metrics differ from those BENCHMARK.json lists")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": result_metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
