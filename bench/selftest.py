"""Self-test of the benchmark's checks: plant a wrong answer, confirm it is
counted as failed.

    python3 bench/selftest.py

Each case runs one short workload with `run.py --plant`, in a child
process, and requires `failed > 0` and `correct == false`:

- missing-member  (generate)  every member list loses its last member
- swapped-labels  (bigops)    compose returns its output with two labels swapped
- silent-bound    (query)     an over-bound shape query returns no members
                              instead of raising BoundError

Exits 0 when every planted fault was caught.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
CASES = (
    ("missing-member", "generate"),
    ("swapped-labels", "bigops"),
    ("silent-bound", "query"),
)


def main() -> int:
    missed = 0
    for fault, workload in CASES:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
             "--seconds", "1", "--plant", fault],
            capture_output=True, text=True, timeout=600,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        caught = result["failed"] > 0 and not result["correct"]
        missed += not caught
        share = result["failed"] / result["attempted"]
        print(f"{fault:15s} {workload:9s} failed {result['failed']}/{result['attempted']} "
              f"(fail_share {share:.4f}): {'caught' if caught else 'MISSED'}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
