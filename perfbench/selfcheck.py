"""Determinism self-check of the traced run.

Usage (from the repository root):

    python3 perfbench/selfcheck.py

For every workload it makes two traced runs on seed 1 and one on seed 2.
The two seed-1 runs must report identical counts (every per-layer metric
whose unit is not a time or a rate); the seed-2 run must report the same
set of metric names; all three runs must report zero failed ops.  Exits 1
on any mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMED_UNITS = {"ms", "s", "1/s"}
SEED, OTHER_SEED = 1, 2


def traced_run(workload, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] not in TIMED_UNITS}


def main():
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import WORKLOADS

    ok = True
    for workload in sorted(WORKLOADS):
        first, second = traced_run(workload, SEED), traced_run(workload, SEED)
        other = traced_run(workload, OTHER_SEED)
        differ = sorted(k for k, v in counts(first).items() if counts(second).get(k) != v)
        same_names = set(first["metrics"]) == set(other["metrics"])
        failed = [r["failed"] for r in (first, second, other)]
        passed = not differ and same_names and not any(failed)
        ok &= passed
        print(f"{workload}: {'ok' if passed else 'MISMATCH'}: {len(counts(first))} counts "
              f"repeat{'' if not differ else ' except ' + ', '.join(differ)}; "
              f"seed {OTHER_SEED} names {'match' if same_names else 'differ'}; "
              f"failed ops {failed}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
