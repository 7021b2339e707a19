"""Set-up probe: `import k3lift` plus the workload's RingContexts.

Usage: python perfbench/setup_child.py REPS P,N,M [P,N,M ...]

numpy, k3lift's one dependency, is imported first and not timed; the cost
of a cold interpreter with numpy is what cli-audit's ops pay, and on a
host with shared cores it swings by more than half between spells of load.
The modules loaded at that point are kept.  Then, REPS times, every other
module is dropped from sys.modules (k3lift's own and the standard-library
modules it pulls in beyond numpy's, such as fractions, decimal, dataclasses
and json) and `import k3lift` plus the context builds is timed.  Only the
shared libraries of C extension modules stay loaded between timings.
Prints one elapsed time in seconds per line.
"""

import sys
import time

import numpy  # noqa: F401

BASELINE = frozenset(sys.modules)


def main():
    reps = int(sys.argv[1])
    specs = [tuple(int(x) for x in spec.split(",")) for spec in sys.argv[2:]]
    for _ in range(reps):
        for name in [m for m in sys.modules if m not in BASELINE]:
            del sys.modules[name]
        t0 = time.perf_counter()
        import k3lift

        for spec in specs:
            k3lift.RingContext(*spec)
        print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
