"""One k3lift CLI invocation under the tracer, for traced cli-audit runs.

Usage: python perfbench/cli_child.py REPORT_JSON SPAWN_MONOTONIC ARGS...

Runs k3lift.cli.main(ARGS) exactly as `python -m k3lift ARGS` would, and
writes to REPORT_JSON the interpreter start-up time (from the parent's
time.monotonic() just before spawning, a system-wide clock), the import
time, the exit code, and the tracer's aggregates and span records.
"""

import time

started = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

clock = time.perf_counter
t0 = clock()
import k3lift.cli  # noqa: E402

import_s = clock() - t0

import tracing  # noqa: E402

tracer = tracing.Tracer()
tracing.install(tracer)
code = k3lift.cli.main(sys.argv[3:])
sys.stdout.flush()
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    json.dump({"interp_s": started - float(sys.argv[2]), "import_s": import_s, "code": code,
               "trace": tracer.snapshot(), "spans": tracer.spans}, handle)
sys.exit(code)
