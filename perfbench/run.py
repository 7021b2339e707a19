"""k3lift benchmark: one seeded, single-process, closed-loop workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the run measures the end-to-end metrics: the closed loop
runs whole rounds of ops until S seconds of op time have passed.  With
--trace 1 it runs every generated op once to warm the caches, then once
untraced and once with the per-layer tracer installed, and reports the
per-layer metrics.  Every op's
output is checked; the last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_POINTS = 7
SETUP_REPS = 5
clock = time.perf_counter


def child_env():
    """Children import k3lift from this checkout and cache bytecode, as an
    installed package would, under perfbench/out so that nothing is written
    outside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONPYCACHEPREFIX"] = str(HERE / "out" / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class SetupProbe:
    """`import k3lift` + the workload's context builds, timed in fresh
    interpreters (see setup_child.py).

    The first probe only fills the bytecode cache and is not kept.  The kept
    probes are spread over the run, so their median covers the same spells
    of host load as the ops do.
    """

    def __init__(self, contexts, env):
        self.argv = [sys.executable, str(HERE / "setup_child.py")]
        self.specs = [",".join(map(str, spec)) for spec in contexts]
        self.env = env
        self.points = 0
        self.samples = []
        self._probe(1)

    def _probe(self, reps):
        out = subprocess.run(self.argv + [str(reps)] + self.specs, capture_output=True,
                             text=True, env=self.env, cwd=ROOT, check=True)
        return [float(line) for line in out.stdout.split()]

    def sample(self):
        self.points += 1
        self.samples.extend(self._probe(SETUP_REPS))


def run_op(op, failures):
    """Time one op; check its result outside the timed region."""
    t0 = clock()
    try:
        result = op.run()
    except Exception:  # an op that raises is a failed op; keep measuring
        failures.append(f"{op.kind}: {traceback.format_exc(limit=3)}")
        return clock() - t0, False
    elapsed = clock() - t0
    try:
        ok = bool(op.check(result))
    except Exception:
        failures.append(f"{op.kind} check: {traceback.format_exc(limit=3)}")
        return elapsed, False
    if not ok:
        failures.append(f"{op.kind}: wrong output")
    return elapsed, ok


def closed_loop(rounds, seconds, failures, probe):
    """Whole rounds until `seconds` of op time; returns (times, failed).

    Between rounds, a set-up probe is due at every 1/SETUP_POINTS of the
    run's op time."""
    times, failed, busy, r = [], 0, 0.0, 0
    while busy < seconds:
        if probe.points <= SETUP_POINTS * busy / seconds:
            probe.sample()
        for op in rounds[r % len(rounds)]:
            elapsed, ok = run_op(op, failures)
            times.append(elapsed)
            busy += elapsed
            failed += not ok
        r += 1
    while probe.points < SETUP_POINTS:
        probe.sample()
    return times, failed


def paired_passes(rounds, failures, trace_on, tracer):
    """Every generated op once untraced and once traced, back to back, so
    both see the same spell of host speed; the pair's order alternates from
    op to op.  The tracer numbers the traced ops."""
    plain, traced_times, failed = [], [], 0
    for k, op in enumerate(op for ops in rounds for op in ops):
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            trace_on(on)
            if on:
                tracer.op += 1
            elapsed, ok = run_op(op, failures)
            (traced_times if on else plain).append(elapsed)
            failed += not ok
    trace_on(False)
    return plain, traced_times, failed


def machine():
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(times, setup_s, rss_mb):
    return {
        "ops_per_s": metric(len(times) / sum(times), "1/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def latency(times):
    """Median, and p90 when at least ten ops lie beyond it (>= 100 ops)."""
    ms = [t * 1e3 for t in times]
    out = {"op_ms_p50": statistics.median(ms)}
    if len(ms) >= 100:
        out["op_ms_p90"] = statistics.quantiles(ms, n=10)[8]
    return out


def traced(workload, rounds, launcher, seed):
    """An untimed warm-up pass over every op, then the paired passes."""
    import tracing

    failures = []
    warm = [run_op(op, failures)[1] for ops in rounds for op in ops]
    tracer = tracing.Tracer()
    if launcher is None:
        patches = tracing.install(tracer)

        def trace_on(on):
            tracing.switch(patches, on)
    else:

        def trace_on(on):
            launcher.traced = on
    plain, times, failed = paired_passes(rounds, failures, trace_on, tracer)
    failed += warm.count(False)
    snap = tracer.snapshot()
    cli = dict.fromkeys(("interp_ms", "import_ms", "handler_ms", "emit_ms"), 0.0)
    if launcher:
        # one child per traced op; its spans get the op id and shifted parents
        reports = launcher.child_reports
        snap = {}
        for op_id, report in enumerate(reports, 1):
            tracing.merge(snap, report["trace"])
            offset = len(tracer.spans)
            tracer.spans.extend([op_id, name, start, end, None if up is None else up + offset]
                                for _, name, start, end, up in report["spans"])
        n = len(reports)
        cli = {
            "interp_ms": sum(r["interp_s"] for r in reports) / n * 1e3,
            "import_ms": sum(r["import_s"] for r in reports) / n * 1e3,
            "handler_ms": snap["total_s"].get("cli.handler", 0.0) / n * 1e3,
            "emit_ms": snap["total_s"].get("cli.emit", 0.0) / n * 1e3,
        }
    metrics = tracing.layer_metrics(snap, len(times))
    for key, value in cli.items():
        metrics[f"cli.{key}"] = metric(value, "ms")
    metrics["trace.untraced_ops_per_s"] = metric(len(plain) / sum(plain), "1/s")
    metrics["trace.traced_ops_per_s"] = metric(len(times) / sum(times), "1/s")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{workload.name}-seed{seed}.jsonl", "w",
              encoding="utf-8") as handle:
        for op_id, name, start, end, parent in tracer.spans:
            handle.write(json.dumps({"op": op_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
    return len(warm) + len(plain) + len(times), failed, failures, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "k3lift" / "__init__.py").is_file():
        print(f"benchmark: no k3lift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import k3lift

    if Path(k3lift.__file__).resolve().parent != SRC / "k3lift":
        print(f"benchmark: imported k3lift from {k3lift.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    env = child_env()
    workload = workloads.WORKLOADS[args.workload]()
    launcher = None
    if isinstance(workload, workloads.CliAudit):
        launcher = workload.launcher = workloads.Launcher(str(ROOT), env)
        (HERE / "out").mkdir(exist_ok=True)
    probe = None if args.trace else SetupProbe(workload.contexts, env)
    rounds = workload.rounds(Random(args.seed))

    failures = []
    detail = {"workload": workload.name, "seed": args.seed, "machine": machine()}
    if args.trace:
        attempted, failed, failures, metrics = traced(workload, rounds, launcher, args.seed)
    else:
        times, failed = closed_loop(rounds, args.seconds, failures, probe)
        attempted = len(times)
        who = resource.RUSAGE_CHILDREN if launcher else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss / 1024
        metrics = end_to_end(times, statistics.median(probe.samples), rss_mb)
        detail.update(latency(times), ops=attempted, fail_ratio=failed / attempted,
                      setup_samples_s=probe.samples)
    for line in failures[:5]:
        print(f"benchmark: {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name in ("op_ms_p50", "op_ms_p90"):
        if name in detail:
            print(f"{name} {detail[name]:.6g} ms (not gated)")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
