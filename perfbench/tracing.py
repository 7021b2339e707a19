"""Per-layer tracing from outside the package.

install() wraps public callables of k3lift's modules and rebinds every name
in every loaded k3lift module that refers to the original object, so calls
made through `from .linalg import solve` are caught too.  A wrapper is one
of three kinds:

- span: calls, total time and self time (total minus the time of wrapped
  callees); layer-boundary spans are also kept as records
  (op id, name, start, end, parent record) and written out at the end;
- hot span: the same figures, aggregated in place without a record, for
  kernels called hundreds of thousands of times (matmul, matvec, pairing,
  scalar inverse);
- count: calls only, for the hottest scalar method (PadicScalar.__mul__)
  and poly_eval.

A group name (linalg.elim, serialize.load, constraints) is shared by several
callables and counts only the outermost call, so inverse -> solve is one
elimination, not two.

install() returns the list of bindings it changed; switch() turns the
wrappers off (the original objects are bound again) and back on, so the
same ops can be timed with and without them.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

clock = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))

# (outer span, inner name) pairs whose nested calls are counted separately,
# e.g. matvecs made while transport is running.
NESTED = (
    ("torelli.transport", "linalg.matvec"),
    ("torelli.phi_invert", "torelli.phi_map"),
    ("hensel.hensel_root", "hensel.poly_eval"),
)


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.extra = Counter()
        self.active = Counter()
        self.stack = []
        self.spans = []
        self.op = 0
        self._nested = {}
        for outer, inner in NESTED:
            self._nested.setdefault(inner, []).append(outer)

    def _note_nested(self, name):
        for outer in self._nested.get(name, ()):
            if self.active[outer]:
                self.extra[f"{outer}>{name}"] += 1

    def count(self, name, fn):
        calls, note = self.calls, self._note_nested

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            note(name)
            return fn(*args, **kwargs)

        return wrapper

    def span(self, name, fn, keep=True, outermost=False, on_result=None, name_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name_of(args) if name_of else name
            if outermost and tracer.active[label]:
                return fn(*args, **kwargs)
            tracer.calls[label] += 1
            tracer._note_nested(label)
            tracer.active[label] += 1
            record = None
            if keep:
                parent = tracer.stack[-1][2] if tracer.stack else None
                record = len(tracer.spans)
                tracer.spans.append([tracer.op, label, 0.0, 0.0, parent])
            frame = [label, 0.0, record]
            tracer.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.stack.pop()
                tracer.active[label] -= 1
                elapsed = end - start
                tracer.total[label] += elapsed
                tracer.self_time[label] += elapsed - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += elapsed
                if record is not None:
                    tracer.spans[record][2:4] = [start, end]
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "extra": dict(self.extra),
        }


def _callers():
    """k3lift's modules and the benchmark's own, which import names too."""
    for modname, mod in list(sys.modules.items()):
        if (modname == "k3lift" or modname.startswith("k3lift.")
                or os.path.dirname(getattr(mod, "__file__", None) or "") == HERE):
            yield mod


def _bind(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def switch(patches, on):
    """Bind the wrappers (on) or the original objects (off)."""
    for owner, key, original, wrapped in (patches if on else reversed(patches)):
        _bind(owner, key, wrapped if on else original)


def install(tracer):
    """Wrap the layer entry points of every k3lift module; returns the
    (owner, name, original, wrapper) bindings it made."""
    from k3lift import (cli, constraints, hensel, isometry, lattice, lifting, linalg,
                        period, serialize, torelli, witt)

    patches = []

    def patch(owner, key, wrapped):
        original = owner[key] if isinstance(owner, dict) else vars(owner)[key]
        patches.append((owner, key, original, wrapped))
        _bind(owner, key, wrapped)

    def wrap_function(module, attr, make):
        target = getattr(module, attr)
        wrapped = make(target)
        for mod in _callers():
            for key, val in list(vars(mod).items()):
                if val is target:
                    patch(mod, key, wrapped)

    def wrap_method(cls, attr, make):
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        for key, val in list(vars(cls).items()):
            if val is raw:
                patch(cls, key, wrapped)

    span, count = tracer.span, tracer.count

    def hot(name):
        return lambda fn: span(name, fn, keep=False)

    def kept(name, **kw):
        return lambda fn: span(name, fn, **kw)

    # witt
    wrap_method(witt.PadicScalar, "__mul__", lambda fn: count("witt.mul", fn))
    wrap_method(witt.PadicScalar, "inverse", hot("witt.inverse"))
    wrap_method(witt.RingContext, "__init__", hot("witt.context_init"))
    # linalg
    wrap_method(linalg.RingMat, "__matmul__", lambda fn: span(
        "linalg.matmul", fn, keep=False,
        name_of=lambda a: "linalg.matvec" if isinstance(a[1], linalg.RingVec) else "linalg.matmul"))
    for attr in ("solve", "inverse", "kernel", "solve_in_span", "independent_columns",
                 "residue_rank"):
        wrap_function(linalg, attr, kept("linalg.elim", outermost=True))
    # lattice
    wrap_method(lattice.QuadLattice, "pairing", hot("lattice.pairing"))
    # isometry
    wrap_function(isometry, "eigen_split", kept("isometry.eigen_split"))
    wrap_function(isometry, "lift_eigenvector", kept("isometry.lift_eigenvector"))
    wrap_method(isometry.EigenSplit, "verify_identities", kept("isometry.verify_identities"))
    # hensel
    wrap_function(hensel, "poly_eval", lambda fn: count("hensel.poly_eval", fn))
    wrap_function(hensel, "hensel_root", kept("hensel.hensel_root"))
    wrap_function(hensel, "isotropic_combination", kept("hensel.isotropic_combination"))
    # period, torelli
    wrap_function(period, "from_generator", kept("period.from_generator"))
    for attr in ("transport", "phi_map", "phi_line", "phi_invert"):
        wrap_function(torelli, attr, kept(f"torelli.{attr}"))
    # lifting
    for attr, branch in (("lift_finite_height", "finite-height"),
                         ("lift_ss_nonsymplectic", "ss-nonsymplectic"),
                         ("lift_ss_symplectic", "ss-symplectic")):
        wrap_function(lifting, attr, kept(f"lifting.build.{branch}"))

    def on_verify(report):
        tracer.extra["lifting.verify.valid"] += int(report.valid)

    wrap_function(lifting, "verify_certificate", kept("lifting.verify", on_result=on_verify))
    # serialize
    def on_dumps(text):
        tracer.extra["serialize.dumps.bytes"] += len(text.encode())

    wrap_function(serialize, "canonical_dumps", kept("serialize.dumps", on_result=on_dumps))
    for attr in ("load_stream", "scalar_from_json", "vector_from_json", "matrix_from_json",
                 "lattice_from_json", "isometry_from_json", "frame_from_json",
                 "line_from_json", "point_from_json", "connection_from_json"):
        wrap_function(serialize, attr, kept("serialize.load", outermost=True))
    for cls in (witt.RingContext, lifting.LiftingCertificate, lifting.SupersingularInput,
                lifting.SlopeDecomposition, period.PeriodFrame):
        wrap_method(cls, "from_json", kept("serialize.load", outermost=True))
    # constraints
    for attr in ("euler_phi", "is_prime", "primes_up_to", "tameness", "surface_thresholds",
                 "unique_order_check", "phi_bound_scan"):
        wrap_function(constraints, attr, kept("constraints", outermost=True))
    # cli
    for key, fn in list(cli._HANDLERS.items()):
        patch(cli._HANDLERS, key, span("cli.handler", fn))
    wrap_function(cli, "dump_stream", kept("cli.emit"))
    return patches


def merge(into, snap):
    for key in ("calls", "total_s", "self_s", "extra"):
        bucket = into.setdefault(key, {})
        for name, value in snap[key].items():
            bucket[name] = bucket.get(name, 0) + value
    return into


def layer_metrics(snap, ops):
    """The per-layer metrics of BENCHMARK.json from one traced pass."""
    calls = snap.get("calls", {})
    total = snap.get("total_s", {})
    own = snap.get("self_s", {})
    extra = snap.get("extra", {})

    def ms(name):
        return total.get(name, 0.0) * 1e3

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    put("witt.mul.calls", calls.get("witt.mul", 0), "count")
    for name in ("witt.inverse", "witt.context_init", "linalg.matmul", "linalg.matvec",
                 "linalg.elim", "lattice.pairing"):
        put(f"{name}.calls", calls.get(name, 0), "count")
        put(f"{name}.ms", ms(name), "ms")
    for name in ("isometry.eigen_split", "isometry.verify_identities",
                 "isometry.lift_eigenvector"):
        put(f"{name}.ms", ms(name), "ms")
    put("hensel.isotropic_combination.calls", calls.get("hensel.isotropic_combination", 0),
        "count")
    put("hensel.isotropic_combination.self_ms",
        own.get("hensel.isotropic_combination", 0.0) * 1e3, "ms")
    roots = calls.get("hensel.hensel_root", 0)
    put("hensel.hensel_root.calls", roots, "count")
    put("hensel.poly_eval_per_root",
        ratio(extra.get("hensel.hensel_root>hensel.poly_eval", 0), roots), "count/call")
    put("period.from_generator.ms", ms("period.from_generator"), "ms")
    transports = calls.get("torelli.transport", 0)
    put("torelli.transport.calls", transports, "count")
    put("torelli.transport.self_ms", own.get("torelli.transport", 0.0) * 1e3, "ms")
    put("torelli.transport.matvecs_per_call",
        ratio(extra.get("torelli.transport>linalg.matvec", 0), transports), "count/call")
    put("torelli.phi_invert.iterations",
        ratio(extra.get("torelli.phi_invert>torelli.phi_map", 0),
              calls.get("torelli.phi_invert", 0)), "count/call")
    for branch in ("finite-height", "ss-nonsymplectic", "ss-symplectic"):
        put(f"lifting.build.{branch}.ms", ms(f"lifting.build.{branch}"), "ms")
    put("lifting.verify.ms", ms("lifting.verify"), "ms")
    put("lifting.verify.valid_ratio",
        ratio(extra.get("lifting.verify.valid", 0), calls.get("lifting.verify", 0)), "ratio")
    put("serialize.dumps.ms", ms("serialize.dumps"), "ms")
    put("serialize.dumps.bytes", extra.get("serialize.dumps.bytes", 0), "bytes")
    put("serialize.load.ms", ms("serialize.load"), "ms")
    put("constraints.ms", ms("constraints"), "ms")
    put("trace.pass_ops", ops, "count")
    return out
