"""The four benchmark workloads.

A workload turns a seeded Random into a list of rounds.  Each round holds
one op per case of the workload, so every run measures the same mix of
cases; the closed loop in run.py starts an op only when the previous one
has finished and stops after a whole round.  An op is a callable that does
the measured work and a check that judges its result afterwards, outside
the timed region.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

from k3lift import (
    Isometry,
    RingContext,
    canonical_dumps,
    eigen_split,
    hensel_root,
    isotropic_combination,
    phi_invert,
    phi_line,
    phi_map,
    verify_certificate,
)

import check
import inputs
from check import IntRing


class Op:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind, self.run, self.check = kind, run, check


def _contexts(specs):
    return {spec: RingContext(*spec) for spec in specs}


# ---------------------------------------------------------------------------
# certify-k3


class CertifyK3:
    """Build, verify and re-split rank-22, m = 2 certificates of every branch."""

    name = "certify-k3"
    contexts = tuple((p, n, 2) for _, p, n, _ in inputs.CERT_CASES)
    pool = 4

    def rounds(self, rng):
        ctxs = _contexts(self.contexts)
        return [
            [self._op(make(rng, ctxs[(p, n, 2)], order)[0])
             for make, p, n, order in inputs.CERT_CASES]
            for _ in range(self.pool)
        ]

    @staticmethod
    def _op(case):
        ring = IntRing(case.iso.ctx)
        iso = case.iso

        def run():
            cert = case.build()
            report = verify_certificate(cert)
            rejected = verify_certificate(inputs.perturbed(cert, case))
            split = eigen_split(Isometry(iso.lattice, iso.matrix, check=False), iso.order)
            return cert, report, rejected, split, split.verify_identities()

        def ok(result):
            cert, report, rejected, split, identities = result
            return (
                report.valid
                and not rejected.valid
                and any(c["claim"] == "core:eigen-relation" for c in rejected.failures)
                and cert.branch == case.branch
                and cert.eigenvalue == case.expected_eigenvalue
                and check.eigen_isotropic(ring, cert.gram, cert.matrix, cert.generator,
                                          cert.eigenvalue)
                and split.ranks() == iso.ranks()
                and all(identities.values())
            )

        return Op(case.name, run, ok)


# ---------------------------------------------------------------------------
# torelli-k3


class TorelliK3:
    """phi_map, phi_line and phi_invert round trips at rank 22 (d = 20)."""

    name = "torelli-k3"
    contexts = ((5, 4, 1), (7, 4, 1), (5, 4, 2))
    dimension = 20
    pool = 6

    def rounds(self, rng):
        ctxs = _contexts(self.contexts)
        conns = [inputs.connection(rng, ctxs[spec], self.dimension) for spec in self.contexts]
        return [[self._op(conn, inputs.deformation_point(rng, conn)) for conn in conns]
                for _ in range(self.pool)]

    @staticmethod
    def _op(conn, point):
        ctx = conn.ctx
        ring = IntRing(ctx)
        p2 = ctx.p ** 2
        gram = check.mat(conn.frame.lattice.gram)

        def run():
            coords = phi_map(conn, point)
            line = phi_line(conn, point)
            return coords, line, phi_invert(conn, coords)

        def ok(result):
            coords, line, back = result
            gen = check.vec(line.generator)
            return (
                back == point
                and tuple(line.coordinates()) == tuple(coords)
                # first-order law of an adapted connection: phi(pa) = pa mod p^2
                and all(all((x - y) % p2 == 0 for x, y in zip(c.coeffs, e.coeffs))
                        for c, e in zip(coords, point.entries))
                and ring.is_zero(ring.form(gram, gen, gen))
            )

        return Op(f"p{ctx.p}n{ctx.n}m{ctx.m}", run, ok)


# ---------------------------------------------------------------------------
# hensel-witt


class HenselWitt:
    """Scalar-bound work: an isotropic combination plus a Hensel root in each
    of two contexts per op, so every op does the same mix."""

    name = "hensel-witt"
    contexts = ((3, 12, 4), (5, 20, 2))
    rank = 6
    pool = 32

    def rounds(self, rng):
        ctxs = [RingContext(*spec) for spec in self.contexts]
        return [[self._op([(ctx, inputs.isotropic_instance(rng, ctx, self.rank),
                            inputs.simple_root_poly(rng, ctx)) for ctx in ctxs])]
                for _ in range(self.pool)]

    @staticmethod
    def _op(items):
        def run():
            out = []
            for ctx, (lattice, u, v), (coeffs, x0) in items:
                a, w = isotropic_combination(lattice, u, v)
                out.append((a, w, hensel_root(ctx, coeffs, x0)))
            return out

        def ok(result):
            return all(_hensel_ok(item, *res) for item, res in zip(items, result))

        return Op("isotropic+root", run, ok)


def _hensel_ok(item, a, w, x):
    ctx, (lattice, u, v), (coeffs, x0) = item
    ring = IntRing(ctx)
    ww = check.vec(w)
    pa = ring.mul(check.scal(a), (ctx.p,) + (0,) * (ctx.m - 1))
    return (
        ww == [ring.add(s, ring.mul(pa, t)) for s, t in zip(check.vec(u), check.vec(v))]
        and ring.is_zero(ring.form(check.mat(lattice.gram), ww, ww))
        and ring.is_zero(ring.poly_eval([check.scal(c) for c in coeffs], check.scal(x)))
        and all((s - t) % ctx.p == 0 for s, t in zip(x.coeffs, x0.coeffs))
    )


# ---------------------------------------------------------------------------
# cli-audit


class Launcher:
    """Runs `python -m k3lift`, or the traced child when tracing."""

    def __init__(self, root, env):
        self.root, self.env = root, env
        self.traced = False
        self.child_reports = []

    def __call__(self, argv, payload):
        data = canonical_dumps(payload).encode() if payload is not None else b""
        if not self.traced:
            return subprocess.run([sys.executable, "-m", "k3lift", *argv], input=data,
                                  capture_output=True, env=self.env, cwd=self.root,
                                  check=False)
        fd, path = tempfile.mkstemp(suffix=".json", dir=os.path.join(self.root, "perfbench", "out"))
        os.close(fd)
        try:
            child = os.path.join(self.root, "perfbench", "cli_child.py")
            proc = subprocess.run(
                [sys.executable, child, path, repr(time.monotonic()), *argv],
                input=data, capture_output=True, env=self.env, cwd=self.root, check=False)
            with open(path, encoding="utf-8") as handle:
                self.child_reports.append(json.load(handle))
        finally:
            os.unlink(path)
        return proc


class CliAudit:
    """Audit-style use of the CLI: one `python -m k3lift` process per op."""

    name = "cli-audit"
    contexts = tuple((p, n, 2) for _, p, n, _ in inputs.CERT_CASES) + ((5, 3, 1),)
    small = (5, 3, 1)
    pool = 4
    launcher = None  # the Launcher that runs each op, set by run.py

    def rounds(self, rng):
        ctxs = _contexts(self.contexts)
        certs = []
        for make, p, n, order in inputs.CERT_CASES:
            case, raw = make(rng, ctxs[(p, n, 2)], order)
            cert = case.build()
            certs.append((case, raw, cert))
        ctx_iso = ctxs[(5, 4, 2)]
        instance = inputs.isotropic_instance(rng, ctx_iso)
        frame = inputs.standard_frame(rng, ctx_iso, 22)
        small = ctxs[self.small]
        conn = inputs.connection(rng, small, 4)
        rounds = []
        for k in range(self.pool):
            coords = inputs.p_units(rng, ctx_iso, 20)
            point = inputs.deformation_point(rng, conn)
            case, raw, cert = certs[k % 4]
            other_case, _, other_cert = certs[(k + 1) % 4]
            # nine ops, so the median op is one of the three verifies
            rounds.append([
                self._verify(cert),
                self._verify(certs[(k + 2) % 4][2]),
                self._verify_perturbed(other_case, other_cert),
                self._lift_search(case, raw, cert),
                self._eig_split(case),
                self._isotropic(instance),
                self._period(frame, coords),
                self._phi_map(conn, point),
                self._constraints(),
            ])
        return rounds

    def _op(self, kind, argv, payload, ok):
        return Op(kind, lambda: self.launcher(argv, payload), ok)

    @staticmethod
    def _json(proc, code):
        if proc.returncode != code or proc.stderr or not proc.stdout.endswith(b"\n"):
            return None
        return json.loads(proc.stdout)

    def _verify(self, cert):
        expected = canonical_dumps(verify_certificate(cert).to_json()).encode()

        def ok(proc):
            return proc.returncode == 0 and proc.stdout == expected and not proc.stderr

        return self._op("verify", ["verify"], cert.to_json(), ok)

    def _verify_perturbed(self, case, cert):
        bad = inputs.perturbed(cert, case)

        def ok(proc):
            out = self._json(proc, 2)
            return (out is not None and out["valid"] is False
                    and any(c["claim"] == "core:eigen-relation" and not c["ok"]
                            for c in out["checks"]))

        return self._op("verify-perturbed", ["verify"], bad.to_json(), ok)

    def _lift_search(self, case, raw, cert):
        order = case.iso.order
        if case.branch == "finite-height":
            sd, hodge = raw
            payload = {"decomposition": sd.to_json(), "matrix": case.iso.matrix.to_json(),
                       "hodge_line": hodge.to_json(), "order": order}
        else:
            payload = dict(raw.to_json(), order=order)
        expected = canonical_dumps(cert.to_json()).encode()

        def ok(proc):
            return proc.returncode == 0 and proc.stdout == expected and not proc.stderr

        return self._op("lift-search", ["lift-search", "--mode", case.branch], payload, ok)

    def _eig_split(self, case):
        iso = case.iso
        payload = {"lattice": iso.lattice.to_json(), "matrix": iso.matrix.to_json(),
                   "order": iso.order}

        def ok(proc):
            out = self._json(proc, 0)
            return (out is not None and out["ranks"] == iso.ranks()
                    and all(out["identities"].values()) and out["pairing_orthogonality"])

        return self._op("eig-split", ["eig-split"], payload, ok)

    def _isotropic(self, instance):
        lattice, u, v = instance
        ctx = lattice.ring
        ring = IntRing(ctx)
        payload = {"ring": ctx.to_json(), "gram": lattice.gram.to_json(),
                   "u": u.to_json(), "v": v.to_json()}

        def ok(proc):
            out = self._json(proc, 0)
            if out is None:
                return False
            w = check.vec(out["w"])
            pa = ring.mul(tuple(out["a"]), (ctx.p,) + (0,) * (ctx.m - 1))
            return (w == [ring.add(s, ring.mul(pa, t))
                          for s, t in zip(check.vec(u), check.vec(v))]
                    and ring.is_zero(ring.form(check.mat(lattice.gram), w, w))
                    and ring.is_zero(tuple(out["norm"])))

        return self._op("isotropic-lift", ["isotropic-lift"], payload, ok)

    def _period(self, frame, coords):
        ring = IntRing(frame.ctx)
        gram = check.mat(frame.lattice.gram)
        payload = {"frame": frame.to_json(), "coordinates": [c.to_json() for c in coords]}

        def ok(proc):
            out = self._json(proc, 0)
            if out is None:
                return False
            gen = check.vec(out["generator"])
            return (out["conditions"]["valid"] is True
                    and out["coordinates"] == [c.to_json() for c in coords]
                    and ring.is_zero(ring.form(gram, gen, gen)))

        return self._op("period-complete", ["period-complete"], payload, ok)

    def _phi_map(self, conn, point):
        expected = [x.to_json() for x in phi_map(conn, point)]
        payload = {"connection": conn.to_json(), "point": point.to_json()}

        def ok(proc):
            out = self._json(proc, 0)
            return (out is not None and out["coordinates"] == expected
                    and out["line"]["coordinates"] == expected)

        return self._op("phi-map", ["phi-map"], payload, ok)

    def _constraints(self, bound=1000):
        expected = [{"p": q, "phi_p_plus_1": check.totient(q + 1),
                     "exceeds_21": check.totient(q + 1) > 21}
                    for q in check.primes_up_to(bound)]

        def ok(proc):
            out = self._json(proc, 0)
            return out is not None and out["scan"] == expected and out["phi"] == 20

        return self._op("constraints", ["constraints", "--phi", "66", "--scan-phi-bound",
                                        str(bound)], None, ok)


WORKLOADS = {w.name: w for w in (CertifyK3, TorelliK3, HenselWitt, CliAudit)}
