"""Acceptance suite: one test per contract criterion, each printing a verdict line.

Criteria:
  1. eigenspace splitting on >= 200 random tame isometries (< 30 s)
  2. Hensel isotropic correction vs an exhaustive mod-p oracle
  3. period-domain coordinates <-> line bijection round trips
  4. local Torelli map and its Newton inverse
  5. liftability certificates for all branches, plus perturbation rejection
  6. arithmetic constraint gates (< 5 s)
  7. CLI determinism: byte-identical output across repeated runs, matching
     pinned sha256 digests
"""

import hashlib
import json
import subprocess
import sys
import time
from math import gcd
from random import Random

from k3lift import (
    DeformationPoint,
    PeriodFrame,
    QuadLattice,
    RingContext,
    RingMat,
    RingVec,
    SlopeDecomposition,
    SupersingularInput,
    UNIQUENESS_ORDERS,
    canonical_dumps,
    check_conditions,
    complete_period_line,
    eigen_split,
    euler_phi,
    from_generator,
    isotropic_combination,
    lift_finite_height,
    lift_ss_nonsymplectic,
    lift_ss_symplectic,
    phi_bound_scan,
    phi_invert,
    phi_line,
    phi_map,
    primes_up_to,
    random_connection,
    random_deformation_point,
    random_isotropic_instance,
    random_period_coordinates,
    random_period_frame,
    random_scalar,
    random_tame_isometry,
    surface_thresholds,
    tameness,
    unique_order_check,
    verify_certificate,
)
from k3lift.lifting import LiftingCertificate


def verdict(number: int, detail: str) -> None:
    print(f"[criterion {number}] PASS: {detail}")


# -- criterion 1: eigenspace splitting ------------------------------------------

# (order, residue degree) pairs per prime, every degree minimal for the order
ORDER_SCHEDULE = {
    3: [(1, 1), (2, 1), (4, 2), (5, 4), (8, 2), (10, 4)],
    5: [(1, 1), (2, 1), (3, 2), (4, 1), (6, 2), (8, 2), (12, 2)],
    7: [(1, 1), (2, 1), (3, 1), (4, 2), (5, 4), (6, 1), (8, 2), (9, 3), (10, 4), (12, 2)],
    13: [(1, 1), (2, 1), (3, 1), (4, 1), (5, 4), (6, 1), (7, 2), (8, 2), (9, 3), (10, 4), (12, 1)],
}


def test_criterion_1_eigenspace_suite():
    start = time.perf_counter()
    rng = Random(10)
    count = failures = 0
    for p, pairs in ORDER_SCHEDULE.items():
        for order, degree in pairs:
            for _ in range(6):
                ctx = RingContext(p, rng.randint(1, 4), degree)
                rank = rng.randint(2, 8)
                iso = random_tame_isometry(rng, ctx, rank, order)
                split = eigen_split(iso, order)
                reduced = eigen_split(iso.reduce_mod_p(), order)
                ok = (
                    iso.verify()
                    and all(split.verify_identities().values())
                    and split.pairing_orthogonality()
                    and sum(split.ranks()) == rank
                    and all(
                        split.components[i].projector.reduce_mod_p()
                        == reduced.components[i].projector
                        for i in range(order)
                    )
                )
                count += 1
                failures += 0 if ok else 1
    elapsed = time.perf_counter() - start
    assert count >= 200
    assert failures == 0
    assert elapsed < 30.0
    verdict(1, f"{count} tame isometries split, 0 failures, {elapsed:.1f}s")


# -- criterion 2: Hensel isotropic correction ------------------------------------


def test_criterion_2_isotropic_suite():
    checked = 0
    for p in (3, 5, 7):
        ctx = RingContext(p, 2, 1)
        for s in range(p):
            for t in range(1, p):
                for vv in range(p * p):
                    lat = QuadLattice(ctx, [[p * s, t], [t, vv]])
                    u = RingVec.basis_vector(ctx, 2, 0)
                    v = RingVec.basis_vector(ctx, 2, 1)
                    a, w = isotropic_combination(lat, u, v)
                    assert lat.norm(w).is_zero()
                    # oracle: w = u + p*alpha*v is isotropic mod p^2 exactly
                    # when s + 2*alpha*t = 0 mod p, a single root mod p
                    roots = [
                        alpha for alpha in range(p) if (s + 2 * alpha * t) % p == 0
                    ]
                    assert len(roots) == 1
                    assert a.centered() % p == roots[0] % p
                    checked += 1
    rng = Random(20)
    for i in range(100):
        p = (3, 5, 7)[i % 3]
        ctx = RingContext(p, 6, 1)
        lat, u, v = random_isotropic_instance(rng, ctx, 6)
        a, w = isotropic_combination(lat, u, v)
        norm = lat.norm(w)
        assert norm.is_zero() and norm.valuation() == 6
        assert (w - u - v.scale(ctx.scalar(ctx.p) * a)).is_zero()
    verdict(2, f"{checked} exhaustive precision-2 instances + 100 random at n=6")


# -- criterion 3: period-domain bijection -----------------------------------------


def test_criterion_3_period_round_trips():
    rng = Random(30)
    primes = (3, 5, 7, 13)
    trips = 0
    for i in range(100):
        rank = (4, 6, 22)[i % 3]
        ctx = RingContext(primes[i % 4], rng.randint(1, 4), 1)
        frame = random_period_frame(rng, ctx, rank)
        coords = random_period_coordinates(rng, frame)
        line = complete_period_line(frame, coords)
        assert list(line.coordinates()) == coords
        assert from_generator(frame, line.generator) == line
        assert check_conditions(line)["valid"]
        trips += 1
    # uniqueness of the last coordinate, exhaustively mod 9 at p = 3
    ctx = RingContext(3, 2, 1)
    frame = PeriodFrame(
        QuadLattice(ctx, [[0, 0, 0, 1], [0, 2, 0, 0], [0, 0, 2, 0], [1, 0, 0, 0]])
    )
    for a2 in (0, 3, 6):
        for a3 in (0, 3, 6):
            coords = [ctx.scalar(a2), ctx.scalar(a3)]
            line = complete_period_line(frame, coords)
            sols = [
                a
                for a in range(9)
                if frame.lattice.norm(
                    RingVec.from_entries(ctx, [1, a2, a3, a])
                ).is_zero()
            ]
            assert sols == [line.last.centered() % 9]
    # the worked completion at n = 3: coordinates (3, 0) force a_4 = 18
    ctx3 = RingContext(3, 3, 1)
    frame3 = PeriodFrame(
        QuadLattice(ctx3, [[0, 0, 0, 1], [0, 2, 0, 0], [0, 0, 2, 0], [1, 0, 0, 0]])
    )
    worked = complete_period_line(frame3, [ctx3.scalar(3), ctx3.scalar(0)])
    assert worked.last == ctx3.scalar(18)
    verdict(3, f"{trips} coordinate round trips (ranks 4/6/22) + a_r uniqueness mod 9")


# -- criterion 4: local Torelli ---------------------------------------------------


def test_criterion_4_local_torelli():
    rng = Random(40)
    trips = 0
    for i in range(50):
        d = (1, 2, 3)[i % 3]
        ctx = RingContext((3, 5)[i % 2], 3, 1)
        conn = random_connection(rng, ctx, d)
        point = random_deformation_point(rng, conn)
        image = phi_map(conn, point)
        # first-order law: each coordinate agrees with the parameter mod p^2
        for h, e in zip(image, point.entries):
            assert (h - e).valuation() >= 2
        line = phi_line(conn, point)
        assert (line.generator.entry(0) - ctx.one()).valuation() >= 2
        back = phi_invert(conn, image, max_iterations=ctx.n)
        assert list(back.entries) == list(point.entries)
        # reverse direction: invert a fresh target, then map forward
        target = [
            ctx.scalar(ctx.p) * ctx.scalar(rng.randrange(ctx.pn)) for _ in range(d)
        ]
        pre = phi_invert(conn, target, max_iterations=ctx.n)
        assert list(phi_map(conn, pre)) == list(target)
        trips += 1
    verdict(4, f"{trips} Newton round trips in both directions, <= n iterations")


def test_criterion_4_local_torelli_at_k3_rank():
    # the K3 size: rank 22, d = 20 parameters, in both residue degrees
    rng = Random(4020)
    trips = 0
    for spec in ((5, 4, 1), (5, 4, 2)):
        ctx = RingContext(*spec)
        conn = random_connection(rng, ctx, 20)
        for _ in range(2):
            point = random_deformation_point(rng, conn)
            image = phi_map(conn, point)
            for h, e in zip(image, point.entries):
                assert (h - e).valuation() >= 2
            assert tuple(phi_line(conn, point).coordinates()) == image
            assert phi_invert(conn, image, max_iterations=ctx.n) == point
            target = [ctx.scalar(ctx.p) * random_scalar(rng, ctx) for _ in range(20)]
            pre = phi_invert(conn, target, max_iterations=ctx.n)
            assert list(phi_map(conn, pre)) == target
            trips += 1
    verdict(4, f"{trips} Newton round trips in both directions at d = 20, m = 1 and 2")


# -- criterion 5: liftability certificates ------------------------------------------


def _u_lattice(ctx, corner):
    return QuadLattice(ctx, [[corner, 1], [1, 0]])


def _hodge(ctx, rank, index):
    return RingVec.basis_vector(ctx.residue_context(), rank, index)


def _finite_height_certs():
    certs = []
    # identity, order 1
    ctx = RingContext(5, 3, 1)
    lat = QuadLattice(ctx, [[0, 1], [1, 0]])
    sd = SlopeDecomposition(lat, [[1, 0]], [], [[0, 1]])
    certs.append(lift_finite_height(sd, RingMat.identity(ctx, 2), 1, _hodge(ctx, 2, 1)))
    # minus identity, order 2
    certs.append(
        lift_finite_height(sd, RingMat.identity(ctx, 2).scale(ctx.scalar(-1)), 2, _hodge(ctx, 2, 1))
    )
    # order 3 with a rotating middle piece
    ctx7 = RingContext(7, 2, 1)
    lat7 = QuadLattice(
        ctx7, [[0, 0, 0, 1], [0, 2, -1, 0], [0, -1, 2, 0], [1, 0, 0, 0]]
    )
    sd7 = SlopeDecomposition(lat7, [[1, 0, 0, 0]], [[0, 1, 0, 0], [0, 0, 1, 0]], [[0, 0, 0, 1]])
    zeta = ctx7.teichmuller(4)
    zim = zeta.inverse()
    rows = [
        [zim, ctx7.zero(), ctx7.zero(), ctx7.zero()],
        [ctx7.zero(), ctx7.zero(), -ctx7.one(), ctx7.zero()],
        [ctx7.zero(), ctx7.one(), -ctx7.one(), ctx7.zero()],
        [ctx7.zero(), ctx7.zero(), ctx7.zero(), zeta],
    ]
    certs.append(lift_finite_height(sd7, RingMat.from_rows(ctx7, rows), 3, _hodge(ctx7, 4, 3)))
    return certs


def _nonsymplectic_minus_one_certs():
    certs = []
    for p, n in ((3, 3), (5, 3), (7, 2)):
        ctx = RingContext(p, n, 1)
        lat = _u_lattice(ctx, p)
        minus = RingMat.identity(ctx, 2).scale(ctx.scalar(-1))
        certs.append(lift_ss_nonsymplectic(SupersingularInput(lat, minus, [1, 0]), 2))
    return certs


def _nonsymplectic_higher_certs():
    certs = []
    for p, n, order, residue in ((5, 3, 4, 2), (7, 2, 3, 4), (13, 2, 4, 5)):
        ctx = RingContext(p, n, 1)
        lat = QuadLattice(ctx, [[0, 1], [1, 0]])
        t = ctx.teichmuller(residue)
        rows = [[t, ctx.zero()], [ctx.zero(), t.inverse()]]
        inp = SupersingularInput(lat, RingMat.from_rows(ctx, rows), [1, 0])
        certs.append(lift_ss_nonsymplectic(inp, order))
    return certs


def _symplectic_certs():
    certs = []
    for p, cc in ((3, 1), (3, 3), (5, 1), (5, 5)):
        ctx = RingContext(p, 3, 1)
        gram = [[p, 1, 0, 0], [1, 0, 0, 0], [0, 0, cc, 1], [0, 0, 1, 0]]
        lat = QuadLattice(ctx, gram)
        inp = SupersingularInput(
            lat, RingMat.identity(ctx, 4), [1, 0, 0, 0], ample=[0, 0, 1, 0]
        )
        certs.append(lift_ss_symplectic(inp, 1))
    return certs


# sha256 of the canonical JSON list of the four _symplectic_certs
# certificates, which cover both branches at p = 3 and p = 5
SYMPLECTIC_CORPUS_DIGEST = (
    "a6227fabdb0a3c33a55b2be04bd18a7af073dd6d319910f10f790acfcb1841f2"
)


def test_criterion_5_symplectic_certificate_bytes():
    doc = canonical_dumps([cert.to_json() for cert in _symplectic_certs()])
    assert hashlib.sha256(doc.encode()).hexdigest() == SYMPLECTIC_CORPUS_DIGEST


def _breaking_perturbation(rng, cert):
    """Random mod-p vector that shifts the generator off its certified line.

    Generators are normalized with leading coefficient 1 and p-divisible
    tail, so a p^{n-1} bump along the generator itself is a unit rescaling
    of the same line and rightly still verifies.  A perturbation breaks the
    certificate exactly when, modulo p, it fails the eigen relation or
    pairs against the generator with a unit (breaking isotropy), so draw
    until one of those holds.
    """
    ctx = cert.ctx
    rank = cert.matrix.rows
    lat = cert.lattice()
    while True:
        u = RingVec.from_entries(
            ctx, [rng.randrange(ctx.p) for _ in range(rank)]
        )
        if u.is_zero():
            continue
        eigen_broken = ((cert.matrix @ u) - u.scale(cert.eigenvalue)).valuation() == 0
        pairing_unit = lat.pairing(cert.generator, u).is_unit()
        if eigen_broken or pairing_unit:
            return u


def test_criterion_5_certificate_corpus():
    rng = Random(50)
    corpus = (
        _finite_height_certs()
        + _nonsymplectic_minus_one_certs()
        + _nonsymplectic_higher_certs()
        + _symplectic_certs()
    )
    assert len(corpus) >= 12
    branches = {c.branch for c in corpus}
    assert len(branches) == 3
    rejected = 0
    for cert in corpus:
        assert verify_certificate(cert).valid
        ctx = cert.ctx
        bump = ctx.scalar(ctx.p ** (ctx.n - 1))
        for _ in range(3):
            u = _breaking_perturbation(rng, cert)
            perturbed = LiftingCertificate(
                ctx,
                cert.branch,
                cert.order,
                cert.gram,
                cert.matrix,
                cert.generator + u.scale(bump),
                cert.eigenvalue,
                cert.hodge_line,
                cert.transcript,
            )
            report = verify_certificate(perturbed)
            assert not report.valid
            rejected += 1
    verdict(
        5,
        f"{len(corpus)} certificates across {len(branches)} branches verify, "
        f"{rejected} perturbed variants all rejected",
    )


# -- criterion 6: arithmetic gates ---------------------------------------------------


def test_criterion_6_arithmetic_facts():
    start = time.perf_counter()
    assert euler_phi(66) == 20
    assert UNIQUENESS_ORDERS == (13, 17, 19, 25, 27, 32, 33, 40, 44, 50, 66)
    # totient exactness against the definitional count
    for n in range(1, 400):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
    # threshold behavior flips between p = 11 and p = 13
    assert surface_thresholds(13)["all_automorphisms_tame"]
    assert not surface_thresholds(11)["all_automorphisms_tame"]
    assert tameness(13, 66) == "tame"
    assert tameness(11, 66) == "wild"
    assert unique_order_check(66, 13)["uniqueness_applies"]
    assert not unique_order_check(66, 11)["uniqueness_applies"]
    rows = phi_bound_scan(1000)
    assert [r["p"] for r in rows] == primes_up_to(1000)
    by_p = {r["p"]: r for r in rows}
    assert by_p[59] == {"p": 59, "phi_p_plus_1": 16, "exceeds_21": False}
    for row in rows:
        assert row["phi_p_plus_1"] == euler_phi(row["p"] + 1)
        assert row["exceeds_21"] == (row["phi_p_plus_1"] > 21)
        if row["p"] > 60:
            assert row["exceeds_21"]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    verdict(6, f"phi table, thresholds, and scan to 1000 exact, {elapsed:.1f}s")


# -- criterion 7: CLI determinism ------------------------------------------------------


def _cli_invocations():
    ctx53 = RingContext(5, 3, 1)
    lat = _u_lattice(ctx53, 5)
    minus = RingMat.identity(ctx53, 2).scale(ctx53.scalar(-1))
    cert = lift_ss_nonsymplectic(SupersingularInput(lat, minus, [1, 0]), 2)
    conn = random_connection(Random(7), ctx53, 2)
    return [
        (
            ["eig-split", "--ctx", "7,2,1", "--seed", "4"],
            {"sample": {"rank": 4, "order": 3}},
        ),
        (
            ["isotropic-lift"],
            {
                "ring": ctx53.to_json(),
                "gram": [[5, 1], [1, 0]],
                "u": [1, 0],
                "v": [0, 1],
            },
        ),
        (
            ["period-complete", "--ctx", "3,3,1", "--seed", "4"],
            {"sample": {"rank": 5}},
        ),
        (
            ["phi-map"],
            {"connection": conn.to_json(), "point": [5, 10]},
        ),
        (
            ["phi-invert"],
            {"connection": conn.to_json(), "target": [5, 10]},
        ),
        (
            ["lift-search", "--mode", "ss-nonsymplectic"],
            {
                "ring": ctx53.to_json(),
                "gram": lat.gram.to_json(),
                "matrix": [[-1, 0], [0, -1]],
                "hodge_line": [1, 0],
                "order": 2,
            },
        ),
        (["verify"], cert.to_json()),
        (["constraints", "--phi", "66", "--scan-phi-bound", "100"], None),
    ]


# sha256 of each invocation's stdout, in _cli_invocations order.  Pinned so
# that a refactor changing any output byte fails here, not only in review.
_CLI_STDOUT_SHA256 = (
    "c3dfba855da716c90df6b7a28113c01adf7dc37526659bd0d8515d73182b702f",
    "b86f55a3d0e740252fe158927f825f28e7d9b61074f86804a923c75e814f1a31",
    "d34a66ec457c54bcd9da0fc7a18cc81cf92a556da9b92f528e1eee67152aab65",
    "b841a0c3b4c74f47cb76abfa409f3d7f6cfd2cbbcf5faed4f7dc322a37412771",
    "87698d2efbba5ce9997820ea841aed26f3ea71999e548d235eb22710ede42b12",
    "ffc22dab470bef1cf19ce3b7da26c14d7ff3230f46ae8c15acb8bf61cf6f0b99",
    "5560a0d0b224983ef2eabb9646247d44bc1158022b863cadb0864f28bf995bce",
    "601c02f792131a294a5282fa80a48fc58f575d9f9b90a2b4737c51df6be623f6",
)


def test_criterion_7_cli_determinism():
    names = []
    for (args, payload), digest in zip(_cli_invocations(), _CLI_STDOUT_SHA256, strict=True):
        data = (canonical_dumps(payload) if payload is not None else "").encode()
        runs = [
            subprocess.run(
                [sys.executable, "-m", "k3lift", *args],
                input=data,
                capture_output=True,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0, runs[0].stderr
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.endswith(b"\n")
        assert hashlib.sha256(runs[0].stdout).hexdigest() == digest, args
        json.loads(runs[0].stdout.decode())
        names.append(args[0])
    assert len(set(names)) == 8
    verdict(7, "8 subcommands byte-identical across repeated runs and pinned digests")
