"""Liftability certificates: three branches, verification, stability."""

import hashlib

import pytest

from k3lift import (
    DimensionMismatch,
    HodgeLineNotEigen,
    IndependenceFailure,
    InputError,
    LiftingCertificate,
    NoUnitPartner,
    NotSymplectic,
    NotTame,
    NotWeaklyTame,
    OrderViolation,
    PreconditionError,
    QuadLattice,
    RingContext,
    RingMat,
    RingVec,
    SlopeDecomposition,
    SupersingularInput,
    SymplecticInput,
    canonical_dumps,
    lift_finite_height,
    lift_ss_nonsymplectic,
    lift_ss_symplectic,
    phi_rank_check,
    universal_line,
    verify_certificate,
)

C72 = RingContext(7, 2, 1)
C53 = RingContext(5, 3, 1)
C33 = RingContext(3, 3, 1)


def _u_slope(ctx):
    """Rank 2 hyperbolic decomposition: low = e1, high = e2."""
    lat = QuadLattice(ctx, [[0, 1], [1, 0]])
    return SlopeDecomposition(lat, [[1, 0]], [], [[0, 1]])


def _order3_slope():
    """Rank 4 over W2(F7): hyperbolic outer pieces, unimodular middle."""
    gram = [
        [0, 0, 0, 1],
        [0, 2, -1, 0],
        [0, -1, 2, 0],
        [1, 0, 0, 0],
    ]
    lat = QuadLattice(C72, gram)
    sd = SlopeDecomposition(lat, [[1, 0, 0, 0]], [[0, 1, 0, 0], [0, 0, 1, 0]], [[0, 0, 0, 1]])
    # zeta = 18 is the cube root of unity that is 4 mod 7; the action is
    # zeta^{-1} on low, an order-3 rotation on the middle, zeta on high
    zeta = C72.teichmuller(4)
    zinv = zeta.inverse()
    a = RingMat.from_rows(
        C72,
        [
            [zinv, 0, 0, 0],
            [0, 0, -1, 0],
            [0, 1, -1, 0],
            [0, 0, 0, zeta],
        ],
    )
    return sd, a, zeta


def _hodge(ctx, rank, index):
    res = ctx.residue_context()
    return RingVec.basis_vector(res, rank, index)


# -- slope decompositions ---------------------------------------------------


def test_slope_decomposition_validation():
    lat = QuadLattice(C53, [[0, 1], [1, 0]])
    sd = _u_slope(C53)
    assert sd.height_rank == 1
    # non-isotropic outer piece
    lat2 = QuadLattice(C53, [[1, 1], [1, 0]])
    with pytest.raises(InputError):
        SlopeDecomposition(lat2, [[1, 0]], [], [[0, 1]])
    # not a basis
    with pytest.raises(InputError):
        SlopeDecomposition(lat, [[1, 0]], [], [[5, 0]])
    # middle not orthogonal to outer pieces
    gram = [[0, 0, 1], [0, 1, 1], [1, 1, 0]]
    with pytest.raises(InputError):
        SlopeDecomposition(QuadLattice(C53, gram), [[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]])


# rank 4 over W2(F7), low = e1, middle = e2, e3, high = e4: each change of
# the valid Gram below (or of the pieces) breaks exactly one invariant, and
# the checks run in this order
_RANK4_GRAM = [[0, 0, 0, 1], [0, 2, -1, 0], [0, -1, 2, 0], [1, 0, 0, 0]]
_RANK4_PIECES = ([[1, 0, 0, 0]], [[0, 1, 0, 0], [0, 0, 1, 0]], [[0, 0, 0, 1]])


@pytest.mark.parametrize(
    "entries, high, message",
    [
        ({}, [[1, 0, 0, 0]], "slope sub-bases do not form an ambient basis"),
        ({(0, 0): 1}, None, "low slope piece must be isotropic"),
        ({(3, 3): 1}, None, "high slope piece must be isotropic"),
        ({(0, 1): 1, (1, 0): 1}, None, "middle slope piece must be orthogonal to the outer pieces"),
        ({(0, 3): 7, (3, 0): 7}, None, r"outer slope pieces must be dual \(unit pairing matrix\)"),
        ({(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1}, None, "middle slope piece must be unimodular"),
    ],
)
def test_slope_decomposition_messages(entries, high, message):
    gram = [row[:] for row in _RANK4_GRAM]
    for (i, j), value in entries.items():
        gram[i][j] = value
    low, middle, top = _RANK4_PIECES
    SlopeDecomposition(QuadLattice(C72, _RANK4_GRAM), low, middle, top)
    with pytest.raises(InputError, match=f"^{message}$"):
        SlopeDecomposition(QuadLattice(C72, gram), low, middle, high or top)


def test_slope_decomposition_json_round_trip():
    sd, _, _ = _order3_slope()
    data = sd.to_json()
    back = SlopeDecomposition.from_json(data)
    assert back.lattice == sd.lattice
    assert [v.to_json() for v in back.high] == [v.to_json() for v in sd.high]


def test_slope_decomposition_frobenius_must_match_rank():
    sd, a, _ = _order3_slope()
    data = sd.to_json()
    data["frobenius"] = [[7]]
    with pytest.raises(DimensionMismatch):
        SlopeDecomposition.from_json(data)
    data["frobenius"] = a.to_json()
    assert SlopeDecomposition.from_json(data).frobenius == a


# -- finite-height branch ---------------------------------------------------


def test_finite_height_identity():
    sd = _u_slope(C53)
    ident = RingMat.identity(C53, 2)
    cert = lift_finite_height(sd, ident, 1, _hodge(C53, 2, 1))
    assert cert.branch == "finite-height"
    assert cert.eigenvalue == C53.one()
    assert cert.generator == RingVec.from_entries(C53, [0, 1])
    assert verify_certificate(cert).valid


def test_finite_height_order_three():
    sd, a, zeta = _order3_slope()
    cert = lift_finite_height(sd, a, 3, _hodge(C72, 4, 3))
    assert cert.eigenvalue == zeta
    assert cert.eigenvalue ** 3 == C72.one()
    assert verify_certificate(cert).valid
    # the generator stays inside the top slope piece
    assert cert.generator.entry(0).is_zero()
    assert cert.generator.entry(1).is_zero()
    assert cert.generator.entry(2).is_zero()


def test_finite_height_rejects_wild_order():
    sd = _u_slope(C72)
    with pytest.raises(NotWeaklyTame):
        lift_finite_height(sd, RingMat.identity(C72, 2), 14, _hodge(C72, 2, 1))


def test_finite_height_requires_piece_preservation():
    sd, a, _ = _order3_slope()
    # swapping the outer pieces is an isometry but does not preserve them
    swap = RingMat.from_rows(
        C72,
        [
            [0, 0, 0, 1],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [1, 0, 0, 0],
        ],
    )
    with pytest.raises(PreconditionError, match="^isometry does not preserve the low slope piece$"):
        lift_finite_height(sd, swap, 2, _hodge(C72, 4, 3))
    # the Eichler transvection x -> x - (x . e2) e1 + (x . e1) e2 - (x . e1) e1
    # fixes e1 but moves e2 and e3 off the middle piece
    eichler = RingMat.from_rows(
        C72,
        [
            [1, -2, 1, -1],
            [0, 1, 0, 1],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ],
    )
    with pytest.raises(PreconditionError, match="^isometry does not preserve the middle slope piece$"):
        lift_finite_height(sd, eichler, 1, _hodge(C72, 4, 3))


def test_finite_height_requires_the_declared_order():
    sd, a, _ = _order3_slope()
    # a acts on the top piece by zeta, of order 3
    with pytest.raises(OrderViolation, match="^restricted action does not have order dividing 2$"):
        lift_finite_height(sd, a, 2, _hodge(C72, 4, 3))


def test_finite_height_hodge_must_reduce_into_top():
    sd, a, _ = _order3_slope()
    with pytest.raises(HodgeLineNotEigen, match="^hodge line does not reduce into the top slope piece$"):
        lift_finite_height(sd, a, 3, _hodge(C72, 4, 1))


# -- supersingular nonsymplectic branch --------------------------------------


def _minus_one_input():
    lat = QuadLattice(C53, [[5, 1], [1, 0]])
    minus = RingMat.identity(C53, 2).scale(C53.scalar(-1))
    return SupersingularInput(lat, minus, [1, 0])


def test_nonsymplectic_minus_one_branch():
    inp = _minus_one_input()
    assert inp.residue_eigenvalue() != C53.residue_context().one()
    cert = lift_ss_nonsymplectic(inp, 2)
    assert cert.branch == "ss-nonsymplectic"
    assert cert.eigenvalue == C53.scalar(-1)
    # the corrected generator is u + p a v with a = 12
    assert cert.generator == RingVec.from_entries(C53, [1, 60])
    assert verify_certificate(cert).valid
    scalars = [e for e in cert.transcript if e.get("claim") == "valuation"]
    assert scalars and C53.scalar(scalars[0]["value"]) == C53.scalar(12)


def test_nonsymplectic_order_four():
    t = C53.teichmuller(2)
    lat = QuadLattice(C53, [[0, 1], [1, 0]])
    a = RingMat.from_rows(C53, [[t, 0], [0, t.inverse()]])
    inp = SupersingularInput(lat, a, [1, 0])
    cert = lift_ss_nonsymplectic(inp, 4)
    assert cert.eigenvalue == t
    assert C53.reduce(cert.eigenvalue) == C53.residue_context().scalar(2)
    # zeta0^2 != 1: no correction needed, the eigenvector is the generator
    assert cert.generator == RingVec.from_entries(C53, [1, 0])
    assert verify_certificate(cert).valid


def test_nonsymplectic_rejects_symplectic_input():
    lat = QuadLattice(C53, [[5, 1], [1, 0]])
    inp = SupersingularInput(lat, RingMat.identity(C53, 2), [1, 0])
    with pytest.raises(SymplecticInput):
        lift_ss_nonsymplectic(inp, 1)


def test_nonsymplectic_rejects_wild_order():
    inp = _minus_one_input()
    with pytest.raises(NotTame):
        lift_ss_nonsymplectic(inp, 10)


def test_nonsymplectic_no_unit_partner():
    lat = QuadLattice(C53, [[5, 5], [5, 5]])
    minus = RingMat.identity(C53, 2).scale(C53.scalar(-1))
    inp = SupersingularInput(lat, minus, [1, 0])
    with pytest.raises(NoUnitPartner):
        lift_ss_nonsymplectic(inp, 2)


def test_hodge_line_must_be_eigenline():
    lat = QuadLattice(C53, [[0, 1], [1, 0]])
    swap = RingMat.from_rows(C53, [[0, 1], [1, 0]])
    inp = SupersingularInput(lat, swap, [1, 0])
    with pytest.raises(HodgeLineNotEigen):
        lift_ss_nonsymplectic(inp, 2)


# -- supersingular symplectic branch -----------------------------------------


def _symplectic_input(cc, ctx=C33):
    """Rank 4: near-isotropic hodge e1, unit partner e2, ample e3.

    e4 pairs unit with the ample class, which the two-step path (p | c.c)
    needs as its helper vector."""
    gram = [
        [3, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, cc, 1],
        [0, 0, 1, 0],
    ]
    lat = QuadLattice(ctx, gram)
    return SupersingularInput(lat, RingMat.identity(ctx, 4), [1, 0, 0, 0], ample=[0, 0, 1, 0])


def test_symplectic_unit_ample_norm():
    inp = _symplectic_input(cc=1)
    assert inp.residue_eigenvalue() == C33.residue_context().one()
    cert = lift_ss_symplectic(inp, 1)
    assert cert.branch == "ss-symplectic"
    assert cert.eigenvalue == C33.one()
    # a = -1/2 = 4 mod 27 truncated at the combination precision:
    # m = e1 + 3 * 4 * e2 = (1, 12, 0, 0)
    assert cert.generator == RingVec.from_entries(C33, [1, 12, 0, 0])
    assert verify_certificate(cert).valid


def test_symplectic_p_divides_ample_norm():
    inp = _symplectic_input(cc=3)
    cert = lift_ss_symplectic(inp, 1)
    assert cert.generator == RingVec.from_entries(C33, [1, 12, 0, 0])
    report = verify_certificate(cert)
    assert report.valid
    # the two-step path records the first orthogonalization coefficient
    val_entries = [e for e in cert.transcript if e.get("claim") == "valuation"]
    assert any("orthogonalization" in e["label"] for e in val_entries)


# sha256 of canonical_dumps(cert.to_json()) for both symplectic branches
# (c.c a unit, p | c.c).  The tests above pin the generators only; these
# pin whole certificates, transcript labels and values included.
SYMPLECTIC_DIGESTS = {
    1: "47b78642564e0c3a585673afe09076e026de4b62033e6e380b1f05a3bd34f413",
    3: "3cf6bb19eb31946272b61d12851be2011b44dafa763f95037b63e772999d417e",
}


@pytest.mark.parametrize("cc", sorted(SYMPLECTIC_DIGESTS))
def test_symplectic_certificate_bytes(cc):
    cert = lift_ss_symplectic(_symplectic_input(cc=cc), 1)
    digest = hashlib.sha256(canonical_dumps(cert.to_json()).encode()).hexdigest()
    assert digest == SYMPLECTIC_DIGESTS[cc]


def test_symplectic_requires_independence():
    gram = [
        [3, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    lat = QuadLattice(C33, gram)
    # hodge line parallel to the ample class mod p
    with pytest.raises(IndependenceFailure):
        inp = SupersingularInput(lat, RingMat.identity(C33, 4), [0, 0, 1, 0], ample=[0, 0, 1, 0])
        lift_ss_symplectic(inp, 1)


def test_symplectic_not_symplectic_error():
    # -1 on the hodge plane, +1 on the ample direction: the action moves
    # the hodge line mod p, so the symplectic branch refuses it
    gram = [[5, 1, 0], [1, 0, 0], [0, 0, 1]]
    lat = QuadLattice(C53, gram)
    a = RingMat.from_rows(C53, [[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
    inp = SupersingularInput(lat, a, [1, 0, 0], ample=[0, 0, 1])
    with pytest.raises(NotSymplectic):
        lift_ss_symplectic(inp, 2)


def test_symplectic_needs_ample():
    lat = QuadLattice(C33, [[3, 1], [1, 0]])
    inp = SupersingularInput(lat, RingMat.identity(C33, 2), [1, 0])
    with pytest.raises(InputError):
        lift_ss_symplectic(inp, 1)


def test_ample_must_be_fixed():
    lat = QuadLattice(C53, [[5, 1], [1, 0]])
    minus = RingMat.identity(C53, 2).scale(C53.scalar(-1))
    with pytest.raises(InputError):
        SupersingularInput(lat, minus, [1, 0], ample=[0, 1])


# -- verification ------------------------------------------------------------


def _all_branch_certificates():
    sd, a, _ = _order3_slope()
    yield lift_finite_height(sd, a, 3, _hodge(C72, 4, 3))
    yield lift_ss_nonsymplectic(_minus_one_input(), 2)
    yield lift_ss_symplectic(_symplectic_input(cc=1), 1)


def test_all_branches_verify():
    for cert in _all_branch_certificates():
        report = verify_certificate(cert)
        assert report.valid, report.failures


def test_perturbed_generator_fails():
    # perturb along e2: since every generator is normalized to leading
    # coefficient 1 with p-divisible tail, bumping e1 by p^{n-1} only
    # rescales the line, but an e2 bump genuinely moves it
    for cert in _all_branch_certificates():
        ctx = cert.ctx
        bump = ctx.scalar(ctx.p ** (ctx.n - 1))
        bad_gen = cert.generator + RingVec.basis_vector(ctx, cert.generator.rank, 1).scale(bump)
        bad = LiftingCertificate(
            ctx,
            cert.branch,
            cert.order,
            cert.gram,
            cert.matrix,
            bad_gen,
            cert.eigenvalue,
            cert.hodge_line,
            cert.transcript,
        )
        assert not verify_certificate(bad).valid


def test_perturbed_eigenvalue_fails():
    for cert in _all_branch_certificates():
        ctx = cert.ctx
        bad_lam = cert.eigenvalue + ctx.scalar(ctx.p ** (ctx.n - 1))
        bad = LiftingCertificate(
            ctx,
            cert.branch,
            cert.order,
            cert.gram,
            cert.matrix,
            cert.generator,
            bad_lam,
            cert.hodge_line,
            cert.transcript,
        )
        assert not verify_certificate(bad).valid


def test_unit_rescaled_generator_still_verifies():
    for cert in _all_branch_certificates():
        ctx = cert.ctx
        scaled = LiftingCertificate(
            ctx,
            cert.branch,
            cert.order,
            cert.gram,
            cert.matrix,
            cert.generator.scale(ctx.scalar(2)),
            cert.eigenvalue,
            cert.hodge_line,
            cert.transcript,
        )
        assert verify_certificate(scaled).valid


def test_certificate_json_round_trip():
    for cert in _all_branch_certificates():
        data = cert.to_json()
        back = LiftingCertificate.from_json(data)
        assert back.branch == cert.branch
        assert back.generator == cert.generator
        assert back.eigenvalue == cert.eigenvalue
        assert verify_certificate(back).valid


def test_supersingular_input_json_round_trip():
    inp = _symplectic_input(cc=1)
    data = inp.to_json()
    back = SupersingularInput.from_json(data)
    assert back.lattice == inp.lattice
    assert back.ample == inp.ample


# -- universal lines and rank gates -------------------------------------------


def test_universal_line_commuting_powers():
    sd, a, _ = _order3_slope()
    others = [a @ a, RingMat.identity(C72, 4)]
    cert, reports = universal_line(sd, a, 3, _hodge(C72, 4, 3), others)
    assert verify_certificate(cert).valid
    assert all(r["stabilizes"] for r in reports)
    assert all(r["preserves_pairing"] for r in reports)
    # the recorded factors are zeta^2 and 1
    assert C72.scalar(reports[0]["factor"]) == cert.eigenvalue * cert.eigenvalue
    assert C72.scalar(reports[1]["factor"]) == C72.one()


def test_universal_line_non_stabilizing():
    sd = _u_slope(C53)
    ident = RingMat.identity(C53, 2)
    swap = RingMat.from_rows(C53, [[0, 1], [1, 0]])
    cert, reports = universal_line(sd, ident, 1, _hodge(C53, 2, 1), [swap])
    assert verify_certificate(cert).valid
    assert reports[0]["preserves_pairing"]
    assert not reports[0]["stabilizes"]
    assert "factor" not in reports[0]


def test_phi_rank_check_examples():
    out = phi_rank_check(20, 66)
    assert out["phi"] == 20 and out["divides"] and out["bound_ok"]
    out = phi_rank_check(12, 13)
    assert out["phi"] == 12 and out["divides"]
    out = phi_rank_check(10, 13)
    assert not out["divides"] and not out["bound_ok"]
    with pytest.raises(InputError):
        phi_rank_check(0, 13)
