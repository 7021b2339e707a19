"""Isometries and tame eigenspace splitting: frozen worked examples."""

import random

import pytest

from k3lift import (
    InputError,
    Isometry,
    NotEigenvector,
    NotTame,
    OrderViolation,
    QuadLattice,
    RingContext,
    RingMat,
    RingVec,
    eigen_split,
    lift_eigenvector,
    independent_columns,
    standard_lattice,
)
from k3lift.samples import random_tame_isometry

C52 = RingContext(5, 2, 1)
C72 = RingContext(7, 2, 1)


def _u(ctx):
    return standard_lattice("U").change_ring(ctx)


def _diag_lattice(ctx, diag):
    rows = [[diag[i] if i == j else 0 for j in range(len(diag))] for i in range(len(diag))]
    return QuadLattice(ctx, rows)


def test_verify_identity_and_swap():
    u = _u(C52)
    assert Isometry(u, [[1, 0], [0, 1]]).verify()
    assert Isometry(u, [[0, 1], [1, 0]]).verify()


def test_pairing_preservation_rejected():
    u = _u(C52)
    with pytest.raises(InputError):
        Isometry(u, [[2, 0], [0, 1]])
    bad = Isometry(u, [[2, 0], [0, 1]], check=False)
    assert not bad.verify()


def test_orders():
    u = _u(C52)
    assert Isometry(u, [[1, 0], [0, 1]]).order() == 1
    assert Isometry(u, [[-1, 0], [0, -1]]).order() == 2
    # companion matrix of t^2 + t + 1 preserves the A2 form
    a2 = QuadLattice(C72, [[2, -1], [-1, 2]])
    assert Isometry(a2, [[0, -1], [1, -1]]).order() == 3


def test_char_poly_examples():
    u = _u(C52)
    one = C52.one()
    ident = Isometry(u, [[1, 0], [0, 1]])
    assert ident.char_poly() == [one, C52.scalar(-2), one]
    swap = Isometry(u, [[0, 1], [1, 0]])
    assert swap.char_poly() == [one, C52.zero(), C52.scalar(-1)]
    a2 = QuadLattice(C72, [[2, -1], [-1, 2]])
    rot = Isometry(a2, [[0, -1], [1, -1]])
    assert rot.char_poly() == [C72.one(), C72.one(), C72.one()]


def test_declared_order_accepted_and_checked():
    a2 = QuadLattice(C72, [[2, -1], [-1, 2]])
    iso = Isometry(a2, [[0, -1], [1, -1]], order=3)
    assert iso.declared_order == 3
    assert iso.to_json()["order"] == 3
    with pytest.raises(OrderViolation):
        Isometry(a2, [[0, -1], [1, -1]], order=6)  # A^3 = 1 already
    with pytest.raises(OrderViolation):
        Isometry(a2, [[0, -1], [1, -1]], order=2)  # A^2 != 1


def test_eigen_split_identity():
    split = eigen_split(Isometry(_u(C52), [[1, 0], [0, 1]]), 1)
    assert split.ranks() == [2]
    assert split.components[0].projector == RingMat.identity(C52, 2)
    ids = split.verify_identities()
    assert all(ids.values())


def test_eigen_split_diagonal_involution():
    lat = _diag_lattice(C52, [1, -1])
    iso = Isometry(lat, [[1, 0], [0, -1]])
    split = eigen_split(iso, 2)
    assert split.ranks() == [1, 1]
    assert split.roots[1] == C52.scalar(-1)
    assert all(split.verify_identities().values())
    assert split.pairing_orthogonality()


def test_eigen_split_order_three():
    a2 = QuadLattice(C72, [[2, -1], [-1, 2]])
    iso = Isometry(a2, [[0, -1], [1, -1]])
    split = eigen_split(iso, 3)
    assert split.ranks() == [0, 1, 1]
    nontrivial = {split.roots[1].to_json()[0], split.roots[2].to_json()[0]}
    assert nontrivial == {18, 30}
    assert all(split.verify_identities().values())
    assert split.pairing_orthogonality()
    # zero-image component omitted from the serialized form
    data = split.to_json()
    assert data["ranks"] == [0, 1, 1]
    assert [c["index"] for c in data["components"]] == [1, 2]


def test_eigen_split_non_minimal_exponent():
    # identity satisfies A^2 = 1; the (-1)-component is empty
    split = eigen_split(Isometry(_u(C52), [[1, 0], [0, 1]]), 2)
    assert split.ranks() == [2, 0]
    assert all(split.verify_identities().values())


def test_eigen_split_rejects_wild_order():
    with pytest.raises(NotTame):
        eigen_split(Isometry(_u(C52), [[1, 0], [0, 1]]), 5)


def test_eigen_split_rejects_wrong_order():
    with pytest.raises(OrderViolation):
        eigen_split(Isometry(_u(C52), [[0, 1], [1, 0]]), 3)


def _double_loop_projectors(iso, order):
    """The projector family before the single contraction: one scale and one
    add per (i, k).  Kept as an oracle for eigen_split."""
    ctx, r = iso.lattice.ring, iso.lattice.rank
    powers = [RingMat.identity(ctx, r)]
    for _ in range(order - 1):
        powers.append(powers[-1] @ iso.matrix)
    roots = ctx.nth_roots_of_unity(order)
    inv_n = ctx.scalar(order).inverse()
    projectors = []
    for i in range(order):
        acc = RingMat.zeros(ctx, r, r)
        for k in range(order):
            acc = acc + powers[k].scale(roots[(-i * k) % order])
        projectors.append(acc.scale(inv_n))
    return projectors


# N | q - 1 in each context; (5, 14, 2) puts the contraction on the object path
@pytest.mark.parametrize(
    "spec, order",
    [((13, 2, 1), 12), ((5, 2, 2), 12), ((73, 2, 1), 24), ((5, 2, 2), 24),
     ((43, 2, 1), 42), ((13, 2, 2), 42), ((67, 2, 1), 66), ((23, 2, 2), 66),
     ((5, 14, 2), 12)],
)
def test_eigen_split_matches_double_loop_at_rank_22(spec, order, monkeypatch):
    ctx = RingContext(*spec)
    iso = random_tame_isometry(random.Random(order), ctx, 22, order)
    products = []
    matmul = RingMat.__matmul__

    def counted(a, b):
        products.append(isinstance(b, RingMat))
        return matmul(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(RingMat, "__matmul__", counted)
        split = eigen_split(iso, order)
    # order - 1 powers, the A^N = 1 check and one contraction
    assert products == [True] * (order + 1)
    assert sum(split.ranks()) == 22
    for comp, proj in zip(split.components, _double_loop_projectors(iso, order), strict=True):
        assert comp.projector == proj
        basis = [proj.column(j) for j in independent_columns(proj)]
        assert [b.to_json() for b in comp.basis] == [b.to_json() for b in basis]


def test_char_poly_matches_eigen_ranks():
    # char poly = product over roots of (t - zeta)^rank(component)
    lat = _diag_lattice(C52, [1, -1, 1])
    iso = Isometry(lat, [[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    split = eigen_split(iso, 2)
    poly = [C52.one()]
    for comp in split.components:
        for _ in range(comp.rank):
            # multiply by (t - zeta)
            nxt = [C52.zero()] * (len(poly) + 1)
            for k, c in enumerate(poly):
                nxt[k + 1] = nxt[k + 1] + c
                nxt[k] = nxt[k] - c * comp.zeta
            poly = nxt
    assert poly == iso.char_poly()


def test_lift_eigenvector_identity():
    split = eigen_split(Isometry(_u(C52), [[1, 0], [0, 1]]), 1)
    res = C52.residue_context()
    vbar = RingVec.from_entries(res, [1, 2])
    w = lift_eigenvector(split, 0, vbar)
    assert w.reduce_mod_p() == vbar
    assert w == RingVec.from_entries(C52, [1, 2])


def test_lift_eigenvector_involution():
    lat = _diag_lattice(C52, [1, -1])
    split = eigen_split(Isometry(lat, [[1, 0], [0, -1]]), 2)
    res = C52.residue_context()
    w = lift_eigenvector(split, 1, RingVec.from_entries(res, [0, 1]))
    assert w == RingVec.from_entries(C52, [0, 1])


def test_lift_eigenvector_order_three_exact():
    a2 = QuadLattice(C72, [[2, -1], [-1, 2]])
    iso = Isometry(a2, [[0, -1], [1, -1]])
    split = eigen_split(iso, 3)
    res = C72.residue_context()
    comp = split.component(1)
    zbar = C72.reduce(comp.zeta)
    abar = iso.matrix.reduce_mod_p()
    # find a residue eigenvector for roots[1] by brute force
    vbar = None
    for x in range(7):
        for y in range(7):
            if x == y == 0:
                continue
            cand = RingVec.from_entries(res, [x, y])
            if (abar @ cand) == cand.scale(zbar):
                vbar = cand
                break
        if vbar is not None:
            break
    w = lift_eigenvector(split, 1, vbar)
    assert (iso.matrix @ w) == w.scale(comp.zeta)  # exact mod 49
    assert w.reduce_mod_p() == vbar


def test_lift_eigenvector_rejects_non_eigenvector():
    lat = _diag_lattice(C52, [1, -1])
    split = eigen_split(Isometry(lat, [[1, 0], [0, -1]]), 2)
    res = C52.residue_context()
    with pytest.raises(NotEigenvector):
        lift_eigenvector(split, 1, RingVec.from_entries(res, [1, 1]))
    with pytest.raises(NotEigenvector):
        lift_eigenvector(split, 1, RingVec.zeros(res, 2))


def test_reduction_compatibility():
    a2 = QuadLattice(C72, [[2, -1], [-1, 2]])
    iso = Isometry(a2, [[0, -1], [1, -1]])
    split = eigen_split(iso, 3)
    red = eigen_split(iso.reduce_mod_p(), 3)
    assert red.ranks() == split.ranks()
    for big, small in zip(split.components, red.components):
        assert big.projector.reduce_mod_p() == small.projector


def test_power_and_order_bound():
    u = _u(C52)
    swap = Isometry(u, [[0, 1], [1, 0]])
    assert swap.power(2).matrix == RingMat.identity(C52, 2)
    assert swap.power(-1).matrix == swap.matrix
    with pytest.raises(OrderViolation):
        Isometry(u, [[1, 1], [0, 1]], check=False).order(bound=10)


def test_integer_lattice_isometry():
    u = standard_lattice("U")
    swap = Isometry.from_integer(u, [[0, 1], [1, 0]], C52)
    assert swap.lattice.ring == C52
    assert swap.verify()
    assert swap.order() == 2
    with pytest.raises(InputError):
        Isometry(u, [[0, 1], [1, 0]])
    for rows in ([[2, 0], [0, 1]], [[26, 0], [0, 1]]):
        # the second preserves the pairing mod 5^2 but not over Z
        with pytest.raises(InputError):
            Isometry.from_integer(u, rows, C52)
    # floats and booleans are refused, never truncated into the swap
    with pytest.raises(InputError):
        Isometry.from_integer(u, [[0, 1.9], [True, 0]], C52)


def test_json_round_trip():
    a2 = QuadLattice(C72, [[2, -1], [-1, 2]])
    iso = Isometry(a2, [[0, -1], [1, -1]], order=3)
    data = iso.to_json()
    from k3lift import isometry_from_json

    back = isometry_from_json(data)
    assert back.matrix == iso.matrix
    assert back.declared_order == 3
