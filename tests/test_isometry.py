"""Isometries and tame eigenspace splitting: frozen worked examples."""

import random

import pytest

from k3lift import (
    EigenComponent,
    EigenSplit,
    InputError,
    InsufficientResidueField,
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
    is_unimodular,
    standard_lattice,
)
from k3lift import linalg
from k3lift.samples import random_tame_isometry
from test_acceptance import ORDER_SCHEDULE

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
    # 3 | q - 1 = 6, so the roots exist and the swap's A^3 != I is what fails
    with pytest.raises(OrderViolation):
        eigen_split(Isometry(_u(C72), [[0, 1], [1, 0]]), 3)


def test_eigen_split_checks_the_roots_before_the_powers():
    # 3 does not divide q - 1 = 4: that is refused before A^3 != I is seen
    with pytest.raises(InsufficientResidueField):
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
RANK_22_CASES = [
    ((13, 2, 1), 12), ((5, 2, 2), 12), ((73, 2, 1), 24), ((5, 2, 2), 24),
    ((43, 2, 1), 42), ((13, 2, 2), 42), ((67, 2, 1), 66), ((23, 2, 2), 66),
    ((5, 14, 2), 12),
]


@pytest.mark.parametrize("spec, order", RANK_22_CASES)
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


def _product_loop_identities(split):
    """verify_identities as N^2 + N products: every E_i E_j and A E_i.  Kept
    as an oracle for the argument from the N eigen relations."""
    ctx, r, a = split.ctx, split.isometry.lattice.rank, split.isometry.matrix
    total = RingMat.zeros(ctx, r, r)
    idempotent = eigen_relation = orthogonal = True
    for i, comp in enumerate(split.components):
        e = comp.projector
        total = total + e
        if (e @ e) != e:
            idempotent = False
        if (a @ e) != e.scale(comp.zeta):
            eigen_relation = False
        for j in range(i + 1, split.order):
            f = split.components[j].projector
            if not (e @ f).is_zero() or not (f @ e).is_zero():
                orthogonal = False
    basis_cols = [b for c in split.components for b in c.basis]
    return {
        "sum_is_identity": total == RingMat.identity(ctx, r),
        "idempotent": idempotent,
        "orthogonal": orthogonal,
        "eigen_relation": eigen_relation,
        "direct_sum": len(basis_cols) == r
        and is_unimodular(RingMat.from_columns(ctx, basis_cols)),
    }


def _assert_matches_product_loop(split):
    ids = split.verify_identities()
    assert list(ids.items()) == list(_product_loop_identities(split).items())
    return ids


def _rank_22_split(spec, order):
    iso = random_tame_isometry(random.Random(order), RingContext(*spec), 22, order)
    return eigen_split(iso, order)


def _worked_example_splits():
    """The splits of the worked examples in this file."""
    rot = Isometry(QuadLattice(C72, [[2, -1], [-1, 2]]), [[0, -1], [1, -1]])
    diag3 = Isometry(_diag_lattice(C52, [1, -1, 1]), [[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    involution = Isometry(_diag_lattice(C52, [1, -1]), [[1, 0], [0, -1]])
    return [
        eigen_split(Isometry(_u(C52), [[1, 0], [0, 1]]), 1),
        eigen_split(Isometry(_u(C52), [[1, 0], [0, 1]]), 2),
        eigen_split(involution, 2),
        eigen_split(rot, 3),
        eigen_split(rot.reduce_mod_p(), 3),
        eigen_split(diag3, 2),
    ]


def _criterion_1_splits():
    """The splits of the acceptance suite's criterion 1, drawn in its order."""
    rng, splits = random.Random(10), []
    for p, pairs in ORDER_SCHEDULE.items():
        for order, degree in pairs:
            for _ in range(6):
                ctx = RingContext(p, rng.randint(1, 4), degree)
                rank = rng.randint(2, 8)
                iso = random_tame_isometry(rng, ctx, rank, order)
                splits += [eigen_split(iso, order), eigen_split(iso.reduce_mod_p(), order)]
    return splits


def _samples_splits():
    """The splits of tests/test_samples.py's exactness test."""
    rng, splits = random.Random(2), []
    for order, m in [(1, 1), (2, 1), (3, 1), (4, 2), (6, 1), (8, 2), (12, 2)]:
        splits.append(eigen_split(random_tame_isometry(rng, RingContext(7, 3, m), 6, order), order))
    return splits


def _linalg_splits():
    """The rank-22 order-8 splits of tests/test_linalg.py."""
    isos = [
        random_tame_isometry(random.Random(f"tiers {spec}"), RingContext(*spec), 22, 8)
        for spec in ((5, 4, 2), (3, 16, 2))
    ]
    isos.append(random_tame_isometry(random.Random(22), RingContext(5, 4, 2), 22, 8))
    return [eigen_split(iso, 8) for iso in isos]


# the splits tier-1 builds elsewhere, plus rank 22 at the finite-height
# benchmark context (7, 6, 2) with N = 12 and over F_67 with N = 66
SPLIT_SOURCES = {
    "worked examples": _worked_example_splits,
    "criterion 1": _criterion_1_splits,
    "samples": _samples_splits,
    "linalg": _linalg_splits,
    **{
        f"rank 22 {spec} N={order}": (lambda spec=spec, order=order: [_rank_22_split(spec, order)])
        for spec, order in RANK_22_CASES + [((7, 6, 2), 12), ((67, 1, 1), 66)]
    },
}


@pytest.mark.parametrize("source", list(SPLIT_SOURCES))
def test_identities_match_the_product_loop(source):
    for split in SPLIT_SOURCES[source]():
        assert all(_assert_matches_product_loop(split).values())


def _pair_loop_orthogonality(split):
    """The oracle: one product B_i^T G B_j per pair of nonzero summands whose
    roots do not multiply to 1."""
    ctx, gram = split.ctx, split.isometry.lattice.gram
    for i, ci in enumerate(split.components):
        for cj in split.components[i:]:
            if ci.rank and cj.rank and ci.zeta * cj.zeta != ctx.one():
                bi, bj = RingMat.from_columns(ctx, ci.basis), RingMat.from_columns(ctx, cj.basis)
                if not (bi.transpose() @ gram @ bj).is_zero():
                    return False
    return True


@pytest.mark.parametrize("source", list(SPLIT_SOURCES))
def test_pairing_orthogonality_matches_the_pair_loop(source):
    for split in SPLIT_SOURCES[source]():
        assert (split.pairing_orthogonality(), _pair_loop_orthogonality(split)) == (True, True)


def _random_symmetric(rng, ctx, r):
    rows = [[rng.randrange(ctx.pn) for _ in range(r)] for _ in range(r)]
    return [[rows[min(i, j)][max(i, j)] for j in range(r)] for i in range(r)]


def _unpreserved(iso, gram):
    """The isometry's matrix on a Gram it does not preserve."""
    return Isometry(QuadLattice(iso.lattice.ring, gram), iso.matrix, check=False)


# (isometry on a Gram it does not preserve, order): eigen_split reads only
# the matrix, so non-partner summands of these splits pair nontrivially
UNPRESERVED = {
    # e_0 (root 1) . e_1 (root -1) = 1
    "involution": lambda: (_unpreserved(
        Isometry(_diag_lattice(C52, [1, -1]), [[1, 0], [0, -1]]), [[1, 1], [1, 1]]), 2),
    # each eigenline pairs with itself
    "A2 rotation": lambda: (_unpreserved(
        Isometry(QuadLattice(C72, [[2, -1], [-1, 2]]), [[0, -1], [1, -1]]), [[1, 0], [0, 1]]), 3),
    **{
        f"rank 22 {spec} N={order}": (lambda spec=spec, order=order: (_unpreserved(
            random_tame_isometry(random.Random(order), RingContext(*spec), 22, order),
            _random_symmetric(random.Random(str(spec)), RingContext(*spec), 22)), order))
        for spec, order in [((7, 6, 2), 12), ((67, 1, 1), 66)]
    },
}


@pytest.mark.parametrize("source", list(UNPRESERVED))
def test_pairing_orthogonality_fails_off_the_partner_summands(source):
    iso, order = UNPRESERVED[source]()
    assert not iso.verify()
    split = eigen_split(iso, order)
    assert (split.pairing_orthogonality(), _pair_loop_orthogonality(split)) == (False, False)


def _rebuilt(split, zetas, projectors):
    components = [
        EigenComponent(zeta, c.index, e, c.basis)
        for c, zeta, e in zip(split.components, zetas, projectors, strict=True)
    ]
    return EigenSplit(split.isometry, split.order, split.roots, components)


def _first_two_summands(split):
    return [c.index for c in split.components if c.rank > 0][:2]


def _shifted_projector(split):
    """One projector plus p^(n-1) I."""
    ctx, r = split.ctx, split.isometry.lattice.rank
    k = _first_two_summands(split)[0]
    projectors = [c.projector for c in split.components]
    projectors[k] = projectors[k] + RingMat.identity(ctx, r).scale(ctx.p ** (ctx.n - 1))
    return _rebuilt(split, [c.zeta for c in split.components], projectors)


def _swapped_roots(split):
    i, j = _first_two_summands(split)
    zetas = [c.zeta for c in split.components]
    zetas[i], zetas[j] = zetas[j], zetas[i]
    return _rebuilt(split, zetas, [c.projector for c in split.components])


def _duplicated_residue(split):
    """The second summand's root moved to the first's plus p."""
    i, j = _first_two_summands(split)
    zetas = [c.zeta for c in split.components]
    zetas[j] = zetas[i] + split.ctx.scalar(split.ctx.p)
    return _rebuilt(split, zetas, [c.projector for c in split.components])


CONTROL_SPLITS = {
    "A2 rotation": lambda: eigen_split(
        Isometry(QuadLattice(C72, [[2, -1], [-1, 2]]), [[0, -1], [1, -1]]), 3
    ),
    "rank 22 (7, 6, 2) N=12": lambda: _rank_22_split((7, 6, 2), 12),
    "rank 22 (67, 1, 1) N=66": lambda: _rank_22_split((67, 1, 1), 66),
}


@pytest.mark.parametrize(
    "corrupt, wrong",
    [
        pytest.param(
            _shifted_projector, {"sum_is_identity", "idempotent", "orthogonal", "eigen_relation"},
            id="shifted projector",
        ),
        pytest.param(_swapped_roots, {"eigen_relation"}, id="swapped roots"),
        pytest.param(_duplicated_residue, {"eigen_relation"}, id="duplicated residue"),
    ],
)
@pytest.mark.parametrize("source", list(CONTROL_SPLITS))
def test_broken_premise_falls_back_to_products(source, corrupt, wrong):
    ids = _assert_matches_product_loop(corrupt(CONTROL_SPLITS[source]()))
    assert {key for key, ok in ids.items() if not ok} == wrong


# X = diag(2, 0) is no projector.  Each hand-built split breaks one premise
# of the argument and keeps the other two, so only the products can give
# the false flags
_X = [[2, 0], [0, 0]]
_I_MINUS_X = [[-1, 0], [0, 1]]


@pytest.mark.parametrize(
    "matrix, projectors, roots, wrong",
    [
        pytest.param(
            [[1, 0], [0, -1]], [_X, [[0, 0], [0, 1]]], [1, -1],
            {"sum_is_identity", "idempotent"}, id="sum",
        ),
        pytest.param(
            [[1, 0], [0, 1]], [_X, _I_MINUS_X], [1, -1],
            {"idempotent", "orthogonal", "eigen_relation"}, id="eigen relation",
        ),
        pytest.param(
            [[1, 0], [0, 1]], [_X, _I_MINUS_X], [1, 1],
            {"idempotent", "orthogonal"}, id="distinct residues",
        ),
    ],
)
def test_one_broken_premise_falls_back_to_products(matrix, projectors, roots, wrong):
    iso = Isometry(_diag_lattice(C52, [1, 1]), matrix)
    basis = [RingVec.from_entries(C52, [1, 0]), RingVec.from_entries(C52, [0, 1])]
    components = [
        EigenComponent(C52.scalar(zeta), i, RingMat.from_rows(C52, e), [basis[i]])
        for i, (e, zeta) in enumerate(zip(projectors, roots))
    ]
    split = EigenSplit(iso, 2, [C52.one(), C52.scalar(-1)], components)
    ids = _assert_matches_product_loop(split)
    assert {key for key, ok in ids.items() if not ok} == wrong


def _ring_products(split, monkeypatch):
    """verify_identities with the (rows, cols) of every ring product it makes."""
    shapes, mul = [], linalg._mul_arrays

    def counted(ctx, a, b):
        shapes.append((a.shape[1], b.shape[2]))
        return mul(ctx, a, b)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_mul_arrays", counted)
        ids = split.verify_identities()
    return ids, shapes


def test_identities_make_n_products_at_rank_22(monkeypatch):
    order = 12
    split = _rank_22_split((7, 6, 2), order)
    ids, shapes = _ring_products(split, monkeypatch)
    assert all(ids.values())
    assert shapes == [(22, 22)] * order  # A E_i, one per component
    # swapped roots fail the eigen relation at the first summand i, after
    # i + 1 products; the fallback then makes all N^2 products E_i E_j
    first = _first_two_summands(split)[0]
    ids, shapes = _ring_products(_swapped_roots(split), monkeypatch)
    assert not ids["eigen_relation"]
    assert shapes == [(22, 22)] * (first + 1 + order * order)


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
