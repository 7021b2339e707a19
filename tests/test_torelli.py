"""Local Torelli map: transport series, forward map, Newton inversion."""

from collections import Counter
from random import Random

import pytest

from k3lift import torelli
from k3lift import (
    ConnectionData,
    DeformationPoint,
    DimensionMismatch,
    InputError,
    NoConvergence,
    PeriodFrame,
    QuadLattice,
    RingContext,
    RingMat,
    RingVec,
    ValuationViolation,
    phi_invert,
    phi_line,
    phi_map,
    quadric_connection,
    random_connection,
    random_deformation_point,
    random_scalar,
    transport,
    truncation_degree,
)

C53 = RingContext(5, 3, 1)


def _split_frame(ctx, middle):
    """Frame [[0,0,1],[0,Q,0],[1,0,0]] with diagonal middle block Q."""
    r = len(middle) + 2
    gram = [[0] * r for _ in range(r)]
    gram[0][r - 1] = gram[r - 1][0] = 1
    for i, q in enumerate(middle):
        gram[i + 1][i + 1] = q
    return PeriodFrame(QuadLattice(ctx, gram))


def _multi_index_transport(conn, point, y):
    """Reference sum over every multi-index m of total degree < M(n, p) of
    gamma_{m_1}(pa_1) ... gamma_{m_d}(pa_d) D_d^{m_d} ... D_1^{m_1} y."""
    ctx = conn.ctx
    bound = truncation_degree(ctx.n, ctx.p)
    gammas = []
    for pa in point.entries:
        a = pa.exact_div_p(1)
        gammas.append([ctx.divided_power_factor(k) * a**k for k in range(bound)])
    d = conn.dimension

    def terms(i, vec, budget, coeff):
        if i == d:
            yield vec.scale(coeff)
            return
        for k in range(budget + 1):
            if k:
                vec = conn.matrices[i] @ vec
            yield from terms(i + 1, vec, budget - k, coeff * gammas[i][k])

    total = RingVec.zeros(ctx, y.rank)
    for term in terms(0, y, bound - 1, ctx.one()):
        total = total + term
    return total


# (p, n, m, d): both residue degrees, n up to 8, d up to 8
ORACLE_CASES = [
    (3, 6, 1, 3),
    (3, 8, 2, 2),
    (5, 8, 1, 3),
    (7, 7, 2, 3),
    (5, 5, 2, 4),
    (3, 4, 1, 6),
    (7, 3, 1, 8),
]


@pytest.mark.parametrize("p,n,m,d", ORACLE_CASES)
def test_transport_matches_multi_index_sum(p, n, m, d):
    # random_connection conjugates a quadric connection, so every product of
    # three D_i vanishes; the random matrices below reach the higher degrees
    ctx = RingContext(p, n, m)
    rng = Random(1000 * p + 10 * n + m)
    conn = random_connection(rng, ctx, d)
    point = random_deformation_point(rng, conn)
    y = RingVec.from_entries(ctx, [random_scalar(rng, ctx) for _ in range(d + 2)])
    assert transport(conn, point, y) == _multi_index_transport(conn, point, y)


@pytest.mark.parametrize("p,n,m,d", ORACLE_CASES)
def test_transport_of_commuting_polynomials_matches_multi_index_sum(p, n, m, d):
    # polynomials c0 I + c1 A + c2 A^2 in one dense random matrix A commute,
    # and unlike the quadric-derived connections their X^3 does not vanish
    ctx = RingContext(p, n, m)
    rng = Random(7 + 1000 * p + 10 * n + m)
    r = d + 2
    frame = _split_frame(ctx, [1] * d)
    a = RingMat.from_rows(ctx, [[random_scalar(rng, ctx) for _ in range(r)] for _ in range(r)])
    a2 = a @ a
    mats = []
    for _ in range(d):
        c0, c1, c2 = (random_scalar(rng, ctx) for _ in range(3))
        mats.append(RingMat.identity(ctx, r).scale(c0) + a.scale(c1) + a2.scale(c2))
    conn = ConnectionData(frame, mats, check=False)
    point = DeformationPoint(ctx, [p * random_scalar(rng, ctx) for _ in range(d)])
    x = RingMat.zeros(ctx, r, r)
    for mat, pa in zip(mats, point.entries):
        x = x + mat.scale(pa.exact_div_p(1))
    assert not (x @ x @ x).is_zero()
    y = RingVec.from_entries(ctx, [random_scalar(rng, ctx) for _ in range(r)])
    assert transport(conn, point, y) == _multi_index_transport(conn, point, y)


def test_connection_refuses_non_commuting_matrices():
    # transport sums one series in X = sum a_i D_i, so commutativity is
    # checked whatever check says
    ctx = RingContext(5, 4, 2)
    rng = Random(8)
    frame = _split_frame(ctx, [1, 1])

    def rand_mat():
        return RingMat.from_rows(ctx, [[random_scalar(rng, ctx) for _ in range(4)] for _ in range(4)])

    mats = [rand_mat(), rand_mat()]
    assert (mats[0] @ mats[1]) != (mats[1] @ mats[0])
    for check in (True, False):
        with pytest.raises(InputError, match="must commute"):
            ConnectionData(frame, mats, check=check)


def _shape_counter(monkeypatch):
    """Record (rows, cols, operand kind) of every RingMat product."""
    calls = Counter()
    matmul = RingMat.__matmul__

    def counting(self, other):
        calls[self.rows, self.cols, type(other).__name__] += 1
        return matmul(self, other)

    monkeypatch.setattr(RingMat, "__matmul__", counting)
    return calls


def test_transport_product_count_at_rank_22(monkeypatch):
    # X is one (1, d) by (d, r^2) product, then the series makes M - 1
    # matrix-vector products; the first transport makes no others
    ctx = RingContext(5, 8, 1)
    rng = Random(22)
    conn = random_connection(rng, ctx, 20)
    point = random_deformation_point(rng, conn)
    y = RingVec.basis_vector(ctx, 22, 0)
    bound = truncation_degree(8, 5)
    per_transport = Counter({(1, 20, "RingMat"): 1, (22, 22, "RingVec"): bound - 1})
    calls = _shape_counter(monkeypatch)
    first = transport(conn, point, y)
    assert calls == per_transport
    for _ in range(2):
        calls.clear()
        assert transport(conn, point, y) == first
        assert calls == per_transport


def test_transport_at_precision_one_is_the_identity(monkeypatch):
    # M(1, p) = 1: the series is its constant term, so there is no product
    ctx = RingContext(5, 1, 1)
    rng = Random(1)
    conn = random_connection(rng, ctx, 3)
    point = random_deformation_point(rng, conn)
    y = RingVec.basis_vector(ctx, conn.frame.rank, 0)
    calls = _shape_counter(monkeypatch)
    assert transport(conn, point, y) == y
    assert not calls
    assert phi_map(conn, point) == (ctx.zero(),) * 3


def test_phi_invert_makes_m_products_per_phi_map(monkeypatch):
    ctx = RingContext(5, 6, 1)
    rng = Random(66)
    conn = random_connection(rng, ctx, 4)
    target = [ctx.scalar(5) * random_scalar(rng, ctx) for _ in range(4)]
    maps = []

    def counted(*args):
        maps.append(args)
        return phi_map(*args)

    monkeypatch.setattr(torelli, "phi_map", counted)
    calls = _shape_counter(monkeypatch)
    point = phi_invert(conn, target)
    assert len(maps) >= 3
    bound = truncation_degree(6, 5)
    assert calls == Counter({(1, 4, "RingMat"): len(maps), (6, 6, "RingVec"): (bound - 1) * len(maps)})
    assert phi_map(conn, point) == tuple(target)


def test_phi_round_trip_at_rank_22():
    ctx = RingContext(5, 8, 1)
    rng = Random(2208)
    conn = random_connection(rng, ctx, 20)
    point = random_deformation_point(rng, conn)
    image = phi_map(conn, point)
    for h, a in zip(image, point.entries):
        assert (h - a).valuation() >= 2
    assert phi_invert(conn, image) == point


def test_truncation_degree_values():
    assert truncation_degree(3, 5) == 3
    assert truncation_degree(3, 3) == 4
    assert truncation_degree(4, 3) == 5
    assert truncation_degree(1, 7) == 1


def _factorial_valuation(k, p):
    return sum(k // p ** i for i in range(1, k.bit_length() + 1))


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_truncation_degree_is_tight(p):
    # one more than the last degree whose term p^k/k! survives at precision n;
    # k - v_p(k!) >= k/2 for p >= 3, so no such k lies past 2n
    for n in range(1, 41):
        last = max(k for k in range(2 * n + 1) if k - _factorial_valuation(k, p) < n)
        assert truncation_degree(n, p) == last + 1


def test_transport_at_origin_is_identity():
    frame = _split_frame(C53, [2])
    conn = quadric_connection(frame)
    origin = DeformationPoint(C53, [0])
    y = RingVec.from_entries(C53, [1, 2, 3])
    assert transport(conn, origin, y) == y


def test_transport_nilpotent_closed_form():
    # rank 3, Q = (2): D1 is nilpotent of index 3, so the series for y = v1
    # has exactly the degree <= 2 terms
    frame = _split_frame(C53, [2])
    conn = quadric_connection(frame)
    point = DeformationPoint(C53, [5])
    y = RingVec.basis_vector(C53, 3, 0)
    out = transport(conn, point, y)
    d1y = conn.matrices[0] @ y
    d2y = conn.matrices[0] @ d1y
    gamma2 = C53.divided_power_factor(2)
    expected = y + d1y.scale(C53.scalar(5)) + d2y.scale(gamma2 * C53.one())
    assert out == expected


def test_transport_is_linear_in_y():
    frame = _split_frame(C53, [2, 4])
    conn = quadric_connection(frame)
    point = DeformationPoint(C53, [5, 10])
    y1 = RingVec.from_entries(C53, [1, 0, 2, 0])
    y2 = RingVec.from_entries(C53, [0, 3, 0, 1])
    lhs = transport(conn, point, y1 + y2)
    assert lhs == transport(conn, point, y1) + transport(conn, point, y2)


def test_transport_preserves_pairing():
    frame = _split_frame(C53, [2, 4])
    conn = quadric_connection(frame)
    point = DeformationPoint(C53, [5, 20])
    lat = frame.lattice
    y1 = RingVec.from_entries(C53, [1, 2, 3, 4])
    y2 = RingVec.from_entries(C53, [0, 1, 1, 2])
    t1 = transport(conn, point, y1)
    t2 = transport(conn, point, y2)
    assert lat.pairing(t1, t2) == lat.pairing(y1, y2)


def test_phi_at_origin():
    frame = _split_frame(C53, [2])
    conn = quadric_connection(frame)
    assert phi_map(conn, DeformationPoint(C53, [0])) == (C53.zero(),)


def test_phi_first_order_law():
    # h_i = p a_i mod p^2 for adapted connections
    frame = _split_frame(C53, [2, 4])
    conn = quadric_connection(frame)
    for coords in [[5, 0], [0, 5], [10, 20], [5, 5]]:
        point = DeformationPoint(C53, coords)
        image = phi_map(conn, point)
        for h, a in zip(image, point.entries):
            assert (h - a).valuation() >= 2


def test_phi_line_is_valid_period_line():
    frame = _split_frame(C53, [2, 4])
    conn = quadric_connection(frame)
    line = phi_line(conn, DeformationPoint(C53, [5, 10]))
    assert [a for a in line.coordinates()] == list(
        phi_map(conn, DeformationPoint(C53, [5, 10]))
    )


def test_phi_invert_zero():
    frame = _split_frame(C53, [2])
    conn = quadric_connection(frame)
    point = phi_invert(conn, [0])
    assert point == DeformationPoint(C53, [0])


def test_phi_round_trips():
    frame = _split_frame(C53, [2, 4])
    conn = quadric_connection(frame)
    for coords in [[5, 10], [20, 5], [25, 0], [115, 60]]:
        point = DeformationPoint(C53, coords)
        image = phi_map(conn, point)
        back = phi_invert(conn, image)
        assert back == point
        forward = phi_map(conn, back)
        assert forward == image


def test_phi_invert_within_n_iterations():
    frame = _split_frame(C53, [2, 4])
    conn = quadric_connection(frame)
    # the contraction gains one digit per step: n iterations always suffice
    point = phi_invert(conn, [5, 115], max_iterations=C53.n)
    assert phi_map(conn, point) == (C53.scalar(5), C53.scalar(115))


def test_phi_invert_rejects_unit_target():
    frame = _split_frame(C53, [2])
    conn = quadric_connection(frame)
    with pytest.raises(ValuationViolation):
        phi_invert(conn, [1])
    with pytest.raises(DimensionMismatch):
        phi_invert(conn, [5, 5])


def test_no_convergence_reported():
    frame = _split_frame(C53, [2])
    conn = quadric_connection(frame)
    with pytest.raises(NoConvergence, match=r"within 0 iterations.* = 3$"):
        phi_invert(conn, [5], max_iterations=0)
    # one correction step on a map that is not the identity leaves an error
    # whose valuation the message reports
    ctx = RingContext(5, 6, 1)
    rng = Random(5)
    conn = random_connection(rng, ctx, 3)
    goal = phi_map(conn, random_deformation_point(rng, conn))
    first = phi_map(conn, DeformationPoint(ctx, goal))
    step = DeformationPoint(ctx, [2 * t - c for t, c in zip(goal, first)])
    error = min((t - c).valuation() for t, c in zip(goal, phi_map(conn, step)))
    assert 2 <= error < ctx.n
    with pytest.raises(NoConvergence, match=rf"within 1 iterations; .* = {error}$"):
        phi_invert(conn, goal, max_iterations=1)


def test_quadric_connection_validates():
    frame = _split_frame(C53, [2, 4])
    conn = quadric_connection(frame)
    conn.validate()
    assert conn.dimension == 2


def test_quadric_connection_needs_split_frame():
    gram = [[0, 0, 1], [0, 2, 0], [1, 0, 2]]  # v_r not isotropic
    frame = PeriodFrame(QuadLattice(C53, gram))
    with pytest.raises(InputError):
        quadric_connection(frame)


def test_connection_invariants_enforced():
    frame = _split_frame(C53, [2])
    good = quadric_connection(frame)
    # breaking compatibility: D + E with E not pairing-skew
    bad = good.matrices[0] + RingMat.from_rows(C53, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(InputError):
        ConnectionData(frame, [bad])


def test_adapt_reconstructs_adapted_form():
    frame = _split_frame(C53, [2, 4])
    conn = quadric_connection(frame)
    # conjugating by a parabolic change of basis loses adaptation but keeps
    # commutativity and compatibility; adapt() recovers an equivalent form
    c = RingMat.from_rows(
        C53,
        [
            [1, 1, 2, 3],
            [0, 1, 0, 1],
            [0, 0, 1, 2],
            [0, 0, 0, 1],
        ],
    )
    # c fixes v1 and has unit bottom-right corner, so the conjugated Gram
    # is again in standard frame position
    from k3lift import inverse as mat_inverse

    cinv = mat_inverse(c)
    new_gram = c.transpose() @ frame.lattice.gram @ c
    mats = [cinv @ d @ c for d in conn.matrices]
    new_frame = PeriodFrame(QuadLattice(C53, new_gram))
    adapted = ConnectionData.adapt(new_frame, mats)
    adapted.validate()
    # the adapted connection defines the same local map up to frame change:
    # its phi still satisfies the first-order law
    point = DeformationPoint(C53, [5, 10])
    image = phi_map(adapted, point)
    for h, a in zip(image, point.entries):
        assert (h - a).valuation() >= 2


def test_transport_context_checks():
    frame = _split_frame(C53, [2])
    conn = quadric_connection(frame)
    other = RingContext(7, 3, 1)
    from k3lift import ContextMismatch

    with pytest.raises(ContextMismatch):
        transport(conn, DeformationPoint(other, [7]), RingVec.basis_vector(other, 3, 0))
    with pytest.raises(DimensionMismatch):
        transport(conn, DeformationPoint(C53, [5, 5]), RingVec.basis_vector(C53, 3, 0))


@pytest.mark.parametrize("n", [1, 2])
def test_transport_refuses_a_vector_of_another_rank(n):
    # at n = 1 the series is y itself, so y's rank is checked before it
    ctx = RingContext(5, n, 1)
    conn = quadric_connection(_split_frame(ctx, [2, 2, 2]))
    point = DeformationPoint(ctx, [0, 0, 0])
    assert transport(conn, point, RingVec.basis_vector(ctx, 5, 0)).rank == 5
    with pytest.raises(DimensionMismatch, match="vector length must be 5"):
        transport(conn, point, RingVec.basis_vector(ctx, 7, 0))


def test_deformation_point_validation():
    with pytest.raises(ValuationViolation):
        DeformationPoint(C53, [1])
    p = DeformationPoint(C53, [5, 10])
    assert len(p) == 2
    assert p.to_json() == {"entries": [[5], [10]]}
