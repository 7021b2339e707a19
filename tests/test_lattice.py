"""Quadratic lattices over Z and over the local ring: frozen invariants."""

import random
from fractions import Fraction

import numpy as np
import pytest

from k3lift import (
    DiscriminantGroup,
    InputError,
    IntLattice,
    QuadLattice,
    RingContext,
    bareiss_determinant,
    signature,
    smith_normal_form,
    standard_lattice,
)


def test_hyperbolic_plane():
    u = standard_lattice("U")
    assert u.rank == 2
    assert u.determinant() == -1
    assert u.even
    assert u.is_unimodular()
    assert u.signature() == (1, 1, 0)


def test_e8_invariants():
    e8 = standard_lattice("E8")
    assert e8.rank == 8
    assert abs(e8.determinant()) == 1
    assert e8.even
    assert e8.signature() == (0, 8, 0)
    # simple roots have norm -2 in the negative definite convention
    for i in range(8):
        v = [0] * 8
        v[i] = 1
        assert e8.norm(v) == -2


def test_k3_lattice():
    k3 = standard_lattice("K3")
    assert k3.rank == 22
    assert abs(k3.determinant()) == 1
    assert k3.even
    assert k3.signature() == (3, 19, 0)


def test_unknown_standard_lattice():
    with pytest.raises(InputError):
        standard_lattice("Leech")


def test_discriminant_groups():
    assert not standard_lattice("E8").discriminant_group().invariants
    d5 = IntLattice([[5, 0], [0, 5]]).discriminant_group()
    assert d5.invariants == (5, 5)
    assert d5.order == 25
    u3 = standard_lattice("U")
    for _ in range(4):
        u3 = u3.direct_sum(IntLattice([[3]]))
    d3 = u3.discriminant_group()
    assert d3.invariants == (3, 3, 3, 3)
    assert d3.artin_invariant(3) == 2
    assert d3.artin_invariant(5) is None


def test_artin_invariant_needs_even_length():
    assert DiscriminantGroup((3, 3, 3)).artin_invariant(3) is None
    assert DiscriminantGroup((3, 9)).artin_invariant(3) is None


def test_invariant_factors_must_chain():
    with pytest.raises(InputError):
        DiscriminantGroup((4, 6))


def test_orthogonal_complement_in_u():
    u = standard_lattice("U")
    comp = u.orthogonal_complement([[1, 0]])
    assert len(comp) == 1
    # e1 pairs to zero with itself, so the complement is spanned by e1 again
    assert [int(x) for x in comp[0]] == [1, 0]


def test_orthogonal_complement_empty_set_is_everything():
    u = standard_lattice("U")
    comp = u.orthogonal_complement([])
    assert len(comp) == 2


def test_orthogonal_complement_in_u_plus_u():
    l4 = standard_lattice("U").direct_sum(standard_lattice("U"))
    comp = l4.orthogonal_complement([[1, 1, 0, 0]])
    assert len(comp) == 3
    basis = np.array(comp)
    # e1 - f1 = (1, -1, 0, 0) pairs to 0 with e1 + f1 and must lie in the span
    aug = np.vstack([basis, [1, -1, 0, 0]])
    d, _, _ = smith_normal_form(aug)
    diag = [int(d[i, i]) for i in range(min(d.shape))]
    assert sum(1 for x in diag if x != 0) == 3


def test_complement_is_saturated():
    # the complement of 2*e1 in U equals the complement of e1 (primitive)
    u = standard_lattice("U")
    comp = u.orthogonal_complement([[2, 0]])
    assert len(comp) == 1
    assert [abs(int(x)) for x in comp[0]] == [1, 0]


def test_isotropic_vectors():
    u = standard_lattice("U")
    assert u.norm([1, 0]) == 0
    assert u.norm([1, 1]) != 0


def test_local_lattice_pairing_and_isotropy():
    ctx = RingContext(5, 3, 1)
    lat = QuadLattice(ctx, [[5, 1], [1, 0]])
    v = lat.vector([1, 12])
    assert lat.norm(v) == ctx.scalar(29)
    assert not lat.norm(v).is_zero()
    assert lat.norm(lat.vector([0, 1])).is_zero()


def test_local_lattice_change_ring():
    ctx = RingContext(5, 3, 1)
    lat = standard_lattice("U").change_ring(ctx)
    assert lat.ring == ctx
    assert lat.pairing(lat.vector([1, 0]), lat.vector([0, 1])) == ctx.one()


def test_gram_must_be_symmetric():
    with pytest.raises(InputError):
        IntLattice([[0, 1], [2, 0]])


def test_lattice_constructors_are_typed():
    ctx = RingContext(5, 2, 1)
    for ring, gram in ((None, [[0, 1], [1, 0]]), (ctx, 5), (ctx, [0, 1, 1, 0])):
        with pytest.raises(InputError):
            QuadLattice(ring, gram)
    with pytest.raises(InputError):
        IntLattice([[0, 1.0], [1.0, 0]])
    assert not IntLattice([[1]]).even
    assert IntLattice(np.array([[2, 1], [1, 2]])).to_json() == {
        "ring": "Z", "rank": 2, "gram": [[2, 1], [1, 2]]
    }


def test_smith_normal_form_properties():
    rng = random.Random(3)
    for _ in range(20):
        a = np.array([[rng.randrange(-9, 10) for _ in range(3)] for _ in range(3)])
        d, u, v = smith_normal_form(a)
        assert (u @ a @ v == d).all()
        assert abs(round(float(np.linalg.det(u.astype(float))))) == 1
        assert abs(round(float(np.linalg.det(v.astype(float))))) == 1
        diag = [int(d[i, i]) for i in range(3)]
        for x, y in zip(diag, diag[1:]):
            if x != 0 and y != 0:
                assert y % x == 0
            if x == 0:
                assert y == 0


def test_snf_invariant_under_unimodular_change():
    a = np.array([[2, 0, 0], [0, 6, 0], [0, 0, 30]])
    e = np.array([[1, 1, 0], [0, 1, 0], [0, 2, 1]])  # unimodular
    d1, _, _ = smith_normal_form(a)
    d2, _, _ = smith_normal_form(e.T @ a @ e)
    assert ([int(d1[i, i]) for i in range(3)]) == [int(d2[i, i]) for i in range(3)]


def test_bareiss_determinant_matches_numpy():
    rng = random.Random(11)
    for _ in range(20):
        a = [[rng.randrange(-5, 6) for _ in range(4)] for _ in range(4)]
        assert bareiss_determinant(a) == round(float(np.linalg.det(np.array(a))))


def test_signature_function():
    assert signature([[1, 0], [0, -1]]) == (1, 1, 0)
    assert signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert signature([[0, 0], [0, 2]]) == (1, 0, 1)


def _signature_over_q(mat):
    """Reference inertia by symmetric elimination over Fraction."""
    a = [[Fraction(x) for x in row] for row in mat]
    pos = neg = 0
    live = list(range(len(a)))
    while live:
        piv = next((i for i in live if a[i][i]), None)
        if piv is None:
            off = next(((i, j) for i in live for j in live if i != j and a[i][j]), None)
            if off is None:
                break
            i, j = off
            for k in live:
                a[i][k] += a[j][k]
            for k in live:
                a[k][i] += a[k][j]
            piv = i
        d = a[piv][piv]
        pos, neg = (pos + 1, neg) if d > 0 else (pos, neg + 1)
        live.remove(piv)
        for i in live:
            f = a[i][piv] / d
            for j in live:
                a[i][j] -= f * a[piv][j]
    return pos, neg, len(a) - pos - neg


def _random_symmetric(rng, rank, bound, zero_diagonal):
    a = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            if rng.random() < 0.7 and not (i == j and zero_diagonal):
                a[i][j] = a[j][i] = rng.randint(-bound, bound)
    return a


def _random_singular(rng, rank):
    # B^T D B with fewer rows than columns: rank below the size
    k = rng.randrange(rank)
    b = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(k)]
    d = [rng.choice([-2, -1, 1, 2]) for _ in range(k)]
    return [[sum(b[t][i] * d[t] * b[t][j] for t in range(k)) for j in range(rank)]
            for i in range(rank)]


def test_signature_matches_rational_elimination():
    rng = random.Random(20231)
    for trial in range(600):
        rank = rng.randint(1, 8)
        if trial % 4 == 3:
            mat = _random_singular(rng, rank)
        else:
            bound = (2, 10, 10**6)[trial % 3]
            mat = _random_symmetric(rng, rank, bound, zero_diagonal=trial % 2 == 1)
        got = signature(mat)
        assert got == _signature_over_q(mat), mat
        assert all(type(x) is int for x in got)


def test_signature_pins():
    assert signature(standard_lattice("U").gram) == (1, 1, 0)
    assert signature(standard_lattice("E8").gram) == (0, 8, 0)
    assert signature(standard_lattice("K3").gram) == (3, 19, 0)
    assert signature([[0, 0], [0, 2]]) == (1, 0, 1)
    # rank 3 and negative semidefinite: clearing the pivot row inside the
    # elimination loop once left stale entries here and read (1, 4, 0)
    assert signature([[-12, 0, -12, -2, 2], [0, -14, -1, 10, -14], [-12, -1, -14, 3, -2],
                      [-2, 10, 3, -17, 17], [2, -14, -2, 17, -19]]) == (0, 3, 2)


def test_direct_sum_blocks():
    u = standard_lattice("U")
    s = u.direct_sum(u)
    assert s.rank == 4
    assert s.pairing([1, 0, 0, 0], [0, 0, 1, 0]) == 0
    assert s.pairing([1, 0, 0, 0], [0, 1, 0, 0]) == 1


def test_json_round_trip():
    u = standard_lattice("U")
    data = u.to_json()
    assert data["ring"] == "Z"
    ctx = RingContext(5, 2, 1)
    lat = QuadLattice(ctx, [[5, 1], [1, 0]])
    out = lat.to_json()
    assert out["ring"] == ctx.to_json()
