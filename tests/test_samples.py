"""Random instance generators: exactness by construction, determinism."""

from random import Random

import pytest

from k3lift import (
    DimensionMismatch,
    InputError,
    InsufficientResidueField,
    NotTame,
    RingContext,
    eigen_split,
    is_unimodular,
    multiplicative_order,
    required_extension_degree,
    phi_invert,
    phi_map,
    random_connection,
    random_deformation_point,
    random_isotropic_instance,
    random_period_frame,
    random_tame_isometry,
    random_unimodular,
    random_symmetric_unimodular,
    isotropic_combination,
)

C72 = RingContext(7, 2, 1)


def test_multiplicative_order():
    assert multiplicative_order(1, 7) == 1
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 7) == 6
    assert multiplicative_order(18, 49) == 3
    assert multiplicative_order(5, 1) == 1
    assert required_extension_degree(5, 1) == 1
    assert required_extension_degree(7, 12) == 2
    for a, modulus in [(2, 4), (3, 0), (3, -7)]:
        with pytest.raises(InputError):
            multiplicative_order(a, modulus)


def test_random_unimodular():
    rng = Random(0)
    for size in [1, 2, 4, 6]:
        m = random_unimodular(rng, C72, size)
        assert is_unimodular(m)


def test_random_symmetric_unimodular():
    rng = Random(1)
    for size in [1, 3, 5]:
        g = random_symmetric_unimodular(rng, C72, size)
        assert g.is_symmetric()
        assert is_unimodular(g)


def test_random_tame_isometry_exact():
    rng = Random(2)
    for order, m in [(1, 1), (2, 1), (3, 1), (4, 2), (6, 1), (8, 2), (12, 2)]:
        ctx = RingContext(7, 3, m)
        iso = random_tame_isometry(rng, ctx, 6, order)
        assert iso.verify()
        assert iso.order() == order
        split = eigen_split(iso, order)
        assert all(split.verify_identities().values())
        assert split.pairing_orthogonality()


def test_random_tame_isometry_rejects_wild():
    rng = Random(3)
    with pytest.raises(NotTame):
        random_tame_isometry(rng, C72, 4, 14)
    with pytest.raises(InputError):
        random_tame_isometry(rng, C72, 4, 0)


def test_random_tame_isometry_rank_bound():
    rng = Random(4)
    with pytest.raises(DimensionMismatch):
        random_tame_isometry(rng, C72, 1, 3)


def test_random_tame_isometry_needs_roots():
    rng = Random(5)
    with pytest.raises(InsufficientResidueField):
        random_tame_isometry(rng, RingContext(5, 2, 1), 4, 3)


def test_random_period_frame():
    rng = Random(6)
    frame = random_period_frame(rng, C72, 6)
    assert frame.rank == 6
    split = random_period_frame(rng, C72, 5, split=True)
    g = split.lattice.gram
    r = split.rank
    assert g.entry(r - 1, r - 1).is_zero()
    for j in range(1, r - 1):
        assert g.entry(j, r - 1).is_zero()


def test_random_connection_round_trip():
    rng = Random(7)
    ctx = RingContext(5, 3, 1)
    for dim in [1, 2, 3]:
        conn = random_connection(rng, ctx, dim)
        conn.validate()
        point = random_deformation_point(rng, conn)
        image = phi_map(conn, point)
        assert phi_invert(conn, image) == point


def test_random_isotropic_instance():
    rng = Random(8)
    ctx = RingContext(5, 3, 1)
    for rank in [2, 4, 6]:
        lat, u, v = random_isotropic_instance(rng, ctx, rank)
        assert lat.pairing(u, u).valuation() >= 1
        assert lat.pairing(u, v).is_unit()
        a, w = isotropic_combination(lat, u, v)
        assert lat.pairing(w, w).is_zero()
        assert w.reduce_mod_p() == u.reduce_mod_p()


def test_determinism_under_seed():
    ctx = RingContext(7, 3, 1)
    iso1 = random_tame_isometry(Random(42), ctx, 5, 3)
    iso2 = random_tame_isometry(Random(42), ctx, 5, 3)
    assert iso1.matrix == iso2.matrix
    assert iso1.lattice == iso2.lattice
    iso3 = random_tame_isometry(Random(43), ctx, 5, 3)
    assert iso3.matrix != iso1.matrix or iso3.lattice != iso1.lattice
