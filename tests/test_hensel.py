"""Newton-Hensel root lifting and isotropic-vector construction."""

import itertools

import pytest

from k3lift import (
    BadPairing,
    NonSimpleRoot,
    NonUnitPivot,
    NotNearIsotropic,
    QuadLattice,
    RingContext,
    RingVec,
    hensel_root,
    isotropic_combination,
    orthogonalize_with_coefficient,
    poly_eval,
)
from k3lift import witt

C72 = RingContext(7, 2, 1)
C53 = RingContext(5, 3, 1)


def test_sqrt_two_mod_49():
    # f = t^2 - 2, residue root 3: the lift is 10 (10^2 = 100 = 2 + 2*49)
    x = hensel_root(C72, [-2, 0, 1], 3)
    assert x == C72.scalar(10)
    assert x * x == C72.scalar(2)


def test_linear_polynomial():
    assert hensel_root(C53, [-17, 1], 17 % 5) == C53.scalar(17)


def test_double_root_rejected():
    with pytest.raises(NonSimpleRoot):
        hensel_root(C72, [0, 0, 1], 0)  # t^2 at 0: derivative vanishes


def test_initial_point_must_be_residue_root():
    with pytest.raises(NonSimpleRoot):
        hensel_root(C72, [-2, 0, 1], 1)  # 1 is not a root of t^2 - 2 mod 7


def test_root_uniqueness_exhaustive():
    # over every ring with p^n <= 343 the lifted root is the only root
    # congruent to the residue root
    for p, n in [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2), (7, 3)]:
        ctx = RingContext(p, n, 1)
        coeffs = [-2, 0, 1] if p != 7 else [-2, 0, 1]
        # pick a residue root of t^2 - 2 if one exists, else t^2 - 4
        roots_mod_p = [x for x in range(p) if (x * x - 2) % p == 0]
        if not roots_mod_p:
            coeffs = [-4, 0, 1]
            roots_mod_p = [x for x in range(p) if (x * x - 4) % p == 0]
        x0 = roots_mod_p[0]
        lifted = hensel_root(ctx, coeffs, x0)
        matches = [
            c
            for c in range(p**n)
            if c % p == x0 and poly_eval(ctx, coeffs, ctx.scalar(c)).is_zero()
        ]
        assert matches == [lifted.to_json()[0]]


def test_isotropic_combination_worked_example():
    ctx = C53
    lat = QuadLattice(ctx, [[5, 1], [1, 0]])
    u = lat.vector([1, 0])
    v = lat.vector([0, 1])
    a, w = isotropic_combination(lat, u, v)
    assert a == ctx.scalar(12)
    assert lat.pairing(w, w).is_zero()
    assert w == u + v.scale(a * ctx.scalar(5))
    # the reduced line is unchanged
    assert w.reduce_mod_p() == u.reduce_mod_p()


def test_isotropic_combination_already_isotropic():
    ctx = C53
    lat = QuadLattice(ctx, [[0, 1], [1, 0]])
    a, w = isotropic_combination(lat, lat.vector([1, 0]), lat.vector([0, 1]))
    assert a.is_zero()
    assert w == lat.vector([1, 0])


def test_isotropic_combination_requires_unit_pairing():
    ctx = C53
    lat = QuadLattice(ctx, [[5, 5], [5, 0]])
    with pytest.raises(BadPairing):
        isotropic_combination(lat, lat.vector([1, 0]), lat.vector([0, 1]))


def test_isotropic_combination_requires_near_isotropic():
    ctx = C53
    lat = QuadLattice(ctx, [[1, 1], [1, 0]])
    with pytest.raises(NotNearIsotropic):
        isotropic_combination(lat, lat.vector([1, 0]), lat.vector([0, 1]))


def test_isotropic_combination_precision_one():
    ctx = RingContext(5, 1, 1)
    lat = QuadLattice(ctx, [[0, 1], [1, 0]])
    a, w = isotropic_combination(lat, lat.vector([1, 0]), lat.vector([0, 1]))
    assert a.is_zero()
    assert w == lat.vector([1, 0])


def test_isotropic_combination_nonzero_vv():
    # quadratic term active: v.v a unit
    ctx = C53
    lat = QuadLattice(ctx, [[5, 1], [1, 2]])
    u = lat.vector([1, 0])
    v = lat.vector([0, 1])
    a, w = isotropic_combination(lat, u, v)
    assert lat.pairing(w, w).is_zero()
    assert w.reduce_mod_p() == u.reduce_mod_p()


def test_orthogonalize_already_orthogonal():
    ctx = RingContext(5, 2, 1)
    lat = QuadLattice(ctx, [[0, 1], [1, 0]])
    c = lat.vector([1, 0])
    v = lat.vector([1, 0])  # v.c = 0
    u = lat.vector([0, 1])  # u.c = 1
    a, out = orthogonalize_with_coefficient(lat, c, v, u)
    assert a.is_zero()
    assert out == v


def test_orthogonalize_worked_example():
    # v.c = 5, u.c = 1: a = -5 = 20 mod 25
    ctx = RingContext(5, 2, 1)
    lat = QuadLattice(ctx, [[0, 0, 1], [0, 0, 5], [1, 5, 0]])
    c = lat.vector([0, 0, 1])
    v = lat.vector([0, 1, 0])
    u = lat.vector([1, 0, 0])
    a, out = orthogonalize_with_coefficient(lat, c, v, u)
    assert a == ctx.scalar(20)
    assert lat.pairing(out, c).is_zero()
    assert orthogonalize_with_coefficient(lat, c, v, u)[1] == out


def test_orthogonalize_requires_unit_pivot():
    ctx = RingContext(5, 2, 1)
    lat = QuadLattice(ctx, [[0, 0, 5], [0, 0, 1], [5, 1, 0]])
    c = lat.vector([0, 0, 1])
    v = lat.vector([0, 1, 0])
    u = lat.vector([1, 0, 0])  # u.c = 5, not a unit
    with pytest.raises(NonUnitPivot):
        orthogonalize_with_coefficient(lat, c, v, u)


def test_high_precision_roots():
    ctx = RingContext(3, 9, 1)
    x = hensel_root(ctx, [-7, 0, 1], 1)  # sqrt(7) = 1 mod 3
    assert (x * x) == ctx.scalar(7)


def test_extension_field_root():
    ctx = RingContext(3, 3, 2)
    # x^2 + 1 = 0 has the modulus generator as a root
    gen = ctx.scalar([0, 1])
    x = hensel_root(ctx, [1, 0, 1], gen)
    assert (x * x) == -ctx.one()


def _count_poly_evals(monkeypatch):
    """Route witt.poly_eval, the one evaluator hensel_root calls, through a
    counter; returns the list its calls are appended to."""
    calls = []
    evaluate = witt.poly_eval

    def counting(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(witt, "poly_eval", counting)
    return calls


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 12, 19, 20, 40])
def test_newton_evaluation_count(monkeypatch, n, m):
    # f = t^2 - c, c = 2 (m = 1) or 2 + 7x, has the residue root 3, and no
    # Newton iterate is a root before the last step: f'(x0), f(x0), then per
    # step f(x) and, but for the last step, f'(x)
    ctx = RingContext(7, n, m)
    c = ctx.scalar(2 if m == 1 else [2, 7])
    calls = _count_poly_evals(monkeypatch)
    x = hensel_root(ctx, [-c, 0, 1], 3)
    steps = (n - 1).bit_length()
    assert len(calls) == (2 if n == 1 else 2 * steps + 1)
    assert x * x == c
    assert x.reduce() == ctx.reduce(3)


def test_newton_stops_at_an_exact_root(monkeypatch):
    # x0 = 2 is a root of t^2 - 4: only f'(x0) and f(x0) are evaluated
    calls = _count_poly_evals(monkeypatch)
    assert hensel_root(C72, [-4, 0, 1], 2) == C72.scalar(2)
    assert len(calls) == 2
    # t - 17 over Z/125 is solved by the first step: f'(x1) and f(x1) = 0
    # follow it, and the second step is skipped
    calls.clear()
    assert hensel_root(C53, [-17, 1], 2) == C53.scalar(17)
    assert len(calls) == 4


def test_root_uniqueness_exhaustive_over_an_extension():
    # every monic quadratic over W(F_9)/9 and every simple residue root:
    # the lifted root is the only root in its residue class
    ctx = RingContext(3, 2, 2)
    elements = list(ctx.elements())
    classes = {}
    for y in elements:
        classes.setdefault(y.reduce(), []).append(y)
    classes = [(ctx.lift(r), members) for r, members in classes.items()]
    lifted = 0
    for b, c in itertools.product(elements, repeat=2):
        coeffs = [c, b, 1]
        for x0, members in classes:
            if poly_eval(ctx, coeffs, x0).is_unit() or not (b + 2 * x0).is_unit():
                continue
            roots = [y for y in members if poly_eval(ctx, coeffs, y).is_zero()]
            assert roots == [hensel_root(ctx, coeffs, x0)]
            lifted += 1
    assert lifted > 1000


def test_isotropic_combination_pairs_once(monkeypatch):
    # u.u, u.v and v.v come from one Gram block; the one pairing is the
    # final w.w check
    lat = QuadLattice(C53, [[5, 1], [1, 2]])
    calls = []
    pairing = QuadLattice.pairing

    def counting(self, u, v):
        calls.append((u, v))
        return pairing(self, u, v)

    monkeypatch.setattr(QuadLattice, "pairing", counting)
    a, w = isotropic_combination(lat, lat.vector([1, 0]), lat.vector([0, 1]))
    assert len(calls) == 1
    assert calls[0][0] == w and calls[0][1] == w
