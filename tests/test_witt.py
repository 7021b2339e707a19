"""Scalar ring: frozen oracle values and exhaustive small-field properties."""

import itertools
import math
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lift import (
    ContextMismatch,
    InputError,
    InsufficientResidueField,
    NonUnit,
    NotTame,
    PadicScalar,
    RingContext,
    RingVec,
    ValuationViolation,
    default_modulus,
    witt,
)
from k3lift.samples import random_scalar, random_unit
from k3lift.witt import MAX_RESIDUE_DEGREE

C531 = RingContext(5, 3, 1)
C721 = RingContext(7, 2, 1)
C322 = RingContext(3, 2, 2)  # default modulus x^2 + 1 over F_3


def test_inverse_of_two_is_63():
    two = C531.scalar(2)
    assert two.inverse() == C531.scalar(63)
    assert two * C531.scalar(63) == C531.one()


def test_inverse_of_one():
    assert C531.one().inverse() == C531.one()


def test_inverse_of_p_fails():
    with pytest.raises(NonUnit):
        C531.scalar(5).inverse()


def test_quadratic_extension_i_squared():
    assert C322.to_json()["modulus"] == [1, 0, 1]
    x = C322.scalar([0, 1])
    assert x * x == -C322.one()
    assert (x * x).to_json() == [8, 0]


def test_valuations():
    assert C531.scalar(50).valuation() == 2
    assert C531.one().valuation() == 0
    # zero reports the full precision: "at least n"
    assert C531.zero().valuation() == 3


def test_teichmuller_two_mod_49():
    t = C721.teichmuller(2)
    assert t == C721.scalar(30)
    assert t**3 == C721.one()
    assert C721.reduce(t) == C721.residue_context().scalar(2)


def test_teichmuller_fixed_points():
    assert C721.teichmuller(0) == C721.zero()
    assert C721.teichmuller(1) == C721.one()


def test_teichmuller_rejects_foreign_context():
    with pytest.raises(ContextMismatch):
        C721.teichmuller(C531.scalar(2))


def test_frobenius_prime_field_is_identity():
    a = C531.scalar(37)
    assert a.frobenius() == a


def test_frobenius_on_extension_generator():
    ctx = RingContext(3, 1, 2)
    x = ctx.scalar([0, 1])
    assert x.frobenius() == -x


@pytest.mark.parametrize(
    "spec, columns",
    [
        ((5, 4, 2), [(1, 0), (0, 624)]),
        ((7, 6, 2), [(1, 0), (0, 117648)]),
        (
            (3, 12, 4),
            [
                (1, 0, 0, 0),
                (109497, 502500, 66810, 145996),
                (472029, 455418, 475366, 97931),
                (329481, 516145, 112522, 85015),
            ],
        ),
        ((5, 20, 2), [(1, 0), (0, 95367431640624)]),
        (
            (3, 5, 7),
            [
                (1, 0, 0, 0, 0, 0, 0),
                (201, 33, 75, 31, 204, 87, 201),
                (21, 129, 183, 210, 204, 78, 25),
                (171, 144, 52, 63, 116, 45, 180),
                (176, 204, 175, 204, 186, 52, 201),
                (156, 103, 12, 217, 186, 25, 75),
                (126, 43, 126, 44, 103, 225, 238),
            ],
        ),
        ((13, 3, 3), [(1, 0, 0), (0, 1160, 0), (0, 0, 1036)]),
        (
            (3, 1, 6),
            [
                (1, 0, 0, 0, 0, 0),
                (0, 0, 0, 1, 0, 0),
                (1, 2, 0, 0, 0, 0),
                (0, 0, 0, 1, 2, 0),
                (1, 1, 1, 0, 0, 0),
                (0, 0, 0, 1, 1, 1),
            ],
        ),
        ((1000003, 2, 2), [(1, 0), (0, 1000006000008)]),
    ],
)
def test_frobenius_matrix_is_pinned(spec, columns):
    # column j is sigma(x)^j, with sigma(x) the Hensel root of the modulus
    # through x^p; every m > 1 Frobenius twist is read from these columns
    assert RingContext(*spec).frobenius_matrix() == columns


def test_frobenius_teichmuller_functorial():
    res = C322.residue_context()
    for idx, r in enumerate(res.elements()):
        t = C322.teichmuller(r)
        assert t.frobenius() == C322.teichmuller(r**3)


def test_cube_roots_of_unity_mod_49():
    roots = C721.nth_roots_of_unity(3)
    assert roots[0] == C721.one()
    assert {r.to_json()[0] for r in roots[1:]} == {18, 30}
    # power ordering: the list is 1, z, z^2
    assert roots[2] == roots[1] * roots[1]


def test_roots_of_unity_with_large_residue_field():
    # q - 1 = 17^10 - 1 is above constraints.FACTOR_LIMIT and still factors
    ctx = RingContext(17, 2, 10)
    roots = ctx.nth_roots_of_unity(11)
    assert len(set(roots)) == 11
    assert roots[1] ** 11 == ctx.one()


@pytest.mark.parametrize(
    "spec, generator",
    [
        ((3, 2, 2), (1, 1)),
        ((5, 3, 2), (1, 1)),
        ((13, 2, 2), (2, 1)),
        ((7, 2, 3), (1, 3, 0)),
        ((3, 1, 4), (0, 1, 0, 0)),
    ],
)
def test_residue_generator_is_pinned(spec, generator):
    # the smallest generator of F_q^* by coefficient index; for m > 1 the
    # scan skips the constants, none of which generates
    assert RingContext(*spec)._residue_generator().coeffs == generator


@pytest.mark.parametrize(
    "p, m, modulus",
    [
        (3, 2, (1, 0, 1)),
        (5, 2, (2, 0, 1)),
        (7, 2, (1, 0, 1)),
        (3, 4, (2, 1, 0, 0, 1)),
        (3, 6, (2, 1, 0, 0, 0, 0, 1)),
        (13, 2, (2, 0, 1)),
        (67, 3, (2, 0, 0, 1)),
        (23, 11, (2,) + (0,) * 10 + (1,)),
        (1000003, 2, (1, 0, 1)),
    ],
)
def test_default_modulus_is_pinned(p, m, modulus):
    # the first monic irreducible by low-coefficient index; every m > 1
    # output (Frobenius, roots of unity, generators) is written in its basis
    assert default_modulus(p, m) == modulus
    assert RingContext(p, 3, m).modulus == modulus


def _has_monic_factor(f, p, max_degree):
    """f (ascending, monic) has a monic factor of degree 1 .. max_degree over F_p."""
    for d in range(1, max_degree + 1):
        for low in itertools.product(range(p), repeat=d):
            g = list(low) + [1]
            r = list(f)
            for shift in range(len(r) - len(g), -1, -1):
                c = r[shift + d]
                for j, gj in enumerate(g):
                    r[shift + j] = (r[shift + j] - c * gj) % p
            if not any(r[:d]):
                return True
    return False


@pytest.mark.parametrize("p, m", [(3, 4), (3, 6), (5, 3)])
def test_modulus_test_matches_a_brute_force_factor_search(p, m):
    for low in itertools.product(range(p), repeat=m):
        f = list(low) + [1]
        if _has_monic_factor(f, p, m // 2):
            with pytest.raises(InputError, match="^modulus must be irreducible mod p$"):
                RingContext(p, 1, m, f)
        else:
            assert RingContext(p, 1, m, f).modulus == tuple(f)


def test_reducible_modulus_is_refused_at_every_precision():
    # x^2 - 1 = (x - 1)(x + 1) and x^4 + 1 = (x^2 + x + 2)(x^2 + 2x + 2) over F_3;
    # the lift x^2 + 8 is x^2 - 1 mod 3 as well
    for n, m, f in [(1, 2, [2, 0, 1]), (4, 2, [2, 0, 1]), (3, 2, [8, 0, 1]), (2, 4, [1, 0, 0, 0, 1])]:
        with pytest.raises(InputError, match="^modulus must be irreducible mod p$"):
            RingContext(3, n, m, f)


def _count_context_inits(monkeypatch):
    """Count RingContext.__init__ calls from here on; returns their argument list."""
    calls = []
    init = RingContext.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RingContext, "__init__", counting)
    return calls


def test_default_modulus_is_scanned_once_per_pair(monkeypatch):
    RingContext(11, 3, 2)
    calls = _count_context_inits(monkeypatch)
    # a second default context of (11, 2) reuses the first scan's modulus
    RingContext(11, 5, 2)
    assert calls == [(11, 5, 2)]


def test_with_precision_shares_the_residue_context(monkeypatch):
    base = RingContext(5, 20, 2, [2, 0, 1])
    calls = _count_context_inits(monkeypatch)
    low = base.with_precision(19)
    assert calls == [(5, 19, 2, (2, 0, 1))]
    assert low.residue_context() is base.residue_context()
    assert base.with_precision(19) is low


def test_roots_of_unity_over_a_large_prime_with_m_2():
    # q - 1 = 1000002 * 1000004 factors at once; a scan that tried the 10^6
    # constants of F_p first would take over a minute.  The timeout only
    # detects a hang: the call takes under a second.
    code = (
        "from k3lift import RingContext\n"
        "ctx = RingContext(1000003, 2, 2)\n"
        "roots = ctx.nth_roots_of_unity(3)\n"
        "print(len(set(roots)), roots[1] ** 3 == ctx.one(), roots[1].coeffs[1])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.split() == [b"3", b"True", b"0"]


def test_roots_of_unity_trivial_and_errors():
    assert C721.nth_roots_of_unity(1) == [C721.one()]
    with pytest.raises(InsufficientResidueField):
        C531.nth_roots_of_unity(3)
    with pytest.raises(NotTame):
        RingContext(3, 2, 1).nth_roots_of_unity(3)


_COEFF = st.integers(min_value=0, max_value=3**3 - 1)
_SCALAR = st.tuples(_COEFF, _COEFF).map(lambda t: RingContext(3, 3, 2).scalar(list(t)))


@settings(max_examples=60, deadline=None)
@given(_SCALAR, _SCALAR, _SCALAR)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + (-a) == a.ctx.zero()


@settings(max_examples=60, deadline=None)
@given(_SCALAR, _SCALAR)
def test_valuation_rules(a, b):
    n = a.ctx.n
    assert (a * b).valuation() == min(a.valuation() + b.valuation(), n)
    assert (a + b).valuation() >= min(a.valuation(), b.valuation())


@pytest.mark.parametrize(
    "ctx",
    [RingContext(3, 2, 1), RingContext(5, 2, 1), RingContext(7, 3, 1),
     RingContext(3, 1, 2), RingContext(3, 2, 2)],
    ids=["3^2", "5^2", "7^3", "F9", "W2(F9)"],
)
def test_inverses_exhaustive(ctx):
    seen = 0
    for a in ctx.elements():
        if not a.is_unit():
            with pytest.raises(NonUnit):
                a.inverse()
            continue
        inv = a.inverse()
        assert a * inv == ctx.one()
        assert inv * a == ctx.one()
        seen += 1
    assert seen > 0


def _power_newton_inverse(a):
    """The inversion before the residue cache: rbar^(q-2) in the residue
    field, then Newton steps on PadicScalar objects.  Kept as an oracle for
    PadicScalar.inverse."""
    ctx = a.ctx
    rbar = ctx.reduce(a) if ctx.n > 1 else a
    b = ctx.lift(rbar ** (ctx.q - 2))
    two = ctx.scalar(2)
    for _ in range(max(1, (ctx.n - 1).bit_length() + 1)):
        b = b * (two - a * b)
    return b


@pytest.mark.parametrize("spec", [(5, 1, 1), (7, 1, 2), (3, 12, 4), (5, 20, 2), (3, 19, 3), (101, 6, 1)])
def test_inverse_matches_power_newton(spec):
    ctx = RingContext(*spec)
    rng = random.Random(sum(spec))
    units = 0
    for _ in range(60):
        a = random_scalar(rng, ctx)
        if not a.is_unit():
            with pytest.raises(NonUnit):
                a.inverse()
            continue
        assert a.inverse() == _power_newton_inverse(a)
        units += 1
    assert units >= 40
    if ctx.m > 1:
        # every precision of the extension shares one residue field and its cache
        res = ctx.residue_context()
        assert 0 < len(res._inverse_cache) <= ctx.q - 1
        assert ctx.with_precision(ctx.n + 1).residue_context() is res
    for s in (ctx.zero(), ctx.scalar(ctx.p), ctx.scalar(ctx.p) * random_unit(rng, ctx)):
        with pytest.raises(NonUnit):
            s.inverse()


def test_teichmuller_multiplicative_order_exhaustive():
    q = 3**2
    res = C322.residue_context()
    for r in res.elements():
        if r.is_zero():
            continue
        t = C322.teichmuller(r)
        assert t ** (q - 1) == C322.one()


def test_frobenius_order_and_fixed_lifts():
    res = C322.residue_context()
    for r in res.elements():
        t = C322.teichmuller(r)
        assert t.frobenius().frobenius() == t  # order divides m = 2
        fixed = t.frobenius() == t
        assert fixed == (r**3 == r)  # exactly the prime-subring lifts


def test_scalar_json_round_trip():
    a = C322.scalar([7, 4])
    assert a.to_json() == [7, 4]
    assert C322.scalar(a.to_json()) == a


def test_scalar_coercion_is_exact():
    assert C322.scalar(np.int64(7)) == C322.scalar(7)
    assert C322.scalar((7, np.int64(4))) == C322.scalar([7, 4])
    for bad in ("1", True, 1.0, [1.9], [True], [1, "2"], None):
        with pytest.raises(InputError):
            C322.scalar(bad)


def test_context_json_round_trip():
    data = C322.to_json()
    assert data == {"p": 3, "n": 2, "m": 2, "modulus": [1, 0, 1]}
    assert RingContext.from_json(data) == C322


def test_context_json_fields_are_exact_integers():
    assert RingContext.from_json({"p": 5, "n": 3}) == RingContext(5, 3, 1)
    for bad in (
        {"p": 5.9, "n": 3},
        {"p": 5, "n": "3"},
        {"p": 5, "n": 3, "m": True},
        {"p": 5, "n": 3, "m": None},
        {"p": 5, "n": 2, "m": 2, "modulus": [2.7, 4, 1.2]},
        {"p": 5, "n": 2, "m": 2, "modulus": 5},
        {"n": 3},
        [5, 3],
    ):
        with pytest.raises(InputError):
            RingContext.from_json(bad)


def test_context_arguments_are_exact_integers():
    assert RingContext(np.int64(5), np.int64(3), np.int64(2)) == RingContext(5, 3, 2)
    assert type(RingContext(np.int64(5), 3).pn) is int
    for bad in ((5.0, 3), (5, 3, 1.0), (5, 3.0), ("5", 3), (True, 3), (5, 3, None)):
        with pytest.raises(InputError, match="must be an integer"):
            RingContext(*bad)


@pytest.mark.parametrize("p", [3, 10**18 + 3])
def test_context_entries_stay_within_the_int_digit_limit(p):
    # p^n - 1 may have as many decimal digits as int <-> str conversion
    # allows, and not one more; n is in the band that the bit lengths of p
    # alone do not settle
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the interpreter has no int <-> str digit limit")
    n = int(limit / math.log10(p)) - 2
    while p ** (n + 1) <= 10**limit:
        n += 1
    assert RingContext(p, n).pn - 1 < 10**limit
    with pytest.raises(InputError, match=f"^p\\^n - 1 has more than {limit} decimal digits"):
        RingContext(p, n + 1)
    with pytest.raises(InputError, match="decimal digits"):
        RingContext(p, 10**12)


def test_modulus_coefficients_are_exact_integers():
    # x^2 + 4x + 2 and x^2 + x + 2 are irreducible mod 5: only the types are wrong
    assert RingContext(5, 2, 2, (2, np.int64(4), 1)).modulus == (2, 4, 1)
    for bad in ([2.7, 4, 1.2], [2, "4", 1], [2, True, 1]):
        with pytest.raises(InputError, match="^modulus coefficient must be an integer, got "):
            RingContext(5, 2, 2, bad)
    for bad in (5, "241"):
        with pytest.raises(InputError, match="^modulus must be a list of integer coefficients$"):
            RingContext(5, 2, 2, bad)


def test_centered_representatives():
    # unique representative in (-p^n/2, p^n/2]
    assert C531.scalar(124).centered() == -1
    assert C531.scalar(62).centered() == 62
    assert C531.scalar(63).centered() == -62


def test_divided_power_factor_values():
    # gamma_k(p a) = p^k a^k / k!: factor is p^k / k! as an exact scalar
    ctx = RingContext(5, 3, 1)
    assert ctx.divided_power_factor(0) == ctx.one()
    assert ctx.divided_power_factor(1) == ctx.scalar(5)
    assert ctx.divided_power_factor(2) == ctx.scalar(25) * ctx.scalar(2).inverse()
    # k = 3: 125 / 6 has valuation 3 >= n, exactly zero at this precision
    assert ctx.divided_power_factor(3).is_zero()


def test_exact_div_p():
    a = C531.scalar(50)
    assert a.exact_div_p(1) == C531.scalar(10)
    assert a.exact_div_p(2) == C531.scalar(2)
    with pytest.raises(ValuationViolation):
        a.exact_div_p(3)
    with pytest.raises(ValuationViolation):
        C531.scalar(7).exact_div_p(1)


# -- the straight-line product ----------------------------------------------------


def _schoolbook_mul_add(ctx, a, b, c):
    """a b + c on coefficient tuples by the convolution loop and the
    reduction table: the reference for ctx._mul_add."""
    m, pn = ctx.m, ctx.pn
    conv = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            conv[i + j] += ai * bj
    out = [ck + cj for ck, cj in zip(conv[:m], c)]
    for k in range(m, 2 * m - 1):
        for j in range(m):
            out[j] += conv[k] * ctx._xpow[k][j]
    return tuple(v % pn for v in out)


_PRODUCT_RINGS = [
    *((3, n, m, None) for m in (1, 2, 3, 4, 10, 20) for n in (1, 2, 20)),
    (5, 3, 2, [3, 0, 1]),
    (7, 2, 2, [1, 0, 1]),
]


@pytest.mark.parametrize("p, n, m, modulus", _PRODUCT_RINGS)
def test_mul_add_matches_the_schoolbook_product(p, n, m, modulus):
    ctx = RingContext(p, n, m, modulus)
    rng = random.Random(f"{p},{n},{m},{modulus}")
    zero = (0,) * m
    for _ in range(40):
        a, b, c = (tuple(rng.randrange(ctx.pn) for _ in range(m)) for _ in range(3))
        assert ctx._mul_add(a, b) == _schoolbook_mul_add(ctx, a, b, zero)
        assert ctx._mul_add(a, b, c) == _schoolbook_mul_add(ctx, a, b, c)
    top = (ctx.pn - 1,) * m
    assert ctx._mul_add(top, top, top) == _schoolbook_mul_add(ctx, top, top, top)


def test_rings_of_one_residue_degree_share_one_product():
    witt._mul_add_factory.cache_clear()
    rings = [
        RingContext(5, 3, 3),
        RingContext(7, 1, 3),
        RingContext(3, 20, 3),
        RingContext(5, 3, 3, [2, 0, 1, 1]),  # x^3 + x^2 + 2, irreducible mod 5
    ]
    assert len({ctx.key() for ctx in rings}) == 4
    assert witt._mul_add_factory(3) is witt._mul_add_factory(3)
    assert witt._mul_add_factory.cache_info().currsize == 1
    assert len({ctx._mul_add.__code__ for ctx in rings}) == 1
    RingContext(5, 3, 2)
    assert witt._mul_add_factory.cache_info().currsize == 2


def test_residue_degree_is_bounded():
    assert MAX_RESIDUE_DEGREE == 20
    assert RingContext(3, 2, 20).m == 20
    for m in (21, 10**9):
        with pytest.raises(InputError, match=f"^residue degree m must be <= 20, got {m}$"):
            RingContext(3, 1, m)


def test_repr_tells_apart_rings_that_differ_only_in_modulus():
    other = RingContext(5, 3, 2, [3, 0, 1])
    assert repr(other) == "RingContext(p=5, n=3, m=2, modulus=[3, 0, 1])"
    assert repr(other) != repr(RingContext(5, 3, 2))
    with pytest.raises(ContextMismatch) as info:
        RingVec.from_entries(other, RingVec.basis_vector(RingContext(5, 3, 2), 2, 0))
    assert "modulus=[2, 0, 1]" in str(info.value)
    assert "modulus=[3, 0, 1]" in str(info.value)
