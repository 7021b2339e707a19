"""Vectors and matrices over the scalar ring: solving, kernels, unimodularity."""

import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lift import (
    ContextMismatch,
    DimensionMismatch,
    InputError,
    Isometry,
    NonUnitPivot,
    PrecisionLoss,
    QuadLattice,
    RingContext,
    RingMat,
    RingVec,
    SupersingularInput,
    canonical_dumps,
    eigen_split,
    independent_columns,
    inverse,
    is_unimodular,
    kernel,
    lift_ss_nonsymplectic,
    phi_invert,
    phi_line,
    phi_map,
    residue_rank,
    solve,
    solve_in_span,
    verify_certificate,
)
from k3lift import linalg
from k3lift.samples import (
    random_connection,
    random_deformation_point,
    random_scalar,
    random_tame_isometry,
)
from test_acceptance import (
    _finite_height_certs,
    _nonsymplectic_higher_certs,
    _nonsymplectic_minus_one_certs,
    _symplectic_certs,
)

C = RingContext(5, 3, 1)
# p = 2^32 + 15 is the least prime above 2^32: its residue field stores Python ints
WIDE_P = 2**32 + 15


def _mat(ctx, rows):
    return RingMat.from_rows(ctx, rows)


def test_identity_and_multiplication():
    a = _mat(C, [[1, 2], [3, 4]])
    assert RingMat.identity(C, 2) @ a == a
    b = _mat(C, [[0, 1], [1, 0]])
    assert (a @ b) == _mat(C, [[2, 1], [4, 3]])


def test_matvec():
    a = _mat(C, [[1, 2], [3, 4]])
    v = RingVec.from_entries(C, [1, 1])
    assert a @ v == RingVec.from_entries(C, [3, 7])


def test_matrix_power():
    a = _mat(C, [[0, -1], [1, -1]])  # order 3
    assert a**3 == RingMat.identity(C, 2)
    assert a**0 == RingMat.identity(C, 2)
    assert a**-1 == a @ a


def test_inverse_round_trip():
    a = _mat(C, [[2, 1], [1, 1]])
    assert a @ inverse(a) == RingMat.identity(C, 2)
    assert inverse(a) @ a == RingMat.identity(C, 2)


def test_inverse_requires_unit_determinant():
    with pytest.raises(NonUnitPivot):
        inverse(_mat(C, [[5, 0], [0, 1]]))


def test_solve_vector_and_matrix():
    a = _mat(C, [[2, 1], [1, 1]])
    v = RingVec.from_entries(C, [4, 3])
    x = solve(a, v)
    assert a @ x == v
    b = _mat(C, [[1, 0], [0, 2]])
    assert a @ solve(a, b) == b


def test_solve_rejects_shape_mismatch():
    a = _mat(C, [[2, 1], [1, 1]])
    with pytest.raises(DimensionMismatch):
        solve(a, RingVec.from_entries(C, [1, 2, 3]))


def test_unimodularity():
    assert is_unimodular(_mat(C, [[2, 1], [1, 1]]))
    assert not is_unimodular(_mat(C, [[5, 1], [0, 5]]))
    assert residue_rank(_mat(C, [[5, 1], [0, 5]])) == 1


def test_kernel_determined_case():
    # second row is an exact multiple of the first: one unit pivot, two free
    a = _mat(C, [[1, 2, 3], [2, 4, 6]])
    ker = kernel(a)
    assert len(ker) == 2
    for v in ker:
        assert (a @ v).is_zero()
        assert not v.is_zero()


def test_kernel_of_unit_matrix_is_trivial():
    assert kernel(_mat(C, [[2, 1], [1, 1]])) == []


def test_kernel_undetermined_raises():
    # p * identity: the kernel rank depends on digits beyond the precision
    with pytest.raises(PrecisionLoss):
        kernel(_mat(C, [[5, 0], [0, 5]]))


def test_kernel_membership_random():
    rng = random.Random(7)
    for _ in range(10):
        # rank-2 by construction: third row is a random combination of the
        # first two, so elimination terminates with exact zero defect rows
        r1 = [rng.randrange(125) for _ in range(3)]
        r1[rng.randrange(3)] = 1 + 5 * rng.randrange(25)
        r2 = [rng.randrange(125) for _ in range(3)]
        c1, c2 = rng.randrange(125), rng.randrange(125)
        r3 = [(c1 * a + c2 * b) % 125 for a, b in zip(r1, r2)]
        a = _mat(C, [r1, r2, r3])
        for v in kernel(a):
            assert (a @ v).is_zero()
            assert not v.is_zero()


def test_solve_in_span():
    b1 = RingVec.from_entries(C, [1, 0, 2])
    b2 = RingVec.from_entries(C, [0, 1, 3])
    target = b1.scale(C.scalar(4)) - b2.scale(C.scalar(7))
    coeffs = solve_in_span([b1, b2], target)
    assert coeffs is not None
    combo = RingVec.zeros(C, 3)
    for c, b in zip(coeffs.entries(), [b1, b2]):
        combo = combo + b.scale(c)
    assert combo == target
    assert solve_in_span([b1, b2], RingVec.from_entries(C, [0, 0, 1])) is None


def test_from_columns_rejects_ragged_and_foreign_columns():
    with pytest.raises(DimensionMismatch, match="column 1 has rank 3 vs 2"):
        RingMat.from_columns(C, [RingVec.from_entries(C, [1, 2]), RingVec.from_entries(C, [1, 2, 3])])
    with pytest.raises(ContextMismatch):
        RingMat.from_columns(C, [RingVec.from_entries(RingContext(5, 2, 1), [1, 2])])


def test_reshape_keeps_row_major_order():
    ctx = RingContext(3, 2, 2)
    x = ctx.scalar([1, 2])
    a = RingMat.from_rows(ctx, [[1, x, 2], [x, 0, 4]])
    flat = a.reshape(1, 6)
    assert flat == RingMat.from_rows(ctx, [[1, x, 2, x, 0, 4]])
    assert flat.reshape(2, 3) == a
    assert a.reshape(6) == RingVec.from_entries(ctx, [1, x, 2, x, 0, 4])
    assert a.reshape(6).reshape(3, 2) == RingMat.from_rows(ctx, [[1, x], [2, x], [0, 4]])
    for shape in [(4,), (4, 2), (1, 2, 3), (), (-6,), (-2, -3), (6, -1)]:
        with pytest.raises(DimensionMismatch):
            a.reshape(*shape)


def test_stack_checks_every_block():
    a = _mat(C, [[1, 2]])
    b = _mat(C, [[3, 4], [5, 6]])
    assert RingMat.stack(C, [a, b]) == _mat(C, [[1, 2], [3, 4], [5, 6]])
    with pytest.raises(InputError):
        RingMat.stack(C, [])
    with pytest.raises(ContextMismatch, match="block 1"):
        RingMat.stack(C, [a, RingMat.from_rows(RingContext(5, 2, 1), [[1, 2]])])
    with pytest.raises(DimensionMismatch, match="block 1 has 3 columns vs 2"):
        RingMat.stack(C, [a, _mat(C, [[1, 2, 3]])])


def test_block_takes_any_index_sequences():
    ctx = RingContext(3, 2, 2)
    rows = [[ctx.scalar([i, j]) for j in range(4)] for i in range(3)]
    a = RingMat.from_rows(ctx, rows)
    # non-contiguous, reordered and repeated indices, ranges and tuples
    assert a.block([2, 0], (3, 1, 1)) == RingMat.from_rows(
        ctx, [[rows[i][j] for j in (3, 1, 1)] for i in (2, 0)]
    )
    assert a.block(range(3), range(4)) == a
    for rows_, cols, shape in (([], [1, 2], (0, 2)), ([1], [], (1, 0)), ([], [], (0, 0))):
        empty = a.block(rows_, cols)
        assert (empty.rows, empty.cols) == shape
        assert empty.is_zero() and residue_rank(empty) == 0


def test_dot_is_the_identity_pairing():
    ctx = RingContext(3, 2, 2)
    rng = random.Random(5)
    u = RingVec.from_entries(ctx, [random_scalar(rng, ctx) for _ in range(4)])
    v = RingVec.from_entries(ctx, [random_scalar(rng, ctx) for _ in range(4)])
    lat = QuadLattice(ctx, RingMat.identity(ctx, 4))
    assert u.dot(v) == lat.pairing(u, v) == sum(
        (a * b for a, b in zip(u.entries(), v.entries())), ctx.zero()
    )
    with pytest.raises(DimensionMismatch):
        u.dot(RingVec.zeros(ctx, 3))
    with pytest.raises(ContextMismatch):
        u.dot(RingVec.zeros(C, 4))


def test_solve_in_span_rejects_a_basis_of_another_rank():
    basis = [RingVec.from_entries(C, [1, 2])]
    with pytest.raises(DimensionMismatch, match="basis rank 2 vs target rank 3"):
        solve_in_span(basis, RingVec.from_entries(C, [1, 2, 0]))
    with pytest.raises(DimensionMismatch):
        solve_in_span(basis, RingVec.from_entries(C, [1]))
    with pytest.raises(DimensionMismatch, match="basis rank 2 vs target rank 3"):
        solve_in_span(basis, RingMat.identity(C, 3))


def test_independent_columns():
    a = _mat(C, [[1, 2, 0], [0, 0, 1], [0, 0, 0]])
    assert independent_columns(a) == [0, 2]


def test_transpose_and_symmetry():
    a = _mat(C, [[1, 2], [3, 4]])
    assert a.transpose() == _mat(C, [[1, 3], [2, 4]])
    assert _mat(C, [[2, 1], [1, 0]]).is_symmetric()
    assert not a.is_symmetric()


def test_reduce_and_lift():
    a = _mat(C, [[6, 5], [0, 1]])
    red = a.reduce_mod_p()
    assert red.ctx.n == 1
    assert red == _mat(C.residue_context(), [[1, 0], [0, 1]])
    lifted = red.lift_to(C)
    assert lifted.reduce_mod_p() == red


def test_vector_operations():
    v = RingVec.from_entries(C, [1, 2])
    w = RingVec.from_entries(C, [3, 4])
    assert v + w == RingVec.from_entries(C, [4, 6])
    assert -v == RingVec.from_entries(C, [-1, -2])
    assert v.scale(C.scalar(2)) == RingVec.from_entries(C, [2, 4])
    assert RingVec.basis_vector(C, 3, 1) == RingVec.from_entries(C, [0, 1, 0])
    assert v.valuation() == 0
    assert RingVec.from_entries(C, [25, 50]).valuation() == 2


def test_extension_field_matrices():
    ctx = RingContext(3, 2, 2)
    x = ctx.scalar([0, 1])
    a = RingMat.from_rows(ctx, [[x, 0], [0, x]])
    assert a @ a == RingMat.from_rows(ctx, [[-1, 0], [0, -1]])
    assert inverse(a) @ a == RingMat.identity(ctx, 2)
    fr = a.frobenius()
    assert fr == RingMat.from_rows(ctx, [[-x, ctx.zero()], [ctx.zero(), -x]])


def test_json_round_trip():
    a = _mat(C, [[1, 2], [3, 4]])
    assert RingMat.from_rows(C, a.to_json()) == a
    v = RingVec.from_entries(C, [1, 2])
    assert RingVec.from_entries(C, v.to_json()) == v


# -- the shared core of RingVec and RingMat -----------------------------------------


def _build(kind, ctx, flat):
    """A RingVec of length 6 or a 2 x 3 RingMat from six scalars."""
    if kind is RingVec:
        return RingVec.from_entries(ctx, flat)
    return RingMat.from_rows(ctx, [flat[:3], flat[3:]])


def _flat_entries(x):
    if isinstance(x, RingVec):
        return x.entries()
    return [x.entry(i, j) for i in range(x.rows) for j in range(x.cols)]


def _same(x, kind, ctx, scalars):
    assert type(x) is kind and x.ctx == ctx
    assert x.arr.dtype == linalg.storage_dtype(ctx)
    assert _flat_entries(x) == scalars


@pytest.mark.parametrize("spec", [(5, 3, 1), (5, 3, 2), (3, 40, 1)], ids=["int64", "m2", "object"])
@pytest.mark.parametrize("kind", [RingVec, RingMat], ids=["RingVec", "RingMat"])
def test_shared_core_matches_entrywise_oracle(kind, spec):
    ctx = RingContext(*spec)
    p, res = ctx.p, ctx.residue_context()
    rng = random.Random(str(spec))
    xs = [ctx.scalar([rng.randrange(ctx.pn) for _ in range(ctx.m)]) for _ in range(6)]
    ys = [ctx.scalar([rng.randrange(ctx.pn) for _ in range(ctx.m)]) for _ in range(6)]
    s = ctx.scalar([rng.randrange(ctx.pn) for _ in range(ctx.m)])
    a, b = _build(kind, ctx, xs), _build(kind, ctx, ys)
    zero = ctx.zero()
    _same(a + b, kind, ctx, [x + y for x, y in zip(xs, ys)])
    _same(a - b, kind, ctx, [x - y for x, y in zip(xs, ys)])
    _same(-a, kind, ctx, [-x for x in xs])
    _same(a.scale(s), kind, ctx, [s * x for x in xs])
    _same(s * a, kind, ctx, [s * x for x in xs])
    _same(3 * a, kind, ctx, [3 * x for x in xs])
    _same(a.frobenius(), kind, ctx, [x.frobenius() for x in xs])
    red = a.reduce_mod_p()
    _same(red, kind, res, [x.reduce() for x in xs])
    _same(red.lift_to(ctx), kind, ctx, [ctx.lift(r) for r in _flat_entries(red)])
    higher = RingContext(p, ctx.n + 2, ctx.m, ctx.modulus)
    _same(a.lift_to(higher), kind, higher, [higher.lift(x) for x in xs])
    assert a == _build(kind, ctx, list(xs)) and a != b and a != _build(kind, ctx, xs[::-1])
    assert (a - a).is_zero() and not a.is_zero()
    # valuation: the minimum over the entries, n for zero
    assert a.valuation() == min(x.valuation() for x in xs)
    assert a.scale(p**2).valuation() == min((p**2 * x).valuation() for x in xs)
    assert _build(kind, ctx, [p**2, 0, p, 0, 0, p**3]).valuation() == 1
    assert _build(kind, ctx, [zero] * 6).valuation() == ctx.n
    # errors: the other kind, another shape, another context
    other = _build(RingMat if kind is RingVec else RingVec, ctx, xs)
    with pytest.raises(InputError):
        a + other
    with pytest.raises(InputError):
        other - a
    shorter = RingVec.from_entries(ctx, xs[:5]) if kind is RingVec else RingMat.from_rows(ctx, [xs[:3]])
    with pytest.raises(DimensionMismatch):
        a + shorter
    with pytest.raises(DimensionMismatch):
        a - shorter
    with pytest.raises(ContextMismatch):
        a + a.lift_to(higher)
    with pytest.raises(ContextMismatch):
        a.lift_to(RingContext(7, ctx.n, 1))
    # coercion: an array of ctx is returned as it is, a foreign one refused
    coerce = RingVec.from_entries if kind is RingVec else RingMat.from_rows
    assert coerce(ctx, a) is a
    with pytest.raises(ContextMismatch):
        coerce(ctx, a.lift_to(higher))
    with pytest.raises(ContextMismatch):
        coerce(res, a)


# -- int64 kernels and the rank-1 elimination update ---------------------------------


def _ref_mul(ctx, a, b):
    """Product of two coefficient tuples in Python ints: schoolbook
    convolution, then long division by the monic modulus."""
    m = ctx.m
    conv = [0] * (2 * m - 1)
    for i in range(m):
        for j in range(m):
            conv[i + j] += a[i] * b[j]
    for k in range(2 * m - 2, m - 1, -1):
        top = conv[k]
        for j in range(m + 1):
            conv[k - m + j] -= top * ctx.modulus[j]
    return tuple(c % ctx.pn for c in conv[:m])


def _ref_matmul(ctx, a, b):
    """(m, r, k) times (m, k, c) coefficient arrays, entry by entry."""
    _, r, k = a.shape
    c = b.shape[2]
    out = np.zeros((ctx.m, r, c), dtype=object)
    for i in range(r):
        for j in range(c):
            acc = [0] * ctx.m
            for t in range(k):
                prod = _ref_mul(ctx, tuple(map(int, a[:, i, t])), tuple(map(int, b[:, t, j])))
                acc = [x + y for x, y in zip(acc, prod)]
            out[:, i, j] = [x % ctx.pn for x in acc]
    return out


def _coeff_array(ctx, shape, draw_entry):
    """A coefficient array as RingVec/RingMat store it: the context's
    storage dtype."""
    arr = np.zeros((ctx.m,) + shape, dtype=linalg.storage_dtype(ctx))
    for idx in np.ndindex(arr.shape):
        arr[idx] = draw_entry()
    return arr


def _check_kernels(ctx, a, b, s):
    """_mul_arrays, _matvec_arrays and _scal_arrays against the reference;
    every result is in the context's storage dtype."""
    # s times a is the (1 x 1) by (1 x r*k) product
    s_mat = np.array(s, dtype=object).reshape(ctx.m, 1, 1)
    scaled = _ref_matmul(ctx, s_mat, a.reshape(ctx.m, 1, -1)).reshape(a.shape)
    outs = [
        (linalg._mul_arrays(ctx, a, b), _ref_matmul(ctx, a, b)),
        (linalg._matvec_arrays(ctx, a, b[:, :, 0]), _ref_matmul(ctx, a, b[:, :, :1])[:, :, 0]),
        (linalg._scal_arrays(ctx, s, a), scaled),
    ]
    for got, want in outs:
        assert got.dtype == linalg.storage_dtype(ctx)
        assert got.shape == want.shape
        assert [int(x) for x in got.flat] == list(want.flat)


# int64 for every small inner dimension / object for every inner dimension
KERNEL_CONTEXTS = [(3, 4, 1), (5, 3, 2), (7, 2, 3), (3, 20, 1), (5, 20, 2), (3, 20, 3)]


@pytest.mark.parametrize("spec", KERNEL_CONTEXTS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_kernels_agree_with_python_ints(spec, data):
    ctx = RingContext(*spec)
    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    assert linalg._kernel_dtype(ctx, k) == (np.float64 if ctx.pn < 10**6 else object)
    entry = st.one_of(st.just(ctx.pn - 1), st.integers(0, ctx.pn - 1))
    a = _coeff_array(ctx, (r, k), lambda: data.draw(entry))
    b = _coeff_array(ctx, (k, c), lambda: data.draw(entry))
    s = tuple(data.draw(entry) for _ in range(ctx.m))
    _check_kernels(ctx, a, b, s)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_int64_threshold(m):
    # K* = floor((2^63 - 1) / (m (p^n - 1)^2)) is the largest inner dimension
    # the int64 path takes; all entries p^n - 1 make every sum its largest
    ctx = RingContext(3, 19, m)
    top = ctx.pn - 1
    k_star = (2**63 - 1) // (m * top**2)
    assert 1 <= k_star <= 6
    for k, dt in ((k_star, np.int64), (k_star + 1, object)):
        assert linalg._kernel_dtype(ctx, k) == dt
        a = _coeff_array(ctx, (2, k), lambda: top)
        b = _coeff_array(ctx, (k, 2), lambda: top)
        _check_kernels(ctx, a, b, (top,) * m)
    # a scalar product is inner dimension 1: the bound moves with p^n alone
    assert linalg._kernel_dtype(ctx, 1) == np.int64
    wide = RingContext(3, 20, m)
    assert linalg._kernel_dtype(wide, 1) == object
    for c in (ctx, wide):
        a = _coeff_array(c, (3, 1), lambda: c.pn - 1)
        _check_kernels(c, a, _coeff_array(c, (1, 1), lambda: c.pn - 1), (c.pn - 1,) * m)


def _product_dtypes(ctx, run, monkeypatch):
    """The dtypes that the products at the precision of ctx compute in
    while run() runs."""
    seen = set()
    native = linalg._mul_native

    def spy(c, x, y, dt):
        if c.n == ctx.n:
            seen.add(dt)
        return native(c, x, y, dt)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_mul_native", spy)
        run()
    return seen


@pytest.mark.parametrize("m", [1, 2, 3])
def test_float64_threshold(m, monkeypatch):
    # K = floor((2^53 - 1) / (m (p^n - 1)^2)) is the largest inner dimension
    # the float64 path takes; all entries p^n - 1 make every sum its largest
    ctx = RingContext(3, 16, m)
    top = ctx.pn - 1
    k_float = (2**53 - 1) // (m * top**2)
    assert 1 <= k_float <= 4
    for k, dt in ((k_float, np.float64), (k_float + 1, np.int64)):
        assert linalg._kernel_dtype(ctx, k) == dt
        a = _coeff_array(ctx, (2, k), lambda: top)
        b = _coeff_array(ctx, (k, 2), lambda: top)
        seen = _product_dtypes(ctx, lambda: _check_kernels(ctx, a, b, (top,) * m), monkeypatch)
        assert seen == {np.dtype(dt)}
    assert linalg.storage_dtype(ctx) == np.int64


@pytest.mark.parametrize("spec", [(5, 4, 1), (5, 4, 2), (7, 2, 3), (3, 18, 2), (3, 20, 3)])
def test_product_is_one_dot(spec, monkeypatch):
    # every tier, and every m: the degree convolution is one np.dot
    ctx = RingContext(*spec)
    rng = random.Random(sum(spec))
    a = _coeff_array(ctx, (3, 22), lambda: rng.randrange(ctx.pn))
    b = _coeff_array(ctx, (22, 2), lambda: rng.randrange(ctx.pn))
    calls = []
    dot = np.dot

    def spy(x, y):
        calls.append(x.dtype)
        return dot(x, y)

    with monkeypatch.context() as patch:
        patch.setattr(np, "dot", spy)
        got = linalg._mul_arrays(ctx, a, b)
    assert calls == [linalg._kernel_dtype(ctx, 22)]
    assert [int(x) for x in got.flat] == list(_ref_matmul(ctx, a, b).flat)


def _rref_unit(ctx, work):
    """The full-precision unit-pivot sweep that linalg ran before its
    elimination moved to the residue field: in-place Gauss-Jordan with one
    rank-1 update per pivot, at precision n.  Returns (pivot columns, number
    of pivot rows); rows beyond the pivot count end with every entry of
    positive valuation.  Kept as the oracle of the public functions."""
    _, r, c = work.shape
    p, pn = ctx.p, ctx.pn
    pivots = []
    cur = 0
    for col in range(c):
        units = np.flatnonzero((work[:, cur:, col] % p != 0).any(axis=0))
        if not units.size:
            continue
        piv = cur + int(units[0])
        if piv != cur:
            work[:, [cur, piv], :] = work[:, [piv, cur], :]
        inv = linalg._entry(ctx, work, (cur, col)).inverse().coeffs
        work[:, cur, :] = linalg._scal_arrays(ctx, inv, work[:, cur, :])
        f = work[:, :, col].copy()
        f[:, cur] = 0
        # in the storage dtype, which inner dimension 1 never overflows
        row = work[:, cur : cur + 1, :]
        work[...] = (work - linalg._mul_native(ctx, f[:, :, None], row, work.dtype)) % pn
        pivots.append(col)
        cur += 1
        if cur == r:
            break
    return pivots, cur


def _per_row_rref(ctx, work):
    """The unit-pivot sweep before the rank-1 update: a per-entry residue
    test for the pivot, then one scaled subtraction per row.  Kept as an
    oracle for _rref_unit."""
    _, r, c = work.shape
    p, pn = ctx.p, ctx.pn
    pivots = []
    cur = 0
    for col in range(c):
        piv = None
        for row in range(cur, r):
            if any(int(e) % p for e in work[:, row, col]):
                piv = row
                break
        if piv is None:
            continue
        if piv != cur:
            work[:, [cur, piv], :] = work[:, [piv, cur], :]
        inv = linalg._entry(ctx, work, (cur, col)).inverse().coeffs
        work[:, cur, :] = linalg._scal_arrays(ctx, inv, work[:, cur, :].copy())
        for row in range(r):
            if row == cur:
                continue
            f = tuple(int(e) for e in work[:, row, col])
            if any(f):
                work[:, row, :] = (work[:, row, :] - linalg._scal_arrays(ctx, f, work[:, cur, :])) % pn
        pivots.append(col)
        cur += 1
        if cur == r:
            break
    return pivots, cur


def _oracle(sweep):
    """The six public elimination functions as they were when one
    full-precision sweep (sweep = _rref_unit or _per_row_rref) computed
    each of them."""

    def residue_pivots(mat):
        red = mat.reduce_mod_p()
        return sweep(red.ctx, red.arr.copy())[0]

    def solve(a, b):
        vec = isinstance(b, RingVec)
        rhs = RingMat.from_columns(a.ctx, [b]) if vec else RingMat.from_rows(a.ctx, b)
        if a.rows != a.cols or rhs.rows != a.rows:
            raise DimensionMismatch("solve needs square a with matching b")
        r, k = a.rows, rhs.cols
        work = np.concatenate([a.arr, rhs.arr], axis=2)
        pivots, _ = sweep(a.ctx, work)
        if pivots != list(range(r)):
            raise NonUnitPivot("matrix is not invertible over the local ring")
        out = RingMat(a.ctx, work[:, :, r : r + k].copy())
        return out.column(0) if vec else out

    def kernel(mat):
        work = mat.arr.copy()
        pivots, nrows = sweep(mat.ctx, work)
        if not bool((work[:, nrows:, :] == 0).all()):
            raise PrecisionLoss("kernel is not determined at this precision")
        basis = []
        for f in (j for j in range(mat.cols) if j not in pivots):
            v = RingVec.zeros(mat.ctx, mat.cols)
            v.arr[0, f] = 1
            for i, pcol in enumerate(pivots):
                v.arr[:, pcol] = (-work[:, i, f]) % mat.ctx.pn
            basis.append(v)
        return basis

    def solve_in_span(basis, target):
        if not basis:
            return None if not target.is_zero() else []
        ctx = target.ctx
        bmat = RingMat.from_columns(ctx, basis)
        if bmat.rows != target.rank:
            raise DimensionMismatch(f"basis rank {bmat.rows} vs target rank {target.rank}")
        work = np.concatenate([bmat.arr, target.arr[:, :, None]], axis=2)
        pivots, nrows = sweep(ctx, work)
        k = len(basis)
        if pivots[:k] != list(range(k)):
            raise PrecisionLoss("span basis must be residually independent")
        if len(pivots) > k or not bool((work[:, nrows:, :] == 0).all()):
            return None
        coords = [ctx.zero()] * k
        for i, pc in enumerate(pivots):
            coords[pc] = linalg._entry(ctx, work, (i, k))
        return coords

    return SimpleNamespace(
        solve=solve,
        inverse=lambda a: solve(a, RingMat.identity(a.ctx, a.rows)),
        kernel=kernel,
        solve_in_span=solve_in_span,
        independent_columns=residue_pivots,
        residue_rank=lambda mat: len(residue_pivots(mat)),
    )


def _plain(out):
    if isinstance(out, list):
        return [_plain(x) for x in out]
    return out.to_json() if hasattr(out, "to_json") else out


def _elimination_inputs(ctx, rank, rng, unit_a=False):
    """(a, sing, defect, basis, inside, outside, dependent, off_by_p) at the
    given rank: a dense matrix (unimodular when unit_a), a singular one with
    a determined kernel, one whose kernel is not determined, a basis of
    columns of a with a target inside its span and one outside, a basis
    that is dependent only mod p, and a target off the span by p."""

    def dense(rows, cols):
        return RingMat.from_rows(ctx, [[random_scalar(rng, ctx) for _ in range(cols)] for _ in range(rows)])

    def diag(entries):
        d = RingMat.zeros(ctx, len(entries), len(entries))
        for i, e in enumerate(entries):
            d.arr[:, i, i] = ctx.scalar(e).coeffs
        return d

    def invertible(size):
        # over F_3 a random square matrix is singular about 44% of the time
        while True:
            mat = dense(size, size)
            if linalg.is_unimodular(mat):
                return mat

    a = invertible(rank) if unit_a else dense(rank, rank)
    left, right = invertible(rank), invertible(rank)
    nullity = 3 if rank > 3 else 1
    sing = left @ diag([1] * (rank - nullity) + [0] * nullity) @ right  # kernel determined
    defect = left @ diag([1] * (rank - 2) + [ctx.p, 0]) @ right  # kernel not determined
    basis = [a.column(j) for j in range(min(6, rank - 1))]
    inside = basis[0].scale(random_scalar(rng, ctx)) + basis[-1].scale(random_scalar(rng, ctx))
    outside = dense(rank, 1).column(0)
    p = ctx.scalar(ctx.p)
    dependent = basis[:-1] + [basis[0] + outside.scale(p)]
    off_by_p = inside + a.column(rank - 1).scale(p)
    return a, sing, defect, basis, inside, outside, dependent, off_by_p


def _elimination_results(fns, a, sing, defect, basis, inside, outside, dependent, off_by_p):
    def attempt(fn, *args):
        try:
            return _plain(fn(*args))
        except (NonUnitPivot, PrecisionLoss) as exc:
            return type(exc).__name__

    b = a.transpose()
    return [
        attempt(fns.solve, a, b),
        attempt(fns.solve, a, b.column(min(3, a.cols - 1))),
        attempt(fns.inverse, a),
        attempt(fns.solve, sing, b),
        attempt(fns.kernel, sing),
        attempt(fns.kernel, defect),
        attempt(fns.solve_in_span, basis, inside),
        attempt(fns.solve_in_span, basis, outside),
        attempt(fns.independent_columns, defect),
        attempt(fns.residue_rank, sing),
        attempt(fns.kernel, a),
        attempt(fns.inverse, defect),
        attempt(fns.solve_in_span, dependent, inside),
        attempt(fns.solve_in_span, basis, off_by_p),
        attempt(fns.independent_columns, sing.transpose()),
        attempt(fns.residue_rank, a),
    ]


# the dtype the last Newton step of a rank-22 inverse, at precision n,
# computes in: m 22 (p^n - 1)^2 < 2^53 holds for (5, 4, 2) and (7, 6, 2),
# < 2^63 for (3, 18, m) with m <= 2, and fails for (3, 18, 3) and every
# (3, 19, m)
SWEEP_DTYPES = {
    (5, 4, 2): np.float64,
    (7, 6, 2): np.float64,
    (5, 20, 2): object,
    (3, 19, 1): object,
    (3, 19, 2): object,
    (3, 19, 3): object,
    (3, 20, 1): object,
    (3, 20, 2): object,
    (3, 20, 3): object,
    (3, 18, 2): np.int64,
    (3, 18, 3): object,
}


def _sweep_dtypes(ctx, a, monkeypatch):
    """The dtypes the products at the precision of ctx compute in while
    inverting the unimodular 1 + p a: the residue sweep runs at precision 1,
    the Newton products at n."""
    return _product_dtypes(
        ctx, lambda: linalg.inverse(RingMat.identity(ctx, a.rows) + a.scale(ctx.p)), monkeypatch
    )


@pytest.mark.parametrize("spec", list(SWEEP_DTYPES))
def test_elimination_matches_per_row_sweep_at_rank_22(spec, monkeypatch):
    ctx = RingContext(*spec)
    inputs = _elimination_inputs(ctx, 22, random.Random(sum(spec)))
    a = inputs[0]
    assert _sweep_dtypes(ctx, a, monkeypatch) == {np.dtype(SWEEP_DTYPES[spec])}
    assert linalg._kernel_dtype(ctx, 22) == SWEEP_DTYPES[spec]
    new = _elimination_results(linalg, *inputs)
    assert new == _elimination_results(_oracle(_rref_unit), *inputs)
    assert new == _elimination_results(_oracle(_per_row_rref), *inputs)
    assert len(new[4]) == 3 and new[5] == "PrecisionLoss" and new[3] == "NonUnitPivot"
    assert new[6] is not None and new[7] is None


# both sides of the table cap q <= 256, int64 and object storage, m = 1 .. 7;
# q = 243 is the largest field with tables
ELIMINATION_CONTEXTS = [
    (5, 4, 1), (5, 4, 2), (11, 3, 2), (3, 5, 5), (3, 20, 2), (3, 20, 3),
    (17, 3, 2), (7, 3, 3), (3, 5, 7), (13, 4, 4), (WIDE_P, 2, 1),
]


@pytest.mark.parametrize("rank", [3, 8, 22])
@pytest.mark.parametrize("spec", ELIMINATION_CONTEXTS, ids=lambda s: ",".join(map(str, s)))
def test_elimination_matches_full_precision_sweep(spec, rank):
    ctx = RingContext(*spec)
    assert (linalg._field_tables(ctx.residue_context()) is None) == (ctx.q > 256)
    inputs = _elimination_inputs(ctx, rank, random.Random(f"{spec}/{rank}"), unit_a=True)
    new = _elimination_results(linalg, *inputs)
    assert new == _elimination_results(_oracle(_rref_unit), *inputs)
    # every branch is taken: solutions, both errors, both None outcomes
    assert new[0] != "NonUnitPivot" and new[10] == []
    assert new[3] == "NonUnitPivot" and new[11] == "NonUnitPivot"
    assert len(new[4]) == (3 if rank > 3 else 1) and new[5] == "PrecisionLoss"
    assert new[6] is not None and new[7] is None and new[13] is None
    assert new[12] == "PrecisionLoss" and new[15] == rank


def test_certificate_build_and_verify_sweep_only_the_residue_field(monkeypatch):
    # a rank-22, m = 2 ss-nonsymplectic certificate over (5, 4, 2): every
    # elimination sweep runs at precision 1, full precision comes from Newton
    ctx = RingContext(5, 4, 2)
    iso = random_tame_isometry(random.Random(22), ctx, 22, 8)
    split = eigen_split(iso, 8)
    index = next(c.index for c in split.components if (2 * c.index) % 8 and c.basis)
    hodge = split.component(index).basis[0].reduce_mod_p()
    sweeps, newton = [], []
    sweep, lift = linalg._residue_sweep, linalg._newton_inverse

    def sweep_spy(res, arr, ncols):
        sweeps.append(res.n)
        return sweep(res, arr, ncols)

    def newton_spy(c, block, x):
        newton.append(c.n)
        return lift(c, block, x)

    monkeypatch.setattr(linalg, "_residue_sweep", sweep_spy)
    monkeypatch.setattr(linalg, "_newton_inverse", newton_spy)
    cert = lift_ss_nonsymplectic(SupersingularInput(iso.lattice, iso.matrix, hodge), 8)
    assert verify_certificate(cert).valid
    assert sweeps and set(sweeps) == {1}
    assert newton and set(newton) == {4}


# -- exactness across product tiers --------------------------------------------------


def _tier_workload():
    """Canonical JSON of computations whose products span the float64 and
    int64 tiers: rank-22 order-8 eigen splits at (5, 4, 2) and at (3, 16, 2),
    whose rank-22 products sit just above the float64 bound, and a product
    of two dense rank-22 matrices there, whose partial sums (unlike the
    sparser split's) pass 2^53 too; a d = 20 period map round trip at
    (5, 4, 2); and the criterion-5 certificates, built and verified."""
    out = []
    for spec in ((5, 4, 2), (3, 16, 2)):
        iso = random_tame_isometry(random.Random(f"tiers {spec}"), RingContext(*spec), 22, 8)
        split = eigen_split(iso, 8)
        out += [split.to_json(), split.verify_identities(), split.pairing_orthogonality()]
    ctx, rng = RingContext(3, 16, 2), random.Random("tiers dense")
    a, b = ([[random_scalar(rng, ctx) for _ in range(22)] for _ in range(22)] for _ in range(2))
    out.append((RingMat.from_rows(ctx, a) @ RingMat.from_rows(ctx, b)).to_json())
    rng = random.Random(420)
    conn = random_connection(rng, RingContext(5, 4, 2), 20)
    point = random_deformation_point(rng, conn)
    image = phi_map(conn, point)
    out += [[x.to_json() for x in image], phi_line(conn, point).to_json()]
    out.append(phi_invert(conn, image).to_json())
    certs = (_finite_height_certs() + _nonsymplectic_minus_one_certs()
             + _nonsymplectic_higher_certs() + _symplectic_certs())
    out += [[cert.to_json(), verify_certificate(cert).to_json()] for cert in certs]
    return canonical_dumps(out)


def test_products_agree_across_kernel_tiers(monkeypatch):
    # every product forced into Python ints gives the bytes that the float64
    # and int64 tiers give; _kernel_dtype stays as it is, since the storage
    # dtype derives from it
    tiers = []
    kernel_dtype = linalg._kernel_dtype

    def tier_spy(ctx, k):
        tiers.append(kernel_dtype(ctx, k))
        return tiers[-1]

    monkeypatch.setattr(linalg, "_kernel_dtype", tier_spy)
    as_is = _tier_workload()
    assert {np.dtype(np.float64), np.dtype(np.int64)} <= set(tiers)
    monkeypatch.setattr(linalg, "_kernel_dtype", kernel_dtype)
    forced = []

    def object_tier(ctx, a, b):
        forced.append(ctx)
        out = linalg._mul_native(ctx, a, b, linalg._OBJECT)
        return out.astype(linalg.storage_dtype(ctx), copy=False)

    monkeypatch.setattr(linalg, "_mul_arrays", object_tier)
    assert _tier_workload() == as_is
    assert forced


# -- one storage dtype per context ---------------------------------------------------

STORAGE_INT64 = {
    (3, 19, 1): True,
    (3, 19, 6): True,
    (5, 3, 2): True,
    (3, 20, 1): False,
    (3, 20, 2): False,
    (3, 40, 1): False,
    (WIDE_P, 2, 1): False,
}


@pytest.mark.parametrize("spec", list(STORAGE_INT64))
def test_storage_dtype_follows_the_bound(spec):
    ctx = RingContext(*spec)
    int64 = ctx.m * (ctx.pn - 1) ** 2 < 2**63
    assert int64 == STORAGE_INT64[spec]
    assert linalg.storage_dtype(ctx) == np.dtype(np.int64 if int64 else object)


def _closure_results(ctx):
    """Every public RingVec/RingMat operation on a 3 x 3 unimodular matrix,
    a singular matrix with a determined kernel and a vector of ctx."""
    top = ctx.pn - 1
    x = ctx.scalar([top] * ctx.m)
    a = RingMat.from_rows(ctx, [[2, 1, x], [1, 1, 0], [0, 0, 1]])
    sing = RingMat.from_rows(ctx, [[1, 2, x], [2, 4, x + x], [0, 0, 1]])
    v = RingVec.from_entries(ctx, [x, 1, top])
    res = ctx.residue_context()
    results = {
        "from_entries": v,
        "from_rows": a,
        "zeros": RingMat.zeros(ctx, 2, 3),
        "identity": RingMat.identity(ctx, 3),
        "from_columns": RingMat.from_columns(ctx, [v, v]),
        "vec zeros": RingVec.zeros(ctx, 3),
        "basis_vector": RingVec.basis_vector(ctx, 3, 1),
        "column": a.column(2),
        "row": a.row(0),
        "vec +": v + v,
        "vec -": v - v,
        "vec neg": -v,
        "vec scale": v.scale(x),
        "+": a + a,
        "-": a - sing,
        "neg": -a,
        "scale": a.scale(x),
        "@": a @ sing,
        "@ vec": a @ v,
        "pow": a**3,
        "transpose": a.transpose(),
        "inverse": inverse(a),
        "solve": solve(a, sing),
        "solve vec": solve(a, v),
        "frobenius": a.frobenius(),
        "vec frobenius": v.frobenius(),
        "reduce_mod_p": a.reduce_mod_p(),
        "vec reduce_mod_p": v.reduce_mod_p(),
        "lift_to": a.reduce_mod_p().lift_to(ctx),
        "vec lift_to": v.reduce_mod_p().lift_to(ctx),
        "residue lift_to": a.reduce_mod_p().lift_to(res),
    }
    for i, k in enumerate(kernel(sing)):
        results[f"kernel {i}"] = k
    assert "kernel 0" in results
    # the swap on the hyperbolic plane: an isometry of order 2
    plane = QuadLattice(ctx, [[0, 1], [1, 0]])
    results["direct_sum"] = plane.direct_sum(plane).gram
    swap = RingMat.from_rows(ctx, [[0, 1], [1, 0]])
    for comp in eigen_split(Isometry(plane, swap), 2).components:
        results[f"eigen_split {comp.index}"] = comp.projector
    return results


def _flat(x):
    return [c for e in x for c in _flat(e)] if isinstance(x, list) else [x]


@pytest.mark.parametrize("spec", list(STORAGE_INT64))
def test_every_operation_returns_the_storage_dtype(spec):
    ctx = RingContext(*spec)
    for name, out in _closure_results(ctx).items():
        assert out.arr.dtype == linalg.storage_dtype(out.ctx), name
        # reduced coefficients, read back as Python ints
        assert all(type(c) is int and 0 <= c < out.ctx.pn for c in _flat(out.to_json())), name


@pytest.mark.parametrize(
    "low, high",
    [((3, 19, 1), (3, 20, 1)), ((3, 20, 1), (3, 19, 1)), ((5, 1, 1), (5, 30, 1)), ((5, 3, 2), (5, 30, 2))],
)
def test_lift_to_crosses_storage_dtypes(low, high):
    # widened before the reduction: int64 % 5^30 would overflow
    src, dst = RingContext(*low), RingContext(*high)
    rows = [[src.scalar([src.pn - 1 - i - j] * src.m) for j in range(3)] for i in range(2)]
    a = RingMat.from_rows(src, rows)
    lifted = a.lift_to(dst)
    assert lifted.arr.dtype == linalg.storage_dtype(dst)
    assert lifted.to_json() == [[[c % dst.pn for c in e] for e in row] for row in a.to_json()]
    v = a.row(1).lift_to(dst)
    assert v.arr.dtype == linalg.storage_dtype(dst) and v == lifted.row(1)


@pytest.mark.parametrize("spec", [(WIDE_P, 2, 1), (3, 40, 1), (3, 20, 2)])
def test_reduce_mod_p_crosses_storage_dtypes(spec):
    # Python-int arrays reduce into a residue field that stores int64 (p = 3)
    # or Python ints (p > 2^32)
    ctx = RingContext(*spec)
    res = ctx.residue_context()
    rows = [[ctx.scalar([ctx.pn - 1 - 7 * (i + j)] * ctx.m) for j in range(2)] for i in range(2)]
    red = RingMat.from_rows(ctx, rows).reduce_mod_p()
    assert red.ctx == res and red.arr.dtype == linalg.storage_dtype(res)
    assert red == RingMat.from_rows(res, [[ctx.reduce(e) for e in row] for row in rows])


def _two_sweep_solve_in_span(basis, target):
    """solve_in_span before the single sweep: a residue-rank sweep of B,
    then a sweep of [B | target].  Kept as an oracle."""
    if not basis:
        return None if not target.is_zero() else []
    ctx = target.ctx
    bmat = RingMat.from_columns(ctx, basis)
    red = bmat.reduce_mod_p()
    if len(_rref_unit(red.ctx, red.arr.copy())[0]) != len(basis):
        raise PrecisionLoss("span basis must be residually independent")
    work = np.concatenate([bmat.arr, target.arr[:, :, None]], axis=2).copy()
    pivots, nrows = _rref_unit(ctx, work)
    k = len(basis)
    if any(pc >= k for pc in pivots):
        return None
    if not bool((work[:, nrows:, :] == 0).all()):
        return None
    coords = [ctx.zero()] * k
    for i, pc in enumerate(pivots):
        coords[pc] = linalg._entry(ctx, work, (i, k))
    return coords


@pytest.mark.parametrize("spec", [(5, 4, 2), (3, 19, 1), (3, 20, 1), (7, 2, 1)])
def test_solve_in_span_matches_two_sweeps_at_rank_22(spec):
    ctx = RingContext(*spec)
    rng = random.Random(sum(spec))
    p = ctx.scalar(ctx.p)

    def vec():
        return RingVec.from_entries(ctx, [random_scalar(rng, ctx) for _ in range(22)])

    def combo(vs):
        out = RingVec.zeros(ctx, 22)
        for v in vs:
            out = out + v.scale(random_scalar(rng, ctx))
        return out

    def attempt(basis, target):
        try:
            out = linalg.solve_in_span(basis, target)
        except PrecisionLoss:
            return "PrecisionLoss"
        if out is None:
            return None
        if isinstance(out, RingMat):
            return [[c.coeffs for c in out.column(j).entries()] for j in range(out.cols)]
        return [c.coeffs for c in out.entries()]

    def oracle(basis, target):
        try:
            out = _two_sweep_solve_in_span(basis, target)
        except PrecisionLoss:
            return "PrecisionLoss"
        return None if out is None else [c.coeffs for c in out]

    while True:
        full = [vec() for _ in range(22)]
        if is_unimodular(RingMat.from_columns(ctx, full)):
            break
    basis = full[:8]
    # dependent exactly, and dependent only mod p (a unit-free difference)
    dependent = basis[:7] + [combo(basis[:3])]
    residual = basis[:7] + [combo(basis[:3]) + vec().scale(p)]
    inside = combo(basis)
    zero = RingVec.zeros(ctx, 22)
    cases = [
        (basis, inside, "coords"),
        (basis, combo(basis) + full[12], None),
        (basis, inside + full[9].scale(p), None),  # off the span by p
        (basis, zero, "coords"),
        (dependent, inside, "PrecisionLoss"),
        (residual, inside, "PrecisionLoss"),
        (residual, full[20], "PrecisionLoss"),
        (full, combo(full), "coords"),  # k = rank: the target column gets no sweep
        (full + [vec()], vec(), "PrecisionLoss"),  # more columns than rows
        ([], zero, "coords"),  # the empty span holds zero only
        ([], full[3], None),
    ]
    for b, t, kind in cases:
        got = attempt(b, t)
        assert got == oracle(b, t)
        if kind == "coords":
            assert isinstance(got, list) and len(got) == len(b)
        else:
            assert got == kind
        # the same target beside one inside the span, as one matrix target
        other = inside if b else zero
        both = attempt(b, RingMat.from_columns(ctx, [t, other]))
        if got is None or got == "PrecisionLoss":
            assert both == got
        else:
            assert both == [got, attempt(b, other)]
    coords = linalg.solve_in_span(basis, inside)
    rebuilt = RingVec.zeros(ctx, 22)
    for c, b in zip(coords.entries(), basis):
        rebuilt = rebuilt + b.scale(c)
    assert rebuilt == inside
