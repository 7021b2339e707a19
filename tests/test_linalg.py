"""Vectors and matrices over the scalar ring: solving, kernels, unimodularity."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lift import (
    DimensionMismatch,
    NonUnitPivot,
    PrecisionLoss,
    RingContext,
    RingMat,
    RingVec,
    independent_columns,
    inverse,
    is_unimodular,
    kernel,
    matrix_valuation,
    residue_rank,
    solve,
    solve_in_span,
)
from k3lift import linalg
from k3lift.samples import random_scalar

C = RingContext(5, 3, 1)


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
    for c, b in zip(coeffs, [b1, b2]):
        combo = combo + b.scale(c)
    assert combo == target
    assert solve_in_span([b1, b2], RingVec.from_entries(C, [0, 0, 1])) is None


def test_independent_columns():
    a = _mat(C, [[1, 2, 0], [0, 0, 1], [0, 0, 0]])
    assert independent_columns(a) == [0, 2]


def test_matrix_valuation():
    assert matrix_valuation(_mat(C, [[25, 0], [0, 5]])) == 1
    assert matrix_valuation(RingMat.zeros(C, 2, 2)) == C.n


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
                prod = _ref_mul(ctx, tuple(a[:, i, t]), tuple(b[:, t, j]))
                acc = [x + y for x, y in zip(acc, prod)]
            out[:, i, j] = [x % ctx.pn for x in acc]
    return out


def _coeff_array(ctx, shape, draw_entry):
    arr = np.zeros((ctx.m,) + shape, dtype=object)
    for idx in np.ndindex(arr.shape):
        arr[idx] = draw_entry()
    return arr


def _takes_int64(ctx, k):
    return linalg._int64_operands(ctx, k, np.zeros((ctx.m, 1), dtype=object))[0].dtype == np.int64


def _check_kernels(ctx, a, b, s):
    """_mul_arrays, _matvec_arrays and _scal_arrays against the reference;
    every result is object dtype holding Python ints."""
    # s times a is the (1 x 1) by (1 x r*k) product
    s_mat = np.array(s, dtype=object).reshape(ctx.m, 1, 1)
    scaled = _ref_matmul(ctx, s_mat, a.reshape(ctx.m, 1, -1)).reshape(a.shape)
    outs = [
        (linalg._mul_arrays(ctx, a, b), _ref_matmul(ctx, a, b)),
        (linalg._matvec_arrays(ctx, a, b[:, :, 0]), _ref_matmul(ctx, a, b[:, :, :1])[:, :, 0]),
        (linalg._scal_arrays(ctx, s, a), scaled),
    ]
    for got, want in outs:
        assert got.dtype == object
        assert all(type(x) is int for x in got.flat)
        assert got.shape == want.shape and (got == want).all()


# int64 for every small inner dimension / object for every inner dimension
KERNEL_CONTEXTS = [(3, 4, 1), (5, 3, 2), (7, 2, 3), (3, 20, 1), (5, 20, 2), (3, 20, 3)]


@pytest.mark.parametrize("spec", KERNEL_CONTEXTS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_kernels_agree_with_python_ints(spec, data):
    ctx = RingContext(*spec)
    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    assert _takes_int64(ctx, k) == (ctx.pn < 10**6)
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
    for k, int64 in ((k_star, True), (k_star + 1, False)):
        assert _takes_int64(ctx, k) == int64
        a = _coeff_array(ctx, (2, k), lambda: top)
        b = _coeff_array(ctx, (k, 2), lambda: top)
        _check_kernels(ctx, a, b, (top,) * m)
    # a scalar product is inner dimension 1: the bound moves with p^n alone
    assert _takes_int64(ctx, 1)
    wide = RingContext(3, 20, m)
    assert not _takes_int64(wide, 1)
    for c in (ctx, wide):
        a = _coeff_array(c, (3, 1), lambda: c.pn - 1)
        _check_kernels(c, a, _coeff_array(c, (1, 1), lambda: c.pn - 1), (c.pn - 1,) * m)


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


def _plain(out):
    if isinstance(out, list):
        return [_plain(x) for x in out]
    return out.to_json() if hasattr(out, "to_json") else out


def _elimination_results(a, sing, defect, basis, inside, outside):
    def attempt(fn, *args):
        try:
            return _plain(fn(*args))
        except (NonUnitPivot, PrecisionLoss) as exc:
            return type(exc).__name__

    b = a.transpose()
    return [
        attempt(linalg.solve, a, b),
        attempt(linalg.solve, a, b.column(3)),
        attempt(linalg.inverse, a),
        attempt(linalg.solve, sing, b),
        attempt(linalg.kernel, sing),
        attempt(linalg.kernel, defect),
        attempt(linalg.solve_in_span, basis, inside),
        attempt(linalg.solve_in_span, basis, outside),
        attempt(linalg.independent_columns, defect),
        attempt(linalg.residue_rank, sing),
    ]


# whether the sweep runs in int64: m (p^n - 1)^2 < 2^63 holds for (3, 19, m)
# with m <= 6 and fails for (3, 20, m)
SWEEP_INT64 = {
    (5, 4, 2): True,
    (7, 6, 2): True,
    (5, 20, 2): False,
    (3, 19, 1): True,
    (3, 19, 2): True,
    (3, 19, 3): True,
    (3, 20, 1): False,
    (3, 20, 2): False,
    (3, 20, 3): False,
}


def _sweep_dtypes(ctx, a, monkeypatch):
    """The dtypes _rref_unit computes in while eliminating [a | a]."""
    seen = set()
    native = linalg._mul_native

    def spy(ctx, x, y):
        seen.add(x.dtype)
        return native(ctx, x, y)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_mul_native", spy)
        linalg._rref_unit(ctx, np.concatenate([a.arr, a.arr], axis=2))
    return seen


@pytest.mark.parametrize("spec", list(SWEEP_INT64))
def test_elimination_matches_per_row_sweep_at_rank_22(spec, monkeypatch):
    ctx = RingContext(*spec)
    rng = random.Random(sum(spec))

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

    a = dense(22, 22)
    left, right = invertible(22), invertible(22)
    sing = left @ diag([1] * 19 + [0] * 3) @ right  # kernel of rank 3, determined
    defect = left @ diag([1] * 20 + [ctx.p, 0]) @ right  # kernel not determined
    basis = [a.column(j) for j in range(6)]
    inside = basis[0].scale(random_scalar(rng, ctx)) + basis[5].scale(random_scalar(rng, ctx))
    outside = dense(22, 1).column(0)

    assert _sweep_dtypes(ctx, a, monkeypatch) == {np.dtype(np.int64 if SWEEP_INT64[spec] else object)}
    new = _elimination_results(a, sing, defect, basis, inside, outside)
    monkeypatch.setattr(linalg, "_rref_unit", _per_row_rref)
    old = _elimination_results(a, sing, defect, basis, inside, outside)
    assert new == old
    assert len(new[4]) == 3 and new[5] == "PrecisionLoss" and new[3] == "NonUnitPivot"
    assert new[6] is not None and new[7] is None
