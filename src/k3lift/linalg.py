"""Exact matrices and vectors over a truncated Witt ring.

A matrix over W(F_{p^m})/p^n is stored as a numpy array of shape
(m, rows, cols): slice d holds the degree-d coefficient matrix of the
polynomial representative, with every entry reduced mod p^n.  Each context
has one storage dtype (storage_dtype): int64 when m·(p^n-1)^2 < 2^63, so
that any entry, any sum of two entries and any product with inner
dimension 1 fits in a machine word, and object (Python ints) otherwise.
The RingVec/RingMat constructor casts every array to that dtype, so every
operation is exact and no array holds a mixture.

This module is the one home of that layout: no other module reads the
array or calls the raw RingVec(ctx, arr)/RingMat(ctx, arr) constructor,
which belongs to linalg and takes an array that is already reduced mod p^n
and in storage layout.  Other modules build arrays through the coercions
and move entries between shapes with reshape, RingMat.stack,
RingMat.block and RingVec.dot.

RingVec and RingMat share one private base, _RingArray, which holds the
constructor and every operation that does not depend on shape: +, -,
negation, scale, ==, is_zero, valuation, reduce_mod_p, lift_to, frobenius
and reshape, each acting entrywise on the coefficient array and returning
the caller's own type (reshape: the type of the new shape).  The
subclasses keep only what reads the shape: their constructors, stack,
indexing, transpose, the products, to_json and from_json.
RingVec.from_entries and RingMat.from_rows are the one coercion of each:
they return an array of the same context as it is and raise
ContextMismatch for one of any other context.  from_json reads what
to_json writes (a matrix also as a flat row-major list) and hands it to
that coercion.

Every matrix and vector product goes through _mul_arrays, which picks one
of three tiers by the bound m·k·(p^n-1)^2 on every partial sum for the
call's inner dimension k (_kernel_dtype): float64 below 2^53, where double
arithmetic on these integers is exact and the product is one BLAS GEMM;
int64 below 2^63, which no partial sum can overflow; and Python ints
otherwise.  A product with m > 1 is one np.dot as well, of the stacked
coefficient matrices against a block-Toeplitz matrix (_mul_native).  The
float tier exists only inside a product call: its result is cast to int64
before it is reduced mod p^n, and every result is cast back to the storage
dtype, which is never float64.  Moving an array to another context
(lift_to, reduce_mod_p) widens it to Python ints before the reduction when
the target stores Python ints, and narrows it after.  Entries leave as
Python ints: entry(), entries() and to_json() never expose numpy scalars.

Elimination runs over the residue field only.  A unit at precision n is
exactly an entry that is nonzero mod p, so one Gauss-Jordan sweep of the
reduction mod p finds the same pivots, ranks and residually independent
columns that a sweep at precision n would.  For q <= 256 the sweep works on
F_q elements encoded as integers 0 .. q-1, through q x q multiply and
subtract tables that each residue context builds once, on first use; above
that it works on coefficient arrays.  Full precision then comes from
products.  The same sweep yields the inverse mod p of the pivot block B_PQ
(pivot rows P, pivot columns Q), and Newton's X <- X (2 - B X) lifts it to
p^n in ceil(log2 n) steps (Dixon, Numer. Math. 40, 1982).  solve and
inverse multiply by it.  kernel returns e_f - B_PQ^-1 B_Pf for each free
column f and raises PrecisionLoss unless the matrix annihilates these
vectors exactly: otherwise a "defect" row is nonzero, all of its entries
have positive valuation, and the kernel depends on digits beyond the
working precision.  solve_in_span returns B_P^-1 T_P for a vector or a
matrix T of targets when one product confirms B X = T.
"""

from math import isqrt

import numpy as np

from .errors import (
    ContextMismatch,
    DimensionMismatch,
    InputError,
    NonUnitPivot,
    PrecisionLoss,
)
from .witt import PadicScalar, RingContext

_FLOAT64 = np.dtype(np.float64)
_INT64 = np.dtype(np.int64)
_OBJECT = np.dtype(object)

# ---------------------------------------------------------------------------
# coefficient-array kernels


def _kernel_dtype(ctx: RingContext, k: int) -> np.dtype:
    """The dtype a product with inner dimension k (k = 1 for a scalar
    product) computes in: float64 when m·max(k, 1)·(p^n-1)^2 < 2^53, int64
    when that bound is below 2^63, else object.

    Every coefficient of the degree convolution is a sum of at most m·k
    products of residues in [0, p^n), so it is at most that bound, and so
    is every partial sum of it, in any order.  Below 2^53 every such
    partial sum, and every product of two residues, is an integer that a
    double holds exactly, so a float64 GEMM (BLAS, with or without FMA)
    rounds nothing.  Below 2^63 it fits in int64.  _poly_reduce reduces the
    convolution mod p^n before the x^k table, so the table step sums at
    most m - 1 products of residues plus one residue and fits too.
    """
    bound = ctx.m * max(k, 1) * (ctx.pn - 1) ** 2
    if bound < 2**53:
        return _FLOAT64
    return _INT64 if bound < 2**63 else _OBJECT


def storage_dtype(ctx: RingContext) -> np.dtype:
    """The dtype every RingVec/RingMat array of ctx is stored in: object
    when the kernel dtype at inner dimension 1 is object, else int64 (the
    float tier lives only inside a product call); computed once per
    context."""
    dt = ctx._storage_dtype
    if dt is None:
        dt = ctx._storage_dtype = _OBJECT if _kernel_dtype(ctx, 1) is _OBJECT else _INT64
    return dt


def _into(ctx: RingContext, arr: np.ndarray) -> np.ndarray:
    """arr reduced mod p^n of ctx: widened to Python ints first when ctx
    stores them (int64 % p^n fails for p^n >= 2^63); the constructor
    narrows the reduced result otherwise."""
    if storage_dtype(ctx) is _OBJECT:
        arr = arr.astype(object, copy=False)
    return arr % ctx.pn


def _poly_reduce(ctx: RingContext, conv: np.ndarray) -> np.ndarray:
    """Reduce a degree-indexed array (2m-1, ...) modulo (modulus, p^n),
    keeping its dtype."""
    m, pn = ctx.m, ctx.pn
    if conv.dtype != object:
        conv = conv % pn
    out = conv[:m].copy()
    for k in range(m, 2 * m - 1):
        red = ctx._xpow[k]
        blk = conv[k]
        for j in range(m):
            if red[j]:
                out[j] = out[j] + red[j] * blk
    return out % pn


def _mul_native(ctx: RingContext, a: np.ndarray, b: np.ndarray, dt: np.dtype) -> np.ndarray:
    """Product of (m, r, k) and (m, k, c) coefficient arrays of residues as
    one np.dot in dt, which the caller has chosen by _kernel_dtype so that
    no partial sum overflows or, in float64, rounds.  The operands are cast
    to dt as the dot's inputs are built.  The result is reduced mod p^n, in
    int64 for dt = float64: the float sums are exact integers, so they are
    cast first (to C order, so that _poly_reduce reads contiguous blocks),
    and int64 % is far cheaper than np.fmod.

    For m > 1 the degree convolution is the r x mk stack [a_0 | ... |
    a_{m-1}] times the mk x (2m-1)c block-Toeplitz matrix whose block (i, d)
    is b_{d-i} (zero outside 0 <= d - i < m): block d of the product is
    sum_i a_i b_{d-i}, a sum of m·k products of residues."""
    m, (_, r, k), c = ctx.m, a.shape, b.shape[2]
    if m == 1:
        conv = np.dot(a[0].astype(dt, copy=False), b[0].astype(dt, copy=False))[None]
    else:
        toeplitz = np.zeros((m, k, 2 * m - 1, c), dtype=dt)
        rows = b.transpose(1, 0, 2)
        for i in range(m):
            toeplitz[i, :, i : i + m] = rows
        stack = a.transpose(1, 0, 2).astype(dt, order="C").reshape(r, m * k)
        conv = np.dot(stack, toeplitz.reshape(m * k, (2 * m - 1) * c))
        conv = conv.reshape(r, 2 * m - 1, c).transpose(1, 0, 2)
    if dt is _FLOAT64:
        conv = conv.astype(_INT64, order="C")
    return conv % ctx.pn if m == 1 else _poly_reduce(ctx, conv)


def _mul_arrays(ctx: RingContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of (m, r, k) and (m, k, c) coefficient arrays, computed in the
    kernel dtype of inner dimension k and returned in the storage dtype."""
    out = _mul_native(ctx, a, b, _kernel_dtype(ctx, a.shape[2]))
    return out.astype(storage_dtype(ctx), copy=False)


def _matvec_arrays(ctx: RingContext, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Product of (m, r, k) and (m, k) coefficient arrays, returned in the
    storage dtype."""
    return _mul_arrays(ctx, a, v[:, :, None])[:, :, 0]


def _scal_arrays(ctx: RingContext, s: tuple[int, ...], a: np.ndarray) -> np.ndarray:
    """Scalar (coefficient tuple) times a degree-indexed array (m, ...) of
    residues in the array's own dtype, the storage dtype, which inner
    dimension 1 never overflows."""
    m, pn = ctx.m, ctx.pn
    s = tuple(int(c) % pn for c in s)
    if m == 1:
        return (s[0] * a) % pn
    conv = np.zeros((2 * m - 1,) + a.shape[1:], dtype=a.dtype)
    for i in range(m):
        if s[i]:
            for j in range(m):
                conv[i + j] = conv[i + j] + s[i] * a[j]
    return _poly_reduce(ctx, conv)


def _frobenius_array(ctx: RingContext, a: np.ndarray) -> np.ndarray:
    if ctx.m == 1:
        return a.copy()
    cols = ctx.frobenius_matrix()
    out = np.zeros_like(a)
    for j in range(ctx.m):
        col = cols[j]
        for i in range(ctx.m):
            if col[i]:
                out[i] = out[i] + col[i] * a[j]
    return out % ctx.pn


def _entry(ctx: RingContext, arr: np.ndarray, index) -> PadicScalar:
    return PadicScalar(ctx, tuple(int(c) for c in arr[(slice(None),) + index]))


# ---------------------------------------------------------------------------
# public containers


class _RingArray:
    """Shape-free core of RingVec and RingMat: a degree-indexed array
    (m, ...) of reduced coefficients in the context's storage dtype.  Every
    operation here acts entrywise and returns the caller's own type."""

    __slots__ = ("ctx", "arr")

    def __init__(self, ctx: RingContext, arr: np.ndarray):
        """The raw constructor, private to linalg: arr must already be
        reduced mod p^n of ctx and in storage layout (m, ...); it is cast
        to the storage dtype and not reduced again."""
        self.ctx = ctx
        self.arr = arr.astype(storage_dtype(ctx), copy=False)

    def _check(self, other) -> None:
        """other has this type, this context and this shape."""
        if not isinstance(other, type(self)):
            raise InputError(f"expected a {type(self).__name__}")
        if other.ctx != self.ctx:
            raise ContextMismatch(f"{other.ctx!r} vs {self.ctx!r}")
        if other.arr.shape != self.arr.shape:
            raise DimensionMismatch(f"shape {other.arr.shape[1:]} vs {self.arr.shape[1:]}")

    def __add__(self, other):
        self._check(other)
        return type(self)(self.ctx, (self.arr + other.arr) % self.ctx.pn)

    def __sub__(self, other):
        self._check(other)
        return type(self)(self.ctx, (self.arr - other.arr) % self.ctx.pn)

    def __neg__(self):
        return type(self)(self.ctx, (-self.arr) % self.ctx.pn)

    def scale(self, s):
        s = self.ctx.scalar(s)
        return type(self)(self.ctx, _scal_arrays(self.ctx, s.coeffs, self.arr))

    def __rmul__(self, s):
        return self.scale(s)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and other.ctx == self.ctx
            and other.arr.shape == self.arr.shape
            and bool((other.arr == self.arr).all())
        )

    def is_zero(self) -> bool:
        return bool((self.arr == 0).all())

    def valuation(self) -> int:
        """Minimum valuation over the entries (n for zero)."""
        p, a, v = self.ctx.p, self.arr, 0
        while v < self.ctx.n and not (a % p).any():
            a, v = a // p, v + 1
        return v

    def reduce_mod_p(self):
        res = self.ctx.residue_context()
        return type(self)(res, _into(res, self.arr))

    def lift_to(self, ctx: RingContext):
        if ctx.p != self.ctx.p or ctx.m != self.ctx.m:
            raise ContextMismatch("lift across incompatible contexts")
        return type(self)(ctx, _into(ctx, self.arr))

    def frobenius(self):
        return type(self)(self.ctx, _frobenius_array(self.ctx, self.arr))

    def reshape(self, *shape: int):
        """The same entries in row-major order, as a RingVec of one length
        or a RingMat of rows x cols; any other shape raises
        DimensionMismatch."""
        ctx, size = self.ctx, self.arr.size
        if len(shape) == 1 and shape[0] >= 0 and ctx.m * shape[0] == size:
            return RingVec(ctx, self.arr.reshape(ctx.m, shape[0]))
        if (len(shape) == 2 and shape[0] >= 0 and shape[1] >= 0
                and ctx.m * shape[0] * shape[1] == size):
            return RingMat(ctx, self.arr.reshape(ctx.m, *shape))
        raise DimensionMismatch(f"cannot reshape {size // ctx.m} entries to {shape}")


class RingVec(_RingArray):
    """Vector over a ring context; thin wrapper on a (m, r) array of reduced
    coefficients in the context's storage dtype."""

    __slots__ = ()

    @classmethod
    def from_entries(cls, ctx: RingContext, entries) -> "RingVec":
        """Coerce a list of scalars, or a RingVec of this context (returned
        as it is); a RingVec of any other context raises ContextMismatch.
        The one vector coercion of every constructor."""
        if isinstance(entries, RingVec):
            if entries.ctx != ctx:
                raise ContextMismatch(f"{entries.ctx!r} vs {ctx!r}")
            return entries
        if not isinstance(entries, (list, tuple)):
            raise InputError("a vector must be a list of entries")
        coeffs = [ctx.scalar(e).coeffs for e in entries]
        arr = np.array(coeffs, dtype=storage_dtype(ctx)).reshape(len(coeffs), ctx.m)
        return cls(ctx, np.ascontiguousarray(arr.T))

    @classmethod
    def zeros(cls, ctx: RingContext, r: int) -> "RingVec":
        return cls(ctx, np.zeros((ctx.m, r), dtype=storage_dtype(ctx)))

    @classmethod
    def basis_vector(cls, ctx: RingContext, r: int, i: int) -> "RingVec":
        v = cls.zeros(ctx, r)
        v.arr[0, i] = 1
        return v

    @property
    def rank(self) -> int:
        return self.arr.shape[1]

    def entry(self, i: int) -> PadicScalar:
        return _entry(self.ctx, self.arr, (i,))

    def entries(self) -> list[PadicScalar]:
        return [PadicScalar(self.ctx, tuple(c)) for c in self.to_json()]

    def dot(self, other: "RingVec") -> PadicScalar:
        """The product sum_i self_i other_i of two vectors of one context
        and rank, as one coefficient-array product."""
        self._check(other)
        return _entry(self.ctx, _matvec_arrays(self.ctx, self.arr[:, None, :], other.arr), (0,))

    def __repr__(self) -> str:
        return f"RingVec({[tuple(c) if self.ctx.m > 1 else c[0] for c in self.to_json()]})"

    def to_json(self) -> list[list[int]]:
        return self.arr.T.tolist()

    @classmethod
    def from_json(cls, ctx: RingContext, data) -> "RingVec":
        if not isinstance(data, list):
            raise InputError("a vector must be a list of scalars")
        return cls.from_entries(ctx, data)


class RingMat(_RingArray):
    """Matrix over a ring context; wraps a (m, rows, cols) array of reduced
    coefficients in the context's storage dtype."""

    __slots__ = ()

    @classmethod
    def from_rows(cls, ctx: RingContext, rows) -> "RingMat":
        """Coerce a list of rows of scalars, or a RingMat of this context
        (returned as it is); a RingMat of any other context raises
        ContextMismatch.  The one matrix coercion of every constructor."""
        if isinstance(rows, RingMat):
            if rows.ctx != ctx:
                raise ContextMismatch(f"{rows.ctx!r} vs {ctx!r}")
            return rows
        if not isinstance(rows, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in rows
        ):
            raise InputError("a matrix must be a list of rows")
        rows = [[ctx.scalar(e) for e in row] for row in rows]
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise DimensionMismatch("ragged matrix rows")
        coeffs = [[s.coeffs for s in row] for row in rows]
        arr = np.array(coeffs, dtype=storage_dtype(ctx)).reshape(r, c, ctx.m)
        return cls(ctx, np.ascontiguousarray(arr.transpose(2, 0, 1)))

    @classmethod
    def stack(cls, ctx: RingContext, mats: list["RingMat"]) -> "RingMat":
        """The blocks of mats one above another; each must have ctx and the
        column count of the first."""
        if not mats:
            raise InputError("need at least one block")
        c = mats[0].cols
        for i, mat in enumerate(mats):
            if mat.ctx != ctx:
                raise ContextMismatch(f"block {i}: {mat.ctx!r} vs {ctx!r}")
            if mat.cols != c:
                raise DimensionMismatch(f"block {i} has {mat.cols} columns vs {c}")
        return cls(ctx, np.concatenate([mat.arr for mat in mats], axis=1))

    @classmethod
    def identity(cls, ctx: RingContext, r: int) -> "RingMat":
        arr = np.zeros((ctx.m, r, r), dtype=storage_dtype(ctx))
        arr[0] = np.eye(r, dtype=arr.dtype)
        return cls(ctx, arr)

    @classmethod
    def zeros(cls, ctx: RingContext, r: int, c: int) -> "RingMat":
        return cls(ctx, np.zeros((ctx.m, r, c), dtype=storage_dtype(ctx)))

    @classmethod
    def from_columns(cls, ctx: RingContext, vecs: list[RingVec]) -> "RingMat":
        if not vecs:
            raise InputError("need at least one column")
        r = vecs[0].rank
        arr = np.zeros((ctx.m, r, len(vecs)), dtype=storage_dtype(ctx))
        for j, v in enumerate(vecs):
            if v.ctx != ctx:
                raise ContextMismatch(f"column {j}: {v.ctx!r} vs {ctx!r}")
            if v.rank != r:
                raise DimensionMismatch(f"column {j} has rank {v.rank} vs {r}")
            arr[:, :, j] = v.arr
        return cls(ctx, arr)

    @property
    def rows(self) -> int:
        return self.arr.shape[1]

    @property
    def cols(self) -> int:
        return self.arr.shape[2]

    def entry(self, i: int, j: int) -> PadicScalar:
        return _entry(self.ctx, self.arr, (i, j))

    def column(self, j: int) -> RingVec:
        return RingVec(self.ctx, self.arr[:, :, j].copy())

    def row(self, i: int) -> RingVec:
        return RingVec(self.ctx, self.arr[:, i, :].copy())

    def block(self, rows, cols) -> "RingMat":
        """The submatrix on the row indices rows and the column indices cols,
        in the given order; either sequence may be empty."""
        return RingMat(self.ctx, self.arr[np.ix_(range(self.ctx.m), rows, cols)])

    def __matmul__(self, other):
        if isinstance(other, RingMat):
            product = _mul_arrays
        elif isinstance(other, RingVec):
            product = _matvec_arrays
        else:
            return NotImplemented
        if other.ctx != self.ctx:
            raise ContextMismatch(f"{other.ctx!r} vs {self.ctx!r}")
        k = other.arr.shape[1]
        if self.cols != k:
            raise DimensionMismatch(f"{self.cols} vs {k}")
        return type(other)(self.ctx, product(self.ctx, self.arr, other.arr))

    def __pow__(self, e: int) -> "RingMat":
        if self.rows != self.cols:
            raise DimensionMismatch("powers need a square matrix")
        if e < 0:
            return inverse(self) ** (-e)
        result = RingMat.identity(self.ctx, self.rows)
        base = self
        while e:
            if e & 1:
                result = result @ base
            base = base @ base
            e >>= 1
        return result

    def __repr__(self) -> str:
        return f"RingMat({self.rows}x{self.cols} over {self.ctx!r})"

    def transpose(self) -> "RingMat":
        return RingMat(self.ctx, self.arr.transpose(0, 2, 1).copy())

    def is_symmetric(self) -> bool:
        return bool((self.arr == self.arr.transpose(0, 2, 1)).all())

    def to_json(self) -> list[list[list[int]]]:
        return self.arr.transpose(1, 2, 0).tolist()

    @classmethod
    def from_json(cls, ctx: RingContext, data, rank: int | None = None) -> "RingMat":
        """Rows of scalars.  A flat row-major list is reshaped when its entries
        are plain ints and its length is a perfect square, or when the rank is
        known and the length is rank**2."""
        if not isinstance(data, list) or not data:
            raise InputError("a matrix must be a nonempty list")
        if rank is None and all(isinstance(e, int) and not isinstance(e, bool) for e in data):
            rank = isqrt(len(data))
        if not isinstance(data[0], list) or (
            data[0] and isinstance(data[0][0], int)
        ):
            # flat row-major, or rows of plain ints in the m = 1 case; disambiguate:
            # rows of ints only make sense when len(row) == rank, flat otherwise
            if rank is not None and len(data) == rank * rank:
                data = [data[i * rank : (i + 1) * rank] for i in range(rank)]
            elif not isinstance(data[0], list):
                raise InputError("a matrix must be given as rows (or flat with known rank)")
        return cls.from_rows(ctx, data)


# ---------------------------------------------------------------------------
# elimination

# Largest residue field that gets multiply/subtract tables: the largest odd
# prime power below it is 3^5 = 243, so the two q x q intp tables stay
# under 1 MB together.
_TABLE_MAX_Q = 256


class _FieldTables:
    """Arithmetic of F_q on codes: the element with coefficients
    (c_0, ..., c_{m-1}) is the integer sum c_d p^d in 0 .. q-1.  mul and sub
    are q x q tables, inv maps each nonzero code to its inverse (and 0 to
    0), digits is the (m, q) coefficient array of every code."""

    __slots__ = ("mul", "sub", "inv", "place", "digits")

    def __init__(self, res: RingContext):
        p, m = res.p, res.m
        self.place = p ** np.arange(m, dtype=np.intp)
        self.digits = (np.arange(res.q, dtype=np.intp) // self.place[:, None]) % p
        d = self.digits
        self.mul = np.tensordot(self.place, _mul_arrays(res, d[:, :, None], d[:, None, :]), axes=1)
        self.sub = np.tensordot(self.place, (d[:, :, None] - d[:, None, :]) % p, axes=1)
        self.inv = np.argmax(self.mul == 1, axis=1)

    def encode(self, arr: np.ndarray) -> np.ndarray:
        """Codes (1, r, c) of a residue coefficient array (m, r, c)."""
        _, r, c = arr.shape
        return np.dot(self.place, arr.reshape(len(self.place), r * c)).reshape(1, r, c)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        return self.digits[:, codes[0]]


def _field_tables(res: RingContext) -> _FieldTables | None:
    """The code tables of the residue field of res, built on first use and
    kept on the context; None when q > _TABLE_MAX_Q."""
    if res.q > _TABLE_MAX_Q:
        return None
    tables = res._field_tables
    if tables is None:
        tables = res._field_tables = _FieldTables(res)
    return tables


def _residue_sweep(
    res: RingContext, arr: np.ndarray, ncols: int
) -> tuple[list[int], list[int], np.ndarray]:
    """Gauss-Jordan sweep of a coefficient array (m, r, c) of the residue
    field res.

    Pivots come from the first ncols columns only, each the first nonzero
    entry at or below the current row; every row operation acts on all c
    columns.  Returns (pivot columns, row order, reduced array), where row
    order[i] is the row of arr that the sweep moved to row i.  Each pivot
    clears its column with one rank-1 update, work - f (x) pivot row, where
    f is the column with the pivot row's own entry zeroed.  With q <=
    _TABLE_MAX_Q the sweep runs on codes, so that update is two table
    lookups; above it the sweep runs on coefficients through _mul_arrays.
    """
    tables = _field_tables(res)
    if tables is None:
        work = arr.copy()

        def normalize(cur, col):
            inv = _entry(res, work, (cur, col)).inverse().coeffs
            work[:, cur, :] = _scal_arrays(res, inv, work[:, cur, :])

        def eliminate(f, cur):
            work[...] = (work - _mul_arrays(res, f[:, :, None], work[:, cur : cur + 1, :])) % res.p

    else:
        mul, sub, inv = tables.mul, tables.sub, tables.inv
        work = tables.encode(arr)

        def normalize(cur, col):
            work[:, cur, :] = mul[inv[work[0, cur, col]], work[:, cur, :]]

        def eliminate(f, cur):
            work[...] = sub[work, mul[f[:, :, None], work[:, cur : cur + 1, :]]]

    r = work.shape[1]
    pivots: list[int] = []
    rows = list(range(r))
    cur = col = 0
    while cur < r and col < ncols:
        # the next pivot: the first column from col on with a nonzero entry
        # at or below row cur, and its first such row
        nonzero = (work[:, cur:, col:ncols] != 0).any(axis=0)
        found = nonzero.any(axis=0)
        step = int(found.argmax())
        if not found[step]:
            break
        col += step
        piv = cur + int(nonzero[:, step].argmax())
        if piv != cur:
            work[:, [cur, piv], :] = work[:, [piv, cur], :]
            rows[cur], rows[piv] = rows[piv], rows[cur]
        normalize(cur, col)
        f = work[:, :, col].copy()
        f[:, cur] = 0
        eliminate(f, cur)
        pivots.append(col)
        cur += 1
        col += 1
    return pivots, rows, work if tables is None else tables.decode(work)


def _pivot_block(ctx: RingContext, arr: np.ndarray, ncols: int):
    """Pivots of the reduction mod p of arr (m, r, c), from its first ncols
    columns, and the residue inverse of the pivot block.

    Returns (pivot columns Q, pivot rows P, X) with X arr[P, Q] = 1 mod p,
    X a coefficient array of the residue field.  The sweep runs on
    [arr mod p | 1]: the right half ends as a transform T with T (arr mod p)
    reduced, and the rows of T that carry a pivot are combinations of the
    rows P alone, so X = T[:k, P].
    """
    res = ctx.residue_context()
    m, r, c = arr.shape
    red = _into(res, arr).astype(storage_dtype(res), copy=False)
    eye = np.zeros((m, r, r), dtype=red.dtype)
    eye[0] = np.eye(r, dtype=red.dtype)
    pivots, rows, work = _residue_sweep(res, np.concatenate([red, eye], axis=2), ncols)
    k = len(pivots)
    prow = rows[:k]
    return pivots, prow, work[:, :k, [c + i for i in prow]]


def _newton_inverse(ctx: RingContext, block: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Inverse of a square coefficient array block of ctx from its inverse
    x mod p: X <- X (2 - block X) doubles the p-adic precision of X (Dixon
    1982), so ceil(log2 n) steps reach p^n.  Each step works at the
    precision it reaches, so every step but the last may multiply in int64
    where p^n would need Python ints."""
    diag = np.arange(x.shape[1])
    e = 1
    while e < ctx.n:
        e = min(2 * e, ctx.n)
        step = ctx.with_precision(e)
        x = _into(step, x)
        residual = -_mul_arrays(step, _into(step, block), x)
        residual[0, diag, diag] += 2
        x = _mul_arrays(step, x, residual % step.pn)
    return x


def _inverse_array(a: RingMat) -> np.ndarray:
    """Coefficient array of a^-1; raises NonUnitPivot."""
    pivots, prow, x = _pivot_block(a.ctx, a.arr, a.cols)
    if pivots != list(range(a.rows)):
        raise NonUnitPivot("matrix is not invertible over the local ring")
    # x inverts a's rows in the order P, so a^-1 is x with its columns put back
    x = _newton_inverse(a.ctx, a.arr[:, prow, :], x)
    inv = np.empty_like(x)
    inv[:, :, prow] = x
    return inv


def residue_rank(mat: RingMat) -> int:
    """Rank of the reduction mod p."""
    return len(independent_columns(mat))


def is_unimodular(mat: RingMat) -> bool:
    """True when a square matrix is invertible over the local ring, i.e. its
    reduction mod p has full rank."""
    return mat.rows == mat.cols and residue_rank(mat) == mat.rows


def solve(a: RingMat, b):
    """Solve a X = b for an invertible square a; raises NonUnitPivot.
    b may be a RingVec (then the result is a RingVec) or any matrix that
    RingMat.from_rows takes."""
    vec = isinstance(b, RingVec)
    rhs = RingMat.from_columns(a.ctx, [b]) if vec else RingMat.from_rows(a.ctx, b)
    if a.rows != a.cols or rhs.rows != a.rows:
        raise DimensionMismatch("solve needs square a with matching b")
    out = RingMat(a.ctx, _mul_arrays(a.ctx, _inverse_array(a), rhs.arr))
    return out.column(0) if vec else out


def inverse(a: RingMat) -> RingMat:
    if a.rows != a.cols:
        raise DimensionMismatch("inverse needs a square matrix")
    return RingMat(a.ctx, _inverse_array(a))


def kernel(mat: RingMat) -> list[RingVec]:
    """Basis of the kernel at precision n.

    Only defined when elimination terminates with unit pivots and exactly
    zero defect rows; otherwise the kernel rank depends on digits beyond the
    precision and PrecisionLoss is raised.  For each free column f the basis
    vector is e_f - mat[P, Q]^-1 mat[P, f] over the pivot rows P and pivot
    columns Q; the defect rows vanish exactly when mat times these vectors
    does.
    """
    ctx, arr = mat.ctx, mat.arr
    pivots, prow, x = _pivot_block(ctx, arr, mat.cols)
    free = [j for j in range(mat.cols) if j not in pivots]
    bp = arr[:, prow, :]
    x = _newton_inverse(ctx, bp[:, :, pivots], x)
    basis = np.zeros((ctx.m, mat.cols, len(free)), dtype=arr.dtype)
    basis[0, free, np.arange(len(free))] = 1
    basis[:, pivots, :] = (-_mul_arrays(ctx, x, bp[:, :, free])) % ctx.pn
    if _mul_arrays(ctx, arr, basis).any():
        raise PrecisionLoss(
            "kernel is not determined at this precision: "
            "a nonzero relation row has no unit entry"
        )
    return [RingVec(ctx, basis[:, :, j].copy()) for j in range(len(free))]


def solve_in_span(basis: list[RingVec], target: RingVec | RingMat) -> RingVec | RingMat | None:
    """Coordinates of target in the span of a residually independent basis,
    or None when target is outside the span at this precision.

    target may be a RingVec (then the coordinates are a RingVec) or a
    RingMat of targets (then a RingMat with one column of coordinates per
    target, or None when any column lies outside the span).  With an empty
    basis a zero target has zero-row coordinates.  One residue sweep of
    [B | T] decides independence: B is residually independent exactly when
    each of its k columns gets a pivot, and a target column lies outside
    the span mod p when it gets one too.  Otherwise the coordinates are
    X = B[P]^-1 T[P] over the pivot rows P, and every target lies in the
    span exactly when B X = T.
    """
    ctx = target.ctx
    vec = isinstance(target, RingVec)
    rhs = RingMat.from_columns(ctx, [target]) if vec else target
    k = len(basis)
    if not k:
        if not rhs.is_zero():
            return None
        out = RingMat.zeros(ctx, 0, rhs.cols)
        return out.column(0) if vec else out
    bmat = RingMat.from_columns(ctx, basis)
    if bmat.rows != rhs.rows:
        raise DimensionMismatch(f"basis rank {bmat.rows} vs target rank {rhs.rows}")
    t = rhs.arr
    pivots, prow, x = _pivot_block(ctx, np.concatenate([bmat.arr, t], axis=2), k + rhs.cols)
    if pivots[:k] != list(range(k)):
        raise PrecisionLoss("span basis must be residually independent")
    if len(pivots) > k:
        return None
    x = _newton_inverse(ctx, bmat.arr[:, prow, :], x)
    coords = _mul_arrays(ctx, x, t[:, prow, :])
    if not bool((_mul_arrays(ctx, bmat.arr, coords) == t).all()):
        return None
    out = RingMat(ctx, coords)
    return out.column(0) if vec else out


def independent_columns(mat: RingMat) -> list[int]:
    """Indices of a maximal residually independent set of columns
    (lexicographically first, hence deterministic)."""
    red = mat.reduce_mod_p()
    return _residue_sweep(red.ctx, red.arr, mat.cols)[0]
