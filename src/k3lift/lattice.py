"""Quadratic lattices over Z (IntLattice) and over truncated Witt rings
(QuadLattice).

A lattice is a free module with a symmetric Gram matrix.  Integer lattices
support discriminant groups (via Smith normal form), saturated orthogonal
complements, exact signatures, and base change into a ring context.  Ring
lattices support pairings, isotropy tests, and orthogonal complements when
the relevant elimination has unit pivots.
"""

import numpy as np

from .errors import (
    ContextMismatch,
    DegenerateForm,
    DimensionMismatch,
    InputError,
    field,
)
from .linalg import RingMat, RingVec, kernel
from .witt import PadicScalar, RingContext

# ---------------------------------------------------------------------------
# integer matrix utilities


def smith_normal_form(mat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith normal form with transforms: returns (d, u, v) with u @ mat @ v = d,
    u and v unimodular, and d diagonal with d[i] | d[i+1]."""
    a = np.array(mat, dtype=object).copy()
    if a.ndim != 2:
        raise InputError("need a 2-d integer matrix")
    rows, cols = a.shape
    u = np.eye(rows, dtype=object)
    v = np.eye(cols, dtype=object)

    def pivot_position(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i, j] != 0 and (best is None or abs(a[i, j]) < abs(a[best[0], best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(rows, cols):
        pos = pivot_position(t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            a[[t, i], :] = a[[i, t], :]
            u[[t, i], :] = u[[i, t], :]
        if j != t:
            a[:, [t, j]] = a[:, [j, t]]
            v[:, [t, j]] = v[:, [j, t]]
        # clear row and column t by Euclidean steps
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if a[i, t]:
                    q = a[i, t] // a[t, t]
                    a[i, :] -= q * a[t, :]
                    u[i, :] -= q * u[t, :]
                    if a[i, t]:
                        a[[t, i], :] = a[[i, t], :]
                        u[[t, i], :] = u[[i, t], :]
                        dirty = True
            for j in range(t + 1, cols):
                if a[t, j]:
                    q = a[t, j] // a[t, t]
                    a[:, j] -= q * a[:, t]
                    v[:, j] -= q * v[:, t]
                    if a[t, j]:
                        a[:, [t, j]] = a[:, [j, t]]
                        v[:, [t, j]] = v[:, [j, t]]
                        dirty = True
        t += 1

    # enforce the divisibility chain
    k = min(rows, cols)
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            if a[i + 1, i + 1] == 0 and a[i, i] == 0:
                continue
            if a[i, i] == 0 or (a[i + 1, i + 1] != 0 and a[i + 1, i + 1] % a[i, i] != 0):
                # fold entry i+1 into row i and rediagonalize the 2x2 block
                a[:, i] += a[:, i + 1]
                v[:, i] += v[:, i + 1]
                x, y = a[i, i], a[i + 1, i]
                while y:
                    q = x // y
                    a[i, :], a[i + 1, :] = a[i + 1, :], a[i, :] - q * a[i + 1, :]
                    u[i, :], u[i + 1, :] = u[i + 1, :], u[i, :] - q * u[i + 1, :]
                    x, y = a[i, i], a[i + 1, i]
                q = a[i, i + 1] // a[i, i]
                a[:, i + 1] -= q * a[:, i]
                v[:, i + 1] -= q * v[:, i]
                changed = True
    for i in range(k):
        if a[i, i] < 0:
            a[i, :] = -a[i, :]
            u[i, :] = -u[i, :]
    return a, u, v


def integer_kernel(mat) -> np.ndarray:
    """Z-basis of {x : mat @ x = 0}; rows of the result span a saturated
    sublattice because kernels of integer maps are saturated."""
    a = np.array(mat, dtype=object)
    d, _, v = smith_normal_form(a)
    rows, cols = a.shape
    rank = sum(1 for i in range(min(rows, cols)) if d[i, i] != 0)
    return v[:, rank:].T.copy()


def bareiss_determinant(mat) -> int:
    """Exact integer determinant (fraction-free elimination)."""
    a = np.array(mat, dtype=object).copy()
    r = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch("determinant needs a square matrix")
    sign, prev = 1, 1
    for k in range(r - 1):
        if a[k, k] == 0:
            swap = next((i for i in range(k + 1, r) if a[i, k] != 0), None)
            if swap is None:
                return 0
            a[[k, swap], :] = a[[swap, k], :]
            sign = -sign
        for i in range(k + 1, r):
            for j in range(k + 1, r):
                a[i, j] = (a[i, j] * a[k, k] - a[i, k] * a[k, j]) // prev
        prev = a[k, k]
    return sign * int(a[r - 1, r - 1])


def signature(mat) -> tuple[int, int, int]:
    """Exact inertia (positive, negative, zero) of a symmetric integer matrix.

    Fraction-free symmetric elimination.  A pivot d on the diagonal of the
    live block M turns each live row i into d row_i - M_ip row_p, and each
    live column likewise: a congruence by an invertible rational matrix,
    so Sylvester's law of inertia keeps the signature.  It leaves the live
    block d (d M_ij - M_ip M_pj), which is divided by d and by the
    previous pivot; the division is exact, as in Bareiss's determinant, so
    the entries stay integral and small.  The stored block is therefore
    the form's block times the sign of the last pivot, and a pivot counts
    as positive when it agrees in sign with the one before.  A zero live
    diagonal with a nonzero entry M_ij is fixed by e_i <- e_i + e_j; a
    zero live block is the radical.
    """
    a = [[int(x) for x in row] for row in np.array(mat, dtype=object)]
    pos = neg = zero = 0
    prev = 1
    live = list(range(len(a)))
    while live:
        piv = next((i for i in live if a[i][i]), None)
        if piv is None:
            off = next(((i, j) for i in live for j in live if i != j and a[i][j]), None)
            if off is None:
                zero += len(live)
                break
            i, j = off
            for k in live:
                a[i][k] += a[j][k]
            for k in live:
                a[k][i] += a[k][j]
            piv = i
        d = a[piv][piv]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        live.remove(piv)
        for i in live:
            for j in live:
                a[i][j] = (d * a[i][j] - a[i][piv] * a[piv][j]) // prev
        prev = d
    return pos, neg, zero


# ---------------------------------------------------------------------------
# lattices


def _int_array(data) -> np.ndarray:
    """data as an object array of Python ints; any other entry is refused."""
    a = np.array(data, dtype=object)
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in a.flat):
        raise InputError("an integer lattice takes integer entries")
    return a


class IntLattice:
    """Free quadratic lattice over Z with a symmetric integer Gram matrix."""

    __slots__ = ("rank", "gram")

    def __init__(self, gram):
        g = _int_array(gram)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DimensionMismatch("Gram matrix must be square")
        if not (g == g.T).all():
            raise InputError("Gram matrix must be symmetric")
        self.gram = g
        self.rank = g.shape[0]

    @property
    def even(self) -> bool:
        """Every norm is even exactly when every diagonal entry is."""
        return all(self.gram[i, i] % 2 == 0 for i in range(self.rank))

    def vector(self, entries) -> np.ndarray:
        v = _int_array(entries)
        if v.shape != (self.rank,):
            raise DimensionMismatch(f"vector length must be {self.rank}")
        return v

    def pairing(self, u, v) -> int:
        u, v = self.vector(u), self.vector(v)
        return int(np.dot(u, np.dot(self.gram, v)))

    def norm(self, v) -> int:
        return self.pairing(v, v)

    def determinant(self) -> int:
        return bareiss_determinant(self.gram)

    def signature(self) -> tuple[int, int, int]:
        return signature(self.gram)

    def is_unimodular(self) -> bool:
        return abs(self.determinant()) == 1

    def change_ring(self, ctx: RingContext) -> "QuadLattice":
        """Base change into a ring context."""
        return QuadLattice(ctx, self.gram.tolist())

    def direct_sum(self, other: "IntLattice") -> "IntLattice":
        if not isinstance(other, IntLattice):
            raise ContextMismatch("cannot sum Z and ring lattices")
        r1, r2 = self.rank, other.rank
        g = np.zeros((r1 + r2, r1 + r2), dtype=object)
        g[:r1, :r1] = self.gram
        g[r1:, r1:] = other.gram
        return IntLattice(g)

    def discriminant_group(self) -> "DiscriminantGroup":
        if self.determinant() == 0:
            raise DegenerateForm("Gram matrix is singular over Q")
        d, _, _ = smith_normal_form(self.gram)
        invariants = tuple(
            int(d[i, i]) for i in range(self.rank) if abs(d[i, i]) > 1
        )
        return DiscriminantGroup(invariants)

    def orthogonal_complement(self, vectors) -> list[np.ndarray]:
        """Basis of the saturated sublattice {x : x . s = 0 for all s in vectors}."""
        vecs = [self.vector(s) for s in vectors]
        if not vecs:
            return [self.vector([1 if i == j else 0 for j in range(self.rank)]) for i in range(self.rank)]
        pair_rows = np.array([np.dot(self.gram, s) for s in vecs], dtype=object)
        return [row.copy() for row in integer_kernel(pair_rows)]

    def to_json(self) -> dict:
        return {"ring": "Z", "rank": self.rank, "gram": self.gram.tolist()}

    def __repr__(self) -> str:
        return f"IntLattice(rank={self.rank})"


class QuadLattice:
    """Free quadratic lattice over a ring context W(F_q)/p^n."""

    __slots__ = ("ring", "rank", "gram")

    def __init__(self, ring: RingContext, gram):
        if not isinstance(ring, RingContext):
            raise InputError("a QuadLattice needs a ring context; use IntLattice over Z")
        self.ring = ring
        g = RingMat.from_rows(ring, gram)
        if g.rows != g.cols:
            raise DimensionMismatch("Gram matrix must be square")
        if not g.is_symmetric():
            raise InputError("Gram matrix must be symmetric")
        self.gram = g
        self.rank = g.rows

    def vector(self, entries) -> RingVec:
        v = RingVec.from_entries(self.ring, entries)
        if v.rank != self.rank:
            raise DimensionMismatch(f"vector length must be {self.rank}")
        return v

    def matrix(self, rows) -> RingMat:
        """rows, or a RingMat of this ring, as a rank x rank matrix: the one
        reader of every matrix that acts on the lattice."""
        m = RingMat.from_rows(self.ring, rows)
        if m.rows != self.rank or m.cols != self.rank:
            raise DimensionMismatch(f"matrix must be {self.rank} x {self.rank}")
        return m

    def pairing(self, u, v) -> PadicScalar:
        """Bilinear pairing u . v = u^T (G v), one coefficient-array product."""
        return self.vector(u).dot(self.gram @ self.vector(v))

    def norm(self, v) -> PadicScalar:
        return self.pairing(v, v)

    def direct_sum(self, other: "QuadLattice") -> "QuadLattice":
        if not isinstance(other, QuadLattice) or other.ring != self.ring:
            raise ContextMismatch("ring contexts differ")
        r1, r2 = self.rank, other.rank
        rows = [row + [0] * r2 for row in self.gram.to_json()]
        rows += [[0] * r1 + row for row in other.gram.to_json()]
        return QuadLattice(self.ring, rows)

    def orthogonal_complement(self, vectors) -> list[RingVec]:
        """Basis of {x : x . s = 0 for all s in vectors}.

        The pairing rows must eliminate with unit pivots; otherwise the
        kernel is precision-dependent and PrecisionLoss is raised.
        """
        vecs = [self.vector(s) for s in vectors]
        if not vecs:
            return [RingVec.basis_vector(self.ring, self.rank, i) for i in range(self.rank)]
        rows = [self.gram @ s for s in vecs]
        mat = RingMat.from_columns(self.ring, rows).transpose()
        return kernel(mat)

    def to_json(self) -> dict:
        return {
            "ring": self.ring.to_json(),
            "rank": self.rank,
            "gram": self.gram.to_json(),
        }

    @classmethod
    def from_json(cls, data, ctx: RingContext | None = None) -> "QuadLattice":
        """A payload's 'gram', or bare Gram rows, over RingContext.of_payload's ring."""
        ring = RingContext.of_payload(data, ctx)
        gram = field(data, "gram") if isinstance(data, dict) else data
        return cls(ring, RingMat.from_json(ring, gram))

    def __repr__(self) -> str:
        return f"QuadLattice(rank={self.rank} over {self.ring!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuadLattice)
            and other.ring == self.ring
            and other.gram == self.gram
        )


def payload_lattice(data, ctx: RingContext | None = None) -> QuadLattice:
    """The payload's 'lattice' field, or else the payload, an object with a 'gram'."""
    if isinstance(data, dict) and "lattice" in data:
        return QuadLattice.from_json(data["lattice"], ctx)
    field(data, "gram")  # never bare rows: the payload has other fields
    return QuadLattice.from_json(data, ctx)


class DiscriminantGroup:
    """Finite abelian group L*/L in invariant-factor form d1 | d2 | ... ."""

    __slots__ = ("invariants",)

    def __init__(self, invariants):
        self.invariants = tuple(invariants)
        for a, b in zip(self.invariants, self.invariants[1:]):
            if b % a != 0:
                raise InputError("invariant factors must form a divisibility chain")

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariants:
            out *= d
        return out

    def artin_invariant(self, p: int) -> int | None:
        """Half the length when the group is (Z/p)^(2*sigma); None otherwise."""
        if self.invariants and all(d == p for d in self.invariants):
            if len(self.invariants) % 2 == 0:
                return len(self.invariants) // 2
        return None

    def to_json(self) -> dict:
        return {"invariants": list(self.invariants), "order": self.order}


# ---------------------------------------------------------------------------
# standard lattices


def _e8_gram() -> list[list[int]]:
    """Negative definite even unimodular E8 (negated Cartan matrix, Bourbaki
    node order: chain 1-3-4-5-6-7-8 with node 2 attached to node 4)."""
    edges = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for a, b in edges:
        g[a - 1][b - 1] = 1
        g[b - 1][a - 1] = 1
    return g


def standard_lattice(name: str) -> IntLattice:
    """The hyperbolic plane U, the even unimodular E8 (negative definite), or
    the K3 lattice U^3 + E8 + E8 of rank 22 and signature (3, 19)."""
    key = name.strip().upper()
    if key == "U":
        return IntLattice([[0, 1], [1, 0]])
    if key == "E8":
        return IntLattice(_e8_gram())
    if key == "K3":
        u = standard_lattice("U")
        e8 = standard_lattice("E8")
        out = u
        for piece in (u, u, e8, e8):
            out = out.direct_sum(piece)
        return out
    raise InputError(f"unknown standard lattice {name!r} (use U, E8, K3)")

