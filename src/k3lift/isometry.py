"""Isometries of quadratic lattices and tame eigenspace decompositions.

An isometry of order N prime to p splits the lattice over a large enough
Witt ring into a direct sum of free eigenspace summands, one per N-th root
of unity.  The split is computed from exact averaging projectors

    e_zeta = (1/N) sum_i zeta^(-i) A^i

which satisfy the idempotent, orthogonality, and completeness identities on
the nose, not merely modulo an error term.
"""

from .constraints import prime_factors
from .errors import (
    ContextMismatch,
    DimensionMismatch,
    InputError,
    NotEigenvector,
    OrderViolation,
    ProjectionCollapse,
    field,
)
from .lattice import IntLattice, QuadLattice, _int_array, payload_lattice
from .linalg import RingMat, RingVec, independent_columns, is_unimodular
from .witt import PadicScalar, RingContext

DEFAULT_ORDER_BOUND = 256


class Isometry:
    """A lattice automorphism preserving the pairing: A^T G A = G.

    The lattice lives over a ring context; an isometry of a Z-lattice enters
    through from_integer.  A declared order, when given, is validated as the
    exact multiplicative order: A^N = 1 and A^(N/q) != 1 for every prime
    q | N.
    """

    __slots__ = ("lattice", "matrix", "declared_order")

    def __init__(
        self, lattice: QuadLattice, matrix, check: bool = True, order: int | None = None
    ):
        if not isinstance(lattice, QuadLattice):
            raise InputError("an Isometry needs a ring lattice; use Isometry.from_integer")
        self.lattice = lattice
        self.matrix = lattice.matrix(matrix)
        if check and not self.verify():
            raise InputError("matrix does not preserve the pairing")
        self.declared_order = order
        if order is not None:
            if order < 1:
                raise OrderViolation("declared order must be positive")
            if not self._is_identity_power(order):
                raise OrderViolation(f"matrix^{order} is not the identity")
            for q in prime_factors(order):
                if self._is_identity_power(order // q):
                    raise OrderViolation(
                        f"declared order {order} is not exact: matrix^{order // q} = 1"
                    )

    @classmethod
    def from_integer(cls, lattice: IntLattice, rows, ctx: RingContext) -> "Isometry":
        """Base change an isometry of a Z-lattice into a ring context.

        A^T G A = G is checked over Z, so the image is an isometry in every
        ring context.
        """
        a = _int_array(rows)
        if a.shape != (lattice.rank, lattice.rank):
            raise DimensionMismatch("matrix shape must match lattice rank")
        if not (a.T @ lattice.gram @ a == lattice.gram).all():
            raise InputError("matrix does not preserve the pairing over Z")
        return cls(lattice.change_ring(ctx), a.tolist(), check=False)

    def _is_identity_power(self, k: int) -> bool:
        return self.power(k).matrix == RingMat.identity(self.lattice.ring, self.lattice.rank)

    def verify(self) -> bool:
        g, a = self.lattice.gram, self.matrix
        return (a.transpose() @ g @ a) == g

    def order(self, bound: int = DEFAULT_ORDER_BOUND) -> int:
        """Smallest N >= 1 with A^N = identity; OrderViolation past the bound."""
        ident = RingMat.identity(self.lattice.ring, self.lattice.rank)
        power = self.matrix
        for k in range(1, bound + 1):
            if power == ident:
                return k
            power = power @ self.matrix
        raise OrderViolation(f"order exceeds {bound}")

    def power(self, k: int) -> "Isometry":
        return Isometry(self.lattice, self.matrix**k, check=False)

    def reduce_mod_p(self) -> "Isometry":
        res = self.lattice.ring.residue_context()
        lat = QuadLattice(res, self.lattice.gram.reduce_mod_p())
        return Isometry(lat, self.matrix.reduce_mod_p(), check=False)

    def char_poly(self) -> list:
        """Characteristic polynomial coefficients, leading term first."""
        ctx = self.lattice.ring
        rows = [
            [self.matrix.entry(i, j) for j in range(self.lattice.rank)]
            for i in range(self.lattice.rank)
        ]
        return char_poly_coeffs(rows, ctx.zero(), ctx.one())

    def to_json(self) -> dict:
        out = {"lattice": self.lattice.to_json(), "matrix": self.matrix.to_json()}
        if self.declared_order is not None:
            out["order"] = self.declared_order
        return out

    @classmethod
    def from_json(cls, data: dict, ctx: RingContext | None = None) -> "Isometry":
        """'matrix', an optional 'order' and a lattice (see payload_lattice)."""
        if not isinstance(data, dict) or "matrix" not in data:
            raise InputError("an isometry payload needs 'matrix' and a lattice")
        lat = payload_lattice(data, ctx)
        order = data.get("order")
        if order is not None and (isinstance(order, bool) or not isinstance(order, int)):
            raise InputError("field 'order' must be an integer")
        return cls(lat, RingMat.from_json(lat.ring, field(data, "matrix")), order=order)

    def __repr__(self) -> str:
        return f"Isometry(rank={self.lattice.rank})"


def char_poly_coeffs(rows: list, zero, one) -> list:
    """Division-free characteristic polynomial (Berkowitz), descending degree.

    Works over any commutative ring whose elements support + and *; iterates
    over trailing principal submatrices, applying the Toeplitz column vector
    t = (1, -a, -RC, -RAC, ...) as a truncated convolution.
    """
    r = len(rows)
    if r == 0:
        return [one]
    vec = [one, zero - rows[r - 1][r - 1]]
    for k in range(2, r + 1):
        i0 = r - k
        a = rows[i0][i0]
        rvec = rows[i0][i0 + 1 :]
        cvec = [rows[i][i0] for i in range(i0 + 1, r)]
        sub = [row[i0 + 1 :] for row in rows[i0 + 1 :]]
        t = [one, zero - a]
        w = list(cvec)
        for step in range(k - 1):
            s = zero
            for x, y in zip(rvec, w):
                s = s + x * y
            t.append(zero - s)
            if step < k - 2:
                w = [
                    _dot_row(sub[i], w, zero) for i in range(k - 1)
                ]
        new = []
        for i in range(k + 1):
            s = zero
            lo = max(0, i - (len(t) - 1))
            for j in range(lo, min(i, k - 1) + 1):
                s = s + t[i - j] * vec[j]
            new.append(s)
        vec = new
    return vec


def _dot_row(row, w, zero):
    s = zero
    for x, y in zip(row, w):
        s = s + x * y
    return s


class EigenComponent:
    """One eigenvalue summand of a tame splitting."""

    __slots__ = ("zeta", "index", "projector", "basis")

    def __init__(self, zeta: PadicScalar, index: int, projector: RingMat, basis: list):
        self.zeta = zeta
        self.index = index
        self.projector = projector
        self.basis = basis

    @property
    def rank(self) -> int:
        return len(self.basis)

    def to_json(self) -> dict:
        return {
            "eigenvalue": self.zeta.to_json(),
            "index": self.index,
            "rank": self.rank,
            "basis": [b.to_json() for b in self.basis],
        }

    def __repr__(self) -> str:
        return f"EigenComponent(index={self.index}, rank={self.rank})"


class EigenSplit:
    """Complete eigenspace decomposition of a tame isometry.

    components[i] belongs to roots[i] = zeta^i where zeta is the chosen
    primitive N-th root; every component is kept, including rank-zero ones,
    so that the completeness identity sums over all of them.  basis is the
    stacked matrix [B_0 | ... | B_(N-1)] of the summand bases.
    """

    __slots__ = ("isometry", "order", "roots", "components", "basis")

    def __init__(self, isometry: Isometry, order: int, roots: list, components: list):
        self.isometry = isometry
        self.order = order
        self.roots = roots
        self.components = components
        self.basis = RingMat.from_columns(self.ctx, [b for c in components for b in c.basis])

    @property
    def ctx(self) -> RingContext:
        return self.isometry.lattice.ring

    def component(self, index: int) -> EigenComponent:
        return self.components[index % self.order]

    def ranks(self) -> list[int]:
        return [c.rank for c in self.components]

    def verify_identities(self) -> dict:
        """Exact structural identities of the projector family.

        Idempotence and orthogonality follow from three premises, checked
        first: sum_i E_i = I, A E_i = zeta_i E_i for every i, and the
        residues of the zeta_i pairwise distinct, so that every
        zeta_i - zeta_j (i != j) is a unit.  For a column v of E_j put
        u_i = E_i v - delta_ij v.  Then sum_i u_i = 0 and A u_i = zeta_i u_i,
        and applying prod_{l != k} (A - zeta_l) to sum_i u_i gives
        prod_{l != k} (zeta_k - zeta_l) u_k = 0, so u_k = 0: exactly
        E_i E_j = delta_ij E_j in W(F_q)/p^n.  When the premises hold the
        only products are the N of the eigen relation; when any fails, both
        flags are computed from the N^2 products E_i E_j directly.  A split
        from eigen_split always meets them (A^N = I, zeta primitive, p not
        dividing N).
        """
        ctx = self.ctx
        r = self.isometry.lattice.rank
        a = self.isometry.matrix
        projectors = [comp.projector for comp in self.components]
        total = RingMat.zeros(ctx, r, r)
        for e in projectors:
            total = total + e
        sum_is_identity = total == RingMat.identity(ctx, r)
        eigen_relation = all(
            (a @ comp.projector) == comp.projector.scale(comp.zeta) for comp in self.components
        )
        residues = {ctx.reduce(comp.zeta) for comp in self.components}
        if sum_is_identity and eigen_relation and len(residues) == len(self.components):
            idempotent = orthogonal = True
        else:
            idempotent = all((e @ e) == e for e in projectors)
            orthogonal = all(
                (e @ f).is_zero() and (f @ e).is_zero()
                for i, e in enumerate(projectors)
                for f in projectors[i + 1 :]
            )
        spans = sum(self.ranks()) == r and is_unimodular(self.basis)
        return {
            "sum_is_identity": sum_is_identity,
            "idempotent": idempotent,
            "orthogonal": orthogonal,
            "eigen_relation": eigen_relation,
            "direct_sum": spans,
        }

    def pairing_orthogonality(self) -> bool:
        """<L_zeta, L_xi> = 0 whenever zeta * xi != 1, checked exactly.

        zeta^i zeta^j = 1 exactly when j = -i mod N, so in the one Gram
        P = B^T G B of the stacked bases the rows of summand i must vanish
        off the columns of summand -i mod N.
        """
        b, n = self.basis, self.order
        gram = b.transpose() @ self.isometry.lattice.gram @ b
        owner = [i for i, c in enumerate(self.components) for _ in c.basis]
        return all(
            gram.block([k for k, o in enumerate(owner) if o == i],
                       [k for k, o in enumerate(owner) if o != -i % n]).is_zero()
            for i in set(owner)
        )

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "ranks": self.ranks(),
            "components": [c.to_json() for c in self.components if c.rank > 0],
        }

    def __repr__(self) -> str:
        return f"EigenSplit(order={self.order}, ranks={self.ranks()})"


def eigen_split(isometry: Isometry, order: int) -> EigenSplit:
    """Split a tame ring isometry into eigenspace summands.

    Requires gcd(order, p) = 1 and A^order = identity exactly; the residue
    field must contain the needed roots of unity (order | q - 1), otherwise
    InsufficientResidueField propagates from the root search.
    """
    lat = isometry.lattice
    ctx = lat.ring
    # the tame gate and N | q - 1 are checked before the N powers are built
    roots = ctx.nth_roots_of_unity(order)
    a = isometry.matrix
    r = lat.rank
    powers = [RingMat.identity(ctx, r)]
    for _ in range(order - 1):
        powers.append(powers[-1] @ a)
    if (powers[-1] @ a) != powers[0]:
        raise OrderViolation(f"A^{order} is not the identity")
    inv_n = ctx.scalar(order).inverse()
    # all N projectors in one product: [zeta^(-ik) / N]_(i,k) times the
    # N x r^2 stack whose row k is A^k; zeta^(-ik) = roots[(-i*k) mod N]
    weights = [z * inv_n for z in roots]
    chars = RingMat.from_rows(
        ctx, [[weights[(-i * k) % order] for k in range(order)] for i in range(order)]
    )
    blocks = chars @ RingMat.stack(ctx, [pw.reshape(1, r * r) for pw in powers])
    components = []
    for i in range(order):
        proj = blocks.row(i).reshape(r, r)
        cols = independent_columns(proj)
        basis = [proj.column(j) for j in cols]
        components.append(EigenComponent(roots[i], i, proj, basis))
    return EigenSplit(isometry, order, roots, components)


def lift_eigenvector(split: EigenSplit, index: int, vbar: RingVec) -> RingVec:
    """Lift a residue eigenvector into the eigenspace summand at full
    precision, with reduction exactly the input."""
    ctx = split.ctx
    comp = split.component(index)
    res = ctx.residue_context()
    if vbar.ctx != res:
        raise ContextMismatch("eigenvector must live over the residue field")
    if vbar.is_zero():
        raise NotEigenvector("zero vector cannot be an eigenvector")
    abar = split.isometry.matrix.reduce_mod_p()
    zbar = ctx.reduce(comp.zeta)
    if (abar @ vbar) != vbar.scale(zbar):
        raise NotEigenvector("input is not a residue eigenvector for this root")
    w = comp.projector @ vbar.lift_to(ctx)
    if w.reduce_mod_p() != vbar:
        raise ProjectionCollapse("projector did not preserve the residue vector")
    return w
