"""Newton-Hensel constructions on lattices over truncated Witt rings.

Two constructions: building an isotropic vector w = u + p a v from a
near-isotropic u with a unit pairing, and orthogonalizing a vector against
a target with a single linear solve.  Each returns exact data at precision
n; failed preconditions raise typed errors instead of producing approximate
output.  The scalar root lifter and its polynomial helpers (hensel_root,
poly_eval, poly_derivative) are ring arithmetic and live in witt; they are
re-exported here under their old names.
"""

from .errors import BadPairing, NonUnitPivot, NotNearIsotropic
from .lattice import QuadLattice
from .linalg import RingMat, RingVec
from .witt import PadicScalar, hensel_root, poly_derivative, poly_eval  # noqa: F401


def isotropic_combination(
    lattice: QuadLattice, u: RingVec, v: RingVec
) -> tuple[PadicScalar, RingVec]:
    """Isotropic vector w = u + p a v from a near-isotropic u.

    Requires p | u.u and u.v a unit.  u.u, u.v and v.v are read from one
    Gram block B^T G B with B = [u | v].  With s = (u.u)/p the scalar a
    solves s + 2a(u.v) + p a^2 (v.v) = 0, a quadratic whose derivative
    2(u.v) is a unit since p is odd; the chosen root is the one with
    a = -s / (2 u.v) mod p.  Returns (a, w) with w.w = 0 mod p^n and
    w = u mod p, so the reduced line through u is unchanged; the one
    pairing it makes is that check of w.w.
    """
    ctx = lattice.ring
    u, v = lattice.vector(u), lattice.vector(v)
    b = RingMat.from_columns(ctx, [u, v])
    block = b.transpose() @ (lattice.gram @ b)
    uu, uv, vv = block.entry(0, 0), block.entry(0, 1), block.entry(1, 1)
    if not uv.is_unit():
        raise BadPairing("u.v must be a unit")
    if uu.is_unit():
        raise NotNearIsotropic("u.u must be divisible by p")
    if ctx.n == 1:
        return ctx.zero(), u
    low = ctx.with_precision(ctx.n - 1)
    s = low.scalar(uu.exact_div_p(1).coeffs)
    uv_l = low.scalar(uv.coeffs)
    vv_l = low.scalar(vv.coeffs)
    quad = [s, uv_l + uv_l, low.scalar(ctx.p) * vv_l]
    # residue-level root: a = -s / (2 u.v) mod p, lifted canonically
    res = low.residue_context()
    a0_res = (res.zero() - res.scalar(s.coeffs)) * (
        res.scalar(2) * res.scalar(uv.coeffs)
    ).inverse()
    a_low = hensel_root(low, quad, low.scalar(a0_res.coeffs))
    a = ctx.scalar(a_low.coeffs)
    w = u + v.scale(a * ctx.scalar(ctx.p))
    if not lattice.pairing(w, w).is_zero():
        raise NotNearIsotropic("w = u + p a v is not isotropic")
    return a, w


def orthogonalize_with_coefficient(
    lattice: QuadLattice, target: RingVec, v: RingVec, u: RingVec
) -> tuple[PadicScalar, RingVec]:
    """(a, v + a u) with (v + a u).target = 0, where a = -(v.target)/(u.target).

    A single linear solve; requires u.target to be a unit (NonUnitPivot
    otherwise)."""
    ctx = lattice.ring
    uc = lattice.pairing(u, target)
    if not uc.is_unit():
        raise NonUnitPivot("u.target must be a unit")
    vc = lattice.pairing(v, target)
    a = (ctx.zero() - vc) * uc.inverse()
    out = v + u.scale(a)
    if not lattice.pairing(out, target).is_zero():
        raise NonUnitPivot("v + a u still pairs nontrivially with the target")
    return a, out
