"""Seeded random generators for property-test instances.

Every generator takes a random.Random so suites are reproducible from a
single seed.  Constructions are exact by design: isometries are built as
conjugates of diagonal root-of-unity matrices together with a Gram that
they visibly preserve, so the library's own validators accept them
without any search.
"""

import math
from random import Random

from .errors import DimensionMismatch
from .witt import PadicScalar, RingContext
from .linalg import RingMat, RingVec, inverse
from .lattice import QuadLattice
from .isometry import Isometry, require_tame
from .period import PeriodFrame
from .torelli import ConnectionData, DeformationPoint, quadric_connection


def random_scalar(rng: Random, ctx: RingContext) -> PadicScalar:
    return ctx.scalar([rng.randrange(ctx.pn) for _ in range(ctx.m)])


def random_unit(rng: Random, ctx: RingContext) -> PadicScalar:
    while True:
        s = random_scalar(rng, ctx)
        if s.is_unit():
            return s


def random_unimodular(rng: Random, ctx: RingContext, size: int) -> RingMat:
    """Product of random elementary row operations applied to the identity."""
    rows = [
        [ctx.one() if i == j else ctx.zero() for j in range(size)] for i in range(size)
    ]
    if size == 1:
        rows[0][0] = random_unit(rng, ctx)
        return RingMat.from_rows(ctx, rows)
    for _ in range(3 * size):
        kind = rng.randrange(3)
        i, j = rng.sample(range(size), 2)
        if kind == 0:
            s = random_scalar(rng, ctx)
            rows[i] = [rows[i][k] + s * rows[j][k] for k in range(size)]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            u = random_unit(rng, ctx)
            rows[i] = [u * rows[i][k] for k in range(size)]
    return RingMat.from_rows(ctx, rows)


def random_symmetric_unimodular(rng: Random, ctx: RingContext, size: int) -> RingMat:
    """U^T D U with D a random unit diagonal: symmetric with unit determinant."""
    u = random_unimodular(rng, ctx, size)
    diag = RingMat.from_rows(
        ctx,
        [
            [random_unit(rng, ctx) if i == j else ctx.zero() for j in range(size)]
            for i in range(size)
        ],
    )
    return u.transpose() @ diag @ u


def _eigenvalue_exponents(rng: Random, rank: int, order: int) -> list[int]:
    """Multiset of exponents k (eigenvalues zeta^k), inverse-closed, lcm = order.

    Exponents k with zeta^k not self-inverse must appear in pairs (k, -k)
    so the Gram can pair the two eigenspaces; self-inverse slots (k = 0,
    and k = order/2 when order is even) can appear singly.
    """
    self_inverse = [0] + ([order // 2] if order % 2 == 0 and order > 1 else [])
    primitive = [k for k in range(order) if math.gcd(k, order) == 1]
    exps: list[int] = []
    k = rng.choice(primitive)
    if (order - k) % order == k:
        exps.append(k)
    else:
        if rank < 2:
            raise DimensionMismatch(f"order {order} needs rank >= 2 for an inverse pair")
        exps.extend([k, order - k])
    while len(exps) < rank:
        if rank - len(exps) == 1:
            exps.append(rng.choice(self_inverse))
        else:
            k = rng.randrange(order)
            if (order - k) % order == k:
                exps.append(k)
            else:
                exps.extend([k, order - k])
    return exps


def random_tame_isometry(
    rng: Random, ctx: RingContext, rank: int, order: int
) -> Isometry:
    """Isometry of exact order `order` on a random unimodular lattice.

    Built as S^{-1} D S where D is diagonal in roots of unity and the Gram
    is S^T G0 S for a block Gram G0 pairing each eigenvalue with its
    inverse.  Requires order | p^m - 1 (InsufficientResidueField
    otherwise) and gcd(order, p) = 1.
    """
    require_tame(ctx, order)
    roots = ctx.nth_roots_of_unity(order)
    exps = _eigenvalue_exponents(rng, rank, order)
    zero, diag, gram0 = ctx.zero(), [], [[ctx.zero()] * rank for _ in range(rank)]
    i = 0
    while i < rank:
        k = exps[i]
        diag.append(roots[k])
        if (order - k) % order == k:
            gram0[i][i] = random_unit(rng, ctx)
            i += 1
        else:
            # exps places the partner right after k
            diag.append(roots[(order - k) % order])
            u = random_unit(rng, ctx)
            gram0[i][i + 1] = u
            gram0[i + 1][i] = u
            i += 2
    d = RingMat.from_rows(
        ctx, [[diag[i] if i == j else zero for j in range(rank)] for i in range(rank)]
    )
    s = random_unimodular(rng, ctx, rank)
    a = inverse(s) @ d @ s
    gram = s.transpose() @ RingMat.from_rows(ctx, gram0) @ s
    return Isometry(QuadLattice(ctx, gram), a)


def random_period_frame(
    rng: Random, ctx: RingContext, rank: int, split: bool = False
) -> PeriodFrame:
    """Standard frame: random unimodular middle block, free last row unless split."""
    if rank < 3:
        raise DimensionMismatch("a period frame needs rank >= 3")
    zero = ctx.zero()
    g = [[zero] * rank for _ in range(rank)]
    g[0][rank - 1] = ctx.one()
    g[rank - 1][0] = ctx.one()
    middle = random_symmetric_unimodular(rng, ctx, rank - 2)
    for i in range(rank - 2):
        for j in range(rank - 2):
            g[1 + i][1 + j] = middle.entry(i, j)
    if not split:
        for i in range(1, rank - 1):
            g[i][rank - 1] = random_scalar(rng, ctx)
            g[rank - 1][i] = g[i][rank - 1]
        g[rank - 1][rank - 1] = random_scalar(rng, ctx)
    return PeriodFrame(QuadLattice(ctx, RingMat.from_rows(ctx, g)))


def random_period_coordinates(rng: Random, frame: PeriodFrame) -> list[PadicScalar]:
    """Middle coordinates in pW, one per frame parameter."""
    ctx = frame.ctx
    p = ctx.scalar(ctx.p)
    return [p * random_scalar(rng, ctx) for _ in range(frame.parameter_count)]


def random_deformation_point(rng: Random, conn: ConnectionData) -> DeformationPoint:
    ctx = conn.ctx
    p = ctx.scalar(ctx.p)
    return DeformationPoint(ctx, [p * random_scalar(rng, ctx) for _ in range(conn.dimension)])


def random_connection(rng: Random, ctx: RingContext, dimension: int) -> ConnectionData:
    """Valid adapted connection data with dimension parameters.

    A quadric connection over a random split frame is conjugated by a
    random parabolic (first column e_1, last row e_r) and re-adapted;
    conjugation preserves commutativity and flatness, and the parabolic
    shape keeps the Gram standard.
    """
    rank = dimension + 2
    base = random_period_frame(rng, ctx, rank, split=True)
    conn = quadric_connection(base)
    zero, one = ctx.zero(), ctx.one()
    c = [[zero] * rank for _ in range(rank)]
    c[0][0] = one
    c[rank - 1][rank - 1] = one
    t = random_unimodular(rng, ctx, dimension)
    for i in range(dimension):
        for j in range(dimension):
            c[1 + i][1 + j] = t.entry(i, j)
    for j in range(1, rank):
        c[0][j] = random_scalar(rng, ctx)
    for i in range(1, rank - 1):
        c[i][rank - 1] = random_scalar(rng, ctx)
    cmat = RingMat.from_rows(ctx, c)
    cinv = inverse(cmat)
    gram = cmat.transpose() @ base.lattice.gram @ cmat
    frame = PeriodFrame(QuadLattice(ctx, gram))
    mats = [cinv @ di @ cmat for di in conn.matrices]
    return ConnectionData.adapt(frame, mats)


def random_isotropic_instance(
    rng: Random, ctx: RingContext, rank: int
) -> tuple[QuadLattice, RingVec, RingVec]:
    """Lattice with vectors u, v satisfying p | u.u and u.v a unit."""
    if rank < 2:
        raise DimensionMismatch("an isotropic instance needs rank >= 2")
    g = [[ctx.zero()] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            g[i][j] = random_scalar(rng, ctx)
            g[j][i] = g[i][j]
    g[0][0] = ctx.scalar(ctx.p) * random_scalar(rng, ctx)
    g[0][1] = random_unit(rng, ctx)
    g[1][0] = g[0][1]
    s = random_unimodular(rng, ctx, rank)
    sinv = inverse(s)
    lattice = QuadLattice(ctx, s.transpose() @ RingMat.from_rows(ctx, g) @ s)
    u = sinv @ RingVec.basis_vector(ctx, rank, 0)
    v = sinv @ RingVec.basis_vector(ctx, rank, 1)
    return lattice, u, v
