"""Seeded input generators for the benchmark workloads.

Every generator draws from a random.Random built from the run's --seed, so
one seed always yields the same inputs, and the library under test only
ever sees the finished inputs.  Isometries are assembled from block Gram
matrices whose eigenvectors are known by construction (the isometry is
diagonal in roots of unity on the block basis) and then conjugated by a
seeded unimodular S.  The expected eigenvalue, eigenspace ranks, Hodge
vector and ample class are therefore known without calling eigen_split.

Several generators follow constructions of k3lift.samples but do not call
it, for two reasons.  samples.py is part of the library and may change,
while the benchmark's inputs must stay the same from one commit to the
next, or a comparison of two commits would measure a change of inputs.
And the inputs differ on purpose: every change of basis here is a dense
L @ U unimodular (samples' elementary row operations leave a rank-22
matrix with about 66 of 484 entries non-zero), and deformation points
have entries p * (unit), so every transport does the same work.
"""

from __future__ import annotations

from k3lift import (
    ConnectionData,
    DeformationPoint,
    LiftingCertificate,
    PeriodFrame,
    QuadLattice,
    RingMat,
    SlopeDecomposition,
    SupersingularInput,
    inverse,
    lift_finite_height,
    lift_ss_nonsymplectic,
    lift_ss_symplectic,
    quadric_connection,
)


def scalar(rng, ctx):
    return ctx.scalar([rng.randrange(ctx.pn) for _ in range(ctx.m)])


def unit(rng, ctx):
    while True:
        s = scalar(rng, ctx)
        if s.is_unit():
            return s


def unimodular(rng, ctx, size):
    """L @ U with L unit lower triangular and U upper triangular with unit
    diagonal, both with random entries: dense and invertible over W_n."""
    zero, one = ctx.zero(), ctx.one()
    lower = RingMat.from_rows(
        ctx,
        [[scalar(rng, ctx) if j < i else (one if i == j else zero) for j in range(size)]
         for i in range(size)],
    )
    upper = RingMat.from_rows(
        ctx,
        [[scalar(rng, ctx) if j > i else (unit(rng, ctx) if i == j else zero) for j in range(size)]
         for i in range(size)],
    )
    return lower @ upper


def symmetric_unimodular(rng, ctx, size):
    u = unimodular(rng, ctx, size)
    zero = ctx.zero()
    diag = RingMat.from_rows(
        ctx, [[unit(rng, ctx) if i == j else zero for j in range(size)] for i in range(size)]
    )
    return u.transpose() @ diag @ u


# ---------------------------------------------------------------------------
# tame isometries with known eigenvectors


class BlockIsometry:
    """A = S^-1 D S and G = S^T G0 S for a diagonal D = diag(zeta^exps[i]).

    Block basis vector i becomes column i of S^-1, an exact eigenvector of A
    with eigenvalue zeta^exps[i]; pairings between such columns are the
    entries of G0.
    """

    def __init__(self, rng, ctx, order, exps, gram0):
        self.ctx, self.order, self.exps = ctx, order, list(exps)
        rank = len(exps)
        self.roots = ctx.nth_roots_of_unity(order)
        zero = ctx.zero()
        diag = RingMat.from_rows(
            ctx,
            [[self.roots[exps[i]] if i == j else zero for j in range(rank)] for i in range(rank)],
        )
        s = unimodular(rng, ctx, rank)
        self.s_inv = inverse(s)
        self.matrix = self.s_inv @ diag @ s
        self.gram = s.transpose() @ RingMat.from_rows(ctx, gram0) @ s
        self.lattice = QuadLattice(ctx, self.gram)

    def vec(self, i):
        return self.s_inv.column(i)

    def ranks(self):
        return [self.exps.count(k) for k in range(self.order)]

    def other_eigenvector(self, exp):
        """A block eigenvector whose eigenvalue differs from zeta^exp mod p."""
        return self.vec(next(i for i, k in enumerate(self.exps) if k != exp))


def _fill_blocks(rng, ctx, order, size, exps, gram0):
    """Append inverse-closed eigenvalue blocks until `size` slots are used.

    Exponents k with zeta^k != zeta^-k come in hyperbolic pairs (k, -k);
    self-inverse exponents (0 and N/2) get a unit 1x1 block.
    """
    self_inverse = [0, order // 2] if order % 2 == 0 else [0]
    start = len(exps)
    while len(exps) - start < size:
        left = size - (len(exps) - start)
        k = rng.randrange(order)
        if k in self_inverse or left == 1:
            k = k if k in self_inverse else rng.choice(self_inverse)
            _place(gram0, len(exps), [[unit(rng, ctx)]])
            exps.append(k)
        else:
            u = unit(rng, ctx)
            _place(gram0, len(exps), [[ctx.zero(), u], [u, ctx.zero()]])
            exps.extend([k, order - k])


def _near_isotropic_plane(rng, ctx):
    """[[p c, 1], [1, d]]: unimodular, first vector isotropic mod p."""
    return [[ctx.scalar(ctx.p) * scalar(rng, ctx), ctx.one()], [ctx.one(), scalar(rng, ctx)]]


def _place(gram0, at, block):
    for i, row in enumerate(block):
        for j, x in enumerate(row):
            gram0[at + i][at + j] = x


def _zero_gram(ctx, rank):
    return [[ctx.zero()] * rank for _ in range(rank)]


# ---------------------------------------------------------------------------
# the four certificate cases


class CertCase:
    """One certificate-building input plus everything its checks need."""

    def __init__(self, name, branch, iso, build, expected_exp):
        self.name, self.branch, self.iso = name, branch, iso
        self.build = build
        self.expected_eigenvalue = iso.roots[expected_exp]
        self.expected_exp = expected_exp


def ss_nonsymplectic_primitive(rng, ctx, order, rank=22):
    """Hodge line on a primitive zeta eigenvector; ample class fixed."""
    gram0 = _zero_gram(ctx, rank)
    u = unit(rng, ctx)
    _place(gram0, 0, [[ctx.zero(), u], [u, ctx.zero()]])
    _place(gram0, 2, [[unit(rng, ctx)]])
    exps = [1, order - 1, 0]
    _fill_blocks(rng, ctx, order, rank - 3, exps, gram0)
    iso = BlockIsometry(rng, ctx, order, exps, gram0)
    inp = SupersingularInput(iso.lattice, iso.matrix, iso.vec(0), ample=iso.vec(2))
    return CertCase("ss-nonsymplectic-zeta", "ss-nonsymplectic", iso,
                    lambda: lift_ss_nonsymplectic(inp, order), 1), inp


def ss_nonsymplectic_minus_one(rng, ctx, order, rank=22):
    """Hodge line isotropic mod p in the -1 eigenspace: needs a Hensel partner."""
    half = order // 2
    gram0 = _zero_gram(ctx, rank)
    _place(gram0, 0, _near_isotropic_plane(rng, ctx))
    u = unit(rng, ctx)
    _place(gram0, 2, [[ctx.zero(), u], [u, ctx.zero()]])
    _place(gram0, 4, [[unit(rng, ctx)]])
    exps = [half, half, 1, order - 1, 0]
    _fill_blocks(rng, ctx, order, rank - 5, exps, gram0)
    iso = BlockIsometry(rng, ctx, order, exps, gram0)
    inp = SupersingularInput(iso.lattice, iso.matrix, iso.vec(0), ample=iso.vec(4))
    return CertCase("ss-nonsymplectic-minus-one", "ss-nonsymplectic", iso,
                    lambda: lift_ss_nonsymplectic(inp, order), half), inp


def ss_symplectic(rng, ctx, order, rank=22):
    """Fixed block [[pc,1],[1,d]] + [[pc',1],[1,d']]: Hodge e0, ample e2 with
    p | c.c, so the builder takes the two-orthogonalization path."""
    gram0 = _zero_gram(ctx, rank)
    _place(gram0, 0, _near_isotropic_plane(rng, ctx))
    _place(gram0, 2, _near_isotropic_plane(rng, ctx))
    u = unit(rng, ctx)
    _place(gram0, 4, [[ctx.zero(), u], [u, ctx.zero()]])
    exps = [0, 0, 0, 0, 1, order - 1]
    _fill_blocks(rng, ctx, order, rank - 6, exps, gram0)
    iso = BlockIsometry(rng, ctx, order, exps, gram0)
    inp = SupersingularInput(iso.lattice, iso.matrix, iso.vec(0), ample=iso.vec(2))
    return CertCase("ss-symplectic", "ss-symplectic", iso,
                    lambda: lift_ss_symplectic(inp, order), 0), inp


def finite_height(rng, ctx, order, rank=22, height=4):
    """Slope pieces low | middle | high with Gram [[0,0,I],[0,M,0],[I,0,0]].

    The high piece carries diag(zeta^h_j) with h_0 = 1 and the low piece the
    inverse eigenvalues, so pairing low_j . high_j = 1 is preserved; the
    Hodge line is the first high vector.
    """
    mid = rank - 2 * height
    highs = [1] + [rng.randrange(order) for _ in range(height - 1)]
    gram0 = _zero_gram(ctx, rank)
    exps = [(order - h) % order for h in highs]
    _fill_blocks(rng, ctx, order, mid, exps, gram0)
    exps.extend(highs)
    for j in range(height):
        gram0[j][rank - height + j] = ctx.one()
        gram0[rank - height + j][j] = ctx.one()
    iso = BlockIsometry(rng, ctx, order, exps, gram0)
    cols = [iso.vec(i) for i in range(rank)]
    sd = SlopeDecomposition(iso.lattice, cols[:height], cols[height:height + mid],
                            cols[height + mid:])
    hodge = iso.vec(rank - height).reduce_mod_p()
    return CertCase("finite-height", "finite-height", iso,
                    lambda: lift_finite_height(sd, iso.matrix, order, hodge), 1), (sd, hodge)


# (builder, p, n, order): every case has m = 2, because each order divides
# p^2 - 1 but not p - 1.  The three supersingular cases cost about the same
# and the finite-height one (N = 12) about twice as much, so the median op
# of a round falls inside one cluster of op times, not between two.
CERT_CASES = (
    (ss_nonsymplectic_primitive, 5, 4, 8),
    (ss_nonsymplectic_minus_one, 7, 4, 8),
    (ss_symplectic, 5, 6, 8),
    (finite_height, 7, 6, 12),
)


def perturbed(cert, case):
    """The certificate with p^(n-1) times an eigenvector of another
    eigenvalue added to the generator: A m = lambda m must then fail."""
    ctx = cert.ctx
    bump = case.iso.other_eigenvector(case.expected_exp).scale(ctx.scalar(ctx.p ** (ctx.n - 1)))
    return LiftingCertificate(ctx, cert.branch, cert.order, cert.gram, cert.matrix,
                              cert.generator + bump, cert.eigenvalue, cert.hodge_line,
                              cert.transcript)


# ---------------------------------------------------------------------------
# period frames, connections, Hensel instances


def standard_frame(rng, ctx, rank, split=False):
    """Gram with v1 isotropic, v1 . v_r = 1, v1 orthogonal to the middle."""
    g = _zero_gram(ctx, rank)
    g[0][rank - 1] = g[rank - 1][0] = ctx.one()
    middle = symmetric_unimodular(rng, ctx, rank - 2)
    for i in range(rank - 2):
        for j in range(rank - 2):
            g[1 + i][1 + j] = middle.entry(i, j)
    if not split:
        for i in range(1, rank):
            g[i][rank - 1] = g[rank - 1][i] = scalar(rng, ctx)
    return PeriodFrame(QuadLattice(ctx, g))


def p_units(rng, ctx, count):
    """count entries p * (unit): every divided power has its full valuation,
    so the work per transport does not depend on the draw."""
    p = ctx.scalar(ctx.p)
    return [p * unit(rng, ctx) for _ in range(count)]


def connection(rng, ctx, dimension):
    """Quadric connection on a split frame, conjugated by a random parabolic
    change of basis and re-adapted."""
    rank = dimension + 2
    base = standard_frame(rng, ctx, rank, split=True)
    quad = quadric_connection(base)
    zero, one = ctx.zero(), ctx.one()
    c = _zero_gram(ctx, rank)
    c[0][0] = c[rank - 1][rank - 1] = one
    t = unimodular(rng, ctx, dimension)
    for i in range(dimension):
        for j in range(dimension):
            c[1 + i][1 + j] = t.entry(i, j)
    for j in range(1, rank):
        c[0][j] = scalar(rng, ctx)
    for i in range(1, rank - 1):
        c[i][rank - 1] = scalar(rng, ctx)
    cmat = RingMat.from_rows(ctx, c)
    cinv = inverse(cmat)
    frame = PeriodFrame(QuadLattice(ctx, cmat.transpose() @ base.lattice.gram @ cmat))
    return ConnectionData.adapt(frame, [cinv @ d @ cmat for d in quad.matrices])


def deformation_point(rng, conn):
    return DeformationPoint(conn.ctx, p_units(rng, conn.ctx, conn.dimension))


def isotropic_instance(rng, ctx, rank=6):
    """(lattice, u, v) with p | u.u and u.v a unit, in conjugated coordinates."""
    g = _zero_gram(ctx, rank)
    for i in range(rank):
        for j in range(i, rank):
            g[i][j] = g[j][i] = scalar(rng, ctx)
    g[0][0] = ctx.scalar(ctx.p) * scalar(rng, ctx)
    g[0][1] = g[1][0] = unit(rng, ctx)
    s = unimodular(rng, ctx, rank)
    s_inv = inverse(s)
    lattice = QuadLattice(ctx, s.transpose() @ RingMat.from_rows(ctx, g) @ s)
    return lattice, s_inv.column(0), s_inv.column(1)


def simple_root_poly(rng, ctx, degree=5):
    """(coefficients ascending, x0) with f(x0) = 0 mod p, f(x0) != 0, and
    f'(x0) a unit, so Newton runs its full course to a unique root."""
    p = ctx.scalar(ctx.p)
    while True:
        coeffs = [scalar(rng, ctx) for _ in range(degree + 1)]
        x0 = ctx.lift(ctx.reduce(scalar(rng, ctx)))
        acc = ctx.zero()
        for c in reversed(coeffs):
            acc = acc * x0 + c
        coeffs[0] = coeffs[0] - acc + p * unit(rng, ctx)
        deriv = ctx.zero()
        for k in range(degree, 0, -1):
            deriv = deriv * x0 + ctx.scalar(k) * coeffs[k]
        if deriv.is_unit():
            return coeffs, x0
