"""Local Torelli correspondence for constant-connection crystal families.

The model: a period frame together with d = r - 2 commuting connection
matrices D_i, compatible with the pairing (D_i^T G + G D_i = 0) and adapted
to the frame (D_i v1 = v_{i+1}).  Parallel transport to the point
(pa_1, ..., pa_d) is the divided-power series

    sum over multi-indices m of gamma_{m_1}(pa_1) ... gamma_{m_d}(pa_d) D^m y

truncated at total degree M(n, p), beyond which every term has valuation
at least n.  Because the D_i commute, the multinomial identity for divided
powers makes this exactly the one-variable series
sum_{k<M} gamma_k(p) X^k y in X = sum_i a_i D_i, with a_i = pa_i / p.
X is one product, the row (a_1, ..., a_d) times the d x r^2 stack of the
flattened D_i that the connection keeps, and the series costs M - 1
matrix-vector products more.
Reading frame coordinates off the transported Hodge generator gives the
period map; its inverse is a fixed-point iteration contracting by a factor
of p per step.
"""

from .errors import (
    ContextMismatch,
    DegenerateForm,
    DimensionMismatch,
    InputError,
    NoConvergence,
    ValuationViolation,
    field,
    list_field,
)
from .lattice import QuadLattice
from .linalg import RingMat, RingVec, inverse, is_unimodular
from .period import PeriodFrame, PeriodLine, from_generator
from .witt import RingContext, factorial_valuation


def truncation_degree(n: int, p: int) -> int:
    """Least M with k - v_p(k!) >= n for every k >= M.

    The term of total degree k in the transport series is p^k / k! times
    integral data, of valuation at least k - v_p(k!), so the series stops
    at degree M - 1.  That valuation is not monotone in k: it falls by
    v_p(k) - 1 at each multiple of p^2.  By Legendre's formula
    v_p(k!) = (k - s_p(k)) / (p - 1), where the digit sum s_p(k) is at
    least 1, so k - v_p(k!) >= k - floor((k - 1)/(p - 1)) for k >= 1.  This
    lower bound never falls as k grows, so once it reaches n at M0 it
    covers every k >= M0.  M is M0 lowered past each k just below it whose
    own valuation already reaches n.
    """
    m = 1
    while m - (m - 1) // (p - 1) < n:
        m += 1
    while m > 1 and m - 1 - factorial_valuation(m - 1, p) >= n:
        m -= 1
    return m


class DeformationPoint:
    """Coordinate tuple (pa_1, ..., pa_d), every entry in pW."""

    __slots__ = ("ctx", "entries")

    def __init__(self, ctx: RingContext, entries):
        self.ctx = ctx
        scalars = tuple(ctx.scalar(e) for e in entries)
        for e in scalars:
            if e.is_unit():
                raise ValuationViolation("deformation entries must lie in pW")
        self.entries = scalars

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DeformationPoint)
            and other.ctx == self.ctx
            and other.entries == self.entries
        )

    def __repr__(self) -> str:
        return f"DeformationPoint({list(self.entries)})"

    def to_json(self) -> dict:
        return {"entries": [e.to_json() for e in self.entries]}

    @classmethod
    def from_json(cls, ctx: RingContext, data) -> "DeformationPoint":
        if isinstance(data, dict):
            data = data.get("entries")
        if not isinstance(data, list):
            raise InputError("a deformation point is a list of scalars (or {'entries': ...})")
        return cls(ctx, data)


class ConnectionData:
    """Frame plus adapted commuting connection matrices.

    The constructor always enforces commutativity D_i D_j = D_j D_i, on
    which transport rests, and keeps the d x r^2 stack of the flattened
    D_i that transport multiplies by.  validate(), which check=False skips,
    enforces two more exact identities:
      - pairing compatibility D_i^T G + G D_i = 0 (so transport is an
        isometry and moves isotropic lines to isotropic lines),
      - adaptation D_i v1 = v_{i+1}, which pins the first-order behaviour
        of the period map to h_i = pa_i + O(p^2).
    Matrices that are merely transversal can be brought to this form with
    adapt().
    """

    __slots__ = ("frame", "matrices", "_flat")

    def __init__(self, frame: PeriodFrame, matrices, check: bool = True):
        self.frame = frame
        self.matrices = tuple(frame.lattice.matrix(mat) for mat in matrices)
        r = frame.rank
        if len(self.matrices) != frame.parameter_count:
            raise DimensionMismatch(
                f"need {frame.parameter_count} connection matrices, got {len(self.matrices)}"
            )
        for i, di in enumerate(self.matrices):
            for dj in self.matrices[i + 1 :]:
                if (di @ dj) != (dj @ di):
                    raise InputError("connection matrices must commute")
        self._flat = RingMat.stack(frame.ctx, [mat.reshape(1, r * r) for mat in self.matrices])
        if check:
            self.validate()

    @property
    def ctx(self) -> RingContext:
        return self.frame.ctx

    @property
    def dimension(self) -> int:
        return len(self.matrices)

    def validate(self) -> None:
        ctx = self.ctx
        r = self.frame.rank
        self._validate_compatible()
        e1 = RingVec.basis_vector(ctx, r, 0)
        for i, di in enumerate(self.matrices):
            if (di @ e1) != RingVec.basis_vector(ctx, r, i + 1):
                raise InputError(
                    "connection is not adapted to the frame (D_i v1 != v_{i+1}); "
                    "use ConnectionData.adapt"
                )

    def _validate_compatible(self) -> None:
        """Pairing compatibility: validate() minus adaptation."""
        g = self.frame.lattice.gram
        for di in self.matrices:
            if not ((di.transpose() @ g) + (g @ di)).is_zero():
                raise InputError("connection must be compatible with the pairing")

    @classmethod
    def adapt(cls, frame: PeriodFrame, matrices) -> "ConnectionData":
        """Re-frame transversal connection matrices into adapted form.

        Requires commutativity and pairing compatibility; the images D_i v1
        must be residually independent from v1 (the transversality witness).
        Rebuilds the middle basis as w_{i+1} = D_i v1 (their v_r components
        vanish by compatibility), conjugates everything by that change of
        basis, and returns an equivalent adapted ConnectionData on the new
        frame.
        """
        raw = cls(frame, matrices, check=False)
        raw._validate_compatible()
        ctx = frame.ctx
        r = frame.rank
        g = frame.lattice.gram
        e1 = RingVec.basis_vector(ctx, r, 0)
        cols = [e1]
        cols.extend(di @ e1 for di in raw.matrices)
        cols.append(RingVec.basis_vector(ctx, r, r - 1))
        change = RingMat.from_columns(ctx, cols)
        if not is_unimodular(change):
            raise DegenerateForm(
                "transversality failure: D_i v1 do not span the middle directions"
            )
        change_inv = inverse(change)
        new_gram = change.transpose() @ g @ change
        new_frame = PeriodFrame(QuadLattice(ctx, new_gram))
        new_mats = [change_inv @ di @ change for di in raw.matrices]
        return cls(new_frame, new_mats)

    def to_json(self) -> dict:
        return {
            "frame": self.frame.to_json(),
            "matrices": [m.to_json() for m in self.matrices],
        }

    @classmethod
    def from_json(cls, data: dict, ctx: RingContext | None = None) -> "ConnectionData":
        frame = PeriodFrame.from_json(field(data, "frame"), ctx)
        mats = [RingMat.from_json(frame.ctx, mj) for mj in list_field(data, "matrices")]
        return cls(frame, mats)

    def __repr__(self) -> str:
        return f"ConnectionData(rank={self.frame.rank}, dimension={self.dimension})"


def quadric_connection(frame: PeriodFrame) -> ConnectionData:
    """The canonical adapted connection on a split frame.

    Needs v_r isotropic and orthogonal to the middle block, so the Gram is
    [[0,0,1],[0,Q,0],[1,0,0]].  Then D_i v1 = v_{i+1},
    D_i v_{j+1} = -Q_{ij} v_r, D_i v_r = 0 is commuting, compatible, and
    adapted; the transported generator is exact at degree 2 with
    h_r = -Q(pa)/2.
    """
    ctx = frame.ctx
    r = frame.rank
    g = frame.lattice.gram
    if not g.entry(r - 1, r - 1).is_zero():
        raise InputError("split frame needs v_r isotropic")
    for j in range(1, r - 1):
        if not g.entry(j, r - 1).is_zero():
            raise InputError("split frame needs the middle block orthogonal to v_r")
    mats = []
    for i in range(1, r - 1):
        rows = [[0] * r for _ in range(r)]
        rows[i][0] = 1
        rows[r - 1][1 : r - 1] = [-g.entry(i, j) for j in range(1, r - 1)]
        mats.append(RingMat.from_rows(ctx, rows))
    return ConnectionData(frame, mats)


def transport(conn: ConnectionData, point: DeformationPoint, y: RingVec) -> RingVec:
    """Divided-power parallel transport of y to the deformation point.

    Returns sum_{k<M} gamma_k(p) X^k y with X = sum_i a_i D_i, a_i = pa_i / p
    and M = M(n, p).  gamma_k(p) = p^(k - e) / (k! / p^e) with e = v_p(k!)
    is ctx.divided_power_factor(k), computed by unit division.  For
    commuting D_i (a ConnectionData invariant) this is exactly the
    multi-index series of the module docstring, in each total degree k:
    the multinomial theorem expands gamma_k(p) X^k into the terms
    gamma_k(p) (k! / prod_i m_i!) a^m D^m over |m| = k, and that integer
    coefficient times gamma_k(p) a^m is prod_i gamma_{m_i}(pa_i), an
    identity in W and so in W_n.

    X is one product, the 1 x d row (a_1, ..., a_d) times the connection's
    d x r^2 stack of flattened D_i; the series then costs M - 1
    matrix-vector products X (X^{k-1} y) and as many scalings.  At n = 1
    (M = 1) it is its constant term y, with no product at all.
    """
    ctx = conn.ctx
    if point.ctx != ctx:
        raise ContextMismatch("transport inputs must share the connection's context")
    y = conn.frame.lattice.vector(y)
    if len(point) != conn.dimension:
        raise DimensionMismatch("deformation point dimension differs from connection")
    bound = truncation_degree(ctx.n, ctx.p)
    if bound == 1:
        return y
    row = RingMat.from_rows(ctx, [[pa.exact_div_p(1) for pa in point.entries]])
    x = (row @ conn._flat).reshape(y.rank, y.rank)
    out = term = y
    for k in range(1, bound):
        term = x @ term
        out = out + term.scale(ctx.divided_power_factor(k))
    return out


def phi_map(conn: ConnectionData, point: DeformationPoint) -> tuple:
    """Period coordinates of the transported Hodge generator.

    transport moves v1 to sum h_i v_i with h_1 = 1 + p^2 k_1 a unit; the
    map returns h_1^{-1} (h_2, ..., h_{r-1}), and the first-order law
    phi(g)_i = pa_i mod p^2 holds for adapted connections.
    """
    ctx = conn.ctx
    r = conn.frame.rank
    h = transport(conn, point, RingVec.basis_vector(ctx, r, 0))
    coords = h.scale(h.entry(0).inverse())
    return tuple(coords.entry(i) for i in range(1, r - 1))


def phi_line(conn: ConnectionData, point: DeformationPoint) -> PeriodLine:
    """Full period line of the transported Hodge generator."""
    ctx = conn.ctx
    r = conn.frame.rank
    h = transport(conn, point, RingVec.basis_vector(ctx, r, 0))
    return from_generator(conn.frame, h)


def phi_invert(conn: ConnectionData, target, max_iterations: int | None = None) -> DeformationPoint:
    """The unique deformation point mapping to the target coordinates.

    Fixed-point iteration u <- u + (target - phi(u)): the correction map
    contracts by a factor of p, so the error valuation climbs by one per
    step and at most n iterations are needed.  NoConvergence signals
    connection data violating the adapted invariants; its message names the
    iteration limit and the error valuation at the last iterate u.
    """
    ctx = conn.ctx
    goal = tuple(ctx.scalar(t) for t in target)
    if len(goal) != conn.dimension:
        raise DimensionMismatch("target length differs from connection dimension")
    for t in goal:
        if t.is_unit():
            raise ValuationViolation("target coordinates must lie in pW")
    limit = max_iterations if max_iterations is not None else ctx.n + 2
    current = list(goal)
    for _ in range(limit):
        image = phi_map(conn, DeformationPoint(ctx, current))
        if all(c == t for c, t in zip(image, goal)):
            return DeformationPoint(ctx, current)
        current = [u + (t - c) for u, c, t in zip(current, image, goal)]
    image = phi_map(conn, DeformationPoint(ctx, current))
    error = min(((t - c).valuation() for c, t in zip(image, goal)), default=ctx.n)
    raise NoConvergence(
        f"no fixed point within {limit} iterations; final error valuation "
        f"min_i v(t_i - phi(u)_i) = {error}"
    )
