"""Finite-precision period domain: isotropic lines through a marked frame.

A frame fixes a rank-r lattice with a distinguished basis in standard
position: v1 isotropic, v1 . v_r = 1, v1 orthogonal to the middle basis
vectors, perfect Gram form.  A period line is the span of

    v_M = v1 + a_2 v_2 + ... + a_{r-1} v_{r-1} + a_r v_r

with middle coordinates in pW; the last coordinate a_r is forced by
isotropy, lands in p^2 W, and is found by a Hensel solve whose linear
coefficient 2(v1 . v_r) = 2 is a unit.  This realizes the coordinate
bijection between such lines and (pW)^(r-2) at precision n.
"""

from .errors import (
    DegenerateForm,
    DimensionMismatch,
    InputError,
    ProjectionCollapse,
    ValuationViolation,
    field,
)
from .hensel import hensel_root
from .lattice import QuadLattice
from .linalg import RingVec, is_unimodular
from .witt import PadicScalar, RingContext


class PeriodFrame:
    """Marked lattice whose Gram matrix is in standard frame position.

    Required shape (0-indexed): G[0][0] = 0, G[0][j] = 0 for 0 < j < r-1,
    G[0][r-1] = 1, G symmetric and unimodular, rank r >= 3.  The middle
    orthogonality G[0][j] = 0 is what forces the derived last coordinate
    into p^2 W rather than just pW.
    """

    __slots__ = ("lattice",)

    def __init__(self, lattice: QuadLattice):
        r = lattice.rank
        if r < 3:
            raise DimensionMismatch("frame rank must be at least 3")
        g = lattice.gram
        ctx = lattice.ring
        if not g.entry(0, 0).is_zero():
            raise InputError("v1 must be isotropic (corner Gram entry 0)")
        if g.entry(0, r - 1) != ctx.one():
            raise InputError("v1 . v_r must equal 1")
        for j in range(1, r - 1):
            if not g.entry(0, j).is_zero():
                raise InputError("v1 must pair to zero with the middle basis")
        if not is_unimodular(g):
            raise DegenerateForm("frame Gram form must be perfect")
        self.lattice = lattice

    @property
    def ctx(self) -> RingContext:
        return self.lattice.ring

    @property
    def rank(self) -> int:
        return self.lattice.rank

    @property
    def parameter_count(self) -> int:
        return self.rank - 2

    def hodge_vector(self) -> RingVec:
        """Residue vector spanning the Hodge line (reduction of v1)."""
        res = self.ctx.residue_context()
        return RingVec.basis_vector(res, self.rank, 0)

    def to_json(self) -> dict:
        return {"ring": self.ctx.to_json(), "gram": self.lattice.gram.to_json()}

    @classmethod
    def from_json(cls, data, ctx: RingContext | None = None) -> "PeriodFrame":
        """A frame read as a lattice payload (see QuadLattice.from_json)."""
        return cls(QuadLattice.from_json(data, ctx))

    def __eq__(self, other) -> bool:
        return isinstance(other, PeriodFrame) and other.lattice == self.lattice

    def __repr__(self) -> str:
        return f"PeriodFrame(rank={self.rank} over {self.ctx!r})"


class PeriodLine:
    """A valid line: frame, middle coordinates, derived last coordinate.

    Instances are produced by from_generator, the one path that validates;
    the constructor itself stores fields verbatim so tests can assemble
    deliberately broken lines for the condition checker.
    """

    __slots__ = ("frame", "coords", "last", "generator")

    def __init__(self, frame: PeriodFrame, coords, last: PadicScalar, generator: RingVec):
        self.frame = frame
        self.coords = tuple(coords)
        self.last = last
        self.generator = generator

    def coordinates(self) -> tuple:
        return self.coords

    def to_json(self) -> dict:
        return {
            "frame": self.frame.to_json(),
            "coordinates": [a.to_json() for a in self.coords],
            "last_coordinate": self.last.to_json(),
            "generator": self.generator.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict, ctx: RingContext | None = None) -> "PeriodLine":
        """Rebuild a line from its generator, re-deriving and re-validating."""
        frame = PeriodFrame.from_json(field(data, "frame"), ctx)
        return from_generator(frame, RingVec.from_json(frame.ctx, field(data, "generator")))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PeriodLine)
            and other.frame == self.frame
            and other.coords == self.coords
            and other.last == self.last
        )

    def __repr__(self) -> str:
        return f"PeriodLine(coords={list(self.coords)}, last={self.last})"


def complete_period_line(frame: PeriodFrame, coords) -> PeriodLine:
    """Assemble the unique valid line with the given middle coordinates.

    Each coordinate must lie in pW.  The last coordinate solves
    Q(a) + 2 t (G[0,r-1] + sum a_i G[i,r-1]) + t^2 G[r-1,r-1] = 0,
    a simple Hensel root at t = 0 since the linear coefficient is a unit;
    it lands in p^2 W because Q(a) does.  from_generator validates the line.
    """
    ctx = frame.ctx
    r = frame.rank
    scalars = [ctx.scalar(a) for a in coords]
    if len(scalars) != r - 2:
        raise DimensionMismatch(f"expected {r - 2} coordinates")
    for a in scalars:
        if a.is_unit():
            raise ValuationViolation("middle coordinates must lie in pW")
    pair, zero = frame.lattice.pairing, ctx.zero()
    # the middle vector a: Q(a) = a . a is the constant term and
    # 2 (v1 + a) . v_r the linear one
    middle = RingVec.from_entries(ctx, [zero] + scalars + [zero])
    last_basis = RingVec.basis_vector(ctx, r, r - 1)
    c0 = pair(middle, middle)
    lin = pair(middle + RingVec.basis_vector(ctx, r, 0), last_basis)
    c1 = lin + lin
    c2 = frame.lattice.gram.entry(r - 1, r - 1)
    last = hensel_root(ctx, [c0, c1, c2], zero)
    return from_generator(frame, RingVec.from_entries(ctx, [ctx.one()] + scalars + [last]))


def from_generator(frame: PeriodFrame, vector: RingVec) -> PeriodLine:
    """Normalize a generating vector to coefficient 1 on v1 and validate.

    Two generators of the same line yield identical coordinates, which is
    the scaling invariance behind the coordinate bijection.
    """
    vector = frame.lattice.vector(vector)
    lead = vector.entry(0)
    if not lead.is_unit():
        raise ProjectionCollapse("generator does not reduce into the Hodge line")
    unit = lead.inverse()
    norm = vector.scale(unit)
    coords = [norm.entry(i) for i in range(1, frame.rank - 1)]
    for a in coords:
        if a.is_unit():
            raise ValuationViolation("middle coordinates must lie in pW")
    last = norm.entry(frame.rank - 1)
    if not last.is_zero() and last.valuation() < 2:
        raise ValuationViolation("last coordinate must lie in p^2 W")
    if not frame.lattice.pairing(norm, norm).is_zero():
        raise InputError("generator is not isotropic at this precision")
    return PeriodLine(frame, coords, last, norm)


def check_conditions(line: PeriodLine, frobenius=None) -> dict:
    """Report on the defining conditions of a line, recomputed from scratch.

    condition1: the generator reduces mod p to the Hodge line's vector.
    condition2: the generator is isotropic at precision n.
    condition3: with a Frobenius matrix Phi (rows, or a RingMat of the
      frame's context), whose i-th column is F(v_i), the sigma-linear
      F(v) = Phi sigma(v) gives F(v_M) of valuation exactly 2; without one
      it is reported as not checked (automatic for lines built under a
      standard frame).
    """
    frame = line.frame
    ctx = frame.ctx
    gen = line.generator
    cond1 = gen.reduce_mod_p() == frame.hodge_vector()
    cond2 = frame.lattice.pairing(gen, gen).is_zero()
    report = {
        "condition1_hodge_reduction": bool(cond1),
        "condition2_isotropy": bool(cond2),
    }
    if frobenius is None:
        report["condition3_frobenius"] = None
        report["condition3_note"] = "not checked: no Frobenius supplied (automatic for standard frames)"
    else:
        image = frame.lattice.matrix(frobenius) @ gen.frobenius()
        val = image.valuation()
        report["condition3_frobenius"] = bool(val == 2)
        if ctx.n < 3:
            report["condition3_note"] = "precision below 3: the upper valuation bound is not visible"
    report["valid"] = bool(
        report["condition1_hodge_reduction"]
        and report["condition2_isotropy"]
        and report["condition3_frobenius"] is not False
    )
    return report
