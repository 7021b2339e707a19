"""Liftability certificates: the three constructive search branches.

A certificate packages a generator m, its eigenvalue, and a transcript of
claims (isotropy, reduction line, orthogonality pairings, membership,
valuations), all re-checkable from the triple (m, isometry, Gram) alone.
The three builders realize the proof branches: finite height (eigenvector
in the top slope piece), supersingular non-symplectic (eigenvector lift or
the u + p a v construction at eigenvalue -1), and supersingular symplectic
(orthogonalization against the fixed ample class, then the isotropic
combination inside its complement).
"""

from .errors import (
    DimensionMismatch,
    HodgeLineNotEigen,
    IndependenceFailure,
    InputError,
    NotWeaklyTame,
    NoUnitPartner,
    OrderViolation,
    PreconditionError,
    RankTooSmall,
    SymplecticInput,
    NotSymplectic,
    field,
    int_field,
)
from .hensel import isotropic_combination, orthogonalize_with_coefficient
from .isometry import EigenSplit, Isometry, eigen_split, lift_eigenvector, require_tame
from .lattice import QuadLattice
from .linalg import RingMat, RingVec, residue_rank, solve_in_span
from .witt import PadicScalar, RingContext


class SlopeDecomposition:
    """Ambient lattice split into sub-bases of slopes below, at, above 1.

    Validated invariants: the three sub-bases concatenate to a basis; the
    outer pieces are isotropic, mutually dual, and orthogonal to the middle
    piece; the middle piece carries a unimodular form.
    """

    __slots__ = ("lattice", "low", "middle", "high", "frobenius")

    def __init__(self, lattice: QuadLattice, low, middle, high, frobenius=None):
        self.lattice = lattice
        self.low = [lattice.vector(v) for v in low]
        self.middle = [lattice.vector(v) for v in middle]
        self.high = [lattice.vector(v) for v in high]
        if len(self.low) != len(self.high) or not self.high:
            raise DimensionMismatch("outer slope pieces must have equal positive rank")
        if len(self.low) + len(self.middle) + len(self.high) != lattice.rank:
            raise DimensionMismatch("sub-bases must concatenate to the ambient rank")
        self.frobenius = None if frobenius is None else lattice.matrix(frobenius)
        self._validate()

    def _validate(self) -> None:
        """Every pairing is a block of the one Gram P = B^T G B of the
        basis B = [L | M | H]."""
        full = RingMat.from_columns(self.lattice.ring, self.low + self.middle + self.high)
        if residue_rank(full) != self.lattice.rank:
            raise InputError("slope sub-bases do not form an ambient basis")
        gram = full.transpose() @ self.lattice.gram @ full
        h, k = len(self.high), len(self.middle)
        low, middle, high = range(h), range(h, h + k), range(h + k, 2 * h + k)
        for name, piece in (("low", low), ("high", high)):
            if not gram.block(piece, piece).is_zero():
                raise InputError(f"{name} slope piece must be isotropic")
        if not gram.block(middle, [*low, *high]).is_zero():
            raise InputError("middle slope piece must be orthogonal to the outer pieces")
        if residue_rank(gram.block(low, high)) != h:
            raise InputError("outer slope pieces must be dual (unit pairing matrix)")
        if residue_rank(gram.block(middle, middle)) != k:
            raise InputError("middle slope piece must be unimodular")

    @property
    def ctx(self) -> RingContext:
        return self.lattice.ring

    @property
    def height_rank(self) -> int:
        return len(self.high)

    def to_json(self) -> dict:
        out = {
            "ring": self.ctx.to_json(),
            "gram": self.lattice.gram.to_json(),
            "low": [v.to_json() for v in self.low],
            "middle": [v.to_json() for v in self.middle],
            "high": [v.to_json() for v in self.high],
        }
        if self.frobenius is not None:
            out["frobenius"] = self.frobenius.to_json()
        return out

    @classmethod
    def from_json(cls, data: dict, ctx: RingContext | None = None) -> "SlopeDecomposition":
        ctx = RingContext.of_payload(data, ctx)
        gram = field(data, "gram")
        low, middle, high = (_vectors_from_json(ctx, data, k) for k in ("low", "middle", "high"))
        # the pieces' total length is the rank a flat Gram list is read with
        rank = len(low) + len(middle) + len(high)
        frobenius = data.get("frobenius")
        return cls(
            QuadLattice(ctx, RingMat.from_json(ctx, gram, rank)),
            low,
            middle,
            high,
            None if frobenius is None else RingMat.from_json(ctx, frobenius, rank),
        )


def _vectors_from_json(ctx: RingContext, data: dict, key: str) -> list[RingVec]:
    vecs = data.get(key, [])
    if not isinstance(vecs, list):
        raise InputError(f"field '{key}' must be a list of vectors")
    return [RingVec.from_json(ctx, v) for v in vecs]


class SupersingularInput:
    """Lattice with isometry, residue Hodge vector, and optional ample class.

    The Gram form may be degenerate (toy inputs probe the failure modes);
    validation only requires that the matrix preserves the pairing and
    fixes the ample class when one is supplied.
    """

    __slots__ = ("lattice", "isometry", "hodge_line", "ample")

    def __init__(self, lattice: QuadLattice, matrix, hodge_line, ample=None):
        self.lattice = lattice
        self.isometry = Isometry(lattice, matrix)
        self.hodge_line = _hodge_line(lattice, hodge_line)
        if ample is None:
            self.ample = None
        else:
            self.ample = lattice.vector(ample)
            if (self.matrix @ self.ample) != self.ample:
                raise InputError("isometry must fix the ample class")

    @property
    def ctx(self) -> RingContext:
        return self.lattice.ring

    @property
    def matrix(self) -> RingMat:
        return self.isometry.matrix

    def residue_eigenvalue(self) -> PadicScalar:
        """Eigenvalue of the reduced isometry on the Hodge line."""
        return _residue_eigenvalue(self.matrix, self.hodge_line)

    def to_json(self) -> dict:
        out = {
            "ring": self.ctx.to_json(),
            "gram": self.lattice.gram.to_json(),
            "matrix": self.matrix.to_json(),
            "hodge_line": self.hodge_line.to_json(),
        }
        if self.ample is not None:
            out["ample"] = self.ample.to_json()
        return out

    @classmethod
    def from_json(cls, data: dict, ctx: RingContext | None = None) -> "SupersingularInput":
        ctx = RingContext.of_payload(data, ctx)
        gram, matrix = field(data, "gram"), field(data, "matrix")
        hodge_line = RingVec.from_json(ctx.residue_context(), field(data, "hodge_line"))
        # the Hodge vector's length is the rank a flat Gram list is read with
        lat = QuadLattice(ctx, RingMat.from_json(ctx, gram, hodge_line.rank))
        ample = data.get("ample")
        return cls(
            lat,
            RingMat.from_json(ctx, matrix, lat.rank),
            hodge_line,
            None if ample is None else RingVec.from_json(ctx, ample),
        )


def _hodge_line(lattice: QuadLattice, line) -> RingVec:
    """The one reader of a Hodge line: a list of residue scalars, a residue
    vector, or a vector of the lattice's ring (reduced mod p), as a nonzero
    residue vector of the lattice's rank."""
    ctx = lattice.ring
    if isinstance(line, RingVec) and line.ctx == ctx:
        line = line.reduce_mod_p()
    vbar = RingVec.from_entries(ctx.residue_context(), line)
    if vbar.rank != lattice.rank:
        raise DimensionMismatch("hodge line length must match lattice rank")
    if vbar.is_zero():
        raise InputError("hodge line vector must be nonzero")
    return vbar


def _root_index(split: EigenSplit, lam_bar: PadicScalar) -> int:
    """Index of the root of the split whose residue is lam_bar;
    HodgeLineNotEigen when no N-th root of unity reduces to it."""
    reduce = split.ctx.reduce
    index = next((i for i, root in enumerate(split.roots) if reduce(root) == lam_bar), None)
    if index is None:
        raise HodgeLineNotEigen("hodge eigenvalue is not an N-th root of unity")
    return index


def _residue_eigenvalue(matrix: RingMat, vbar: RingVec) -> PadicScalar:
    """lambda with (A mod p) vbar = lambda vbar (vbar != 0); HodgeLineNotEigen otherwise."""
    abar = matrix.reduce_mod_p()
    image = abar @ vbar
    pivot = next(i for i in range(vbar.rank) if vbar.entry(i).is_unit())
    lam = image.entry(pivot) * vbar.entry(pivot).inverse()
    if image != vbar.scale(lam):
        raise HodgeLineNotEigen("hodge line is not an eigenline of the reduced isometry")
    return lam


# ---------------------------------------------------------------------------
# certificates

BRANCHES = ("finite-height", "ss-nonsymplectic", "ss-symplectic")


class LiftingCertificate:
    """Self-contained witness: (m, A, Gram) plus a re-checkable transcript.

    The constructor is the one validation path of a certificate, built or
    read: a known branch, a tame order, and core shapes that agree with the
    Gram's rank, with a nonzero Hodge line; verify_certificate checks the rest.
    """

    __slots__ = (
        "ctx",
        "branch",
        "order",
        "_lattice",
        "gram",
        "matrix",
        "generator",
        "eigenvalue",
        "hodge_line",
        "transcript",
    )

    def __init__(self, ctx, branch, order, gram, matrix, generator, eigenvalue, hodge_line, transcript):
        if branch not in BRANCHES:
            raise InputError(f"field 'branch' must be one of {', '.join(BRANCHES)}")
        require_tame(ctx, order)
        self.ctx = ctx
        self.branch = branch
        self.order = int(order)
        self._lattice = lat = QuadLattice(ctx, gram)
        self.gram = lat.gram
        self.matrix = lat.matrix(matrix)
        self.generator = lat.vector(generator)
        self.eigenvalue = ctx.scalar(eigenvalue)
        self.hodge_line = _hodge_line(lat, hodge_line)
        if not isinstance(transcript, list) or not all(isinstance(e, dict) for e in transcript):
            raise InputError("field 'transcript' must be a list of claim objects")
        self.transcript = list(transcript)

    def lattice(self) -> QuadLattice:
        return self._lattice

    def to_json(self) -> dict:
        return {
            "ring": self.ctx.to_json(),
            "branch": self.branch,
            "order": self.order,
            "gram": self.gram.to_json(),
            "matrix": self.matrix.to_json(),
            "generator": self.generator.to_json(),
            "eigenvalue": self.eigenvalue.to_json(),
            "hodge_line": self.hodge_line.to_json(),
            "transcript": self.transcript,
        }

    @classmethod
    def from_json(cls, data: dict, ctx: RingContext | None = None) -> "LiftingCertificate":
        ctx = RingContext.of_payload(data, ctx)
        branch = field(data, "branch")
        order = int_field(data, "order")
        gram = RingMat.from_json(ctx, field(data, "gram"))
        matrix = RingMat.from_json(ctx, field(data, "matrix"), gram.rows)
        generator = RingVec.from_json(ctx, field(data, "generator"))
        eigenvalue = field(data, "eigenvalue")
        hodge_line = RingVec.from_json(ctx.residue_context(), field(data, "hodge_line"))
        transcript = data.get("transcript", [])
        return cls(ctx, branch, order, gram, matrix, generator, eigenvalue, hodge_line, transcript)

    def __repr__(self) -> str:
        return f"LiftingCertificate(branch={self.branch!r}, order={self.order})"


def _entry_orthogonality(vec: RingVec, label: str) -> dict:
    return {"claim": "orthogonality", "vector": vec.to_json(), "label": label}


def _entry_membership(basis, label: str) -> dict:
    return {"claim": "membership", "basis": [b.to_json() for b in basis], "label": label}


def _entry_valuation(value: PadicScalar, minimum: int, label: str) -> dict:
    return {"claim": "valuation", "value": value.to_json(), "minimum": minimum, "label": label}


def _entry_pairing_unit(left: RingVec, right: RingVec, value: PadicScalar, label: str) -> dict:
    return {
        "claim": "pairing-unit",
        "left": left.to_json(),
        "right": right.to_json(),
        "value": value.to_json(),
        "label": label,
    }


class VerificationReport:
    """Outcome of re-verifying a certificate, check by check."""

    __slots__ = ("checks",)

    def __init__(self, checks):
        self.checks = list(checks)

    @property
    def valid(self) -> bool:
        return all(c["ok"] for c in self.checks)

    @property
    def failures(self) -> list[dict]:
        return [c for c in self.checks if not c["ok"]]

    def to_json(self) -> dict:
        return {"valid": self.valid, "checks": self.checks}

    def __repr__(self) -> str:
        state = "valid" if self.valid else f"{len(self.failures)} failures"
        return f"VerificationReport({state})"


def verify_certificate(cert: LiftingCertificate) -> VerificationReport:
    """Recompute every claim from (m, A, Gram); nothing is trusted.

    Core checks always run: the matrix preserves the form, A m = lambda m,
    lambda^N = 1, m is isotropic, and m reduces into the declared Hodge
    line (as a line, so unit rescalings of m verify identically).  The
    transcript entries are then re-verified one by one.
    """
    ctx = cert.ctx
    lat = cert.lattice()
    a, m, lam = cert.matrix, cert.generator, cert.eigenvalue
    checks = []

    def record(claim: str, ok: bool, detail: str = "") -> None:
        entry = {"claim": claim, "ok": bool(ok)}
        if detail:
            entry["detail"] = detail
        checks.append(entry)

    record("core:isometry", Isometry(lat, a, check=False).verify(), "matrix preserves the pairing")
    record("core:eigen-relation", (a @ m) == m.scale(lam), "A m = lambda m")
    record("core:eigenvalue-order", lam ** cert.order == ctx.one(), "lambda^N = 1")
    record("core:isotropy", lat.pairing(m, m).is_zero(), "m . m = 0")
    mbar = m.reduce_mod_p()
    line_ok = (
        not mbar.is_zero()
        and residue_rank(RingMat.from_columns(ctx.residue_context(), [mbar, cert.hodge_line])) == 1
    )
    record("core:reduction-line", line_ok, "m mod p spans the hodge line")

    for entry in cert.transcript:
        claim = entry.get("claim")
        label = entry.get("label", "")
        try:
            if claim == "orthogonality":
                w = RingVec.from_json(ctx, field(entry, "vector"))
                record("orthogonality", lat.pairing(m, w).is_zero(), label)
            elif claim == "membership":
                basis = field(entry, "basis")
                if not isinstance(basis, list):
                    raise InputError("field 'basis' must be a list of vectors")
                coords = solve_in_span([RingVec.from_json(ctx, b) for b in basis], m)
                record("membership", coords is not None, label)
            elif claim == "valuation":
                val = ctx.scalar(field(entry, "value")).valuation()
                record("valuation", val >= int_field(entry, "minimum"), label)
            elif claim == "pairing-unit":
                left = RingVec.from_json(ctx, field(entry, "left"))
                right = RingVec.from_json(ctx, field(entry, "right"))
                value = ctx.scalar(field(entry, "value"))
                ok = lat.pairing(left, right) == value and value.is_unit()
                record("pairing-unit", ok, label)
            else:
                record("unknown-claim", False, f"unrecognized claim {claim!r}")
        except (InputError, PreconditionError) as exc:
            record(str(claim), False, f"re-verification error: {exc}")
    return VerificationReport(checks)


# ---------------------------------------------------------------------------
# branch builders


def _isotropic_with_partner(
    lattice: QuadLattice, u: RingVec, candidates, label: str, transcript: list, missing
) -> RingVec:
    """The isotropic generator u + p a v for the first candidate v with u . v
    a unit, recording that pairing and a in the transcript; raises `missing`
    when no candidate qualifies."""
    partner = next((v for v in candidates if lattice.pairing(u, v).is_unit()), None)
    if partner is None:
        raise missing
    a, m = isotropic_combination(lattice, u, partner)
    transcript.append(_entry_pairing_unit(u, partner, lattice.pairing(u, partner), label))
    transcript.append(_entry_valuation(a, 0, "isotropic correction scalar a"))
    return m


def lift_finite_height(
    sd: SlopeDecomposition, isometry, order: int, hodge_line: RingVec
) -> LiftingCertificate:
    """Finite-height branch: an eigenvector line in the top slope piece.

    The isometry must preserve each slope piece and have the declared tame
    order on the top piece; the Hodge line (ambient residue coordinates)
    must reduce into the top piece.  The certificate generator is the
    eigenvector lift there, isotropic for free because the piece is, and
    orthogonal to the middle piece by the slope pairing.
    """
    ctx = sd.ctx
    require_tame(ctx, order, NotWeaklyTame)
    a = Isometry(sd.lattice, isometry).matrix
    hodge_line = _hodge_line(sd.lattice, hodge_line)
    # restrict to each piece; the isometry must stabilize every one of them
    for name, piece in (("low", sd.low), ("middle", sd.middle), ("high", sd.high)):
        if not piece:
            continue
        restricted = solve_in_span(piece, a @ RingMat.from_columns(ctx, piece))
        if restricted is None:
            raise PreconditionError(f"isometry does not preserve the {name} slope piece")
    # the loop ends on the top piece, which is never empty
    high_mat, h = restricted, sd.height_rank
    if high_mat ** order != RingMat.identity(ctx, h):
        raise OrderViolation(f"restricted action does not have order dividing {order}")
    # express the hodge line in the top piece's residue coordinates
    xbar = solve_in_span([b.reduce_mod_p() for b in sd.high], hodge_line)
    if xbar is None:
        raise HodgeLineNotEigen("hodge line does not reduce into the top slope piece")
    high_lat = QuadLattice(ctx, RingMat.zeros(ctx, h, h))
    split = eigen_split(Isometry(high_lat, high_mat, check=False), order)
    index = _root_index(split, _residue_eigenvalue(high_mat, xbar))
    w = lift_eigenvector(split, index, xbar)
    m = RingMat.from_columns(ctx, sd.high) @ w
    lam = split.roots[index]
    transcript = [_entry_membership(sd.high, "generator lies in the top slope piece")]
    transcript.extend(
        _entry_orthogonality(b, f"orthogonal to middle sub-basis vector {j}")
        for j, b in enumerate(sd.middle)
    )
    return LiftingCertificate(
        ctx,
        "finite-height",
        order,
        sd.lattice.gram,
        a,
        m,
        lam,
        hodge_line,
        transcript,
    )


def lift_ss_nonsymplectic(inp: SupersingularInput, order: int) -> LiftingCertificate:
    """Supersingular branch for an action nontrivial on the Hodge quotient.

    Splits off the eigenvalue zeta0 seen on the Hodge line mod p.  For
    zeta0 not a square root of unity the eigenvector lift is already
    isotropic (its eigenspace pairs to zero with itself); for zeta0 = -1
    the lift is corrected to u + p a v with a partner v of unit pairing
    from the same eigenspace.
    """
    ctx = inp.ctx
    require_tame(ctx, order)
    lam_bar = inp.residue_eigenvalue()
    res = ctx.residue_context()
    if lam_bar == res.one():
        raise SymplecticInput("the action fixes the Hodge line mod p")
    split = eigen_split(inp.isometry, order)
    index = _root_index(split, lam_bar)
    zeta = split.roots[index]
    u = lift_eigenvector(split, index, inp.hodge_line)
    comp = split.component(index)
    transcript = []
    if zeta == ctx.zero() - ctx.one():
        m = _isotropic_with_partner(
            inp.lattice, u, comp.basis, "partner pairing u . v", transcript,
            NoUnitPartner("no unit pairing against the lifted Hodge vector in the -1 eigenspace"),
        )
        where = "-1"
    else:
        m, where = u, "zeta0"
    transcript.append(_entry_membership(comp.basis, f"generator lies in the {where} eigenspace"))
    if inp.ample is not None:
        transcript.append(
            _entry_orthogonality(inp.ample, "orthogonal to the fixed ample class")
        )
    return LiftingCertificate(
        ctx,
        "ss-nonsymplectic",
        order,
        inp.lattice.gram,
        inp.matrix,
        m,
        zeta,
        inp.hodge_line,
        transcript,
    )


def lift_ss_symplectic(inp: SupersingularInput, order: int) -> LiftingCertificate:
    """Supersingular branch for an action trivial on the Hodge quotient.

    Everything happens in the fixed eigenspace L1, orthogonally to the
    fixed ample class c.  The Hodge lift and the basis of L1 are made
    orthogonal to c along one helper, c itself when c . c is a unit, else
    the first basis vector pairing to a unit with c; the isotropic
    combination then gives a generator fixed by the isometry.
    """
    ctx = inp.ctx
    require_tame(ctx, order)
    if inp.ample is None:
        raise InputError("the symplectic branch needs an ample class")
    lam_bar = inp.residue_eigenvalue()
    res = ctx.residue_context()
    if lam_bar != res.one():
        raise NotSymplectic("the action moves the Hodge line mod p")
    c = inp.ample
    cbar = c.reduce_mod_p()
    pair_mat = RingMat.from_columns(res, [inp.hodge_line, cbar])
    if residue_rank(pair_mat) < 2:
        raise IndependenceFailure(
            "hodge vector and ample class are dependent mod p"
        )
    xc = inp.lattice.pairing(
        inp.hodge_line.lift_to(ctx), c
    )
    if xc.is_unit():
        raise PreconditionError(
            "the Hodge line must pair to zero with the ample class mod p"
        )
    split = eigen_split(inp.isometry, order)
    fixed = split.component(0)
    u0 = lift_eigenvector(split, 0, inp.hodge_line)
    lat = inp.lattice
    if lat.pairing(c, c).is_unit():
        helper, label = c, "correction along c keeps the reduction line"
    else:
        helper = next((b for b in fixed.basis if lat.pairing(b, c).is_unit()), None)
        if helper is None:
            raise RankTooSmall("no unit pairing against the ample class in the fixed eigenspace")
        label = "first orthogonalization coefficient lies in pW"
    coeff, u1 = orthogonalize_with_coefficient(lat, c, u0, helper)
    # with helper = c, coeff = -(u0 . c)/(c . c) lies in pW because xc does
    if coeff.is_unit():
        raise PreconditionError("orthogonalization coefficient left pW")
    transcript = [_entry_valuation(coeff, 1, label)]
    candidates = (orthogonalize_with_coefficient(lat, c, b, helper)[1] for b in fixed.basis)
    m = _isotropic_with_partner(
        lat, u1, candidates, "partner pairing", transcript,
        RankTooSmall("the complement of c in the fixed eigenspace cannot host the configuration"),
    )
    transcript.append(_entry_orthogonality(c, "orthogonal to the ample class"))
    transcript.append(_entry_membership(fixed.basis, "generator lies in the fixed eigenspace"))
    return LiftingCertificate(
        ctx,
        "ss-symplectic",
        order,
        inp.lattice.gram,
        inp.matrix,
        m,
        ctx.one(),
        inp.hodge_line,
        transcript,
    )


# ---------------------------------------------------------------------------
# stable lines and rank gates


def universal_line(
    sd: SlopeDecomposition,
    isometry,
    order: int,
    hodge_line: RingVec,
    others,
) -> tuple[LiftingCertificate, list[dict]]:
    """Certificate for the generating isometry plus line-stability reports.

    Each extra isometry is tested for whether it maps the certified line
    into itself (beta m = mu m for some scalar mu); commuting powers of the
    generator always pass, and a report entry records the factor found.
    """
    cert = lift_finite_height(sd, isometry, order, hodge_line)
    m = cert.generator
    pivot = next(i for i in range(m.rank) if m.entry(i).is_unit())
    reports = []
    for k, beta in enumerate(others):
        iso = Isometry(sd.lattice, beta, check=False)
        image = iso.matrix @ m
        factor = image.entry(pivot) * m.entry(pivot).inverse()
        stabilizes = image == m.scale(factor)
        entry = {
            "index": k,
            "preserves_pairing": iso.verify(),
            "stabilizes": bool(stabilizes),
        }
        if stabilizes:
            entry["factor"] = factor.to_json()
        reports.append(entry)
    return cert, reports
