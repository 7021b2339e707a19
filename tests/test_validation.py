"""One matrix coercion for every constructor that takes a matrix, one
Hodge-line reader, and one reader for every lattice payload.

Each entry point reads its matrix through RingMat.from_rows (a matrix that
acts on a lattice through QuadLattice.matrix), so a RingMat of a foreign
context raises ContextMismatch and a matrix of the wrong shape raises
DimensionMismatch, whichever object or builder receives it.  A frame
payload is a lattice payload, so it is refused as one, and every reader of
a ring-bearing payload refuses a bad or foreign ring with the same error.
Every builder that takes a Hodge line reads it through lifting's one
reader, so a list, a residue vector and a full-precision vector give one
line, and a zero, short or foreign one is refused alike.
"""

import pytest

from k3lift import (
    ConnectionData,
    ContextMismatch,
    DimensionMismatch,
    InputError,
    Isometry,
    LiftingCertificate,
    PeriodFrame,
    QuadLattice,
    RingContext,
    RingMat,
    RingVec,
    SlopeDecomposition,
    SupersingularInput,
    check_conditions,
    complete_period_line,
    lift_finite_height,
    lift_ss_nonsymplectic,
    universal_line,
)

C53 = RingContext(5, 3, 1)
FOREIGN = RingContext(7, 2, 1)
FRAME_GRAM = [[0, 0, 1], [0, 2, 0], [1, 0, 0]]


def _hyperbolic():
    return QuadLattice(C53, [[0, 1], [1, 0]])


def _frame():
    return PeriodFrame(QuadLattice(C53, FRAME_GRAM))


def _slope():
    return SlopeDecomposition(_hyperbolic(), [[1, 0]], [], [[0, 1]])


def _hodge():
    return RingVec.basis_vector(C53.residue_context(), 2, 1)


# (entry point, the rank its matrix must have, call with that matrix)
_ENTRY_POINTS = [
    ("QuadLattice", 2, lambda mat: QuadLattice(C53, mat)),
    ("Isometry", 2, lambda mat: Isometry(_hyperbolic(), mat)),
    ("ConnectionData", 3, lambda mat: ConnectionData(_frame(), [mat], check=False)),
    ("check_conditions", 3, lambda mat: check_conditions(complete_period_line(_frame(), [0]), mat)),
    ("SupersingularInput", 2, lambda mat: SupersingularInput(_hyperbolic(), mat, [1, 0])),
    ("SlopeDecomposition", 2, lambda mat: SlopeDecomposition(
        _hyperbolic(), [[1, 0]], [], [[0, 1]], frobenius=mat)),
    ("lift_finite_height", 2, lambda mat: lift_finite_height(_slope(), mat, 1, _hodge())),
    ("universal_line", 2, lambda mat: universal_line(
        _slope(), RingMat.identity(C53, 2), 1, _hodge(), [mat])),
]


@pytest.mark.parametrize("name, rank, call", _ENTRY_POINTS, ids=[e[0] for e in _ENTRY_POINTS])
def test_matrix_entry_points_share_one_coercion(name, rank, call):
    call(RingMat.identity(C53, rank))
    with pytest.raises(ContextMismatch):
        call(RingMat.identity(FOREIGN, rank))
    # non-square, so no entry point can read it as a rank-r matrix
    with pytest.raises(DimensionMismatch):
        call(RingMat.zeros(C53, 1, 2))


def test_from_rows_returns_a_matrix_of_its_context_unchanged():
    a = RingMat.from_rows(C53, [[1, 2], [3, 4]])
    assert RingMat.from_rows(C53, a) is a
    with pytest.raises(ContextMismatch):
        RingMat.from_rows(FOREIGN, a)


# (entry point, call with a Hodge line returning the line it stores)
_HODGE_ENTRY_POINTS = [
    ("SupersingularInput", lambda line: SupersingularInput(
        _hyperbolic(), RingMat.identity(C53, 2), line).hodge_line),
    ("lift_finite_height", lambda line: lift_finite_height(
        _slope(), RingMat.identity(C53, 2), 1, line).hodge_line),
    ("universal_line", lambda line: universal_line(
        _slope(), RingMat.identity(C53, 2), 1, line, [])[0].hodge_line),
    ("LiftingCertificate", lambda line: LiftingCertificate(
        C53, "finite-height", 1, [[0, 1], [1, 0]], RingMat.identity(C53, 2), [0, 1], 1, line, []
    ).hodge_line),
]


@pytest.mark.parametrize("call", [e[1] for e in _HODGE_ENTRY_POINTS],
                         ids=[e[0] for e in _HODGE_ENTRY_POINTS])
def test_hodge_line_entry_points_share_one_reader(call):
    # a list, a residue vector and a full-precision vector (26 = 1 mod 5)
    # are one stored line
    lines = ([0, 1], _hodge(), RingVec.from_entries(C53, [0, 26]))
    assert [call(line) for line in lines] == [_hodge()] * 3
    for line, error in (
        ([0, 0], InputError),
        (RingVec.from_entries(C53, [25, 0]), InputError),  # zero mod p
        ([0, 1, 0], DimensionMismatch),
        (RingVec.from_entries(FOREIGN, [0, 1]), ContextMismatch),
    ):
        with pytest.raises(InputError) as refused:
            call(line)
        assert type(refused.value) is error


# (edit of a valid payload, context, error class): each refused payload is
# refused alike by every reader of a ring-bearing payload
_REFUSED_LATTICE_PAYLOADS = {
    "bare-rows-no-context": (lambda data: data["gram"], None, InputError),
    "no-gram": (lambda data: {"ring": data["ring"]}, None, InputError),
    "ring-Z-no-context": (lambda data: {**data, "ring": "Z"}, None, InputError),
    "ring-Z-with-context": (lambda data: {**data, "ring": "Z"}, C53, InputError),
    "ring-int-with-context": (lambda data: {**data, "ring": 5}, C53, InputError),
    "ring-null-no-context": (lambda data: {**data, "ring": None}, None, InputError),
    "foreign-ring-with-context": (
        lambda data: {**data, "ring": FOREIGN.to_json()}, C53, ContextMismatch
    ),
}


def _lattice_payload():
    return {"ring": C53.to_json(), "gram": FRAME_GRAM}


def _certificate_payload():
    minus = RingMat.identity(C53, 2).scale(C53.scalar(-1))
    inp = SupersingularInput(QuadLattice(C53, [[5, 1], [1, 0]]), minus, [1, 0])
    return lift_ss_nonsymplectic(inp, 2).to_json()


# (reader, a minimal valid payload of its type)
_RING_READERS = [
    (QuadLattice.from_json, _lattice_payload),
    (PeriodFrame.from_json, _lattice_payload),
    (SlopeDecomposition.from_json, lambda: _slope().to_json()),
    (SupersingularInput.from_json, lambda: SupersingularInput(
        _hyperbolic(), RingMat.identity(C53, 2), [1, 0]).to_json()),
    (LiftingCertificate.from_json, _certificate_payload),
]


@pytest.mark.parametrize("edit, ctx, error", _REFUSED_LATTICE_PAYLOADS.values(),
                         ids=_REFUSED_LATTICE_PAYLOADS.keys())
def test_frame_payload_is_read_as_a_lattice_payload(edit, ctx, error):
    # one validation path: RingContext.of_payload decides every reader's
    # ring, so the frame reader and the lattice, slope, supersingular-input
    # and certificate readers all refuse a payload with one error class
    for read, payload in _RING_READERS:
        read(payload(), ctx)
        with pytest.raises(InputError) as refused:
            read(edit(payload()), ctx)
        assert type(refused.value) is error
