"""One matrix coercion for every constructor that takes a matrix.

Each entry point reads its matrix through RingMat.from_rows, so a RingMat
of a foreign context raises ContextMismatch and a matrix of the wrong
shape raises DimensionMismatch, whichever object or builder receives it.
"""

import pytest

from k3lift import (
    ConnectionData,
    ContextMismatch,
    DimensionMismatch,
    FrobeniusStructure,
    Isometry,
    PeriodFrame,
    QuadLattice,
    RingContext,
    RingMat,
    RingVec,
    SlopeDecomposition,
    SupersingularInput,
    lift_finite_height,
    universal_line,
)

C53 = RingContext(5, 3, 1)
FOREIGN = RingContext(7, 2, 1)


def _hyperbolic():
    return QuadLattice(C53, [[0, 1], [1, 0]])


def _frame():
    return PeriodFrame(QuadLattice(C53, [[0, 0, 1], [0, 2, 0], [1, 0, 0]]))


def _slope():
    return SlopeDecomposition(_hyperbolic(), [[1, 0]], [], [[0, 1]])


def _hodge():
    return RingVec.basis_vector(C53.residue_context(), 2, 1)


# (entry point, the rank its matrix must have, call with that matrix)
_ENTRY_POINTS = [
    ("QuadLattice", 2, lambda mat: QuadLattice(C53, mat)),
    ("Isometry", 2, lambda mat: Isometry(_hyperbolic(), mat)),
    ("ConnectionData", 3, lambda mat: ConnectionData(_frame(), [mat], check=False)),
    ("FrobeniusStructure", 3, lambda mat: FrobeniusStructure(_frame(), mat)),
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
