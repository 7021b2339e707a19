"""Period-domain parametrization: coordinate bijection and its conditions."""

import hashlib
from random import Random

import pytest

from k3lift import (
    DimensionMismatch,
    PeriodFrame,
    PeriodLine,
    ProjectionCollapse,
    QuadLattice,
    RingContext,
    RingMat,
    RingVec,
    ValuationViolation,
    canonical_dumps,
    check_conditions,
    complete_period_line,
    from_generator,
    random_period_coordinates,
    random_period_frame,
)

C33 = RingContext(3, 3, 1)


def _toy_frame(ctx):
    """Rank 4 standard frame: middle norms 2, corner pairing 1."""
    gram = [
        [0, 0, 0, 1],
        [0, 2, 0, 0],
        [0, 0, 2, 0],
        [1, 0, 0, 0],
    ]
    return PeriodFrame(QuadLattice(ctx, gram))


def test_all_zero_coordinates():
    frame = _toy_frame(C33)
    line = complete_period_line(frame, [0, 0])
    assert line.last.is_zero()
    assert line.generator == RingVec.from_entries(C33, [1, 0, 0, 0])


def test_worked_completion():
    # a2 = 3, a3 = 0: Q(a) = 2 * 9 = 18, so 18 + 2 a4 = 0 gives a4 = 18 mod 27
    frame = _toy_frame(C33)
    line = complete_period_line(frame, [3, 0])
    assert line.last == C33.scalar(18)
    assert frame.lattice.pairing(line.generator, line.generator).is_zero()
    assert line.last.valuation() == 2


def test_worked_completion_against_brute_force():
    frame = _toy_frame(C33)
    line = complete_period_line(frame, [3, 0])
    sols = []
    for t in range(27):
        v = frame.lattice.vector([1, 3, 0, t])
        if frame.lattice.pairing(v, v).is_zero():
            sols.append(t)
    assert sols == [line.last.to_json()[0]] == [18]


def test_unit_coordinate_rejected():
    frame = _toy_frame(C33)
    with pytest.raises(ValuationViolation):
        complete_period_line(frame, [1, 0])


def test_unit_coordinate_message():
    frame = _toy_frame(C33)
    with pytest.raises(ValuationViolation, match="middle coordinates must lie in pW"):
        complete_period_line(frame, [0, 1])


# sha256 of canonical_dumps over [line.to_json(), check_conditions(line)] for
# four sampled frames (two split, two not) per context and rank.  Contexts
# (5,1,1) and (5,2,1) are the precisions where p^2 W is zero.
COMPLETION_DIGESTS = {
    ((5, 3, 1), 6):
        "1ea38eba3c8af41dfe59f563931b547d492f9c9392f31240b3e3693b0c1a3426",
    ((5, 3, 1), 22):
        "7db33e803ef24e23122fbf64a324225f9181a54daac505bf63e8c60aac8bf403",
    ((3, 4, 2), 6):
        "7e3a3d21e6e189964ce18067360b02c88e69db58924e9c5d1e016bff6d13ddd9",
    ((3, 4, 2), 22):
        "b902cfa6406c139cb9d0a840bc7b9d8af18f366f9c1f3d0e82cb7af3c8c6b0c1",
    ((5, 1, 1), 6):
        "53995e873332922dd165cfeee16954b5649b73941c864aca855cadb70ade7d65",
    ((5, 1, 1), 22):
        "ac8575805dfff2dfa19ec5302e53d12ba3d6a2f746b27fcbf5373b79f78d5162",
    ((5, 2, 1), 6):
        "0bace95f053b870f96e20749297c68ad00727332a52fa57edaa1df27c18fbb85",
    ((5, 2, 1), 22):
        "e8583e92536eb747e06d7311c89d6f18709d53e87b70b33e354cc6cd852ce92c",
}


@pytest.mark.parametrize("spec,rank", sorted(COMPLETION_DIGESTS))
def test_completed_lines_bytes(spec, rank):
    rng = Random(rank * 1000 + spec[1] * 10 + spec[2])
    ctx = RingContext(*spec)
    transcript = []
    for i in range(4):
        frame = random_period_frame(rng, ctx, rank, split=bool(i % 2))
        line = complete_period_line(frame, random_period_coordinates(rng, frame))
        transcript.append([line.to_json(), check_conditions(line)])
    digest = hashlib.sha256(canonical_dumps(transcript).encode()).hexdigest()
    assert digest == COMPLETION_DIGESTS[spec, rank]


def test_wrong_coordinate_count():
    frame = _toy_frame(C33)
    with pytest.raises(DimensionMismatch):
        complete_period_line(frame, [3])


def test_round_trip():
    frame = _toy_frame(C33)
    line = complete_period_line(frame, [3, 0])
    assert [a.to_json()[0] for a in line.coordinates()] == [3, 0]
    back = from_generator(frame, line.generator)
    assert back == line


def test_rescale_keeps_coordinates():
    frame = _toy_frame(C33)
    line = complete_period_line(frame, [3, 6])
    # normalization divides the unit back out: same line, same coordinates
    assert from_generator(frame, line.generator.scale(C33.scalar(2))) == line


def test_generator_must_reduce_to_hodge_line():
    frame = _toy_frame(C33)
    with pytest.raises(ProjectionCollapse):
        from_generator(frame, RingVec.from_entries(C33, [3, 0, 0, 0]))


def test_generator_last_coordinate_valuation():
    frame = _toy_frame(C33)
    with pytest.raises(ValuationViolation):
        from_generator(frame, RingVec.from_entries(C33, [1, 0, 0, 3]))


def test_frame_shape_validation():
    ctx = C33
    with pytest.raises(DimensionMismatch):
        PeriodFrame(QuadLattice(ctx, [[0, 1], [1, 0]]))
    # corner must be 0
    bad = [[1, 0, 1], [0, 2, 0], [1, 0, 0]]
    from k3lift import InputError

    with pytest.raises(InputError):
        PeriodFrame(QuadLattice(ctx, bad))
    # middle pairing must vanish
    bad2 = [[0, 1, 1], [1, 2, 0], [1, 0, 0]]
    with pytest.raises(InputError):
        PeriodFrame(QuadLattice(ctx, bad2))


def test_frame_must_be_unimodular():
    from k3lift import DegenerateForm

    gram = [[0, 0, 1], [0, 3, 0], [1, 0, 0]]
    with pytest.raises(DegenerateForm):
        PeriodFrame(QuadLattice(C33, gram))


def test_check_conditions_valid_line():
    from k3lift import check_conditions

    frame = _toy_frame(C33)
    line = complete_period_line(frame, [3, 0])
    report = check_conditions(line)
    assert report["condition1_hodge_reduction"]
    assert report["condition2_isotropy"]
    assert report["condition3_frobenius"] is None
    assert report["valid"]


def test_check_conditions_detects_corruption():
    from k3lift import check_conditions

    frame = _toy_frame(C33)
    line = complete_period_line(frame, [3, 0])
    bad_gen = line.generator + RingVec.from_entries(C33, [0, 0, 0, 9])
    broken = PeriodLine(frame, list(line.coordinates()), line.last, bad_gen)
    report = check_conditions(broken)
    assert not report["condition2_isotropy"]
    assert not report["valid"]


def test_check_conditions_frobenius():
    from k3lift import check_conditions

    frame = _toy_frame(C33)
    line = complete_period_line(frame, [0, 0])
    # p * sigma-linear structure sending v1 to p^2 v4 scaled: F(v1) = 9 v4
    rows = [
        [0, 0, 0, 1],
        [0, 3, 0, 0],
        [0, 0, 3, 0],
        [9, 0, 0, 0],
    ]
    report = check_conditions(line, rows)
    # Phi is read as rows or as a RingMat of the frame's context alike
    assert check_conditions(line, RingMat.from_rows(C33, rows)) == report
    assert report["condition3_frobenius"] is True
    assert report["valid"]
    # a structure with unit image on the generator fails the valuation test
    report2 = check_conditions(line, RingMat.identity(C33, 4))
    assert report2["condition3_frobenius"] is False
    assert not report2["valid"]


def test_last_coordinate_uniqueness_exhaustive_mod_9():
    # at n = 2 every middle tuple in (3Z/9)^2 has exactly one completing value
    ctx = RingContext(3, 2, 1)
    frame = _toy_frame(ctx)
    for a2 in [0, 3, 6]:
        for a3 in [0, 3, 6]:
            line = complete_period_line(frame, [a2, a3])
            sols = [
                t
                for t in range(9)
                if frame.lattice.pairing(
                    frame.lattice.vector([1, a2, a3, t]),
                    frame.lattice.vector([1, a2, a3, t]),
                ).is_zero()
            ]
            assert sols == [line.last.to_json()[0]]


def test_parameter_count_matches_moduli_dimension():
    frame = _toy_frame(C33)
    assert frame.parameter_count == 2
    k3_rank = 22
    gram = [[0] * k3_rank for _ in range(k3_rank)]
    gram[0][k3_rank - 1] = gram[k3_rank - 1][0] = 1
    for i in range(1, k3_rank - 1):
        gram[i][i] = 2
    frame22 = PeriodFrame(QuadLattice(C33, gram))
    assert frame22.parameter_count == 20


def test_frame_json_round_trip():
    frame = _toy_frame(C33)
    data = frame.to_json()
    assert PeriodFrame.from_json(data) == frame


def test_line_json_shape():
    frame = _toy_frame(C33)
    line = complete_period_line(frame, [3, 0])
    data = line.to_json()
    assert data["coordinates"] == [[3], [0]]
    assert data["last_coordinate"] == [18]
    assert data["generator"] == [[1], [3], [0], [18]]
