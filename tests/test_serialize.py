"""JSON canonicalization and typed deserialization."""

import io

import pytest

from k3lift import (
    ConnectionData,
    InputError,
    PeriodFrame,
    QuadLattice,
    RingContext,
    RingMat,
    RingVec,
    canonical_dumps,
    complete_period_line,
    connection_from_json,
    frame_from_json,
    isometry_from_json,
    lattice_from_json,
    line_from_json,
    matrix_from_json,
    point_from_json,
    quadric_connection,
    scalar_from_json,
    vector_from_json,
)
from k3lift.serialize import load_stream

C53 = RingContext(5, 3, 1)


def test_canonical_dumps_is_sorted_and_compact():
    out = canonical_dumps({"b": 1, "a": [1, 2]})
    assert out == '{"a":[1,2],"b":1}\n'


def test_canonical_dumps_deterministic():
    data = {"z": [3, {"y": 1, "x": 2}], "a": None}
    assert canonical_dumps(data) == canonical_dumps(dict(reversed(list(data.items()))))


def test_load_stream_rejects_bad_json():
    with pytest.raises(InputError):
        load_stream(io.StringIO("{not json"))


def test_scalar_from_json():
    assert scalar_from_json(C53, 7) == C53.scalar(7)
    assert scalar_from_json(C53, [7]) == C53.scalar(7)
    ext = RingContext(3, 2, 2)
    assert scalar_from_json(ext, [1, 2]) == ext.scalar([1, 2])
    with pytest.raises(InputError):
        scalar_from_json(C53, True)
    with pytest.raises(InputError):
        scalar_from_json(C53, "7")
    with pytest.raises(InputError):
        scalar_from_json(C53, [1, "x"])


def test_vector_and_matrix_from_json():
    v = vector_from_json(C53, [1, [2], 3])
    assert v == RingVec.from_entries(C53, [1, 2, 3])
    m = matrix_from_json(C53, [[1, 2], [3, 4]])
    assert m == RingMat.from_rows(C53, [[1, 2], [3, 4]])
    # flat row-major form: plain ints of square length, or a known rank
    assert matrix_from_json(C53, [1, 2, 3, 4]) == m
    m2 = matrix_from_json(C53, [1, 2, 3, 4], rank=2)
    assert m2 == m
    with pytest.raises(InputError):
        matrix_from_json(C53, [1, 2, 3], rank=2)
    for flat in ([1, 2, 3], [1, 2, 3, True]):
        with pytest.raises(InputError):
            matrix_from_json(C53, flat)


def test_lattice_from_json_variants():
    lat = QuadLattice(C53, [[0, 1], [1, 0]])
    back = lattice_from_json(lat.to_json())
    assert back == lat
    # bare gram rows need an explicit context
    back2 = lattice_from_json([[0, 1], [1, 0]], ctx=C53)
    assert back2 == lat
    with pytest.raises(InputError):
        lattice_from_json([[0, 1], [1, 0]])
    # Z lattices are not payloads: every command works over a ring context
    with pytest.raises(InputError):
        lattice_from_json({"ring": "Z", "gram": [[0, 1], [1, 0]]})


def test_isometry_from_json():
    lat = QuadLattice(C53, [[0, 1], [1, 0]])
    data = {"lattice": lat.to_json(), "matrix": [[0, 1], [1, 0]], "order": 2}
    iso = isometry_from_json(data)
    assert iso.declared_order == 2
    data_bad = {"lattice": lat.to_json(), "matrix": [[0, 1], [1, 0]], "order": True}
    with pytest.raises(InputError):
        isometry_from_json(data_bad)
    # gram key with explicit context
    iso2 = isometry_from_json({"gram": [[0, 1], [1, 0]], "matrix": [[0, 1], [1, 0]]}, C53)
    assert iso2.matrix == iso.matrix


def test_frame_and_line_from_json():
    gram = [[0, 0, 1], [0, 2, 0], [1, 0, 0]]
    frame = PeriodFrame(QuadLattice(C53, gram))
    assert frame_from_json(frame.to_json()) == frame
    line = complete_period_line(frame, [5])
    back = line_from_json(line.to_json())
    assert back == line
    # corrupted generator fails re-validation
    data = line.to_json()
    data["generator"][0] = [0]
    with pytest.raises(Exception):
        line_from_json(data)


def test_point_from_json():
    p = point_from_json(C53, [5, 10])
    assert [e.to_json() for e in p.entries] == [[5], [10]]
    p2 = point_from_json(C53, {"entries": [5, 10]})
    assert p2 == p


def test_connection_from_json():
    gram = [[0, 0, 1], [0, 2, 0], [1, 0, 0]]
    frame = PeriodFrame(QuadLattice(C53, gram))
    conn = quadric_connection(frame)
    back = connection_from_json(conn.to_json())
    assert isinstance(back, ConnectionData)
    assert back.matrices == conn.matrices
    assert back.frame == conn.frame
