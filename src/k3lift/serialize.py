"""Canonical JSON encoding and the public payload reader names.

One wire format: JSON with every ring scalar as its coefficient array
[c_0, ..., c_{m-1}] of integers in [0, p^n).  No floats anywhere.  Output
is byte-deterministic: sorted keys, compact separators, trailing newline.

Each type reads the JSON it writes, with a from_json beside its to_json
that also takes a plain int for a scalar and a flat row-major list of
plain ints with a square length for a matrix.  This module defines only
the wire format and binds those readers to their public names.
"""

import json
from typing import Any, IO

from .errors import InputError
from .witt import RingContext
from .linalg import RingMat, RingVec
from .lattice import QuadLattice, payload_lattice  # noqa: F401
from .isometry import Isometry
from .period import PeriodFrame, PeriodLine
from .torelli import ConnectionData, DeformationPoint


def canonical_dumps(data: Any) -> str:
    """Deterministic JSON text: sorted keys, no spaces, one trailing newline."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def dump_stream(data: Any, stream: IO[str]) -> None:
    stream.write(canonical_dumps(data))


def load_stream(stream: IO[str]) -> Any:
    text = stream.read()
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise InputError(f"malformed JSON input: {exc}") from exc
    except RecursionError as exc:
        raise InputError("malformed JSON input: nested too deeply") from exc


# each reader takes the decoded value and a ring context, which a payload's own ring must equal
scalar_from_json = RingContext.scalar
vector_from_json = RingVec.from_json
matrix_from_json = RingMat.from_json
lattice_from_json = QuadLattice.from_json
isometry_from_json = Isometry.from_json
frame_from_json = PeriodFrame.from_json
line_from_json = PeriodLine.from_json
point_from_json = DeformationPoint.from_json
connection_from_json = ConnectionData.from_json
