"""Canonical JSON encoding and payload loaders.

One wire format: JSON with every ring scalar as its coefficient array
[c_0, ..., c_{m-1}] of integers in [0, p^n).  No floats anywhere.  Output
is byte-deterministic: sorted keys, compact separators, trailing newline.

Loaders accept a plain int wherever a scalar is expected, and a flat
row-major list of plain ints with a square length wherever a matrix is;
emitters always produce the full coefficient-array form.
"""

from __future__ import annotations

import json
import math
from typing import Any, IO

from .errors import InputError, field, list_field
from .witt import PadicScalar, RingContext
from .linalg import RingMat, RingVec
from .lattice import QuadLattice
from .isometry import Isometry
from .period import PeriodFrame, PeriodLine, from_generator
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
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON input: {exc}") from exc
    except RecursionError as exc:
        raise InputError("malformed JSON input: nested too deeply") from exc


# -- payload loaders -----------------------------------------------------------
#
# Each loader takes the decoded JSON value plus the ring context the payload
# lives over.  Dict payloads produced by the matching to_json() are accepted
# back unchanged (the round-trip contract); bare arrays are accepted as a
# convenience for hand-written inputs.


def scalar_from_json(ctx: RingContext, data) -> PadicScalar:
    return ctx.scalar(data)


def vector_from_json(ctx: RingContext, data) -> RingVec:
    if not isinstance(data, list):
        raise InputError("a vector must be a list of scalars")
    return RingVec.from_entries(ctx, data)


def matrix_from_json(ctx: RingContext, data, rank: int | None = None) -> RingMat:
    """Rows of scalars.  A flat row-major list is reshaped when its entries
    are plain ints and its length is a perfect square, or when the rank is
    known and the length is rank**2."""
    if not isinstance(data, list) or not data:
        raise InputError("a matrix must be a nonempty list")
    if rank is None and all(isinstance(e, int) and not isinstance(e, bool) for e in data):
        rank = math.isqrt(len(data))
    if not isinstance(data[0], list) or (
        data[0] and isinstance(data[0][0], int)
    ):
        # flat row-major, or rows of plain ints in the m = 1 case; disambiguate:
        # rows of ints only make sense when len(row) == rank, flat otherwise
        if rank is not None and len(data) == rank * rank:
            data = [data[i * rank : (i + 1) * rank] for i in range(rank)]
        elif not isinstance(data[0], list):
            raise InputError("a matrix must be given as rows (or flat with known rank)")
    return RingMat.from_rows(ctx, data)


def lattice_from_json(data, ctx: RingContext | None = None) -> QuadLattice:
    if isinstance(data, dict):
        ring = data.get("ring")
        if ring == "Z":
            raise InputError("this payload needs a lattice over a ring context, not Z")
        if ctx is None:
            if not isinstance(ring, dict):
                raise InputError("lattice payload carries no ring and no context was given")
            ctx = RingContext.from_json(ring)
        gram = field(data, "gram")
    else:
        if ctx is None:
            raise InputError("a bare Gram matrix needs an explicit ring context")
        gram = data
    if not isinstance(gram, list) or not gram:
        raise InputError("a Gram matrix must be a nonempty list of rows")
    return QuadLattice(ctx, matrix_from_json(ctx, gram))


def payload_lattice(data, ctx: RingContext | None = None) -> QuadLattice:
    """The payload's 'lattice' field, or else a lattice of its own 'gram'
    over its own 'ring' (or ctx)."""
    if isinstance(data, dict) and "lattice" in data:
        return lattice_from_json(data["lattice"], ctx)
    return lattice_from_json({"gram": field(data, "gram"), "ring": data.get("ring")}, ctx)


def isometry_from_json(data: dict, ctx: RingContext | None = None) -> Isometry:
    if not isinstance(data, dict) or "matrix" not in data:
        raise InputError("an isometry payload needs 'matrix' and a lattice")
    lat = payload_lattice(data, ctx)
    order = data.get("order")
    if order is not None and (isinstance(order, bool) or not isinstance(order, int)):
        raise InputError("field 'order' must be an integer")
    return Isometry(lat, matrix_from_json(lat.ring, field(data, "matrix"), lat.rank), order=order)


def frame_from_json(data, ctx: RingContext | None = None) -> PeriodFrame:
    if isinstance(data, dict) and "gram" in data:
        return PeriodFrame.from_json(data, ctx)
    # bare Gram rows
    if ctx is None:
        raise InputError("a bare frame Gram matrix needs an explicit ring context")
    return PeriodFrame(QuadLattice(ctx, matrix_from_json(ctx, data)))


def line_from_json(data: dict, ctx: RingContext | None = None) -> PeriodLine:
    """Rebuild a line from its generator, re-deriving and re-validating."""
    frame = frame_from_json(field(data, "frame"), ctx)
    return from_generator(frame, vector_from_json(frame.ctx, field(data, "generator")))


def point_from_json(ctx: RingContext, data) -> DeformationPoint:
    if isinstance(data, dict):
        data = data.get("entries")
    if not isinstance(data, list):
        raise InputError("a deformation point is a list of scalars (or {'entries': ...})")
    return DeformationPoint(ctx, [scalar_from_json(ctx, e) for e in data])


def connection_from_json(data: dict, ctx: RingContext | None = None) -> ConnectionData:
    frame = frame_from_json(field(data, "frame"), ctx)
    mats = [matrix_from_json(frame.ctx, mj, frame.rank) for mj in list_field(data, "matrices")]
    return ConnectionData(frame, mats)
