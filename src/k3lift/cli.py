"""Command-line front end.

JSON in, canonical JSON out (sorted keys, compact separators, trailing
newline), so identical invocations are byte-identical.  Exit codes: 0 on
success (for `verify`, a valid certificate), 1 for malformed input, 2 for
a failed mathematical precondition or an invalid certificate.  Errors go
to standard error as one JSON object {"code", "message"} where the code
is the exception class name, e.g. "NotTame".

Payloads arrive via --in FILE or standard input, and `main` reads each
one once: every subcommand but `constraints`, which takes flags only and
refuses --in, --ctx and --seed, is a pure handler (payload, args, ctx) ->
(output, exit code) that never touches a stream.  --ctx p,n,m[,modulus-
coefficients] gives the ring of a payload without a "ring" field (bare Gram
rows, or a {"sample": {...}} that some subcommands expand into a random
instance seeded by --seed); a payload's own ring must equal it, modulus
included, or the call raises ContextMismatch.
"""

import argparse
import sys
from random import Random

from .errors import InputError, K3LiftError, PreconditionError, field, int_field, list_field
from .witt import RingContext
from . import constraints as gates
from .hensel import isotropic_combination
from .isometry import eigen_split
from .lifting import (
    BRANCHES,
    LiftingCertificate,
    SlopeDecomposition,
    SupersingularInput,
    lift_finite_height,
    lift_ss_nonsymplectic,
    lift_ss_symplectic,
    universal_line,
    verify_certificate,
)
from .period import check_conditions, complete_period_line
from .samples import (
    random_connection,
    random_deformation_point,
    random_isotropic_instance,
    random_period_coordinates,
    random_period_frame,
    random_tame_isometry,
)
from .serialize import (
    canonical_dumps,
    connection_from_json,
    dump_stream,
    frame_from_json,
    isometry_from_json,
    load_stream,
    matrix_from_json,
    payload_lattice,
    point_from_json,
    scalar_from_json,
    vector_from_json,
)
from .torelli import phi_invert, phi_line


class _Parser(argparse.ArgumentParser):
    # flag misuse is malformed input: surface it through the exit-1 path
    def error(self, message):
        raise InputError(message)


def _parse_ctx(text: str) -> RingContext:
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise InputError(f"--ctx expects integers p,n,m[,modulus]: {exc}") from exc
    if len(parts) < 3:
        raise InputError("--ctx needs at least p,n,m")
    p, n, m = parts[:3]
    modulus = parts[3:] or None
    if modulus is not None and len(modulus) != m + 1:
        raise InputError(f"--ctx modulus needs {m + 1} coefficients, got {len(modulus)}")
    return RingContext(p, n, m, modulus)


def _read_payload(args) -> dict:
    if args.infile is not None:
        try:
            with open(args.infile, "r", encoding="utf-8") as handle:
                return load_stream(handle)
        except OSError as exc:
            raise InputError(f"cannot read input file: {exc}") from exc
    return load_stream(sys.stdin)


# -- subcommand handlers -------------------------------------------------------
# Each is pure: it takes the decoded payload (None for `constraints`), the
# parsed flags and the --ctx ring (or None) and returns (output object,
# exit code).  Only `main` reads the payload and writes the output.


# The largest sample sizes: the K3 lattice has rank 22 and its period
# domain dimension 20, and a larger sample would be generated (its memory
# allocated) before any check could refuse it.
SAMPLE_BOUNDS = {"rank": 22, "dimension": 20}


def _sample(payload, args, ctx):
    """(spec, rng) for a {"sample": spec} payload, with rng seeded from
    --seed (0 when unset); (None, None) for any other payload.  A sample
    needs --ctx, and its rank and dimension stay within SAMPLE_BOUNDS."""
    sample = payload.get("sample") if isinstance(payload, dict) else None
    if sample is None:
        return None, None
    if ctx is None:
        raise InputError("--ctx is required to generate a sample instance")
    for key, bound in SAMPLE_BOUNDS.items():
        value = sample.get(key) if isinstance(sample, dict) else None
        if isinstance(value, int) and value > bound:
            raise InputError(f"sample {key} {value} exceeds {bound}")
    return sample, Random(0 if args.seed is None else args.seed)


def _cmd_eig_split(payload, args, ctx):
    sample, rng = _sample(payload, args, ctx)
    if sample is not None:
        rank, order = int_field(sample, "rank"), int_field(sample, "order")
        iso = random_tame_isometry(rng, ctx, rank, order)
    else:
        iso = isometry_from_json(payload, ctx)
        order = int_field(payload, "order")
    split = eigen_split(iso, order)
    out = split.to_json()
    out["isometry"] = iso.to_json()
    out["identities"] = split.verify_identities()
    out["pairing_orthogonality"] = split.pairing_orthogonality()
    return out, 0


def _cmd_isotropic_lift(payload, args, ctx):
    sample, rng = _sample(payload, args, ctx)
    if sample is not None:
        lat, u, v = random_isotropic_instance(rng, ctx, int_field(sample, "rank"))
    else:
        lat = payload_lattice(payload, ctx)
        u = vector_from_json(lat.ring, field(payload, "u"))
        v = vector_from_json(lat.ring, field(payload, "v"))
    a, w = isotropic_combination(lat, u, v)
    out = {
        "lattice": lat.to_json(),
        "u": u.to_json(),
        "v": v.to_json(),
        "a": a.to_json(),
        "w": w.to_json(),
        "norm": lat.norm(w).to_json(),
    }
    return out, 0


def _cmd_period_complete(payload, args, ctx):
    sample, rng = _sample(payload, args, ctx)
    if sample is not None:
        frame = random_period_frame(rng, ctx, int_field(sample, "rank"))
        coords = random_period_coordinates(rng, frame)
    else:
        frame = frame_from_json(field(payload, "frame"), ctx)
        coords = [scalar_from_json(frame.ctx, c) for c in list_field(payload, "coordinates")]
    line = complete_period_line(frame, coords)
    out = line.to_json()
    out["conditions"] = check_conditions(line)
    return out, 0


def _cmd_phi_map(payload, args, ctx):
    sample, rng = _sample(payload, args, ctx)
    if sample is not None:
        conn = random_connection(rng, ctx, int_field(sample, "dimension"))
        point = random_deformation_point(rng, conn)
    else:
        conn = connection_from_json(field(payload, "connection"), ctx)
        point = point_from_json(conn.ctx, field(payload, "point"))
    # one transport: from_generator normalizes the line exactly as phi_map does
    line = phi_line(conn, point)
    out = {
        "connection": conn.to_json(),
        "point": point.to_json(),
        "coordinates": [x.to_json() for x in line.coordinates()],
        "line": line.to_json(),
    }
    return out, 0


def _cmd_phi_invert(payload, args, ctx):
    conn = connection_from_json(field(payload, "connection"), ctx)
    target = field(payload, "target")
    if isinstance(target, dict):
        target = field(target, "coordinates")
    if not isinstance(target, list):
        raise InputError("field 'target' must be a coordinate list")
    goal = [scalar_from_json(conn.ctx, c) for c in target]
    point = phi_invert(conn, goal)
    # phi_invert returns only once phi_map(point) equals the goal
    out = {
        "point": point.to_json(),
        "image": [x.to_json() for x in goal],
    }
    return out, 0


def _cmd_lift_search(payload, args, ctx):
    order = int_field(payload, "order")
    if args.mode == "finite-height":
        sd = SlopeDecomposition.from_json(field(payload, "decomposition"), ctx)
        matrix = matrix_from_json(sd.ctx, field(payload, "matrix"))
        hodge = vector_from_json(sd.ctx.residue_context(), field(payload, "hodge_line"))
        if payload.get("others") is not None:
            others = list_field(payload, "others")
            mats = [matrix_from_json(sd.ctx, mj) for mj in others]
            cert, reports = universal_line(sd, matrix, order, hodge, mats)
            out = cert.to_json()
            out["stability"] = reports
            return out, 0
        cert = lift_finite_height(sd, matrix, order, hodge)
    else:
        inp = SupersingularInput.from_json(payload, ctx)
        if args.mode == "ss-nonsymplectic":
            cert = lift_ss_nonsymplectic(inp, order)
        else:
            cert = lift_ss_symplectic(inp, order)
    return cert.to_json(), 0


def _cmd_verify(payload, args, ctx):
    cert = LiftingCertificate.from_json(payload, ctx)
    report = verify_certificate(cert)
    return report.to_json(), 0 if report.valid else 2


def _cmd_constraints(payload, args, ctx):
    out = {}
    if args.phi is not None:
        out["phi"] = gates.euler_phi(args.phi)
    if args.unique_order is not None:
        n, p = args.unique_order
        out["unique_order"] = gates.unique_order_check(n, p)
    if args.tameness is not None:
        p, n = args.tameness
        out["tameness"] = gates.tameness(p, n)
    if args.thresholds is not None:
        out["thresholds"] = gates.surface_thresholds(args.thresholds)
    if args.scan_phi_bound is not None:
        out["scan"] = gates.phi_bound_scan(args.scan_phi_bound)
    if not out:
        raise InputError(
            "constraints needs at least one of --phi, --unique-order, "
            "--tameness, --thresholds, --scan-phi-bound"
        )
    if args.table:
        return _render_table(out), 0
    return out, 0


def _render_table(out: dict) -> str:
    """Aligned text rendering; keeps one row per scanned prime."""
    lines = []
    for key in sorted(out):
        value = out[key]
        if key == "scan":
            lines.append("p      phi(p+1)  exceeds_21")
            for row in value:
                lines.append(
                    f"{row['p']:<6d} {row['phi_p_plus_1']:<9d} {str(row['exceeds_21']).lower()}"
                )
        elif isinstance(value, dict):
            pairs = ", ".join(f"{k}={value[k]}" for k in sorted(value))
            lines.append(f"{key}: {pairs}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


_HANDLERS = {
    "eig-split": _cmd_eig_split,
    "isotropic-lift": _cmd_isotropic_lift,
    "period-complete": _cmd_period_complete,
    "phi-map": _cmd_phi_map,
    "phi-invert": _cmd_phi_invert,
    "lift-search": _cmd_lift_search,
    "verify": _cmd_verify,
    "constraints": _cmd_constraints,
}


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    hidden = argparse.SUPPRESS
    parser.add_argument(
        "--ctx",
        default=hidden if suppress else None,
        metavar="P,N,M[,MOD]",
        help="ring context p,n,m and optionally m+1 modulus coefficients, for sample "
        "and ring-less payloads; a payload's own ring must equal it",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=hidden if suppress else None,
        help="seed for sample payloads (default 0)",
    )
    parser.add_argument(
        "--in",
        dest="infile",
        default=hidden if suppress else None,
        metavar="FILE",
        help="read the JSON payload from FILE instead of standard input",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="k3lift", description="Exact lifting-theory toolkit.")
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    for name, help_text in (
        ("eig-split", "split a tame isometry into eigenspace components"),
        ("isotropic-lift", "correct a near-isotropic vector to an exact isotropic one"),
        ("period-complete", "complete middle period coordinates to a valid line"),
        ("phi-map", "apply the period map to a deformation point"),
        ("phi-invert", "invert the period map at target coordinates"),
        ("lift-search", "construct a liftability certificate"),
        ("verify", "re-check a liftability certificate from scratch"),
        ("constraints", "arithmetic constraint gates (Euler phi, tameness, scans)"),
    ):
        sp = sub.add_parser(name, help=help_text, description=help_text)
        _add_common(sp, suppress=True)
        if name == "lift-search":
            sp.add_argument(
                "--mode",
                required=True,
                choices=BRANCHES,
                help="which proof branch to follow",
            )
        if name == "constraints":
            sp.add_argument("--phi", type=int, metavar="N", help="Euler phi of N")
            sp.add_argument(
                "--unique-order",
                type=int,
                nargs=2,
                metavar=("N", "P"),
                help="check N against the uniqueness-order list at prime P",
            )
            sp.add_argument(
                "--tameness",
                type=int,
                nargs=2,
                metavar=("P", "N"),
                help="classify order N at prime P as tame or wild",
            )
            sp.add_argument(
                "--thresholds",
                type=int,
                metavar="P",
                help="automorphism tameness thresholds at prime P",
            )
            sp.add_argument(
                "--scan-phi-bound",
                type=int,
                metavar="P_MAX",
                help="tabulate phi(p+1) against 21 for every prime p <= P_MAX",
            )
            sp.add_argument(
                "--table", action="store_true", help="text table instead of JSON"
            )
    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.command == "constraints":
            for flag, value in (("--in", args.infile), ("--ctx", args.ctx), ("--seed", args.seed)):
                if value is not None:
                    raise InputError(f"constraints reads no payload; {flag} is not accepted")
        ctx = _parse_ctx(args.ctx) if args.ctx is not None else None
        payload = None if args.command == "constraints" else _read_payload(args)
        out, code = _HANDLERS[args.command](payload, args, ctx)
        if isinstance(out, str):
            sys.stdout.write(out)
        else:
            dump_stream(out, sys.stdout)
        return code
    except InputError as exc:
        _emit_error(exc)
        return 1
    except PreconditionError as exc:
        _emit_error(exc)
        return 2
    except K3LiftError as exc:
        _emit_error(exc)
        return 1


def _emit_error(exc: K3LiftError) -> None:
    sys.stderr.write(canonical_dumps({"code": exc.code, "message": str(exc)}))
