"""Command-line contract: payload shapes, exit codes, determinism."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lift import cli, torelli
from k3lift import (
    Isometry,
    QuadLattice,
    RingContext,
    RingMat,
    RingVec,
    SlopeDecomposition,
    SupersingularInput,
    canonical_dumps,
    lift_ss_nonsymplectic,
)

C53 = RingContext(5, 3, 1)
C72 = RingContext(7, 2, 1)


def run_cli(args, payload=None):
    data = "" if payload is None else (
        payload if isinstance(payload, str) else canonical_dumps(payload)
    )
    return subprocess.run(
        [sys.executable, "-m", "k3lift", *args],
        input=data.encode(),
        capture_output=True,
    )


def out_json(proc):
    return json.loads(proc.stdout.decode())


def err_json(proc):
    return json.loads(proc.stderr.decode())


# -- constraints ---------------------------------------------------------------


def test_constraints_phi():
    proc = run_cli(["constraints", "--phi", "66"])
    assert proc.returncode == 0
    assert proc.stdout == b'{"phi":20}\n'


def test_constraints_unique_order():
    proc = run_cli(["constraints", "--unique-order", "66", "13"])
    assert proc.returncode == 0
    out = out_json(proc)["unique_order"]
    assert out["uniqueness_applies"] and out["order_66_direct"]


def test_constraints_tameness_and_thresholds():
    proc = run_cli(["constraints", "--tameness", "13", "33", "--thresholds", "23"])
    assert proc.returncode == 0
    out = out_json(proc)
    assert out["tameness"] == "tame"
    assert out["thresholds"]["finite_height_weakly_tame"]


def test_constraints_scan():
    proc = run_cli(["constraints", "--scan-phi-bound", "61"])
    rows = out_json(proc)["scan"]
    last = rows[-1]
    assert last == {"p": 61, "phi_p_plus_1": 30, "exceeds_21": True}


def test_constraints_table_output():
    proc = run_cli(["constraints", "--scan-phi-bound", "61", "--table"])
    assert proc.returncode == 0
    text = proc.stdout.decode()
    assert "phi(p+1)" in text
    assert "\n61     30        true" in text


def test_constraints_requires_a_flag():
    proc = run_cli(["constraints"])
    assert proc.returncode == 1
    assert err_json(proc)["code"] == "InputError"


@pytest.mark.parametrize(
    "args",
    [
        ["constraints", "--phi", "12", "--in", "/nonexistent/x.json"],
        ["--in", "/nonexistent/x.json", "constraints", "--phi", "12"],
    ],
)
def test_constraints_refuses_in(args):
    # constraints reads no payload, so a file it would ignore is an error
    proc = run_cli(args)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.count(b"\n") == 1
    assert err_json(proc) == {
        "code": "InputError",
        "message": "constraints reads no payload; --in is not accepted",
    }


@pytest.mark.parametrize(
    "args, flag",
    [
        (["constraints", "--phi", "12", "--seed", "3"], "--seed"),
        (["constraints", "--phi", "12", "--ctx", "5,3,1"], "--ctx"),
        (["--seed", "3", "constraints", "--phi", "12"], "--seed"),
        (["--ctx", "5,3,1", "constraints", "--phi", "12"], "--ctx"),
    ],
)
def test_constraints_refuses_ctx_and_seed(args, flag):
    # constraints takes no ring and generates no sample: a flag it would
    # ignore is an error, in either position
    proc = run_cli(args)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.count(b"\n") == 1
    assert err_json(proc) == {
        "code": "InputError",
        "message": f"constraints reads no payload; {flag} is not accepted",
    }


@pytest.mark.parametrize(
    "args, code",
    [
        (["constraints", "--thresholds", "1000000000000000003"], 0),
        (["constraints", "--phi", "1000000000000000000000000000057"], 1),
    ],
)
def test_constraints_on_large_integers_returns(args, code):
    # the timeout only detects a hang (each call takes under a second, trial
    # division up to sqrt(n) over a minute): primality is Miller-Rabin, and
    # factoring stops its trial divisors at sqrt(FACTOR_LIMIT) and refuses a
    # cofactor it cannot prove prime
    proc = subprocess.run(
        [sys.executable, "-m", "k3lift", *args], capture_output=True, timeout=30
    )
    assert proc.returncode == code
    if code:
        assert proc.stdout == b""
        assert proc.stderr.count(b"\n") == 1
        assert err_json(proc)["code"] == "InputError"
    else:
        assert out_json(proc)["thresholds"]["all_automorphisms_tame"] is True


def test_constraints_scan_bound_is_limited():
    # the timeout only detects a hang: the refusal comes before any work
    proc = subprocess.run(
        [sys.executable, "-m", "k3lift", "constraints", "--scan-phi-bound", "100000000"],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.count(b"\n") == 1
    assert err_json(proc) == {"code": "InputError", "message": "scan range may not exceed 10000"}


# -- eig-split -------------------------------------------------------------------


def _a2_isometry_payload():
    lat = QuadLattice(C72, [[2, -1], [-1, 2]])
    return {
        "lattice": lat.to_json(),
        "matrix": [[0, -1], [1, -1]],
        "order": 3,
    }


def test_eig_split_explicit_payload():
    proc = run_cli(["eig-split"], _a2_isometry_payload())
    assert proc.returncode == 0
    out = out_json(proc)
    assert out["ranks"] == [0, 1, 1]
    assert all(out["identities"].values())
    assert out["pairing_orthogonality"]


def test_eig_split_wild_order_exit_2():
    # the A2 rotation has exact order 3, which is wild at p = 3
    lat = QuadLattice(RingContext(3, 2, 1), [[2, -1], [-1, 2]])
    payload = {"lattice": lat.to_json(), "matrix": [[0, -1], [1, -1]], "order": 3}
    proc = run_cli(["eig-split"], payload)
    assert proc.returncode == 2
    assert err_json(proc)["code"] == "NotTame"


def test_eig_split_sample_determinism():
    args = ["eig-split", "--ctx", "7,2,1", "--seed", "11"]
    payload = {"sample": {"rank": 4, "order": 3}}
    first = run_cli(args, payload)
    second = run_cli(args, payload)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    different = run_cli(["eig-split", "--ctx", "7,2,1", "--seed", "12"], payload)
    assert different.stdout != first.stdout


def test_eig_split_over_a_large_prime_with_m_2():
    # the residue generator of F_q, q = (10^6 + 3)^2, must not be searched
    # among the constants of F_p; the timeout only detects a hang: the call
    # takes under a second
    proc = subprocess.run(
        [sys.executable, "-m", "k3lift", "eig-split", "--ctx", "1000003,2,2"],
        input=canonical_dumps({"sample": {"rank": 4, "order": 3}}).encode(),
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert sum(c["rank"] for c in out_json(proc)["components"]) == 4


def test_eig_split_order_needing_a_huge_extension_is_refused():
    # N = 10^9 + 7 needs residue degree ord(7 mod N) = 500000003, found by
    # dividing phi(N) down instead of counting powers up to it; the timeout
    # only detects a hang: the call takes under a second
    proc = subprocess.run(
        [sys.executable, "-m", "k3lift", "eig-split", "--ctx", "7,2,1"],
        input=canonical_dumps({"sample": {"rank": 2, "order": 10**9 + 7}}).encode(),
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert err_json(proc)["code"] == "InsufficientResidueField"
    assert "divisible by 500000003" in err_json(proc)["message"]


@pytest.mark.parametrize("coefficient", ["x", True, 1.5, None])
def test_modulus_coefficient_error_names_the_modulus(coefficient):
    proc = run_cli(["verify"], {"ring": {"p": 5, "n": 2, "m": 2, "modulus": [1, coefficient, 1]}})
    assert proc.returncode == 1
    assert err_json(proc) == {
        "code": "InputError",
        "message": f"modulus coefficient must be an integer, got {coefficient!r}",
    }


def test_eig_split_sample_needs_ctx():
    proc = run_cli(["eig-split"], {"sample": {"rank": 4, "order": 3}})
    assert proc.returncode == 1
    assert "ctx" in err_json(proc)["message"]


def test_global_flags_before_subcommand():
    payload = {"sample": {"rank": 4, "order": 3}}
    before = run_cli(["--ctx", "7,2,1", "--seed", "5", "eig-split"], payload)
    after = run_cli(["eig-split", "--ctx", "7,2,1", "--seed", "5"], payload)
    assert before.returncode == after.returncode == 0
    assert before.stdout == after.stdout


# -- isotropic-lift ----------------------------------------------------------------


def test_isotropic_lift_worked_example():
    payload = {
        "ring": C53.to_json(),
        "gram": [[5, 1], [1, 0]],
        "u": [1, 0],
        "v": [0, 1],
    }
    proc = run_cli(["isotropic-lift"], payload)
    assert proc.returncode == 0
    out = out_json(proc)
    assert out["a"] == [12]
    assert out["w"] == [[1], [60]]
    assert out["norm"] == [0]


def test_isotropic_lift_precondition_failure():
    payload = {
        "ring": C53.to_json(),
        "gram": [[1, 1], [1, 0]],
        "u": [1, 0],
        "v": [0, 1],
    }
    proc = run_cli(["isotropic-lift"], payload)
    assert proc.returncode == 2
    assert err_json(proc)["code"] == "NotNearIsotropic"


def test_isotropic_lift_over_a_large_prime():
    # p = 10^18 + 3: the ring's primality check must not trial-divide (up to
    # sqrt(p) that takes over a minute); the timeout only detects a hang
    p = 10**18 + 3
    payload = {"ring": {"p": p, "n": 2}, "gram": [[p, 1], [1, 0]], "u": [1, 0], "v": [0, 1]}
    proc = subprocess.run(
        [sys.executable, "-m", "k3lift", "isotropic-lift"],
        input=canonical_dumps(payload).encode(),
        capture_output=True,
        timeout=30,
    )
    assert proc.returncode == 0
    assert out_json(proc)["norm"] == [0]


def _assert_one_input_error(proc, text):
    assert proc.returncode == 1
    stderr = proc.stderr.decode()
    assert "Traceback" not in stderr
    assert stderr.count("\n") == 1
    err = json.loads(stderr)
    assert err["code"] == "InputError" and text in err["message"]
    assert proc.stdout == b""


def test_payload_integer_past_the_digit_limit_exit_1():
    # json.loads refuses an integer of more than sys.get_int_max_str_digits()
    # digits with a ValueError that is not a JSONDecodeError
    text = '{"ring": {"p": 5, "n": 2}, "gram": ' + "7" * 5000 + "}"
    _assert_one_input_error(run_cli(["verify"], text), "malformed JSON input")


@pytest.mark.parametrize(
    "args, payload",
    [
        # entries of up to 5,400 digits: json.dumps would refuse the output
        (
            ["--ctx", "1000000000000000003,300,1", "isotropic-lift"],
            {"gram": [[10**18 + 3, 1], [1, 0]], "u": [1, 0], "v": [0, 1]},
        ),
        # p^n of 477 million digits: refused before it is formed
        (["--ctx", "3,1000000000,1", "period-complete"], {"sample": {"rank": 4}}),
    ],
)
def test_ring_past_the_digit_limit_exit_1(args, payload):
    # the timeout only detects a hang
    proc = subprocess.run(
        [sys.executable, "-m", "k3lift", *args],
        input=canonical_dumps(payload).encode(),
        capture_output=True,
        timeout=30,
    )
    _assert_one_input_error(proc, "decimal digits")


@pytest.mark.parametrize("payload", [5, None, True])
def test_isotropic_lift_non_object_payload_exit_1(payload):
    proc = run_cli(["isotropic-lift"], payload if payload is not None else "null")
    assert proc.returncode == 1
    stderr = proc.stderr.decode()
    assert "Traceback" not in stderr
    assert stderr.count("\n") == 1
    assert json.loads(stderr) == {
        "code": "InputError", "message": "payload is missing required field 'gram'"
    }
    assert proc.stdout == b""


# -- period-complete ----------------------------------------------------------------


def _toy_frame_json():
    ctx = RingContext(3, 3, 1)
    gram = [[0, 0, 0, 1], [0, 2, 0, 0], [0, 0, 2, 0], [1, 0, 0, 0]]
    return {"ring": ctx.to_json(), "gram": QuadLattice(ctx, gram).gram.to_json()}


def test_period_complete_worked_example():
    payload = {"frame": _toy_frame_json(), "coordinates": [3, 0]}
    proc = run_cli(["period-complete"], payload)
    assert proc.returncode == 0
    out = out_json(proc)
    assert out["last_coordinate"] == [18]
    assert out["conditions"]["valid"]


def test_period_complete_valuation_violation():
    payload = {"frame": _toy_frame_json(), "coordinates": [1, 0]}
    proc = run_cli(["period-complete"], payload)
    assert proc.returncode == 2
    assert err_json(proc)["code"] == "ValuationViolation"


def test_period_complete_sample():
    args = ["period-complete", "--ctx", "5,3,1", "--seed", "3"]
    payload = {"sample": {"rank": 6}}
    first = run_cli(args, payload)
    assert first.returncode == 0
    assert out_json(first)["conditions"]["valid"]
    assert first.stdout == run_cli(args, payload).stdout


# -- phi-map / phi-invert --------------------------------------------------------


def _connection_payload():
    ctx = C53
    gram = [[0, 0, 1], [0, 2, 0], [1, 0, 0]]
    from k3lift import PeriodFrame, quadric_connection

    conn = quadric_connection(PeriodFrame(QuadLattice(ctx, gram)))
    return conn.to_json()


def test_phi_map_explicit():
    payload = {"connection": _connection_payload(), "point": [5]}
    proc = run_cli(["phi-map"], payload)
    assert proc.returncode == 0
    out = out_json(proc)
    assert len(out["coordinates"]) == 1
    # first-order law: the image coordinate is 5 mod 25
    assert out["coordinates"][0][0] % 25 == 5


def test_phi_invert_round_trip():
    payload = {"connection": _connection_payload(), "point": [5]}
    image = out_json(run_cli(["phi-map"], payload))["coordinates"]
    inv_payload = {"connection": _connection_payload(), "target": image}
    proc = run_cli(["phi-invert"], inv_payload)
    assert proc.returncode == 0
    out = out_json(proc)
    assert out["point"] == {"entries": [[5]]}
    assert out["image"] == image


def _main_in_process(args, text):
    """cli.main(args) on text as standard input: (exit code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), \
            redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(args)
    return code, stdout.getvalue(), stderr.getvalue()


def test_phi_commands_transport_each_point_once(monkeypatch):
    # rank 22, m = 2: phi-map reads its coordinates off phi_line's line, and
    # phi-invert emits the target that its fixed point maps to
    transported = []
    transport = torelli.transport

    def spy(*args):
        transported.append(args[1])
        return transport(*args)

    monkeypatch.setattr(torelli, "transport", spy)
    code, out, err = _main_in_process(
        ["phi-map", "--ctx", "5,4,2", "--seed", "3"], canonical_dumps({"sample": {"dimension": 20}})
    )
    assert (code, err, len(transported)) == (0, "", 1)
    mapped = json.loads(out)
    transported.clear()
    payload = {"connection": mapped["connection"], "target": mapped["coordinates"]}
    code, out, err = _main_in_process(["phi-invert"], canonical_dumps(payload))
    assert (code, err, len(transported)) == (0, "", 3)
    assert json.loads(out) == {"point": mapped["point"], "image": mapped["coordinates"]}


def test_phi_map_sample_determinism():
    args = ["phi-map", "--ctx", "5,3,1", "--seed", "9"]
    payload = {"sample": {"dimension": 2}}
    first = run_cli(args, payload)
    assert first.returncode == 0
    assert first.stdout == run_cli(args, payload).stdout


# -- lift-search -------------------------------------------------------------------


def _finite_height_payload():
    lat = QuadLattice(C53, [[0, 1], [1, 0]])
    sd = SlopeDecomposition(lat, [[1, 0]], [], [[0, 1]])
    return {
        "decomposition": sd.to_json(),
        "matrix": [[1, 0], [0, 1]],
        "order": 1,
        "hodge_line": [0, 1],
    }


def test_lift_search_finite_height():
    proc = run_cli(["lift-search", "--mode", "finite-height"], _finite_height_payload())
    assert proc.returncode == 0
    out = out_json(proc)
    assert out["branch"] == "finite-height"
    assert out["eigenvalue"] == [1]


def test_lift_search_universal_others():
    payload = _finite_height_payload()
    payload["others"] = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    proc = run_cli(["lift-search", "--mode", "finite-height"], payload)
    assert proc.returncode == 0
    out = out_json(proc)
    assert out["stability"][0]["stabilizes"]
    assert not out["stability"][1]["stabilizes"]


def test_lift_search_nonsymplectic_worked():
    lat = QuadLattice(C53, [[5, 1], [1, 0]])
    payload = {
        "ring": C53.to_json(),
        "gram": lat.gram.to_json(),
        "matrix": [[-1, 0], [0, -1]],
        "hodge_line": [1, 0],
        "order": 2,
    }
    proc = run_cli(["lift-search", "--mode", "ss-nonsymplectic"], payload)
    assert proc.returncode == 0
    out = out_json(proc)
    assert out["generator"] == [[1], [60]]
    assert out["eigenvalue"] == [124]


def _symplectic_payload():
    return {
        "ring": RingContext(3, 3, 1).to_json(),
        "gram": [[3, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        "hodge_line": [1, 0, 0, 0],
        "ample": [0, 0, 1, 0],
        "order": 1,
    }


def test_lift_search_symplectic_worked():
    proc = run_cli(["lift-search", "--mode", "ss-symplectic"], _symplectic_payload())
    assert proc.returncode == 0
    out = out_json(proc)
    assert out["generator"] == [[1], [12], [0], [0]]


def test_lift_search_wild_order_exit_2():
    lat = QuadLattice(C53, [[5, 1], [1, 0]])
    payload = {
        "ring": C53.to_json(),
        "gram": lat.gram.to_json(),
        "matrix": [[-1, 0], [0, -1]],
        "hodge_line": [1, 0],
        "order": 10,
    }
    proc = run_cli(["lift-search", "--mode", "ss-nonsymplectic"], payload)
    assert proc.returncode == 2
    assert err_json(proc)["code"] == "NotTame"


def test_lift_search_weakly_tame_gate():
    payload = _finite_height_payload()
    payload["order"] = 5
    proc = run_cli(["lift-search", "--mode", "finite-height"], payload)
    assert proc.returncode == 2
    assert err_json(proc)["code"] == "NotWeaklyTame"


# -- verify ------------------------------------------------------------------------


def _nonsymplectic_cert():
    lat = QuadLattice(C53, [[5, 1], [1, 0]])
    minus = RingMat.identity(C53, 2).scale(C53.scalar(-1))
    inp = SupersingularInput(lat, minus, [1, 0])
    return lift_ss_nonsymplectic(inp, 2)


def test_verify_valid_certificate():
    cert = _nonsymplectic_cert()
    proc = run_cli(["verify"], cert.to_json())
    assert proc.returncode == 0
    out = out_json(proc)
    assert out["valid"] is True
    assert all(c["ok"] for c in out["checks"])


def test_verify_corrupted_certificate_exit_2():
    cert = _nonsymplectic_cert()
    data = cert.to_json()
    data["generator"] = [[1], [61]]
    proc = run_cli(["verify"], data)
    assert proc.returncode == 2
    out = out_json(proc)
    assert out["valid"] is False


def test_verify_membership_basis_of_wrong_rank_exit_2():
    # a basis vector of length 3 against a rank-2 generator is a failed claim
    data = _nonsymplectic_cert().to_json()
    data["transcript"].append({"claim": "membership", "basis": [[1, 2, 3]], "label": "probe"})
    proc = run_cli(["verify"], data)
    assert proc.returncode == 2
    assert proc.stderr == b""
    out = out_json(proc)
    assert out["valid"] is False
    assert out["checks"][-1] == {
        "claim": "membership", "ok": False,
        "detail": "re-verification error: basis rank 3 vs target rank 2",
    }


def test_verify_membership_basis_of_ragged_columns_exit_2():
    # basis vectors of unequal length are a dimension error, not a context one
    data = _nonsymplectic_cert().to_json()
    data["transcript"].append({"claim": "membership", "basis": [[1, 2], [1, 2, 3]], "label": "probe"})
    proc = run_cli(["verify"], data)
    assert proc.returncode == 2
    assert proc.stderr == b""
    assert out_json(proc)["checks"][-1] == {
        "claim": "membership", "ok": False,
        "detail": "re-verification error: column 1 has rank 3 vs 2",
    }


@pytest.mark.parametrize(
    "payload, missing",
    [({"ring": {"p": 5, "n": 3, "m": 1}}, "branch"), ([1, 2], "ring")],
)
def test_verify_malformed_payload_exit_1(payload, missing):
    proc = run_cli(["verify"], payload)
    assert proc.returncode == 1
    stderr = proc.stderr.decode()
    assert "Traceback" not in stderr
    assert stderr.count("\n") == 1
    err = json.loads(stderr)
    assert err == {"code": "InputError", "message": f"payload is missing required field '{missing}'"}
    assert proc.stdout == b""


def _period_complete_payload():
    return {
        "frame": {"ring": C53.to_json(), "gram": [[0, 0, 1], [0, 2, 0], [1, 0, 0]]},
        "coordinates": [5],
    }


_PROBE_BASES = {
    None: lambda: (["verify"], _nonsymplectic_cert().to_json()),
    "ss-symplectic": lambda: (["lift-search", "--mode", "ss-symplectic"], _symplectic_payload()),
    "finite-height": lambda: (["lift-search", "--mode", "finite-height"], _finite_height_payload()),
    "finite-height --ctx": lambda: (
        ["--ctx", "5,3,1", "lift-search", "--mode", "finite-height"], _finite_height_payload()
    ),
    "eig-split --ctx": lambda: (
        ["--ctx", "7,3,1", "eig-split"],
        {"gram": [[1, 0], [0, 1]], "matrix": [[1, 0], [0, 1]], "order": 1},
    ),
    "period-complete": lambda: (["period-complete"], _period_complete_payload()),
    "phi-map": lambda: (["phi-map"], {"connection": _connection_payload(), "point": [5]}),
    # a mutated ring reaches the comparison with --ctx
    "verify --ctx": lambda: (["--ctx", "5,3,1", "verify"], _nonsymplectic_cert().to_json()),
}

_SCALAR_MESSAGE = "a scalar must be an integer or a coefficient array"
_BRANCH_MESSAGE = "field 'branch' must be one of finite-height, ss-nonsymplectic, ss-symplectic"


@pytest.mark.parametrize(
    "mode, key, value, message",
    [
        (None, "gram", "abc", "a matrix must be a nonempty list"),
        (None, "transcript", 5, "field 'transcript' must be a list of claim objects"),
        ("ss-symplectic", "ample", "x", "a vector must be a list of scalars"),
        # a non-integer coefficient is refused, never truncated into another Gram
        ("period-complete", "frame.gram", [[0, 0, 1], [0, [1.9], 0], [1, 0, [0.7]]], _SCALAR_MESSAGE),
        ("phi-map", "connection.frame.gram", [[0, 0, 1], [0, 2, 0], [True, 0, 0]], _SCALAR_MESSAGE),
        ("finite-height", "decomposition.gram", [[0, "1"], [[1.7], 0]], _SCALAR_MESSAGE),
        ("period-complete", "frame.gram", 5, "a matrix must be a nonempty list"),
        ("period-complete", "frame.gram", [["x"]], _SCALAR_MESSAGE),
        ("finite-height", "decomposition.low", 5, "field 'low' must be a list of vectors"),
        ("finite-height", "decomposition.high", ["x"], "a vector must be a list of scalars"),
        ("finite-height", "decomposition.frobenius", "q", "a matrix must be a nonempty list"),
        ("period-complete", "coordinates", 5, "field 'coordinates' must be a list"),
        ("finite-height", "others", 5, "field 'others' must be a list"),
        # a ring field is refused, never truncated into another context
        (None, "ring.p", 5.9, "field 'p' must be an integer"),
        # a branch is one of the three builders' names, never str() of anything
        (None, "branch", 5, _BRANCH_MESSAGE),
        (None, "branch", None, _BRANCH_MESSAGE),
        (None, "branch", [1], _BRANCH_MESSAGE),
        (None, "branch", "no-such-branch", _BRANCH_MESSAGE),
        ("phi-map", "connection.matrices", 5, "field 'matrices' must be a list"),
        # a decomposition read over --ctx is an object, never a bare value
        ("finite-height --ctx", "decomposition", 5, "payload is missing required field 'gram'"),
        ("finite-height --ctx", "decomposition", [1], "payload is missing required field 'gram'"),
        # every row of a matrix is a list
        ("eig-split --ctx", "gram", [[1, 0], 3], "a matrix must be a list of rows"),
    ],
)
def test_wrong_typed_field_exit_1(mode, key, value, message):
    args, payload = _PROBE_BASES[mode]()
    *parents, last = key.split(".")
    target = payload
    for name in parents:
        target = target[name]
    target[last] = value
    proc = run_cli(args, payload)
    assert proc.returncode == 1
    stderr = proc.stderr.decode()
    assert "Traceback" not in stderr
    assert stderr.count("\n") == 1
    assert json.loads(stderr) == {"code": "InputError", "message": message}
    assert proc.stdout == b""


def _nodes(tree, path=()):
    """The path of every node of a JSON tree, the root's () included."""
    yield path
    if isinstance(tree, (dict, list)):
        for key, child in (tree.items() if isinstance(tree, dict) else enumerate(tree)):
            yield from _nodes(child, path + (key,))


def _replaced(tree, path, value):
    """tree with its node at path replaced by value."""
    if not path:
        return value
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return tree


# an integer literal past the interpreter's int <-> str digit limit: json.dumps
# refuses it, so a payload carries this marker and the literal is spliced
# into its text
_HUGE_MARKER = "<huge integer>"
_HUGE_LITERAL = "7" * 4301
_FUZZ_LEAVES = st.one_of(
    st.integers(-12, 12),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(_HUGE_MARKER),
)
# object keys are mostly real payload field names, so that a nested value
# can reach the readers of those fields
_FUZZ_KEYS = st.sampled_from(["ring", "p", "n", "m", "gram", "matrix", "order", "rank", "sample"])


def _fuzz_values(depth=3):
    """Small JSON values: a leaf, or a list or object of depth <= depth."""
    if depth == 0:
        return _FUZZ_LEAVES
    inner = _fuzz_values(depth - 1)
    return _FUZZ_LEAVES | st.lists(inner, max_size=3) | st.dictionaries(
        _FUZZ_KEYS | st.text(max_size=3), inner, max_size=3
    )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_main_fuzz_one_node_ends_in_exit_code_and_one_error(data):
    # in-process, so that every example costs a handler call, not a process
    args, payload = _PROBE_BASES[data.draw(st.sampled_from(list(_PROBE_BASES)))]()
    path = data.draw(st.sampled_from(list(_nodes(payload))))
    payload = _replaced(payload, path, data.draw(_fuzz_values()))
    text = canonical_dumps(payload).replace(f'"{_HUGE_MARKER}"', _HUGE_LITERAL)
    code, out, err = _main_in_process(args, text)
    assert code in (0, 1, 2)
    if err:
        assert err.count("\n") == 1 and err.endswith("\n")
        assert set(json.loads(err)) == {"code", "message"}
        assert out == ""


# -- a payload's ring and --ctx ------------------------------------------------------


def test_verify_refuses_a_context_that_rereads_the_certificate():
    # the bumped generator fails its eigen relation mod 125 but not mod 25, so
    # over (5,2,1) the certificate would verify
    data = _nonsymplectic_cert().to_json()
    data["generator"][1][0] += 25
    text = canonical_dumps(data)
    assert _main_in_process(["verify"], text)[0] == 2
    code, out, err = _main_in_process(["verify", "--ctx", "5,2,1"], text)
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert json.loads(err)["code"] == "ContextMismatch"


def _nonsymplectic_payload():
    return {
        "ring": C53.to_json(),
        "gram": [[5, 1], [1, 0]],
        "matrix": [[-1, 0], [0, -1]],
        "hodge_line": [1, 0],
        "order": 2,
    }


def _isotropic_payload(ctx=C53):
    return {"ring": ctx.to_json(), "gram": [[5, 1], [1, 0]], "u": [1, 0], "v": [0, 1]}


def _eig_split_payload():
    minus = RingMat.identity(C53, 2).scale(C53.scalar(-1))
    return {**Isometry(QuadLattice(C53, [[5, 1], [1, 0]]), minus).to_json(), "order": 2}


# (subcommand, payload, the payload's own ring as --ctx); the ring sits at the
# payload's top level, or in lattice, decomposition, frame or connection.frame
_RING_READERS = {
    "verify": (["verify"], lambda: _nonsymplectic_cert().to_json(), "5,3,1"),
    "finite-height": (["lift-search", "--mode", "finite-height"], _finite_height_payload, "5,3,1"),
    "ss-nonsymplectic": (
        ["lift-search", "--mode", "ss-nonsymplectic"], _nonsymplectic_payload, "5,3,1"
    ),
    "ss-symplectic": (["lift-search", "--mode", "ss-symplectic"], _symplectic_payload, "3,3,1"),
    "eig-split": (["eig-split"], _eig_split_payload, "5,3,1"),
    "isotropic-lift": (["isotropic-lift"], _isotropic_payload, "5,3,1"),
    "period-complete": (["period-complete"], _period_complete_payload, "5,3,1"),
    "phi-map": (["phi-map"], lambda: {"connection": _connection_payload(), "point": [5]}, "5,3,1"),
    "phi-invert": (
        ["phi-invert"], lambda: {"connection": _connection_payload(), "target": [5]}, "5,3,1"
    ),
}


@pytest.mark.parametrize("args, payload, own", _RING_READERS.values(), ids=_RING_READERS.keys())
def test_payload_ring_must_equal_the_context(args, payload, own):
    text = canonical_dumps(payload())
    code, out, err = _main_in_process(args, text)
    assert (code, err) == (0, "")
    assert _main_in_process([*args, "--ctx", own], text) == (0, out, "")
    code, out, err = _main_in_process([*args, "--ctx", "5,2,1"], text)
    assert (code, out, json.loads(err)["code"]) == (1, "", "ContextMismatch")


def test_context_mismatch_names_both_moduli():
    # x^2 + 3 against the default x^2 + 2: unequal rings whose reprs differ
    # only in the modulus
    c532 = RingContext(5, 3, 2)
    assert RingContext(5, 3, 2, [3, 0, 1]) != c532
    assert repr(RingContext(5, 3, 2, [3, 0, 1])) != repr(c532)
    payload = _isotropic_payload(c532)
    code, out, err = _main_in_process(
        ["isotropic-lift", "--ctx", "5,3,2,3,0,1"], canonical_dumps(payload)
    )
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["code"] == "ContextMismatch"
    assert "'modulus': [2, 0, 1]" in error["message"]
    assert "'modulus': [3, 0, 1]" in error["message"]
    # a ring without 'modulus' has the default one, so it equals x^2 + 2
    del payload["ring"]["modulus"]
    code, out, err = _main_in_process(["isotropic-lift"], canonical_dumps(payload))
    assert (code, err) == (0, "")
    assert _main_in_process(
        ["isotropic-lift", "--ctx", "5,3,2,2,0,1"], canonical_dumps(payload)
    ) == (0, out, "")


@pytest.mark.parametrize("spec", ["7,2,60", "3,1,100000", "1000000000000000003,1,5000"])
def test_residue_degree_past_the_bound_is_refused(spec):
    # each ran for 16 s or more before the bound on m: the reduction table,
    # the modulus scan and its Rabin test all grow with m
    code, out, err = _main_in_process(
        ["isotropic-lift", "--ctx", spec], canonical_dumps(_isotropic_payload())
    )
    m = spec.split(",")[2]
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "code": "InputError",
        "message": f"residue degree m must be <= 20, got {m}",
    }


@pytest.mark.parametrize(
    "command, key, size, bound",
    [
        ("eig-split", "rank", 400, 22),
        ("eig-split", "rank", 10**9, 22),
        ("isotropic-lift", "rank", 23, 22),
        ("period-complete", "rank", 10**9, 22),
        ("phi-map", "dimension", 21, 20),
    ],
)
def test_sample_past_the_k3_size_is_refused(command, key, size, bound):
    # the bound is checked before the generator runs, so 10^9 allocates nothing;
    # rank 400 took 7.7 s and wrote 1.9 MB before the bound
    sample = {key: size, "order": 3}
    code, out, err = _main_in_process(
        [command, "--ctx", "7,2,1"], canonical_dumps({"sample": sample})
    )
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert json.loads(err) == {
        "code": "InputError",
        "message": f"sample {key} {size} exceeds {bound}",
    }


def _order_probe(order):
    """A certificate whose eigenvalue 2 is a unit of order 100 in W(F_5)/5^3,
    not a root of unity of tame order: A = diag(2, 2^-1) (63 = 2^-1 mod 125)
    preserves the hyperbolic plane, and e1 is an isotropic eigenvector."""
    return {
        "ring": C53.to_json(),
        "branch": "ss-nonsymplectic",
        "order": order,
        "gram": [[0, 1], [1, 0]],
        "matrix": [[2, 0], [0, 63]],
        "generator": [1, 0],
        "eigenvalue": 2,
        "hodge_line": [1, 0],
        "transcript": [],
    }


@pytest.mark.parametrize("order, code, error", [(0, 1, "InputError"), (-4, 1, "InputError"),
                                                (100, 2, "NotTame")])
def test_verify_refuses_an_order_that_is_not_tame(order, code, error):
    # orders 0 and 100 verified valid before the order was read through
    # require_tame, and -4 was reported as a failed lambda^N = 1 check
    got, out, err = _main_in_process(["verify"], canonical_dumps(_order_probe(order)))
    assert (got, out, err.count("\n")) == (code, "", 1)
    assert json.loads(err)["code"] == error


def test_verify_reports_a_tame_order_the_eigenvalue_misses():
    code, out, err = _main_in_process(["verify"], canonical_dumps(_order_probe(4)))
    assert (code, err) == (2, "")
    failed = [c["claim"] for c in json.loads(out)["checks"] if not c["ok"]]
    assert failed == ["core:eigenvalue-order"]


@pytest.mark.parametrize("mode", ["finite-height", "ss-nonsymplectic", "ss-symplectic", None])
def test_zero_hodge_line_is_malformed_input(mode):
    # finite height and verify used to exit 2, from the eigenline search and
    # from a failed core:reduction-line check
    if mode is None:
        args, payload = ["verify"], _nonsymplectic_cert().to_json()
    else:
        base = {"finite-height": _finite_height_payload, "ss-symplectic": _symplectic_payload,
                "ss-nonsymplectic": _nonsymplectic_payload}[mode]
        args, payload = ["lift-search", "--mode", mode], base()
    payload["hodge_line"] = [0] * len(payload["hodge_line"])
    code, out, err = _main_in_process(args, canonical_dumps(payload))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"code": "InputError", "message": "hodge line vector must be nonzero"}


def test_lift_search_flat_decomposition_gram():
    # a flat m = 1 Gram of plain ints is read row-major with the square-root rank
    nested = _finite_height_payload()
    flat = _finite_height_payload()
    flat["decomposition"]["gram"] = [0, 1, 1, 0]
    first = run_cli(["lift-search", "--mode", "finite-height"], nested)
    second = run_cli(["lift-search", "--mode", "finite-height"], flat)
    assert first.returncode == second.returncode == 0
    assert second.stdout == first.stdout


# -- transport-level behaviors ------------------------------------------------------


def test_bad_json_exit_1():
    proc = run_cli(["verify"], "{broken")
    assert proc.returncode == 1
    assert err_json(proc)["code"] == "InputError"


def test_deeply_nested_json_exit_1():
    proc = run_cli(["isotropic-lift"], "[" * 100_000)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.count(b"\n") == 1
    assert err_json(proc) == {"code": "InputError", "message": "malformed JSON input: nested too deeply"}


def test_unknown_flag_exit_1():
    proc = run_cli(["constraints", "--bogus"])
    assert proc.returncode == 1
    assert err_json(proc)["code"] == "InputError"


def test_missing_subcommand_exit_1():
    proc = run_cli([])
    assert proc.returncode == 1


def test_in_file(tmp_path):
    path = tmp_path / "payload.json"
    path.write_text(canonical_dumps(_a2_isometry_payload()))
    proc = run_cli(["eig-split", "--in", str(path)])
    assert proc.returncode == 0
    assert out_json(proc)["ranks"] == [0, 1, 1]


def test_in_file_missing(tmp_path):
    proc = run_cli(["eig-split", "--in", str(tmp_path / "absent.json")])
    assert proc.returncode == 1
    assert err_json(proc)["code"] == "InputError"


def test_output_is_canonical_json():
    proc = run_cli(["constraints", "--thresholds", "13"])
    text = proc.stdout.decode()
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert canonical_dumps(parsed) == text
