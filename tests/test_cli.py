"""Command-line interface: payload schemas, exit codes, stdout/stderr
separation, determinism, and error reporting."""

import json
import math
import warnings

import numpy as np
import pytest

from nhk import PointM, adapted_coframe, builtin_definition, jacobiator_tensor
from nhk.cli import CommandOutcome, main, run
from nhk.jet import NONFINITE
from nhk.systems import snakeboard_expected

SCHEMA = "nhk/1"


def _no_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def run_json(argv, expect_code=0):
    out = run(argv)
    assert out.exit_code == expect_code, out.summary
    doc = json.loads(out.payload, parse_constant=_no_constant)
    assert doc["schema"] == SCHEMA
    return doc, out


# ------------------------------------------------------------------- list


def test_list():
    doc, out = run_json(["list"])
    names = [s["name"] for s in doc["systems"]]
    assert names == ["nh_particle", "rolling_disk", "snakeboard"]
    by_name = {s["name"]: s for s in doc["systems"]}
    assert by_name["snakeboard"]["dimM"] == 8
    assert by_name["snakeboard"]["adapted"] is False
    assert by_name["nh_particle"]["adapted"] is True
    assert by_name["nh_particle"]["params"] == {}
    assert "snakeboard" in out.summary


# ----------------------------------------------------------------- export


def test_export_round_trips_through_verify(tmp_path):
    doc, _ = run_json(["export", "--system", "nh_particle"])
    assert doc["coords"] == ["x", "y", "z"]
    path = tmp_path / "particle.json"
    path.write_text(json.dumps(doc))
    verdict, out = run_json(["verify", "--file", str(path),
                             "--samples", "5"])
    assert verdict["pass"] is True
    assert "PASS" in out.summary


def test_export_requires_known_system():
    out = run(["export", "--system", "pendulum"])
    assert out.exit_code == 2
    assert out.payload == ""
    assert "error" in out.summary


# ----------------------------------------------------------------- verify


def test_verify_defaults_to_snakeboard():
    doc, out = run_json(["verify", "--samples", "5"])
    assert doc["system"] == "snakeboard"
    assert doc["pass"] is True and doc["compared"] == 5
    assert out.summary.startswith("verify snakeboard: PASS")


def test_verify_is_deterministic():
    a = run(["verify", "--samples", "8", "--seed", "7"])
    b = run(["verify", "--samples", "8", "--seed", "7"])
    assert a == b
    assert a.exit_code == 0


def test_verify_failure_exits_one():
    doc, out = run_json(["verify", "--samples", "5", "--tol", "1e-18"],
                        expect_code=1)
    assert doc["pass"] is False
    assert doc["failures"]
    assert "FAIL" in out.summary


def test_verify_that_compared_nothing_fails(tmp_path):
    # every point is skipped: the kernel's second derivative of
    # sin(exp(x)) overflows on this domain
    doc = builtin_definition("nh_particle")
    doc["constraint_forms"] = [["-y*sin(exp(x))", "0", "1"]]
    doc["domain"] = {"x": [699.0, 700.0]}
    path = tmp_path / "vacuous.json"
    path.write_text(json.dumps(doc))
    verdict, out = run_json(["verify", "--file", str(path), "--samples", "4",
                             "--seed", "1"], expect_code=1)
    assert verdict["pass"] is False and verdict["failures"] == []
    assert verdict["compared"] == 0 and len(verdict["skipped"]) == 4
    assert out.summary.startswith("verify nh_particle: FAIL")
    assert out.summary.endswith("; 4 skipped point(s); no point was "
                                "compared, so nothing was verified")


@pytest.mark.parametrize("flag, value", [
    ("--tol", "nan"), ("--tol", "-1"), ("--tol", "inf"),
    ("--samples", "0"), ("--samples", "-1"),
])
def test_verify_rejects_meaningless_arguments(flag, value):
    # nan would pass every comparison, 0 samples check nothing, and a
    # negative tolerance fails every value: a parameter error (exit 3),
    # not a verdict
    doc, out = run_json(["verify", "--system", "nh_particle", flag, value],
                        expect_code=3)
    assert doc["error"]["type"] == "ParameterError"
    assert flag[2:] in doc["error"]["message"]
    assert out.summary.startswith("error:")


def test_verify_rejects_both_sources(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{}")
    out = run(["verify", "--system", "snakeboard", "--file", str(path)])
    assert out.exit_code == 2
    assert out.payload == ""


def test_verify_bad_file_is_a_runtime_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": 3}')
    doc, out = run_json(["verify", "--file", str(path)], expect_code=3)
    assert doc["error"]["type"] == "LoadError"
    assert doc["error"]["violations"]
    assert out.summary.startswith("error:")


def test_missing_file_is_a_runtime_error():
    doc, _ = run_json(["verify", "--file", "/no/such/file.json"],
                      expect_code=3)
    assert doc["error"]["type"] == "FileNotFoundError"


# ------------------------------------------------------------- jacobiator


def test_jacobiator_snakeboard_closed_form():
    doc, out = run_json([
        "jacobiator", "--system", "snakeboard",
        "--triple", "ptilde_phi,ptilde_S,psi", "--point", "phi=0.4",
    ])
    assert set(doc["methods"]) == {"bruteforce", "global"}
    expected = snakeboard_expected(
        "jac_ppsi", np.array([0.0, 0.0, 0.0, 0.0, 0.4]))
    for m in doc["methods"].values():
        assert m["pipi"] == pytest.approx(expected, rel=1e-9)
        assert m["half_pipi"] == pytest.approx(m["pipi"] / 2.0, rel=1e-15)
    assert doc["triple"] == ["ptilde_phi", "ptilde_S", "psi"]
    assert doc["point"]["phi"] == 0.4
    assert doc["point"]["x"] == 0.0  # defaulted
    assert "method agreement" in out.summary


def test_jacobiator_accepts_indices():
    by_name, _ = run_json([
        "jacobiator", "--system", "snakeboard",
        "--triple", "ptilde_phi,ptilde_S,psi", "--point", "phi=0.4",
    ])
    by_index, _ = run_json([
        "jacobiator", "--system", "snakeboard",
        "--triple", "6,7,3", "--point", "phi=0.4",
    ])
    assert by_index["methods"] == by_name["methods"]
    assert by_index["triple"] == ["ptilde_phi", "ptilde_S", "psi"]


def test_jacobiator_adapted_basis_on_snakeboard():
    doc, _ = run_json([
        "jacobiator", "--system", "snakeboard", "--basis", "adapted",
        "--triple", "ptilde_phi,ptilde_S,eps1", "--point", "phi=0.4",
    ])
    expected = snakeboard_expected(
        "jac_eps1", np.array([0.0, 0.0, 0.0, 0.0, 0.4]))
    assert doc["methods"]["global"]["pipi"] == pytest.approx(
        expected, rel=1e-9)


def test_jacobiator_all_methods_on_adapted_system(particle):
    point = PointM([0.3, -0.2, 0.1], [0.7, -0.4])
    names, rows = adapted_coframe(particle, point.q)
    assert names == ("x", "y", "eps1", "ptilde_x", "ptilde_y")
    doc, _ = run_json([
        "jacobiator", "--system", "nh_particle", "--basis", "adapted",
        "--triple", "ptilde_x,ptilde_y,eps1",
        "--point", "x=0.3,y=-0.2,z=0.1,ptilde_x=0.7,ptilde_y=-0.4",
    ])
    assert set(doc["methods"]) == {"bruteforce", "global", "km"}
    # the CLI value is the tensor contracted with the coframe rows
    T = jacobiator_tensor(particle, point, "bruteforce")
    direct = float(np.einsum("ijk,i,j,k->", T, rows[3], rows[4], rows[2]))
    for m in doc["methods"].values():
        assert m["pipi"] == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_jacobiator_matches_direct_contraction(particle):
    point = PointM([0.3, -0.2, 0.1], [0.7, -0.4])
    T = jacobiator_tensor(particle, point, "bruteforce")
    direct = float(T[3, 4, 2])  # (dptilde_x, dptilde_y, dz)
    doc, _ = run_json([
        "jacobiator", "--system", "nh_particle",
        "--triple", "ptilde_x,ptilde_y,z",
        "--point", "x=0.3,y=-0.2,z=0.1,ptilde_x=0.7,ptilde_y=-0.4",
    ])
    for m in doc["methods"].values():
        assert m["pipi"] == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_jacobiator_single_method():
    doc, out = run_json([
        "jacobiator", "--system", "nh_particle", "--method", "brute",
        "--triple", "ptilde_x,ptilde_y,z",
    ])
    assert list(doc["methods"]) == ["bruteforce"]
    assert "method agreement" not in out.summary


def test_km_needs_adapted_coordinates():
    out = run(["jacobiator", "--system", "snakeboard", "--method", "km",
               "--triple", "0,1,2"])
    assert out.exit_code == 2
    assert out.payload == ""
    assert "adapted" in out.summary


def test_adapted_basis_gating(tmp_path, kernel_path):
    # the adapted coframe needs a declared frame (adapted or d_frame);
    # the system's name plays no part
    refused = [kernel_path.definition,
               dict(kernel_path.definition, name="snakeboard")]
    accepted = [dict(builtin_definition("snakeboard"), name="board")]
    for doc, code in [(d, 2) for d in refused] + [(d, 0) for d in accepted]:
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        out = run(["jacobiator", "--file", str(path), "--basis", "adapted",
                   "--triple", "0,1,2"])
        assert out.exit_code == code, (doc["name"], out.summary)
        if code == 2:
            assert "adapted" in out.summary


def test_jacobiator_usage_errors():
    base = ["jacobiator", "--system", "nh_particle"]
    for extra, frag in [
        (["--triple", "x,y"], "expects three"),
        (["--triple", "x,y,zz"], "unknown covector"),
        (["--triple", "0,1,99"], "out of range"),
        (["--triple", "0,1,2", "--point", "w=1"], "unknown point"),
        (["--triple", "0,1,2", "--point", "x=abc"], "numeric value"),
        (["--triple", "0,1,2", "--point", "x:1"], "name=value"),
    ]:
        out = run(base + extra)
        assert out.exit_code == 2, (extra, out.summary)
        assert out.payload == ""
        assert frag in out.summary


def test_jacobiator_out_of_domain_point():
    doc, _ = run_json([
        "jacobiator", "--system", "snakeboard",
        "--triple", "0,1,2", "--point", "phi=1.6",
    ], expect_code=3)
    assert doc["error"]["type"] == "DomainError"


# --------------------------------------------------------------- simulate


def test_simulate_json_payload():
    doc, out = run_json([
        "simulate", "--system", "nh_particle",
        "--init", "ptilde_x=1,ptilde_y=0.5",
        "--dt", "0.001", "--steps", "50",
    ])
    assert doc["system"] == "nh_particle"
    assert doc["recorded"] == 51
    assert doc["completed"] is True
    assert doc["exit_reason"] is None
    assert doc["initial"]["ptilde_x"] == 1.0
    assert doc["initial"]["x"] == 0.0
    assert set(doc["final"]) == {"x", "y", "z", "ptilde_x", "ptilde_y"}
    assert doc["diagnostics"]["max_energy_drift"] < 1e-10
    assert "50/50 steps" in out.summary


def test_simulate_csv_format_and_out_agree(tmp_path):
    path = tmp_path / "traj.csv"
    args = ["simulate", "--system", "nh_particle",
            "--init", "ptilde_x=1", "--dt", "0.01", "--steps", "5"]
    csv_out = run(args + ["--format", "csv"])
    assert csv_out.exit_code == 0
    assert csv_out.payload.splitlines()[0] == \
        "t,x,y,z,ptilde_x,ptilde_y,energy,residual"
    doc, _ = run_json(args + ["--out", str(path)])
    assert doc["out"] == str(path)
    assert path.read_text() == csv_out.payload


def test_simulate_truncation_is_reported():
    doc, out = run_json([
        "simulate", "--system", "snakeboard",
        "--init", "phi=1.5,ptilde_phi=10", "--dt", "0.01", "--steps", "50",
    ])
    assert doc["completed"] is False
    assert "left the valid domain" in doc["exit_reason"]
    assert doc["recorded"] < 51
    assert "[truncated:" in out.summary


def test_simulate_domain_midpoint_default(tmp_path, snakeboard):
    # unset phi defaults to the midpoint of its declared interval: 0
    doc, _ = run_json([
        "simulate", "--system", "snakeboard", "--dt", "0.001",
        "--steps", "1",
    ])
    assert doc["initial"]["phi"] == 0.0


def test_simulate_bad_dt():
    out = run(["simulate", "--system", "nh_particle", "--dt", "abc",
               "--steps", "5"])
    assert out.exit_code == 2  # argparse type failure
    doc, _ = run_json([
        "simulate", "--system", "nh_particle", "--dt", "-0.1",
        "--steps", "5",
    ], expect_code=3)
    assert doc["error"]["type"] == "ParameterError"
    doc, _ = run_json([
        "simulate", "--system", "nh_particle", "--dt", "inf",
        "--steps", "5",
    ], expect_code=3)
    assert doc["error"]["type"] == "ParameterError"


def test_simulate_requires_dt_and_steps():
    out = run(["simulate", "--system", "nh_particle", "--steps", "5"])
    assert out.exit_code == 2
    out = run(["simulate", "--system", "nh_particle", "--dt", "0.1"])
    assert out.exit_code == 2


# ------------------------------------------------------------------- eval


def test_eval_with_derivatives():
    doc, out = run_json([
        "eval", "--expr", "x^2*sin(y)", "--at", "x=2,y=0.5",
        "--wrt", "x,y",
    ])
    assert doc["value"] == pytest.approx(4 * math.sin(0.5), rel=1e-15)
    assert doc["grad"]["x"] == pytest.approx(4 * math.sin(0.5), rel=1e-15)
    assert doc["grad"]["y"] == pytest.approx(4 * math.cos(0.5), rel=1e-15)
    assert doc["hess"]["x"]["y"] == pytest.approx(
        4 * math.cos(0.5), rel=1e-15)
    assert doc["hess"]["y"]["y"] == pytest.approx(
        -4 * math.sin(0.5), rel=1e-15)
    assert "=" in out.summary


@pytest.mark.parametrize("argv, flag, name", [
    (["eval", "--expr", "x^2", "--at", "x=2", "--wrt", "x,x"], "--wrt", "x"),
    (["eval", "--expr", "x*y", "--at", "x=2,y=3", "--wrt", "y, x,y"],
     "--wrt", "y"),
    (["eval", "--expr", "x^2", "--at", "x=1,x=2"], "--at", "x"),
    (["jacobiator", "--system", "nh_particle", "--triple", "0,1,2",
      "--point", "y=1, y=2"], "--point", "y"),
    (["simulate", "--system", "nh_particle", "--dt", "0.01", "--steps", "2",
      "--init", "ptilde_x=1,ptilde_x=1"], "--init", "ptilde_x"),
], ids=["wrt", "wrt-spaced", "at", "point", "init"])
def test_a_repeated_name_is_a_usage_error(argv, flag, name):
    out = run(argv)
    assert out.exit_code == 2
    assert out.payload == ""
    assert f"{flag}: {name} is given more than once" in out.summary


@pytest.mark.parametrize("argv, name", [
    (["eval", "--expr", "x", "--at", "x=1", "--wrt", "y"], "y"),
    (["eval", "--expr", "x", "--at", "x=1", "--wrt", "1bad"], "1bad"),
    (["eval", "--expr", "x*y", "--at", "x=1,y=2", "--wrt", "x, z"], "z"),
    # checked before the expression is parsed
    (["eval", "--expr", "sin(x", "--at", "x=1", "--wrt", "y"], "y"),
], ids=["unbound", "malformed", "unbound-second", "before-parse"])
def test_an_unbound_wrt_name_is_a_usage_error(argv, name):
    out = run(argv)
    assert out.exit_code == 2
    assert out.payload == ""
    assert f"--wrt: {name} is not bound by --at" in out.summary


def test_eval_value_only():
    doc, _ = run_json(["eval", "--expr", "exp(1)", "--at", ""])
    assert doc["value"] == pytest.approx(math.e, rel=1e-15)
    assert "grad" not in doc
    assert doc["wrt"] == []


def test_eval_parse_error_payload():
    doc, _ = run_json(["eval", "--expr", "sin(x"], expect_code=3)
    assert doc["error"]["type"] == "ParseError"
    assert doc["error"]["offset"] == 5


def test_eval_unbound_name():
    doc, _ = run_json(["eval", "--expr", "x+y", "--at", "x=1"],
                      expect_code=3)
    assert doc["error"]["type"] == "EvalError"


def test_eval_domain_failure():
    doc, _ = run_json(["eval", "--expr", "ln(0-1)"], expect_code=3)
    assert doc["error"]["type"] == "EvalError"


@pytest.mark.parametrize("wrt", [[], ["--wrt", "x"]], ids=["value", "wrt"])
def test_eval_error_names_its_offset_in_the_message(wrt):
    # the AST walker names the failing node's offset in the message; the
    # payload has no separate offset field, as a ParseError's has
    message = "ln of non-positive value -1.0 (at offset 4)"
    doc, out = run_json(["eval", "--expr", "x + ln(x)", "--at", "x=-1", *wrt],
                        expect_code=3)
    assert doc["error"] == {"type": "EvalError", "message": message}
    assert out.summary == f"error: {message}"


@pytest.mark.parametrize("expr, at, message", [
    ("exp(x)", "x=1000", "exp has no finite value or derivative at 1000.0"),
    ("sin(x)", "x=inf", "sin has no finite value or derivative at inf"),
    ("x^6", "x=1e60", "power 6 has no finite value or derivative at 1e+60"),
], ids=["exp", "sin", "pow"])
def test_eval_beyond_the_float_range_is_an_eval_error(expr, at, message):
    # a runtime error (exit 3), not a traceback with exit 1
    doc, out = run_json(["eval", "--expr", expr, "--at", at], expect_code=3)
    assert doc["error"]["type"] == "EvalError"
    assert doc["error"]["message"].startswith(message)
    assert out.summary.startswith(f"error: {message}")


def test_eval_of_arithmetic_beyond_the_float_range_is_an_eval_error():
    # x*x overflows to inf, which no function rule guards
    doc, out = run_json(["eval", "--expr", "x*x", "--at", "x=1e200"],
                        expect_code=3)
    assert doc["error"] == {"type": "EvalError", "message": NONFINITE}
    assert out.summary == f"error: {NONFINITE}"


@pytest.mark.parametrize("argv, message", [
    (["eval", "--expr", "x*x*x", "--at", "x=1e200", "--wrt", "x"],
     NONFINITE),
    (["eval", "--expr", "exp(x)*exp(x)", "--at", "x=400", "--wrt", "x"],
     NONFINITE),
    (["jacobiator", "--system", "nh_particle", "--triple", "x,y,z",
      "--point", "ptilde_x=1e308"],
     "the bruteforce route has a non-finite value"),
    (["simulate", "--system", "nh_particle", "--init", "ptilde_x=1e155",
      "--dt", "0.01", "--steps", "3"],
     "the Hamiltonian or its differential has no finite value"),
    (["simulate", "--system", "nh_particle", "--init", "ptilde_x=1e200",
      "--dt", "0.01", "--steps", "3"],
     "the Hamiltonian or its differential has no finite value"),
    (["simulate", "--system", "nh_particle", "--init", "ptilde_x=1e200",
      "--dt", "1", "--steps", "2"],
     "the Hamiltonian or its differential has no finite value"),
], ids=["eval-cube", "eval-exp", "jacobiator", "simulate-1e155",
        "simulate-1e200", "simulate-dt1"])
def test_a_derivative_beyond_the_float_range_is_an_eval_error(argv, message):
    # exit 3 with the error payload, not exit 1 with a traceback, when the
    # derivatives hold an inf or NaN, whatever the caller's filter for
    # numpy's overflow warning: an error (as in this suite), the default,
    # which would print it, or ignored; and no warning is shown
    for action in ("error", "default", "ignore"):
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter(action, RuntimeWarning)
            doc, out = run_json(argv, expect_code=3)
        assert doc["error"] == {"type": "EvalError", "message": message}
        assert out.summary == f"error: {message}"
        assert [str(w.message) for w in shown] == []


@pytest.mark.parametrize("argv", [
    ["eval", "--expr", "1", "--at", "x=nan"],
    ["eval", "--expr", "1", "--at", "x=-inf"],
], ids=["nan", "inf"])
def test_a_non_finite_payload_number_is_an_eval_error(argv):
    doc, _ = run_json(argv, expect_code=3)
    assert doc["error"] == {
        "type": "EvalError",
        "message": "the payload holds a non-finite number, which JSON "
                   "cannot represent"}


# ------------------------------------------------------------ shell plumbing


def test_no_subcommand_is_a_usage_error():
    out = run([])
    assert out.exit_code == 2
    assert out.payload == ""
    assert "error" in out.summary


def test_unknown_flag():
    out = run(["list", "--frobnicate"])
    assert out.exit_code == 2
    assert out.payload == ""


def test_help_goes_to_stderr():
    out = run(["--help"])
    assert out.exit_code == 0
    assert out.payload == ""
    assert "COMMAND" in out.summary
    sub = run(["verify", "--help"])
    assert sub.exit_code == 0
    assert sub.payload == ""
    assert "--samples" in sub.summary


def test_main_writes_streams(capsys):
    code = main(["list"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["schema"] == SCHEMA
    assert captured.err.endswith("\n")


def test_main_usage_error_keeps_stdout_empty(capsys):
    code = main(["bogus-command"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err != ""


def test_outcome_is_a_value_object():
    assert CommandOutcome(0, "a", "b") == CommandOutcome(0, "a", "b")
