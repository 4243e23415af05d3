"""Command-line front end.

Subcommands expose the library's main entry points with machine-readable
output: stdout carries exactly one JSON document (or CSV when requested)
and human-oriented summaries go to stderr, so pipelines can consume the
payload directly.  Exit codes: 0 success / verification pass, 1
verification failure, 2 usage error (empty stdout), 3 runtime error
(JSON error payload on stdout).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import EvalError, LoadError, NhkError, ParseError
from .jacobiator import _applicable_methods, cross_validate, jacobiator_tensor
from .manifold import (NonholonomicSystem, PointM, adapted_coframe,
                       load_system)
from .sim import integrate, trajectory_csv
from .systems import builtin_definition, list_builtins

__all__ = ["CommandOutcome", "run", "main"]

SCHEMA = "nhk/1"


@dataclass(frozen=True)
class CommandOutcome:
    """Result of one CLI invocation: the exit code, the exact stdout
    text (JSON or CSV; empty on usage errors) and the stderr text."""
    exit_code: int
    payload: str
    summary: str


class _CliExit(Exception):
    """Internal control flow: terminate the command with a status and a
    stderr message, keeping stdout empty."""

    def __init__(self, status: int, message: str = ""):
        super().__init__(message)
        self.status = status
        self.message = message


class _Parser(argparse.ArgumentParser):
    """argparse variant that never writes or exits by itself; usage and
    help text are routed through CommandOutcome.summary (stderr)."""

    def error(self, message):
        raise _CliExit(2, f"{self.format_usage()}error: {message}")

    def print_help(self, file=None):
        raise _CliExit(0, self.format_help())

    def exit(self, status=0, message=None):
        raise _CliExit(status, message or "")


def _dumps(doc: dict) -> str:
    """doc as strict JSON (RFC 8259): a non-finite number in it raises
    EvalError, which ``run`` reports as an error payload."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise EvalError("the payload holds a non-finite number, which "
                        "JSON cannot represent") from None


def _error_payload(err: NhkError) -> dict:
    detail = {"type": type(err).__name__, "message": str(err)}
    if isinstance(err, ParseError) and getattr(err, "offset", None) is not None:
        detail["offset"] = err.offset
    if isinstance(err, LoadError):
        detail["violations"] = list(err.violations)
    return {"schema": SCHEMA, "error": detail}


# ------------------------------------------------------------- arguments
def _parse_assignments(text: str, flag: str) -> dict:
    """Parse 'name=value,name=value' into an ordered dict of floats; a
    name given twice is a usage error."""
    out: dict = {}
    if not text:
        return out
    for item in text.split(","):
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or not name:
            raise _CliExit(2, f"{flag} expects name=value pairs, got {item!r}")
        if name in out:
            raise _CliExit(2, f"{flag}: {name} is given more than once")
        try:
            out[name] = float(value)
        except ValueError:
            raise _CliExit(
                2, f"{flag}: {name} needs a numeric value, got {value!r}"
            ) from None
    return out


def _load_target(args) -> NonholonomicSystem:
    if getattr(args, "file", None):
        with open(args.file, "r", encoding="utf-8") as fh:
            return load_system(fh.read())
    return load_system(builtin_definition(args.system))


def _resolve_point(system: NonholonomicSystem, assigns: dict):
    """Fill unspecified base coordinates with domain midpoints (0 when
    unbounded) and unspecified momenta with 0; echo the full point."""
    names = system.chart_names
    unknown = sorted(set(assigns) - set(names))
    if unknown:
        raise _CliExit(2, f"unknown point coordinate(s) {unknown}; "
                          f"valid names: {', '.join(names)}")
    values = []
    for i, name in enumerate(names):
        if name in assigns:
            values.append(assigns[name])
        elif i < system.n and name in system.domain:
            lo, hi = system.domain[name]
            values.append((lo + hi) / 2.0)
        else:
            values.append(0.0)
    point = PointM(values[:system.n], values[system.n:])
    system.check_point(point)
    echo = {name: v for name, v in zip(names, values)}
    return point, echo


def _covector_basis(system: NonholonomicSystem, point: PointM, basis: str):
    if basis == "adapted":
        if system.adapted is None and system.d_frame is None:
            raise _CliExit(
                2, "--basis adapted requires a declared frame: an adapted "
                   "declaration or a d_frame")
        return adapted_coframe(system, point.q)
    return system.chart_names, np.eye(system.dimM)


def _resolve_triple(names, triple_text: str):
    parts = [t.strip() for t in triple_text.split(",")]
    if len(parts) != 3:
        raise _CliExit(2, f"--triple expects three comma-separated covector "
                          f"names, got {triple_text!r}")
    idx = []
    for part in parts:
        if part in names:
            idx.append(names.index(part))
        else:
            try:
                i = int(part)
            except ValueError:
                raise _CliExit(2, f"unknown covector {part!r}; valid names: "
                                  f"{', '.join(names)}") from None
            if not 0 <= i < len(names):
                raise _CliExit(2, f"covector index {i} out of range "
                                  f"[0, {len(names)})")
            idx.append(i)
    return idx


# ------------------------------------------------------------ subcommands
def _cmd_list(args) -> CommandOutcome:
    entries = []
    lines = []
    for name in list_builtins():
        doc = builtin_definition(name)
        n = len(doc["coords"])
        k = doc["constraints_rank"]
        entries.append({
            "name": name,
            "coords": doc["coords"],
            "constraints_rank": k,
            "dimM": 2 * n - k,
            "adapted": doc.get("adapted") is not None,
            "params": doc["params"],
        })
        lines.append(f"{name}: n={n} k={k} coords=({', '.join(doc['coords'])})")
    payload = {"schema": SCHEMA, "systems": entries}
    return CommandOutcome(0, _dumps(payload), "\n".join(lines))


def _cmd_export(args) -> CommandOutcome:
    doc = builtin_definition(args.system)
    payload = {"schema": SCHEMA, **doc}
    return CommandOutcome(0, _dumps(payload),
                          f"definition of {args.system} "
                          "(loadable via verify --file)")


def _cmd_verify(args) -> CommandOutcome:
    if not args.system and not args.file:
        args.system = "snakeboard"
    system = _load_target(args)
    report = cross_validate(system, samples=args.samples, seed=args.seed,
                            tol=args.tol)
    payload = {"schema": SCHEMA, **report.to_json_dict()}
    verdict = "PASS" if report.passed else "FAIL"
    summary = (f"verify {report.system}: {verdict} "
               f"(max |Delta| = {report.max_abs_discrepancy:.3e}, "
               f"tol = {report.tol:g}, {report.samples} points, "
               f"methods: {', '.join(report.methods)})")
    if report.failures:
        summary += f"; {len(report.failures)} discrepant value(s)"
    if report.skipped:
        summary += f"; {len(report.skipped)} skipped point(s)"
    if not report.compared:
        summary += "; no point was compared, so nothing was verified"
    return CommandOutcome(0 if report.passed else 1, _dumps(payload), summary)


def _cmd_jacobiator(args) -> CommandOutcome:
    system = _load_target(args)
    point, echo = _resolve_point(
        system, _parse_assignments(args.point, "--point"))
    names, rows = _covector_basis(system, point, args.basis)
    idx = _resolve_triple(names, args.triple)
    a, b, c = (rows[i] for i in idx)

    if args.method == "km" and system.adapted is None:
        raise _CliExit(2, "--method km requires a system declared in "
                          "adapted coordinates")
    if args.method == "all":
        methods = _applicable_methods(system)
    else:
        methods = [{"brute": "bruteforce"}.get(args.method, args.method)]

    values = {}
    lines = []
    for m in methods:
        T = jacobiator_tensor(system, point, m)
        v = float(np.einsum("ijk,i,j,k->", T, a, b, c))
        values[m] = {"pipi": v, "half_pipi": v / 2.0}
        lines.append(f"{m}: pipi = {v:.12g}")
    if len(methods) > 1:
        vals = [values[m]["pipi"] for m in methods]
        spread = max(vals) - min(vals)
        lines.append(f"method agreement: max |Delta| = {spread:.3e}")

    payload = {
        "schema": SCHEMA,
        "system": system.name,
        "basis": args.basis,
        "triple": [names[i] for i in idx],
        "point": echo,
        "methods": values,
    }
    return CommandOutcome(0, _dumps(payload), "\n".join(lines))


def _cmd_simulate(args) -> CommandOutcome:
    system = _load_target(args)
    init, echo = _resolve_point(
        system, _parse_assignments(args.init, "--init"))
    traj = integrate(system, init, args.dt, args.steps)
    csv_text = trajectory_csv(traj)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)

    final = traj.states[-1]
    final_echo = {name: v for name, v in zip(
        system.chart_names, [*final.q, *final.ptilde])}
    diag = traj.diagnostics
    summary = (f"simulate {system.name}: {len(traj.times) - 1}/{args.steps} "
               f"steps at dt = {args.dt:g}; energy drift "
               f"{diag['max_energy_drift']:.3e}; max residual "
               f"{diag['max_residual']:.3e}")
    if not traj.completed:
        summary += f" [truncated: {traj.exit_reason}]"
    if args.out:
        summary += f"; CSV written to {args.out}"

    if args.format == "csv":
        return CommandOutcome(0, csv_text, summary)
    payload = {
        "schema": SCHEMA,
        "system": system.name,
        "dt": args.dt,
        "steps": args.steps,
        "recorded": len(traj.times),
        "completed": traj.completed,
        "exit_reason": traj.exit_reason,
        "initial": echo,
        "final": final_echo,
        "diagnostics": diag,
        "out": args.out,
    }
    return CommandOutcome(0, _dumps(payload), summary)


def _cmd_eval(args) -> CommandOutcome:
    at = _parse_assignments(args.at, "--at")
    wrt = [w.strip() for w in args.wrt.split(",") if w.strip()] \
        if args.wrt else []
    for i, name in enumerate(wrt):
        if name in wrt[:i]:
            raise _CliExit(2, f"--wrt: {name} is given more than once")
    parsed = ex.parse(args.expr)
    resolved = ex.resolve(parsed, set(at), set())
    jet = ex.eval_expr(resolved, at, {}, wrt, order=2 if wrt else 0)

    payload = {
        "schema": SCHEMA,
        "expr": ex.format_expr(resolved),
        "at": at,
        "wrt": wrt,
        "value": jet.value,
    }
    line = f"{ex.format_expr(resolved)} = {jet.value:.12g}"
    if wrt:
        payload["grad"] = {name: float(g) for name, g in zip(wrt, jet.grad)}
        payload["hess"] = {
            ni: {nj: float(jet.hess[i, j]) for j, nj in enumerate(wrt)}
            for i, ni in enumerate(wrt)
        }
        line += (f"; grad = {[float(g) for g in jet.grad]}"
                 f"; hess = {[[float(h) for h in row] for row in jet.hess]}")
    return CommandOutcome(0, _dumps(payload), line)


# ----------------------------------------------------------------- parser
def _add_system_source(sub, required: bool = True):
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--system", choices=list_builtins(), metavar="NAME",
                       help="built-in system name "
                            f"({', '.join(list_builtins())})")
    group.add_argument("--file", metavar="PATH",
                       help="path to a system-definition JSON document")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="nhk",
        description="Induced-bracket geometry of nonholonomic systems: "
                    "verification, Jacobiator evaluation, simulation and "
                    "expression debugging.")
    subs = parser.add_subparsers(dest="cmd", metavar="COMMAND")

    p = subs.add_parser("list", help="list built-in systems",
                        description="List the built-in systems.")
    p.set_defaults(func=_cmd_list)

    p = subs.add_parser(
        "export", help="print a built-in definition document",
        description="Print the JSON definition document of a built-in "
                    "system; the output is loadable via --file.")
    p.add_argument("--system", choices=list_builtins(), metavar="NAME",
                   required=True,
                   help=f"built-in system name ({', '.join(list_builtins())})")
    p.set_defaults(func=_cmd_export)

    p = subs.add_parser(
        "verify", help="cross-validate the Jacobiator routes",
        description="Evaluate the Jacobiator by every applicable route "
                    "(direct differentiation, curvature formula, and the "
                    "adapted-coordinate closed forms when declared) over a "
                    "deterministic sample sweep, and report any pairwise "
                    "discrepancy beyond tolerance.  Without --system/--file "
                    "the snakeboard is verified.")
    _add_system_source(p, required=False)
    p.add_argument("--samples", type=int, default=100, metavar="N",
                   help="number of sample points (default 100)")
    p.add_argument("--seed", type=int, default=42, metavar="S",
                   help="sampling seed (default 42)")
    p.add_argument("--tol", type=float, default=1e-8, metavar="T",
                   help="pairwise agreement tolerance (default 1e-8)")
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser(
        "jacobiator", help="evaluate the Jacobiator on one covector triple",
        description="Evaluate the Jacobiator (three-term cyclic sum, "
                    "reported as column 'pipi', with 'half_pipi' = pipi/2) "
                    "on a covector triple at a point.")
    _add_system_source(p)
    p.add_argument("--point", default="", metavar="k=v,...",
                   help="point assignments; unspecified base coordinates "
                        "default to domain midpoints (0 when unbounded), "
                        "momenta to 0")
    p.add_argument("--triple", required=True, metavar="a,b,c",
                   help="three covector names (or indices) in the chosen "
                        "basis")
    p.add_argument("--method", choices=["brute", "global", "km", "all"],
                   default="all",
                   help="evaluation route(s) (default all applicable)")
    p.add_argument("--basis", choices=["chart", "adapted"], default="chart",
                   help="covector basis: chart differentials, or the "
                        "frame-adapted coframe (systems with an adapted "
                        "declaration or a d_frame only)")
    p.set_defaults(func=_cmd_jacobiator)

    p = subs.add_parser(
        "simulate", help="integrate the nonholonomic dynamics",
        description="Fixed-step RK4 integration of the nonholonomic vector "
                    "field, recording energy and constraint residual.")
    _add_system_source(p)
    p.add_argument("--init", default="", metavar="k=v,...",
                   help="initial point assignments (defaults as in --point)")
    p.add_argument("--dt", type=float, required=True, metavar="D",
                   help="time step (positive)")
    p.add_argument("--steps", type=int, required=True, metavar="N",
                   help="number of steps (positive)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the trajectory CSV to PATH")
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="stdout payload: JSON summary (default) or the "
                        "trajectory CSV")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser(
        "eval", help="evaluate an expression with derivatives",
        description="Parse an expression of the system grammar and "
                    "evaluate it with first and second derivatives.")
    p.add_argument("--expr", required=True, metavar="STR",
                   help="expression text")
    p.add_argument("--at", default="", metavar="name=val,...",
                   help="variable bindings")
    p.add_argument("--wrt", default="", metavar="name,...",
                   help="differentiate with respect to these variables")
    p.set_defaults(func=_cmd_eval)

    return parser


def run(argv) -> CommandOutcome:
    """Execute one CLI invocation without touching process state."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        func = getattr(args, "func", None)
        if func is None:
            raise _CliExit(2, parser.format_usage() +
                           "error: a subcommand is required")
        return func(args)
    except _CliExit as stop:
        return CommandOutcome(stop.status, "", stop.message)
    except NhkError as err:
        return CommandOutcome(3, _dumps(_error_payload(err)),
                              f"error: {err}")
    except OSError as err:
        detail = {"type": type(err).__name__, "message": str(err)}
        return CommandOutcome(3, _dumps({"schema": SCHEMA, "error": detail}),
                              f"error: {err}")


def main(argv=None) -> int:
    outcome = run(sys.argv[1:] if argv is None else argv)
    if outcome.payload:
        sys.stdout.write(outcome.payload)
    if outcome.summary:
        sys.stderr.write(outcome.summary)
        if not outcome.summary.endswith("\n"):
            sys.stderr.write("\n")
    return outcome.exit_code
