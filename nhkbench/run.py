#!/usr/bin/env python3
"""Benchmark of the ``nhk`` library and the layers under it.

Run from the root of a source checkout:

    python3 nhkbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

It imports ``nhk`` from ``src/`` of that checkout (there is nothing to
build), makes every input from ``--seed``, runs one workload as a closed
loop with one client in one thread, checks every output it times, and
prints one JSON result line last on stdout.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the same operations untraced and
then traced, reports the per-layer metrics and writes the spans to
``.bench_out/``.  A human-readable table goes to stderr.  METRICS.md
lists every metric, and BENCHMARK.json says why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from itertools import combinations
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("sweep", "trajectory", "queries")
BUILTINS = ("snakeboard", "rolling_disk", "nh_particle")

DT = 0.01                 # fixed RK4 step
POOL = 2                  # sweep seeds and initial states per system, cycled
TOL = 1e-8                # cross_validate's default agreement tolerance
# setup_s is the median of 5 to 25 cold set-ups, as many as fit in a
# tenth of the run at the time of the first one
SETUP_SHARE, MIN_SETUPS, MAX_SETUPS = 0.1, 5, 25
MAIN_SHARE = 0.6          # share of the loop time for the workload's own loop
MIN_QUERY_CALLS = 1000    # p99 then has at least 10 calls beyond it
# rounds of each loop: each call kind's p90 then has at least 10 calls
# beyond it, and every sweep and RK4 input repeats
MIN_ROUNDS = 100
# Per-call work: cross_validate points and integrate steps per call.
SWEEP_POINTS = {"builtin": 2, "generated": 1}
RK4_STEPS = {"builtin": 15, "generated": 10}
# Trajectory bounds, about 100x the worst seen over 40 seeds of 50-step
# trajectories when the benchmark was written (relative energy drift
# 1.5e-11, constraint residual 5.9e-17).
DRIFT_BOUND = 2e-9
RESIDUAL_BOUND = 1e-14
# Jacobiator routes to evaluate per query point, then the other calls.
QUERY_KINDS = ("bruteforce", "global", "km", "vector_field", "curvature")
MOMENTUM_SCALES = (("p2", 2.0), ("p2e3", 2e3), ("p2e6", 2e6))
STRESS_POINTS = 25        # snakeboard points per momentum scale
MAX_TRACED_PASSES = 5     # bounds the spans kept in memory
QUERY_PASS_POINTS = 4     # query points per traced pass
GROWTH_REPEATS = 3        # compiles per size for compile.compile_growth


def _import_nhk():
    src = ROOT / "src"
    if not (src / "nhk" / "__init__.py").is_file():
        print(f"nhkbench: no nhk package under {src}; run from the root "
              "of a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(BENCH_DIR))
    import nhk
    if Path(nhk.__file__).resolve().parent != (src / "nhk").resolve():
        print(f"nhkbench: imported nhk from {nhk.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return nhk


nhk = _import_nhk()
import gen                              # noqa: E402  (needs sys.path above)
from spans import Tracer                # noqa: E402


# ------------------------------------------------------------------ inputs
class Subject:
    """The systems a workload runs on and their seeded inputs."""

    def __init__(self, kind: str, seed: int):
        self.kind = kind
        self.seed = seed
        if kind == "generated":
            definition = gen.query_system(seed)
            self.texts = (json.dumps(definition),)
            self.chars = gen.system_chars(definition)
        else:
            self.texts = tuple(json.dumps(nhk.builtin_definition(n))
                               for n in BUILTINS)
            self.chars = sum(gen.system_chars(json.loads(t))
                             for t in self.texts)
        self.systems = ()
        self.inputs = []

    def load(self) -> None:
        """Load every system from its JSON text; a fresh system object
        starts with a cold compile cache.  The inputs are made at the
        first load and kept, so that the query point streams go on across
        set-ups."""
        self.systems = tuple(nhk.load_system(t) for t in self.texts)
        if not self.inputs:
            self.inputs = [self._inputs(i, s)
                           for i, s in enumerate(self.systems)]

    def _inputs(self, i: int, s) -> dict:
        n, nk = s.n, s.n - s.k
        boxes = [s.domain.get(c, (-gen.QUERY_BOX, gen.QUERY_BOX))
                 for c in s.coord_names]
        return {
            "sweep_seeds": gen.sub_seeds(self.seed, POOL, i),
            "inits": [nhk.PointM(q, p) for q, p in
                      gen.initial_states(self.seed, s.name, POOL, n, nk)],
            "warm_point": nhk.PointM(*next(gen.query_points(
                self.seed, boxes, nk, salt=2 * i + 1))),
            "points": gen.query_points(self.seed, boxes, nk, salt=2 * i),
        }


# ------------------------------------------------------------------ client
class Client:
    """Closed-loop client: times each public call, counts attempted and
    failed operations, and keeps the first output of every repeated
    input to check later repeats against it."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.first = {}
        self.cursor = {}
        self.errors = []
        self.busy = 0.0
        self.times = {}           # label -> [(seconds, units)] of each call
        self.units = {"points": 0, "steps": 0, "calls": 0, "skipped": 0,
                      "trajectories": 0, "truncated": 0, "recorded": 0}

    def next_index(self, key) -> int:
        i = self.cursor.get(key, 0)
        self.cursor[key] = i + 1
        return i % POOL

    def call(self, phase: str, label: str, units: int, fn, *args, **kwargs):
        """One timed operation, worth ``units`` of work; returns its
        result, or None if it raised.  The time of every call that
        returned is kept under ``label`` ("loop.system[.call kind]")."""
        self.attempted += 1
        span = self.tracer.operation(phase) if self.tracer else nullcontext()
        t0 = perf_counter()
        try:
            with span:
                out = fn(*args, **kwargs)
        except Exception:                     # counted, never fatal
            out = None
            self.fail(traceback.format_exc())
        dt = perf_counter() - t0
        self.busy += dt
        if out is not None:
            self.times.setdefault(label, []).append((dt, units))
        return out

    def loop_times(self, loop: str) -> dict:
        """Label -> [(seconds, units)] of the calls of one loop."""
        return {k: v for k, v in self.times.items()
                if k.startswith(loop + ".")}

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 3:
            self.errors.append(why)

    def check(self, ok: bool, why: str) -> None:
        if not ok:
            self.fail(why)

    def same_as_first(self, key, value) -> bool:
        first = self.first.setdefault(key, value)
        return first == value


# ------------------------------------------------------------- operations
def sweep_round(client: Client, subject: Subject) -> None:
    """cross_validate once on every system."""
    samples = SWEEP_POINTS[subject.kind]
    for s, inp in zip(subject.systems, subject.inputs):
        seed = inp["sweep_seeds"][client.next_index(("sweep", s.name))]
        rep = client.call("op", f"sweep.{s.name}", samples,
                          nhk.cross_validate,
                          s, samples=samples, seed=seed)
        if rep is None:
            continue
        client.units["points"] += samples
        client.units["skipped"] += len(rep.skipped)
        doc = json.dumps(rep.to_json_dict(), sort_keys=True)
        closed_forms = (s.name != "snakeboard" or _closed_forms_hold(
            s, nhk.sample_points(s, 1, seed)[0]))
        client.check(rep.passed and not rep.skipped and closed_forms
                     and client.same_as_first(("sweep", s.name, seed), doc),
                     f"sweep {s.name} seed {seed}: passed={rep.passed}, "
                     f"skipped={len(rep.skipped)}, closed forms="
                     f"{closed_forms}, or report changed")


def _closed_forms_hold(sb, p) -> bool:
    """The adapted-coframe Jacobiator table of the snakeboard against
    snakeboard_expected (the tier-1 acceptance criterion 2 tolerances)."""
    T = nhk.jacobiator_tensor(sb, p, "global")
    names, rows = nhk.adapted_coframe(sb, p.q)
    A = np.einsum("ijk,ai,bj,ck->abc", T, rows, rows, rows)
    i = {name: idx for idx, name in enumerate(names)}
    tested = set()
    for third, key in (("psi", "jac_ppsi"), ("alpha_S", "jac_palphaS"),
                       ("eps1", "jac_eps1"), ("eps2", "jac_eps2")):
        want = nhk.snakeboard_expected(key, p)
        triple = (i["ptilde_phi"], i["ptilde_S"], i[third])
        if abs(A[triple] - want) > 1e-9 * abs(want):
            return False
        tested.add(frozenset(triple))
    return all(abs(A[t]) < 1e-10 for t in combinations(range(sb.dimM), 3)
               if frozenset(t) not in tested)


def rk4_round(client: Client, subject: Subject) -> None:
    """integrate once on every system."""
    steps = RK4_STEPS[subject.kind]
    for s, inp in zip(subject.systems, subject.inputs):
        j = client.next_index(("rk4", s.name))
        tr = client.call("op", f"rk4.{s.name}", steps, nhk.integrate,
                         s, inp["inits"][j], DT, steps)
        if tr is None:
            continue
        client.units["steps"] += len(tr.times) - 1
        client.units["trajectories"] += 1
        client.units["truncated"] += not tr.completed
        client.units["recorded"] += len(tr.times)
        diag = tr.diagnostics
        final = np.concatenate([tr.states[-1].q, tr.states[-1].ptilde])
        client.check(tr.completed
                     and diag["max_energy_drift"] <= DRIFT_BOUND
                     and diag["max_residual"] <= RESIDUAL_BOUND
                     and client.same_as_first(("rk4", s.name, j),
                                              final.tobytes()),
                     f"trajectory {s.name} init {j}: completed="
                     f"{tr.completed}, {diag}, or final state changed")


def query_round(client: Client, subject: Subject) -> None:
    """Every query kind once at a new query point of every system."""
    for s, inp in zip(subject.systems, subject.inputs):
        p = nhk.PointM(*next(inp["points"]))
        tensors = []
        for kind in QUERY_KINDS:
            if kind == "km" and s.adapted is None:
                continue
            label = f"query.{s.name}.{kind}"
            if kind == "vector_field":
                out = client.call("op", label, 1, nhk.nh_vector_field, s, p)
                ok = out is not None and _vector_field_ok(s, p, out)
            elif kind == "curvature":
                out = client.call("op", label, 1, nhk.curvature_coeffs, s, p)
                ok = out is not None and _curvature_ok(s, p, out)
            else:
                out = client.call("op", label, 1, nhk.jacobiator_tensor,
                                  s, p, kind)
                ok = out is not None
                if ok:
                    tensors.append(out)
            client.units["calls"] += 1
            if out is not None:
                client.check(ok, f"query {kind} on {s.name} failed its check")
        if len(tensors) >= 2:
            gap = max(float(np.max(np.abs(a - b)))
                      for a, b in combinations(tensors, 2))
            client.check(gap <= TOL, f"routes disagree by {gap:.3e} on "
                                     f"{s.name}")


def _vector_field_ok(s, p, field) -> bool:
    """Energy is conserved along the field (dH(X_nh) = 0 by antisymmetry
    of the bivector) and the velocity satisfies the constraints."""
    _, dH = nhk.hamiltonian_M(s, p)
    scale = float(np.linalg.norm(dH) * np.linalg.norm(field)) + 1e-300
    eps = nhk.base_at(s, p.q, order=0).eps.val
    qdot = field[:s.n]
    return (abs(float(dH @ field)) <= 1e-10 * scale
            and float(np.max(np.abs(eps @ qdot), initial=0.0))
            <= 1e-10 * (1.0 + float(np.max(np.abs(qdot)))))


def _curvature_ok(s, p, cv) -> bool:
    """K_W on M, paired with zero-momentum lifts of the D-frame, equals
    the curvature on Q of the constraint distribution; the coefficients
    are antisymmetric."""
    n, nk = s.n, s.n - s.k
    X = nhk.base_at(s, p.q, order=0).X.val
    worst = float(np.max(np.abs(cv.coeffs + cv.coeffs.transpose(0, 2, 1)),
                         initial=0.0))
    for a, b in combinations(range(nk), 2):
        U = np.zeros(s.dimM)
        V = np.zeros(s.dimM)
        U[:n], V[:n] = X[:, a], X[:, b]
        on_m = cv.pair(U, V)
        on_q = nhk.curvature_KW_Q(s, p.q, X[:, a], X[:, b])
        worst = max(worst, float(np.max(np.abs(on_m[:n] - on_q))),
                    float(np.max(np.abs(on_m[n:]))))
    return worst <= 1e-9 * (1.0 + float(np.max(np.abs(cv.coeffs))))


def warm_up(subject: Subject) -> None:
    """One call of every operation the run makes, on every system."""
    for s, inp in zip(subject.systems, subject.inputs):
        nhk.cross_validate(s, samples=1, seed=inp["sweep_seeds"][0])
        nhk.integrate(s, inp["inits"][0], DT, 1)
        p = inp["warm_point"]
        for kind in ("bruteforce", "global") + (("km",) if s.adapted else ()):
            nhk.jacobiator_tensor(s, p, kind)
        nhk.nh_vector_field(s, p)
        nhk.curvature_coeffs(s, p)


def set_up(subject: Subject) -> float:
    t0 = perf_counter()
    subject.load()
    warm_up(subject)
    return perf_counter() - t0


# ---------------------------------------------------------------- phases
SUBJECT_KIND = {"sweep": "builtin", "trajectory": "builtin",
                "queries": "generated"}
ROUNDS = {"sweep": sweep_round, "trajectory": rk4_round,
          "queries": query_round}


def p90_per_unit_ms(calls: dict) -> tuple:
    """The 90th percentile of the time per unit of work (ms) of each
    label's calls, and their geometric mean over the labels (0 if no
    call returned)."""
    by_label = {k: 1e3 * statistics.quantiles(
        [t / u for t, u in v], n=10, method="inclusive")[8]
        for k, v in calls.items() if len(v) >= 2}
    if not by_label:
        return 0.0, by_label
    return statistics.geometric_mean(by_label.values()), by_label


def mean_rate(calls: dict) -> float:
    """Units per second over all the calls (0 if no call returned)."""
    t = sum(t for v in calls.values() for t, _ in v)
    return sum(u for v in calls.values() for _, u in v) / t if t else 0.0


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """The workload's own loop takes MAIN_SHARE of the time and the other
    two loops share the rest, as probes on the same systems.  Rounds of
    the three loops and the set-ups interleave over the whole run, so
    that every metric samples the same stretch of machine time."""
    subject = Subject(SUBJECT_KIND[workload], seed)
    client = Client()
    share = {w: (1.0 - MAIN_SHARE) / 2 for w in WORKLOADS}
    share[workload] = MAIN_SHARE
    spent = {w: 0.0 for w in WORKLOADS}
    rounds = {w: 0 for w in WORKLOADS}
    setups = []
    n_setups = MIN_SETUPS
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if len(setups) < n_setups and \
                elapsed >= len(setups) * seconds / n_setups:
            setups.append(set_up(subject))
            n_setups = min(max(int(SETUP_SHARE * seconds / setups[0]),
                               MIN_SETUPS), MAX_SETUPS)
            continue
        # past --seconds, only the loops that still lack samples go on
        due = WORKLOADS if elapsed < seconds else [
            w for w in WORKLOADS if rounds[w] < MIN_ROUNDS or (
                w == "queries" and client.units["calls"] < MIN_QUERY_CALLS)]
        if not due:
            break
        w = min(due, key=lambda k: spent[k] / share[k])
        t0 = perf_counter()
        ROUNDS[w](client, subject)
        spent[w] += perf_counter() - t0
        rounds[w] += 1
    p90 = {loop: p90_per_unit_ms(client.loop_times(loop))
           for loop in ("sweep", "rk4", "query")}
    lat = [t for v in client.loop_times("query").values() for t, _ in v]
    lat += [0.0] * (2 - len(lat))         # no successful query: read 0
    p99 = statistics.quantiles(lat, n=100, method="inclusive")[98]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "sweep_point_p90_ms": (p90["sweep"][0], "ms"),
        "rk4_step_p90_ms": (p90["rk4"][0], "ms"),
        "query_p90_ms": (p90["query"][0], "ms"),
        "query_p99_ms": (1e3 * p99, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_rate": (1.0 - client.failed / client.attempted, "ratio"),
    }
    info = {"setup repeats": len(setups),
            "rounds": rounds,
            "query calls (one new point per round)": len(lat),
            "query calls above p99": sum(t > p99 for t in lat),
            "sweep points/s (mean)": mean_rate(client.loop_times("sweep")),
            "rk4 steps/s (mean)": mean_rate(client.loop_times("rk4")),
            **{f"{loop} p90 ms by kind": {k: round(v, 4) for k, v in
                                          by_kind.items()}
               for loop, (_, by_kind) in p90.items()},
            "expression chars": subject.chars,
            "error_rate": client.failed / client.attempted}
    return _result(client, metrics, info)


# ------------------------------------------------------------ traced run
def _pass(workload: str, seed: int, tracer: Tracer | None):
    """One set-up plus one fixed round of the workload's own loop."""
    client = Client(tracer)
    subject = Subject(SUBJECT_KIND[workload], seed)
    client.call("setup", "setup", 1, set_up, subject)
    for _ in range(QUERY_PASS_POINTS if workload == "queries" else 1):
        ROUNDS[workload](client, subject)
    return client


def traced(workload: str, seed: int, seconds: float) -> dict:
    tracer = Tracer()
    cost_ns = tracer.span_cost_ns()
    _pass(workload, seed, None)           # first-call costs; not counted
    plain, traced_clients = [], []
    stop = perf_counter() + seconds
    while not traced_clients or (perf_counter() < stop
                                 and len(traced_clients) < MAX_TRACED_PASSES):
        # untraced and traced passes take turns leading, so that a drift
        # of the machine's speed weighs on both alike
        for traced_pass in ((True, False) if len(plain) % 2
                            else (False, True)):
            if not traced_pass:
                plain.append(_pass(workload, seed, None))
                continue
            tracer.install()
            try:
                traced_clients.append(_pass(workload, seed, tracer))
            finally:
                tracer.uninstall()
    growth, growth_info = compile_growth(seed)
    stress = momentum_stress(seed)

    a = tracer.arrays(cost_ns)
    untraced_s = sum(c.busy for c in plain)
    metrics, info = layer_metrics(tracer, a, traced_clients, untraced_s)
    # inclusive step time from the untraced passes, free of tracer cost
    rk4_s = sum(t for c in plain for v in c.loop_times("rk4").values()
                for t, _ in v)
    metrics["sim.step_ms"] = (1e3 * rk4_s / max(
        sum(c.units["steps"] for c in plain), 1), "ms/step")
    metrics["compile.compile_growth"] = (growth, "ratio")
    info.update(growth_info)
    info["tracer cost per span (ns)"] = round(cost_ns, 1)
    for key, value in stress.items():
        metrics[f"jacobiator.max_abs_discrepancy.{key}"] = (value, "abs")
    info["traced passes"] = len(traced_clients)

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"trace-{workload}-{seed}.npz")
    merged = Client()
    for c in plain + traced_clients:
        merged.attempted += c.attempted
        merged.failed += c.failed
        merged.errors += c.errors
    return _result(merged, metrics, info)


def layer_metrics(tracer: Tracer, a: dict, clients: list,
                  untraced_s: float) -> tuple:
    """Per-layer metrics of the traced passes.  Set-up metrics are per
    set-up; loop metrics per unit of the workload's loop (cross-validated
    point, accepted RK4 step or query call) or per route evaluation."""
    names = np.array(tracer.names)
    name = names[a["name_id"]]
    root = a["parent"] < 0
    phase_of = dict(zip(a["op"][root], name[root]))
    phase = np.array([phase_of.get(o, "") for o in a["op"]])
    setup = phase == "bench.setup"
    loop = phase == "bench.op"
    layer = ~root & (a["op"] > 0)

    units = {k: sum(c.units[k] for c in clients) for k in clients[0].units}
    n_setups = len(clients)
    unit = max(units["points"] + units["steps"] + units["calls"], 1)

    def sel(prefix, mask=loop):
        return mask & np.char.startswith(name, prefix)

    def ms(prefix, field="net_self", mask=loop):
        return float(a[field][sel(prefix, mask)].sum()) / 1e6

    def count(prefix, mask=loop):
        return int(sel(prefix, mask).sum())

    def per(x, d):
        return x / d if d else 0.0

    loads = count("manifold.load_system", setup)
    base_in_setup = sel("manifold.base_at", setup)
    parent_name = name[np.where(a["parent"] >= 0, a["parent"], 0)]
    probes = int((base_in_setup
                  & (parent_name == "manifold.load_system")).sum())
    brute = count("jacobiator._trivector_brute")
    glob = count("jacobiator._global_tensor")
    km = count("jacobiator._km_point_data")
    m = {
        "expr.self_ms": (per(ms("expr.", mask=setup), n_setups), "ms/setup"),
        "compile.compile_ms": (per(ms("_compile.CompiledSystem.__init__",
                                      "net_dur", setup), n_setups),
                               "ms/setup"),
        "manifold.load_system.probe_calls": (per(probes, loads), "calls/load"),
        "compile.kernel_self_ms": (ms("_compile.GridEval.packed") / unit,
                                   "ms/op"),
        "manifold.base_at.self_ms": (ms("manifold.base_at") / unit, "ms/op"),
        "bracket.nh_bivector.self_ms": (ms("bracket.nh_bivector") / unit,
                                        "ms/op"),
        "bracket.chart_tensors.self_ms": (ms("bracket.chart_tensors") / unit,
                                          "ms/op"),
        "curvature.curvature_coeffs.self_ms": (
            ms("curvature.curvature_coeffs") / unit, "ms/op"),
        "jet.jet_binary.calls": (count("jet.jet_binary") / unit, "calls/op"),
        "linalg.jm_calls": (count("_linalg.jm_") / unit, "calls/op"),
        "linalg.pk_calls": (count("_linalg.pk_") / unit, "calls/op"),
        "jacobiator.route_ms.bruteforce": (
            per(ms("jacobiator._trivector_brute", "net_dur"), brute),
            "ms/eval"),
        "jacobiator.route_ms.global": (
            per(ms("jacobiator._global_tensor", "net_dur"), glob), "ms/eval"),
        "jacobiator.route_ms.km": (
            per(ms("jacobiator._km_", "net_dur"), km), "ms/eval"),
        "jacobiator.skipped_ratio": (per(units["skipped"], units["points"]),
                                     "ratio"),
        "sim.truncated_ratio": (per(units["truncated"], units["trajectories"]),
                                "ratio"),
        "sim.rhs_calls_per_step": (per(count("sim._rhs"), units["steps"]),
                                   "calls/step"),
        "sim.rhs_useful_ratio": (per(units["recorded"], count("sim._rhs")),
                                 "ratio"),
    }
    for o in (0, 1, 2):
        m[f"compile.kernel_calls.o{o}"] = (
            count(f"_compile.GridEval.packed.o{o}") / unit, "calls/op")
        m[f"manifold.base_at.calls.o{o}"] = (
            count(f"manifold.base_at.o{o}") / unit, "calls/op")
    traced_ns = float(a["dur"][root & (setup | loop)].sum())
    layer_ns = float(a["net_self"][layer & (setup | loop)].sum())
    m["tracing.overhead"] = (traced_ns / 1e9 / untraced_s, "ratio")
    m["tracing.self_sum_ratio"] = (layer_ns / 1e9 / untraced_s, "ratio")
    info = {"traced units": units, "spans": int(len(name))}
    return m, info


def compile_growth(seed: int) -> tuple:
    """Compile time of the generated system at about 4x expression size
    over 1x (nesting depth +2).  Each is the median of GROWTH_REPEATS
    untraced compiles of a fresh ``CompiledSystem``; the two sizes
    take turns, so that both sample the same stretch of machine time."""
    from nhk._compile import CompiledSystem
    defs = [gen.query_system(seed, depth)
            for depth in (gen.DEFAULT_DEPTH - 1, gen.DEFAULT_DEPTH + 1)]
    systems = [nhk.load_system(json.dumps(d)) for d in defs]
    times = ([], [])
    for _ in range(GROWTH_REPEATS):
        for s, t in zip(systems, times):
            t0 = perf_counter()
            CompiledSystem(s)
            t.append(perf_counter() - t0)
    small, large = map(statistics.median, times)
    return large / small, {
        "growth chars": [gen.system_chars(d) for d in defs],
        "growth compile s (median)": [round(small, 4), round(large, 4)]}


def momentum_stress(seed: int) -> dict:
    """Worst bruteforce-vs-global gap on the snakeboard as the sampled
    momenta grow.  Reported, not gated: at +-2e6 it exceeds the default
    tol, a known false FAIL of the absolute tolerance."""
    sb = nhk.builtin("snakeboard")
    out = {}
    for key, scale in MOMENTUM_SCALES:
        worst = 0.0
        for p in nhk.sample_points(sb, STRESS_POINTS, seed, -scale, scale):
            gap = (nhk.jacobiator_tensor(sb, p, "bruteforce")
                   - nhk.jacobiator_tensor(sb, p, "global"))
            worst = max(worst, float(np.max(np.abs(gap))))
        out[key] = worst
    return out


# ----------------------------------------------------------------- output
def _result(client: Client, metrics: dict, info: dict) -> dict:
    for why in client.errors:
        print(f"nhkbench: failed operation:\n{why}", file=sys.stderr)
    for k, (v, unit) in metrics.items():
        if not math.isfinite(v):
            raise ValueError(f"metric {k} is not finite: {v}")
    width = max(map(len, metrics))
    for k, (v, unit) in metrics.items():
        print(f"{k:<{width}}  {v:.6g} {unit}", file=sys.stderr)
    for k, v in info.items():
        print(f"# {k}: {v}", file=sys.stderr)
    return {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    run = traced if args.trace else end_to_end
    result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
