"""Seeded inputs of the benchmark: the user-style system of the
``queries`` workload, its query points, and the initial states and
sub-seeds of the other workloads.

Everything here is a pure function of its seed, so one seed always gives
the same inputs.  The generated system is valid everywhere by
construction, so no query can fail for reasons of the input:

* adapted coordinates: each constraint row has the identity on its
  s-column, so the constraints have full rank at every point;
* a strictly diagonally dominant metric with a positive diagonal (each
  off-diagonal entry is a sine divided by n, each diagonal entry is n
  plus a square), hence symmetric positive definite;
* every division is by ``2 + cos(...)`` or ``1 + (...)^2``, and there is
  no tan, sec, sqrt or ln, so no expression guard can trip.
"""

from __future__ import annotations

import random

import numpy as np

COORDS = ("a", "b", "c", "u", "v")
S_INDICES = (3, 4)
QUERY_BOX = 2.0          # query points: q and ptilde uniform in [-2, 2]
DEFAULT_DEPTH = 4
# Tree shapes come from this fixed seed, so that every workload seed
# yields a system of the same size and cost; the workload seed picks the
# constants and which coordinate sits at each leaf.
SHAPE_SEED = 20140901
CONSTANTS = (0.5, 0.75, 1.25, 1.5, 1.75, 2.25)


class _Draw:
    """Draws for one generated system: shapes from the fixed shape seed,
    constants and a coordinate relabelling from the workload seed."""

    def __init__(self, seed: int):
        self.shape = random.Random(SHAPE_SEED)
        self.value = random.Random(seed)
        self.coords = list(COORDS)
        self.value.shuffle(self.coords)

    def leaf(self) -> str:
        x = self.coords[self.shape.randrange(len(COORDS))]
        c = self.value.choice(CONSTANTS)
        form = self.shape.randrange(4)
        if form == 0:
            return x
        if form == 1:
            return f"{c}*{x}"
        if form == 2:
            return f"sin({c}*{x})"
        return f"cos({x} - {c})"

    def nested(self, depth: int) -> str:
        """A nested trig/rational expression whose value stays bounded by
        a polynomial in the coordinates (every product has a bounded
        factor)."""
        if depth == 0:
            return self.leaf()
        a = self.nested(depth - 1)
        b = self.nested(depth - 1)
        form = self.shape.randrange(5)
        if form == 0:
            return f"({a} + {b})"
        if form == 1:
            return f"{a}*sin({b})"
        if form == 2:
            return f"{a}/(2 + cos({b}))"
        if form == 3:
            return f"{a}/(1 + ({b})^2)"
        return f"cos({a})*{b}"


def query_system(seed: int, depth: int = DEFAULT_DEPTH) -> dict:
    """Definition document of the ``queries`` system (n = 5, k = 2,
    dim M = 8).  ``depth`` sets the nesting of every generated entry;
    each extra level roughly doubles the expression size."""
    draw = _Draw(seed)
    n, k = len(COORDS), len(S_INDICES)
    r_idx = [i for i in range(n) if i not in S_INDICES]
    metric = [["0"] * n for _ in range(n)]
    for i in range(n):
        metric[i][i] = f"{n} + ({draw.nested(depth - 2)})^2"
        for j in range(i + 1, n):
            e = f"sin({draw.nested(depth - 2)})/{n}"
            metric[i][j] = metric[j][i] = e
    constraints = [["0"] * n for _ in range(k)]
    for a, s in enumerate(S_INDICES):
        constraints[a][s] = "1"
        for r in r_idx:
            constraints[a][r] = draw.nested(depth)
    return {
        "name": f"generated_{seed}",
        "coords": list(COORDS),
        "constraints_rank": k,
        "params": {},
        "metric": metric,
        "potential": f"sin({draw.nested(depth - 2)})",
        "constraint_forms": constraints,
        "adapted": {"s_indices": list(S_INDICES)},
    }


def system_chars(definition: dict) -> int:
    """Total characters of all expression entries of a definition."""
    grids = definition["metric"] + definition["constraint_forms"]
    return len(definition["potential"]) + sum(len(e) for row in grids
                                              for e in row)


def _rng(seed: int, *salt: int) -> np.random.Generator:
    """A numpy generator for one kind of input; any integer seed works."""
    return np.random.default_rng([seed % (1 << 64), *salt])


def query_points(seed: int, boxes, nk: int, salt: int = 0):
    """An endless stream of chart points (q, ptilde): each coordinate
    uniform in the middle 90% of its box (lo, hi), the momenta uniform
    in the query box.  Points from one stream are distinct, and the same
    seed and salt give the same stream."""
    rng = _rng(seed, 1, salt)
    lo, hi = np.array(boxes, dtype=float).T
    lo, hi = lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)
    while True:
        yield rng.uniform(lo, hi), rng.uniform(-QUERY_BOX, QUERY_BOX, nk)


def initial_states(seed: int, name: str, count: int, n: int, nk: int) -> list:
    """``count`` initial chart states for a trajectory on the named
    system.  Coordinates and momenta are small (|.| <= 0.3), so the
    snakeboard's steering angle stays well inside (-pi/2, pi/2) over
    the benchmark's trajectory length."""
    rng = _rng(seed, 2, sum(map(ord, name)))
    return [(rng.uniform(-0.3, 0.3, n), rng.uniform(-0.3, 0.3, nk))
            for _ in range(count)]


def sub_seeds(seed: int, count: int, salt: int) -> list:
    """``count`` distinct seeds for ``cross_validate`` derived from the
    workload seed."""
    rng = _rng(seed, 3, salt)
    return [int(s) for s in rng.choice(1 << 30, size=count, replace=False)]
