"""A corpus of grammar-covering expressions with evaluation points kept
inside every guard domain (tan/sec away from poles, sqrt/ln arguments
positive, negative powers away from zero).  Shared by the expression
round-trip tests, the finite-difference checks of the jet evaluator,
and the acceptance gate.  ``nested_system`` builds a seeded system of
deeply nested entries for the compiled-kernel tests."""

import random

CORPUS = [
    ("0", {}),
    ("1.5", {}),
    ("-2.25", {}),
    ("x", {"x": 0.7}),
    ("-x", {"x": -1.3}),
    ("--x", {"x": 0.4}),
    ("x + y", {"x": 0.3, "y": -1.1}),
    ("x - y", {"x": 1.2, "y": 0.8}),
    ("x*y", {"x": -0.5, "y": 2.0}),
    ("x/y", {"x": 1.7, "y": 0.6}),
    ("x + y*z", {"x": 0.2, "y": 1.1, "z": -0.7}),
    ("(x + y)*z", {"x": 0.2, "y": 1.1, "z": -0.7}),
    ("x - y - z", {"x": 2.0, "y": 0.5, "z": 0.25}),
    ("x/y/z", {"x": 2.0, "y": 0.8, "z": 1.6}),
    ("x - -y", {"x": 0.9, "y": 0.4}),
    ("x^2", {"x": 1.3}),
    ("x^3", {"x": -0.8}),
    ("x^6", {"x": 0.9}),
    ("x^-1", {"x": 0.7}),
    ("x^-2", {"x": -1.4}),
    ("x^-3", {"x": 1.8}),
    ("-x^2", {"x": 1.1}),
    ("(-x)^2", {"x": 1.1}),
    ("2*x^2 - 3*x + 1", {"x": 0.6}),
    ("x^2*y^3", {"x": 0.8, "y": 1.2}),
    ("(x + 1)^-2", {"x": 0.5}),
    ("sin(x)", {"x": 0.8}),
    ("cos(x)", {"x": -0.6}),
    ("tan(x)", {"x": 0.5}),
    ("sec(x)", {"x": 0.4}),
    ("sqrt(x)", {"x": 2.3}),
    ("exp(x)", {"x": -0.9}),
    ("ln(x)", {"x": 1.7}),
    ("sin(2*x)", {"x": 0.35}),
    ("cos(x)^2 + sin(x)^2", {"x": 1.1}),
    ("sin(x)*cos(y)", {"x": 0.7, "y": 0.3}),
    ("tan(x/2)", {"x": 0.9}),
    ("sec(x)^2 - tan(x)^2", {"x": 0.6}),
    ("sqrt(x^2 + y^2)", {"x": 0.6, "y": 0.8}),
    ("ln(1 + x^2)", {"x": 1.5}),
    ("exp(-x^2/2)", {"x": 0.7}),
    ("exp(sin(x))", {"x": 0.4}),
    ("ln(sec(x))", {"x": 0.45}),
    ("sqrt(exp(x))", {"x": 0.8}),
    ("sin(cos(x))", {"x": 1.2}),
    ("tan(sin(x)*cos(x))", {"x": 0.7}),
    ("x*sin(y) + y*cos(x)", {"x": 0.5, "y": 1.0}),
    ("(1 + tan(x)^2)/sec(x)^2", {"x": 0.55}),
    ("x^2/(1 + y^2)", {"x": 1.1, "y": 0.4}),
    ("1/(1 + exp(-x))", {"x": 0.3}),
    ("ln(x)/x", {"x": 2.1}),
    ("sqrt(x)*ln(y)", {"x": 1.4, "y": 2.5}),
    ("sin(x + y)*cos(x - y)", {"x": 0.4, "y": 0.2}),
    ("exp(x)/(1 + x^2)", {"x": -0.5}),
    ("sec(x)*tan(x) - sin(x)/cos(x)^2", {"x": 0.35}),
    ("(x + y + z)^3", {"x": 0.2, "y": 0.3, "z": 0.1}),
    ("x*y*z + x^2 - y/z", {"x": 0.7, "y": 1.2, "z": 0.9}),
    ("cos(x)^-1", {"x": 0.5}),
    ("2^3 + x", {"x": 0.1}),
    ("-(x + sin(y))^2", {"x": 0.3, "y": 0.6}),
    ("sqrt(2 + sin(x))", {"x": -0.7}),
    ("ln(exp(x) + 1)", {"x": 0.9}),
]


# Shapes of the nested test system.  Each wraps the guarded functions so
# that their arguments stay inside the guard domains at every point:
# divisors are 2 + cos(.) or 1 + (.)^2, tan/sec arguments lie in
# [-0.5, 0.5], and sqrt/ln arguments in [1, 3].
_NESTED_FORMS = (
    "({a} + {b})",
    "{a}*sin({b})",
    "{a}/(2 + cos({b}))",
    "{a}/(1 + ({b})^2)",
    "cos({a})*{b}",
    "{a} - tan(0.5*sin({b}))",
    "{a}*sqrt(2 + sin({b}))",
    "ln(2 + cos({a}))*{b}",
    "exp(sin({a}))*{b}",
    "{a}*sec(0.5*cos({b}))",
    "{a}*(1 + ({b})^2)^-2",
)


def nested_system(seed: int, depth: int = 4) -> dict:
    """A seeded adapted system (n = 4, k = 1) whose constraint entries
    are nested trig/rational expressions of the given depth, covering
    every function and operator of the grammar.  The metric is strictly
    diagonally dominant with a positive diagonal, and the constraint row
    has the identity on its s-column, so every point is valid."""
    rng = random.Random(seed)
    coords = ["a", "b", "c", "s"]

    def leaf():
        x = rng.choice(coords)
        c = rng.choice((0.5, 0.75, 1.25, 1.5))
        return rng.choice((x, f"{c}*{x}", f"sin({c}*{x})", f"cos({x} - {c})"))

    def nested(d):
        if d == 0:
            return leaf()
        form = rng.choice(_NESTED_FORMS)
        return form.format(a=nested(d - 1), b=nested(d - 1))

    n = len(coords)
    metric = [["0"] * n for _ in range(n)]
    for i in range(n):
        metric[i][i] = f"{n} + ({nested(depth - 2)})^2"
        for j in range(i + 1, n):
            metric[i][j] = metric[j][i] = f"sin({nested(depth - 2)})/{n}"
    return {
        "name": f"nested_{seed}",
        "coords": coords,
        "constraints_rank": 1,
        "metric": metric,
        "potential": nested(depth),
        "constraint_forms": [[nested(depth), nested(depth), nested(depth), "1"]],
        "adapted": {"s_indices": [3]},
    }
