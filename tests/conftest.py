"""Shared fixtures: built-in systems plus synthetic test systems that
exercise code paths the builtins do not (generic kernel frames, rank-2
adapted declarations with fully coordinate-dependent coefficients,
integrable constraints)."""

import numpy as np
import pytest

import nhk

_IDENT3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def _ident(n):
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


# A rank-1 adapted system whose connection coefficients depend on every
# coordinate including the fibre coordinate z, so all terms of the
# closed coordinate formulas (dA over both r and s directions) are
# nonzero.
TWIST3_DEF = {
    "name": "twist3",
    "coords": ["u", "v", "w", "z"],
    "constraints_rank": 1,
    "metric": _ident(4),
    "potential": "0",
    "constraint_forms": [["v + 0.3*z", "u*w", "0.2*u*v + 0.1*z", "1"]],
    "adapted": {"s_indices": [3]},
}

# A rank-2 adapted system with a coordinate-dependent metric and cross
# couplings between the two constraint rows.
TWIST5_DEF = {
    "name": "twist5",
    "coords": ["a", "b", "c", "s1", "s2"],
    "constraints_rank": 2,
    "metric": [
        ["2 + 0.5*sin(b)", "0.3", "0", "0", "0"],
        ["0.3", "2 + 0.5*cos(a)", "0", "0", "0"],
        ["0", "0", "2", "0.2", "0"],
        ["0", "0", "0.2", "2", "0"],
        ["0", "0", "0", "0", "1.5"],
    ],
    "potential": "0.1*a^2 + 0.2*b*c",
    "constraint_forms": [
        ["0.4*b + 0.2*s2", "a*c", "0.1*a*b", "1", "0"],
        ["c + 0.3*s1", "0.2*a", "b*c", "0", "1"],
    ],
    "adapted": {"s_indices": [3, 4]},
}

# The integrable (holonomic) counterpart: eps = dz exactly.
HOLONOMIC_DEF = {
    "name": "holonomic",
    "coords": ["x", "y", "z"],
    "constraints_rank": 1,
    "metric": _ident(3),
    "potential": "0",
    "constraint_forms": [["0", "0", "1"]],
    "adapted": {"s_indices": [2]},
}

# Same geometry as the built-in particle but declared without the
# adapted block, forcing the generic kernel frame and the
# metric-orthogonal complement.
KERNEL_PATH_DEF = {
    "name": "kernel_path",
    "coords": ["x", "y", "z"],
    "constraints_rank": 1,
    "metric": _ident(3),
    "potential": "0",
    "constraint_forms": [["-y", "0", "1"]],
}


# A rank-2 system without an adapted block, so the kernel frame comes
# from the elimination: the first column is zero (skipped), the second
# row wins the first pivot at every point (a row swap), and every entry
# off the zero column depends on the coordinates.
KERNEL2_DEF = {
    "name": "kernel2",
    "coords": ["a", "b", "c", "d", "e"],
    "constraints_rank": 2,
    "metric": [
        ["2 + 0.3*sin(c)", "0.2", "0", "0", "0"],
        ["0.2", "1.5", "0.1*a", "0", "0"],
        ["0", "0.1*a", "2", "0", "0"],
        ["0", "0", "0", "1 + 0.2*cos(b)", "0"],
        ["0", "0", "0", "0", "1.2"],
    ],
    "potential": "0.1*a^2 + 0.05*b*e",
    "constraint_forms": [
        ["0", "0.5*sin(b)", "1.5 + 0.2*cos(a)", "0.4*e", "0.2*a*c"],
        ["0", "2 + 0.3*cos(c)", "0.3*d", "0.3*a*b", "0.5 + 0.1*e"],
    ],
}

# Every system fixture, and the ones with an adapted declaration.
SYSTEMS = ["snakeboard", "particle", "disk", "twist3", "twist5",
           "holonomic", "kernel_path", "kernel2"]
ADAPTED = ["particle", "disk", "twist3", "twist5", "holonomic"]


@pytest.fixture(params=SYSTEMS)
def system(request):
    return request.getfixturevalue(request.param)


@pytest.fixture(params=ADAPTED)
def adapted_system(request):
    return request.getfixturevalue(request.param)


@pytest.fixture(scope="session")
def snakeboard():
    return nhk.builtin("snakeboard")


@pytest.fixture(scope="session")
def particle():
    return nhk.builtin("nh_particle")


@pytest.fixture(scope="session")
def disk():
    return nhk.builtin("rolling_disk")


@pytest.fixture(scope="session")
def twist3():
    return nhk.load_system(dict(TWIST3_DEF))


@pytest.fixture(scope="session")
def twist5():
    return nhk.load_system(dict(TWIST5_DEF))


@pytest.fixture(scope="session")
def holonomic():
    return nhk.load_system(dict(HOLONOMIC_DEF))


@pytest.fixture(scope="session")
def kernel_path():
    return nhk.load_system(dict(KERNEL_PATH_DEF))


@pytest.fixture(scope="session")
def kernel2():
    return nhk.load_system(dict(KERNEL2_DEF))


def chart_state(p):
    """Chart coordinates (q, ptilde) of a PointM as one array."""
    return np.concatenate([p.q, p.ptilde])
