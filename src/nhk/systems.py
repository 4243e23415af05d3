"""Built-in example systems and their closed-form expected values.

Three classics ship with the package:

* ``snakeboard`` -- planar board with steerable wheel trucks and a
  rotor; configuration (x, y, theta, psi, phi), two velocity
  constraints from the wheel axles.  Loaded with the frame
  {X_psi, X_phi, X_S} of the constraint distribution and the
  wheel-axle complement frame, so its momentum chart is
  (ptilde_psi, ptilde_phi, ptilde_S).
* ``nh_particle`` -- free particle in R^3 with the single constraint
  dz = y dx (the standard strictly nonholonomic toy model).
* ``rolling_disk`` -- vertical disk rolling without slipping on the
  plane, configuration (x, y, phi, theta) with phi the rolling angle
  and theta the heading.

``snakeboard_expected`` exposes independent closed forms (the momentum
coupling functions J1, J2, the nonzero Jacobiator values, and the
curvature pairing coefficient) used to cross-check the generic
machinery.  ``snakeboard_reduced_*`` give the symmetry-reduced model on
the five variables (psi, phi, ptilde_psi, ptilde_phi, ptilde_S).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (DomainError, ParameterError, check_array,
                     check_one_point, check_real)
from .jacobiator import _check_triple
from .manifold import NonholonomicSystem, PointM, load_system

__all__ = [
    "BuiltinSpec", "list_builtins", "builtin", "builtin_definition",
    "builtin_spec", "snakeboard_expected",
    "snakeboard_reduced_sharp", "snakeboard_reduced_jacobiator",
    "SNAKEBOARD_REDUCED_NAMES", "SNAKEBOARD_REDUCED_CHART_INDICES",
]

_SNAKEBOARD = {
    "name": "snakeboard",
    "coords": ["x", "y", "theta", "psi", "phi"],
    "constraints_rank": 2,
    "params": {"m": 1.0, "r": 1.0, "J0": 0.5, "Jw": 0.25},
    "metric": [
        ["m", "0", "0", "0", "0"],
        ["0", "m", "0", "0", "0"],
        ["0", "0", "m*r^2", "J0", "0"],
        ["0", "0", "J0", "J0", "0"],
        ["0", "0", "0", "0", "2*Jw"],
    ],
    "potential": "0",
    "constraint_forms": [
        ["-sin(theta+phi)", "cos(theta+phi)", "-r*cos(phi)", "0", "0"],
        ["-sin(theta-phi)", "cos(theta-phi)", "r*cos(phi)", "0", "0"],
    ],
    "w_frame": [
        ["-sin(theta)*sec(phi)/2", "cos(theta)*sec(phi)/2",
         "-sec(phi)/(2*r)", "0", "0"],
        ["-sin(theta)*sec(phi)/2", "cos(theta)*sec(phi)/2",
         "sec(phi)/(2*r)", "0", "0"],
    ],
    "d_frame": [
        ["0", "0", "0", "1", "0"],
        ["0", "0", "0", "0", "1"],
        ["-2*r*cos(phi)^2*cos(theta)", "-2*r*cos(phi)^2*sin(theta)",
         "sin(2*phi)", "0", "0"],
    ],
    "d_frame_labels": ["psi", "phi", "S"],
    "domain": {"phi": [-1.5707963267948966, 1.5707963267948966]},
}

_NH_PARTICLE = {
    "name": "nh_particle",
    "coords": ["x", "y", "z"],
    "constraints_rank": 1,
    "params": {},
    "metric": [
        ["1", "0", "0"],
        ["0", "1", "0"],
        ["0", "0", "1"],
    ],
    "potential": "0",
    "constraint_forms": [["-y", "0", "1"]],
    "adapted": {"s_indices": [2]},
}

_ROLLING_DISK = {
    "name": "rolling_disk",
    "coords": ["x", "y", "phi", "theta"],
    "constraints_rank": 2,
    "params": {"m": 1.0, "R": 1.0, "Iphi": 0.5, "Itheta": 0.25},
    "metric": [
        ["m", "0", "0", "0"],
        ["0", "m", "0", "0"],
        ["0", "0", "Iphi", "0"],
        ["0", "0", "0", "Itheta"],
    ],
    "potential": "0",
    "constraint_forms": [
        ["1", "0", "-R*cos(theta)", "0"],
        ["0", "1", "-R*sin(theta)", "0"],
    ],
    "adapted": {"s_indices": [0, 1]},
}

_DEFINITIONS = {
    "snakeboard": _SNAKEBOARD,
    "nh_particle": _NH_PARTICLE,
    "rolling_disk": _ROLLING_DISK,
}

# parameter validity: (predicate, human-readable requirement)
_PARAM_RULES = {
    "snakeboard": [
        (lambda p: p["m"] > 0, "m > 0"),
        (lambda p: p["r"] > 0, "r > 0"),
        (lambda p: p["J0"] > 0, "J0 > 0"),
        (lambda p: p["Jw"] > 0, "Jw > 0"),
        (lambda p: p["m"] * p["r"] ** 2 > p["J0"], "m*r^2 > J0"),
    ],
    "nh_particle": [],
    "rolling_disk": [
        (lambda p: p["m"] > 0, "m > 0"),
        (lambda p: p["R"] > 0, "R > 0"),
        (lambda p: p["Iphi"] > 0, "Iphi > 0"),
        (lambda p: p["Itheta"] > 0, "Itheta > 0"),
    ],
}


@dataclass(frozen=True)
class BuiltinSpec:
    """Registry entry for a built-in system: the definition document,
    its default parameters, and the closed-form oracle functions
    attached to it (each with signature fn(p, params=None) -> float)."""
    name: str
    definition: dict
    default_params: dict
    closed_forms: dict


def list_builtins() -> list:
    return sorted(_DEFINITIONS)


def builtin_spec(name: str) -> BuiltinSpec:
    """The registry entry for a built-in system (definition deep-copied)."""
    doc = builtin_definition(name)
    forms = {}
    if name == "snakeboard":
        forms = {key: partial(snakeboard_expected, key)
                 for key in ("J1", "J2", "jac_ppsi", "jac_palphaS",
                             "jac_eps1", "jac_eps2", "KW_coeff")}
    return BuiltinSpec(name=name, definition=doc,
                       default_params=dict(doc["params"]),
                       closed_forms=forms)


def _merged_params(name: str, params) -> dict:
    base = dict(_DEFINITIONS[name]["params"])
    if params:
        unknown = sorted(set(params) - set(base))
        if unknown:
            raise ParameterError(
                f"unknown parameter(s) for {name}: {unknown}; "
                f"available: {sorted(base)}")
        for key, v in params.items():
            base[key] = check_real(f"parameter {key}", v)
    broken = [req for pred, req in _PARAM_RULES[name] if not pred(base)]
    if broken:
        raise ParameterError(
            f"invalid parameters for {name}: require " + ", ".join(broken))
    return base


def builtin_definition(name: str, params=None) -> dict:
    """Deep copy of a built-in definition document, with parameter
    overrides merged and validated."""
    if name not in _DEFINITIONS:
        raise ParameterError(
            f"unknown builtin system {name!r}; available: {list_builtins()}")
    doc = copy.deepcopy(_DEFINITIONS[name])
    doc["params"] = _merged_params(name, params)
    return doc


def builtin(name: str, params=None) -> NonholonomicSystem:
    """Load a built-in system, optionally overriding parameters."""
    return load_system(builtin_definition(name, params))


# --------------------------------------------------- snakeboard closed forms
def _sb_params(params) -> dict:
    return _merged_params("snakeboard", params)


def _sb_phi(phi) -> float:
    """phi as a float in the closed forms' domain, else DomainError."""
    phi = float(phi)
    if not -math.pi / 2.0 < phi < math.pi / 2.0:
        raise DomainError(f"steering angle phi = {phi!r} outside (-pi/2, "
                          "pi/2); the closed forms diverge at the poles")
    return phi


def _sb_J(phi: float, pr: dict) -> tuple:
    """Momentum coupling functions (J1, J2) of the steering angle:
    p(X_a) = J_a^alpha ptilde_alpha has row structure
    (J2, 0, J1) and (-J2, 0, -J1) over (ptilde_psi, ptilde_phi, ptilde_S).
    """
    m, r, J0 = pr["m"], pr["r"], pr["J0"]
    c, s = math.cos(phi), math.sin(phi)
    delta = m * r * r - J0 * s * s
    J2 = -m * r * c / (2.0 * delta)
    J1 = -(m * r * r - J0) * s / (4.0 * r * c * c * delta)
    return J1, J2


def _sb_G(phi: float, pt_psi: float, pt_S: float, pr: dict) -> float:
    """Coefficient G in {ptilde_phi, ptilde_S} = G: the single nonzero
    momentum bracket of the reduced snakeboard."""
    J1, J2 = _sb_J(phi, pr)
    r = pr["r"]
    return (2.0 * math.tan(phi) * pt_S
            + 4.0 * r * math.cos(phi) * (J1 * pt_S + J2 * pt_psi))


def snakeboard_expected(name: str, p, params=None) -> float:
    """Closed-form reference values for the snakeboard at a point.

    ``p`` may be a PointM or a bare coordinate array (x, y, theta, psi,
    phi), held to PointM's rule, and is one point (a stack raises
    ParameterError: the closed forms use ``math``); only the steering
    angle phi enters.  An unknown name raises ParameterError.
    Available names:

    * ``J1``, ``J2`` -- momentum coupling functions of phi;
    * ``jac_ppsi``   -- Jacobiator (dptilde_phi, dptilde_S, dpsi);
    * ``jac_palphaS``-- Jacobiator (dptilde_phi, dptilde_S, alpha_S);
    * ``jac_eps1``, ``jac_eps2`` -- Jacobiator against the constraint
      forms eps^1, eps^2 in the last slot;
    * ``KW_coeff``   -- curvature pairing coefficient of
      K(X_S-lift, X_phi-lift) on the complement difference Z_1 - Z_2.

    Jacobiator values use the three-term cyclic-sum normalization
    Jac(a, b, c) = sum_cyc pi(a, d(pi(b, c))).
    """
    pr = _sb_params(params)
    q = (p if isinstance(p, PointM) else PointM(p, ())).q
    check_one_point(q)
    if q.shape != (5,):
        raise DomainError(f"expected 5 coordinates, got shape {q.shape}")
    phi = _sb_phi(q[4])
    r = pr["r"]
    c = math.cos(phi)
    J1, J2 = _sb_J(phi, pr)
    table = {
        "J1": J1,
        "J2": J2,
        "jac_ppsi": 4.0 * r * c * J2,
        "jac_palphaS": 4.0 * r * c * J1,
        "jac_eps1": -2.0 * r * c,
        "jac_eps2": 2.0 * r * c,
        "KW_coeff": -2.0 * r * c,
    }
    if name not in table:
        raise ParameterError(
            f"unknown expected-value name {name!r}; available: {sorted(table)}")
    return table[name]


# ------------------------------------------------------ reduced snakeboard
SNAKEBOARD_REDUCED_NAMES = ("psi", "phi", "ptilde_psi", "ptilde_phi",
                            "ptilde_S")
# rows of the full chart (x, y, theta, psi, phi, ptilde_*) kept by reduction
SNAKEBOARD_REDUCED_CHART_INDICES = (3, 4, 5, 6, 7)
_REDUCED_POINT = "reduced point (psi, phi, ptilde_psi, ptilde_phi, ptilde_S)"


def snakeboard_reduced_sharp(p_red, alpha, params=None) -> np.ndarray:
    """Sharp map of the reduced snakeboard bivector: components of
    pi#(alpha) in the basis (d/dpsi, d/dphi, d/dptilde_psi,
    d/dptilde_phi, d/dptilde_S), for a covector alpha in the dual basis
    (dpsi, dphi, dptilde_psi, dptilde_phi, dptilde_S).

    The reduction drops the group variables (x, y, theta); the only
    surviving structure function is G = {ptilde_phi, ptilde_S}.
    """
    pr = _sb_params(params)
    p_red = check_array(_REDUCED_POINT, p_red, (5,))
    alpha = check_array("alpha", alpha, (5,))
    phi, pt_psi, pt_S = _sb_phi(p_red[1]), p_red[2], p_red[4]
    G = _sb_G(phi, pt_psi, pt_S, pr)
    mat = np.array([
        [0.0, 0.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, -G],
        [0.0, 0.0, 0.0, G, 0.0],
    ])
    return mat @ alpha


def snakeboard_reduced_jacobiator(p_red, triple, params=None) -> float:
    """Jacobiator of the reduced snakeboard on three dual-basis
    covectors, indexed into (dpsi, dphi, dptilde_psi, dptilde_phi,
    dptilde_S); cyclic-sum normalization.

    The tensor is totally antisymmetric with the single independent
    nonzero value Jac(dptilde_phi, dptilde_S, dpsi) = 4 r cos(phi) J2.
    """
    pr = _sb_params(params)
    p_red = check_array(_REDUCED_POINT, p_red, (5,))
    triple = _check_triple(5, triple)
    phi = _sb_phi(p_red[1])
    base = (3, 4, 0)   # (dptilde_phi, dptilde_S, dpsi)
    if set(triple) != set(base):    # a repeated index too
        return 0.0
    r = pr["r"]
    J1, J2 = _sb_J(phi, pr)
    value = 4.0 * r * math.cos(phi) * J2
    return value * _perm_sign(triple, base)


def _perm_sign(triple, base) -> float:
    """Sign of the permutation taking the 3-tuple ``base`` to ``triple``."""
    order = [base.index(t) for t in triple]
    sign = 1.0
    for a in range(3):
        for b in range(a + 1, 3):
            if order[a] > order[b]:
                sign = -sign
    return sign
