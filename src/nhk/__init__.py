"""Desk-scale toolkit for the bracket geometry of nonholonomic systems.

A mechanical system with linear velocity constraints induces, on its
constraint phase space M, an almost-Poisson bracket: bilinear,
antisymmetric, Leibniz -- but failing the Jacobi identity exactly when
the constraints are nonholonomic.  This package computes that bracket
and its Jacobi defect from a plain JSON description of the system
(metric, constraint one-forms, optional frames and potential), along
several independent routes that are cross-validated against each other:

* direct differentiation of the bracket coefficients (brute-force
  route, in packed value/derivative arithmetic);
* a curvature formula pairing the splitting curvature K_W against the
  sharp images of the covectors;
* closed coordinate expressions for systems declared in adapted
  coordinates (constraints eps^a = ds^a + A^a_alpha dr^alpha).

Built-in examples (snakeboard, nonholonomic particle, rolling disk)
ship with closed-form expected values, and a fixed-step RK4 integrator
with energy/constraint diagnostics drives trajectory studies.  The
``nhk`` command line exposes verification, Jacobiator evaluation,
simulation and expression debugging with machine-readable output.
"""

from .errors import (DomainError, EvalError, GeometryError, LoadError,
                     NhkError, ParameterError, ParseError,
                     UnsupportedOperationError)
from .jet import Jet2
from .manifold import (NonholonomicSystem, PointM, SplittingAtPoint,
                       TwoFormAtPoint, adapted_coframe, base_at,
                       complement_at, embed, load_system, omega_M,
                       pick_default_W, sample_points, splitting_at)
from .bracket import (BivectorAtPoint, chart_tensors, hamiltonian_M,
                      nh_bivector, nh_vector_field)
from .curvature import (AdaptedData, CurvatureAtPoint, adapted_data,
                        curvature_KW_M, curvature_KW_Q, curvature_coeffs)
from .jacobiator import (JacobiatorReport, cross_validate,
                         jacobiator_bruteforce, jacobiator_global,
                         jacobiator_km, jacobiator_tensor)
from .systems import (SNAKEBOARD_REDUCED_CHART_INDICES,
                      SNAKEBOARD_REDUCED_NAMES, BuiltinSpec, builtin,
                      builtin_definition, builtin_spec, list_builtins,
                      snakeboard_expected, snakeboard_reduced_jacobiator,
                      snakeboard_reduced_sharp)
from .sim import Trajectory, integrate, trajectory_csv
from .cli import CommandOutcome, main, run

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "NhkError", "ParseError", "EvalError", "LoadError", "GeometryError",
    "DomainError", "ParameterError", "UnsupportedOperationError",
    # jets
    "Jet2",
    # manifold
    "NonholonomicSystem", "PointM", "SplittingAtPoint", "TwoFormAtPoint",
    "load_system", "pick_default_W", "embed", "omega_M", "splitting_at",
    "base_at", "complement_at", "adapted_coframe", "sample_points",
    # bracket
    "BivectorAtPoint", "nh_bivector", "hamiltonian_M", "nh_vector_field",
    "chart_tensors",
    # curvature
    "CurvatureAtPoint", "AdaptedData", "curvature_coeffs", "curvature_KW_M",
    "curvature_KW_Q",
    "adapted_data",
    # jacobiator
    "JacobiatorReport", "jacobiator_bruteforce", "jacobiator_global",
    "jacobiator_km", "jacobiator_tensor", "cross_validate",
    # systems
    "BuiltinSpec", "builtin", "builtin_definition", "builtin_spec",
    "list_builtins", "snakeboard_expected", "snakeboard_reduced_sharp",
    "snakeboard_reduced_jacobiator", "SNAKEBOARD_REDUCED_NAMES",
    "SNAKEBOARD_REDUCED_CHART_INDICES",
    # simulation
    "Trajectory", "integrate", "trajectory_csv",
    # cli
    "CommandOutcome", "run", "main",
]
