"""Exception taxonomy for the nhk package, and the argument rules.

Every error raised deliberately by the library derives from NhkError so
callers (and the CLI) can distinguish usage problems from runtime/domain
failures.  check_integer, check_real, check_array and check_one_point
(a stack where one point is taken) check arguments and raise
ParameterError (also a ValueError); real_array is the entry rule
check_array shares with the coordinate and momentum checks of ``manifold``.
"""

from __future__ import annotations

import math
from numbers import Integral, Real

import numpy as np


class NhkError(Exception):
    """Base class for all nhk errors."""


class ParseError(NhkError):
    """Expression text could not be parsed.

    Carries the byte offset of the offending token in ``offset``.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


class EvalError(NhkError):
    """Singular or out-of-domain evaluation (division by near-zero,
    sqrt/ln of a non-positive value, tan/sec at a pole, unbound name).

    ``offset`` locates the offending sub-expression when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            super().__init__(f"{message} (at offset {offset})")
        else:
            super().__init__(message)
        self.message = message
        self.offset = offset


class LoadError(NhkError):
    """System definition rejected.  ``violations`` lists every problem
    found, not just the first."""

    def __init__(self, violations: list[str]):
        super().__init__(
            "invalid system definition:\n  - " + "\n  - ".join(violations)
        )
        self.violations = list(violations)


class GeometryError(NhkError):
    """A pointwise geometric invariant failed (metric not positive
    definite, constraint rank deficiency, frame singularity,
    adapted-block mismatch, degenerate restricted 2-form)."""


class DomainError(GeometryError):
    """A queried point lies outside the system's declared coordinate
    domain."""


class ParameterError(NhkError, ValueError):
    """Parameters outside their validity region (e.g. non-positive mass
    or inertia, a negative sample count or a non-integer order)."""


class UnsupportedOperationError(NhkError):
    """Operation not defined for this system (e.g. the adapted-coordinate
    Jacobiator formula on a system without an adapted declaration)."""


def check_integer(name: str, value, lo: int | None = None,
                  hi: int | None = None) -> int:
    """``value`` as a plain int: a numbers.Integral that is not a bool
    (numpy integers pass), in [lo, hi) where those bounds are given."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ParameterError(f"{name} {value!r} is not an integer")
    value = int(value)
    lo = -math.inf if lo is None else lo
    hi = math.inf if hi is None else hi
    if not lo <= value < hi:
        raise ParameterError(f"{name} {value} out of range [{lo}, {hi})")
    return value


def check_real(name: str, value, lo: float = -math.inf,
               strict: bool = False) -> float:
    """``value`` as a plain float: a finite numbers.Real that is not a
    bool, at least lo (above lo when strict)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ParameterError(f"{name} {value!r} is not a real number")
    try:
        x = float(value)
    except OverflowError:
        raise ParameterError(f"{name} is beyond the float range") from None
    if not math.isfinite(x):
        raise ParameterError(f"{name} {value!r} is not finite")
    if not (x > lo if strict else x >= lo):
        raise ParameterError(
            f"{name} {x!r} out of range {'(' if strict else '['}{lo}, inf)")
    return x


def _holds_bool(value) -> bool:
    if isinstance(value, (bool, np.bool_)):
        return True
    if isinstance(value, np.ndarray):
        return value.dtype.kind == "b"
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return False


def real_array(value) -> np.ndarray | None:
    """``value`` as an array if all its entries are real numbers
    (integers pass; bools, complex numbers, strings, None and ragged
    input do not), else None.  An ndarray is returned as it is."""
    if isinstance(value, np.ndarray):
        return value if value.dtype.kind in "iuf" else None
    try:
        a = np.asarray(value)
    except (TypeError, ValueError):     # ragged
        return None
    # numpy reads a bool among numbers as 0 or 1
    if a.dtype.kind not in "iuf" or _holds_bool(value):
        return None
    return a


def check_array(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a new float array: an array-like of the given shape
    with finite real entries (see real_array)."""
    a = real_array(value)
    if a is None or a.shape != shape or not np.isfinite(a).all():
        raise ParameterError(f"{name} must be a finite real array of shape "
                             f"{shape}, got {value!r}")
    return a.astype(float)


def check_one_point(a: np.ndarray) -> None:
    """ParameterError if the coordinates (or momenta) ``a`` are a stack."""
    if a.ndim > 1:
        raise ParameterError(f"expected one point, got a stack of {len(a)}")
