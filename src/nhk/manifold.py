"""Geometric substrate for constrained mechanical systems.

A system is a Riemannian configuration space Q (kinetic metric kappa),
a potential U, and k constraint one-forms eps^a whose common kernel D is
the distribution of admitted velocities.  The constraint phase space is
the image M = kappa-flat(D) inside T*Q, charted globally here by

    (q^1..q^n, ptilde_1..ptilde_{n-k}),   ptilde_alpha = p(X_alpha),

where X_alpha is the working frame of D.  This module builds, pointwise:

* the D-frame X, its Gram matrix kD = X^T kappa X, and the embedding
  M -> T*Q,  p_i = ptilde_alpha mu^alpha_i,  mu = kD^-1 X^T kappa,
  which is kappa-flat of the velocity X kD^-1 ptilde and needs no
  complement;
* a complement frame Z spanning W (so that eps^a(Z_b) = delta^a_b)
  and the dual coframe {chi^alpha, eps^a}, as values (the curvature
  reads no derivative of Z);
* the pullback 2-form Omega_M of the canonical symplectic form and its
  restricted Gram matrix G = C^T Omega_M C on the C basis;
* the splitting TM = C (+) W-lift: the C basis (``_c_basis``), the
  lifted complement frame with its optional admissible lift correction,
  and the projections P_C, P_W (``_splitting``), all values.
  The bracket and the curvature read the splitting from here only.

The base data is carried to the requested derivative order as Packed
arrays, and all its linear algebra runs on them.  Frames are chosen
like this: an explicit `d_frame` wins; else an `adapted` declaration
gives X_alpha = d/dr^alpha - A^a_alpha d/ds^a; else a kernel basis of
eps(q), with pivot columns from an elimination of the values at each
point and one packed solve per pivot pattern.  The complement is the
declared `w_frame`; else, for an adapted declaration, Z_a = d/ds^a,
whose dual coframe is chi^alpha = dr^alpha in closed form; else the
kappa-orthogonal complement, and the coframe comes from inverting
[X|Z].  ``base_at`` builds the first item, which is all that the
dynamics, the embedding and the bracket read, and ``complement_at`` the
second, only for the operations that read W: the curvature and the
global Jacobiator formula, which take Z as an argument, and those that
show W or cross-check through it.

The public results hold numpy arrays too: ``base_at`` returns Packed
arrays, ``complement_at`` the values of Z and chi, and
``omega_M`` the matrix with its chart derivatives in ``d1``.

The system's grids hold resolved, constant-folded expressions (the
parameters substituted).  ``load_system`` compiles them once into the
system's compiled form (``_compile.CompiledSystem``), which also holds
what is constant in q: grids with no q-dependent code, such as a
constant metric and d/ds (their derivatives exactly zero), the rows dr,
the index arrays and the domain bounds.  A single point reads these
constants as shared read-only arrays; a stack gets contiguous copies.
Each invariant is established once, by the code that can prove it: the
loader's probes check the constant grids, an adapted s-block that is
the constant identity exactly needs no check, and every check whose
input depends on the point runs at every point.
"""

from __future__ import annotations

import json
import keyword
import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import expr as ex
from ._compile import CompiledSystem, get_compiled
from ._linalg import (SINGULAR_TOL, Packed, pk_at, pk_inv, pk_matmul,
                      pk_transpose)
from ._rng import Lcg64
from .errors import (DomainError, EvalError, GeometryError, LoadError,
                     ParameterError, ParseError, check_array, check_integer,
                     check_one_point, check_real, real_array)
from .jet import NONFINITE

__all__ = [
    "NonholonomicSystem", "PointM", "SplittingAtPoint", "TwoFormAtPoint",
    "load_system", "pick_default_W", "embed", "omega_M", "splitting_at",
    "sample_points", "BaseData", "base_at", "complement_at",
]

RANK_TOL = 1e-10
POSDEF_TOL = 1e-10
SYM_TOL = 1e-12
ADAPTED_TOL = 1e-12
DUALITY_TOL = 1e-10
NONDEG_TOL = 1e-12
PIVOT_TOL = 1e-12
DEFAULT_BOX = (-2.0, 2.0)

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _real(value, what: str) -> np.ndarray:
    """``value`` as an array of real numbers (errors.real_array), else
    DomainError."""
    a = real_array(value)
    if a is None:
        raise DomainError(f"{what} must be real numbers, got {value!r}")
    return a


# ------------------------------------------------------------------ types
@dataclass(frozen=True, eq=False)
class PointM:
    """A point of the constraint phase space (or a stack of points):
    base coordinates q plus momenta ptilde in the D-frame, as new
    read-only float arrays of finite real numbers (else DomainError).
    A stack is a sequence of new PointM: len, index, slice, iterate.
    Equality and hashing are by identity, as for NonholonomicSystem."""
    q: np.ndarray
    ptilde: np.ndarray

    def __init__(self, q, ptilde):
        q = _real(q, "coordinates").astype(float)
        if not np.isfinite(q).all():
            raise DomainError("non-finite coordinate value")
        ptilde = _real(ptilde, "momenta").astype(float)
        if not np.isfinite(ptilde).all():
            raise DomainError("non-finite momentum value")
        q.flags.writeable = ptilde.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "ptilde", ptilde)

    def __len__(self) -> int:
        if self.q.ndim < 2:
            raise TypeError("a single PointM has no length")
        return len(self.q)

    def __getitem__(self, i) -> PointM:
        len(self)                       # a single point is no sequence
        return PointM(self.q[i], self.ptilde[i])


@dataclass(frozen=True)
class SplittingAtPoint:
    """Pointwise T_m M = C (+) W-lift with projections (chart basis)."""
    dimM: int
    C_basis: np.ndarray   # dimM x 2(n-k)
    W_basis: np.ndarray   # dimM x k
    P_C: np.ndarray
    P_W: np.ndarray


@dataclass(frozen=True)
class TwoFormAtPoint:
    """Matrix of a 2-form on M in the chart basis {dq^i, dptilde_alpha}.

    mat is the float matrix.  At order 1, d1[l] is its derivative along
    chart variable l (q first, then the momenta), so that
    d1[l, i, j] = d_l mat[i, j]; at order 0, d1 is None.
    restricted_abs_det is |det| of the restriction to C in the C-basis
    (nondegeneracy certificate).
    """
    mat: np.ndarray
    d1: np.ndarray | None
    order: int
    restricted_abs_det: float | np.ndarray      # one value per point


@dataclass(frozen=True, eq=False)
class NonholonomicSystem:
    """Immutable loaded system; all expressions parsed, resolved against
    the coordinate/parameter lists, and constant-folded, and compiled
    once by load_system.  Identity semantics: two loads of the same
    definition are distinct objects."""
    name: str
    coord_names: tuple
    params: dict
    n: int
    k: int
    metric: list                  # n x n folded Expr
    potential: object             # folded Expr
    constraints: list             # k x n folded Expr
    w_frame: list | None          # k x n folded Expr (rows = Z_a)
    d_frame: list | None          # (n-k) x n folded Expr (rows = X_alpha)
    adapted: tuple | None         # s-coordinate indices
    domain: dict                  # coord name -> (lo, hi), declared only
    definition: dict = field(repr=False)
    d_frame_labels: tuple | None = None
    # the compiled form, set once in load_system
    _compiled: CompiledSystem = field(default=None, init=False,
                                      repr=False, compare=False)

    # ---------------------------------------------------------- helpers
    @property
    def dimM(self) -> int:
        return 2 * self.n - self.k

    @property
    def r_indices(self) -> tuple:
        if self.adapted is None:
            return tuple(range(self.n))
        s = set(self.adapted)
        return tuple(i for i in range(self.n) if i not in s)

    @property
    def s_indices(self) -> tuple:
        return self.adapted if self.adapted is not None else ()

    @property
    def momentum_labels(self) -> tuple:
        if self.adapted is not None:
            return tuple(self.coord_names[i] for i in self.r_indices)
        if self.d_frame_labels is not None:
            return self.d_frame_labels
        return tuple(str(i) for i in range(self.n - self.k))

    @property
    def chart_names(self) -> tuple:
        return tuple(self.coord_names) + tuple(
            f"ptilde_{l}" for l in self.momentum_labels)

    def coord_map(self, q) -> dict:
        return {name: float(v) for name, v in zip(self.coord_names, q)}

    def check_domain(self, q) -> np.ndarray:
        """q, one point (n,) or a stack (B, n), as a float array (q itself
        if it is one).  Else DomainError on the first failing point, whose
        checks run in order: real numbers, shape, finite, declared bounds."""
        q = _real(q, "coordinates")
        shape = q.shape[1:] if q.ndim == 2 else q.shape
        if shape != (self.n,):
            raise DomainError(
                f"expected {self.n} coordinates, got shape {shape}")
        q = q.astype(float, copy=False)
        comp = get_compiled(self)
        inside = (comp.lo < q) & (q < comp.hi)     # False at NaN and inf
        if np.count_nonzero(inside) < q.size:
            bad = q if q.ndim == 1 else q[np.argmin(inside.all(axis=1))]
            if not np.isfinite(bad).all():
                raise DomainError("non-finite coordinate value")
            for name, (lo, hi) in self.domain.items():
                v = float(bad[self.coord_names.index(name)])
                if not lo < v < hi:
                    raise DomainError(f"coordinate {name} = {v!r} outside "
                                      f"open domain ({lo}, {hi})")
        return q

    def check_point(self, p: PointM) -> np.ndarray:
        """check_domain(p.q), then the momenta's shape (they are finite
        by construction); returns the coordinates."""
        q = self.check_domain(p.q)
        if p.ptilde.shape != q.shape[:-1] + (self.n - self.k,):
            raise DomainError(
                f"expected {self.n - self.k} momenta, got shape {p.ptilde.shape}")
        return q


# --------------------------------------------------------------- loading
def _is_ident(s) -> bool:
    return isinstance(s, str) and bool(_IDENT_RE.match(s)) \
        and not keyword.iskeyword(s)


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


def _parse_grid(raw, rows, cols, what, names, params, bad):
    """Parse/resolve a rows x cols grid of expression strings against the
    coordinate names and the parameter dict, and fold its constants;
    collect problems into `bad`; returns the folded grid or None."""
    if not (isinstance(raw, list) and len(raw) == rows
            and all(isinstance(r, list) and len(r) == cols for r in raw)):
        bad.append(f"{what} must be a {rows}x{cols} grid of expression strings")
        return None
    folded = [[None] * cols for _ in range(rows)]
    ok = True
    for i in range(rows):
        for j in range(cols):
            try:
                r = ex.resolve(ex.parse(raw[i][j]), names, set(params))
                folded[i][j] = ex.fold_constants(r, params)
            except (ParseError, EvalError, TypeError) as err:
                bad.append(f"{what}[{i}][{j}]: {err}")
                ok = False
    return folded if ok else None


def load_system(definition) -> NonholonomicSystem:
    """Validate and load a system-definition document (dict or JSON text).

    Every expression is parsed, resolved and constant-folded, and the
    system is compiled once (``_compile.CompiledSystem``).
    Raises LoadError listing *all* violations found.  Pointwise geometric
    invariants (metric positive-definiteness, constraint rank, adapted
    identity block, frame duality, and the complement's, see
    complement_at) are probed at a handful of sampled points to fail
    fast on structurally bad definitions; once they pass, the compiled
    form is marked ``loaded`` (see base_at).
    """
    if isinstance(definition, (str, bytes)):
        try:
            definition = json.loads(definition)
        except json.JSONDecodeError as err:
            raise LoadError([f"not valid JSON: {err}"]) from None
    if not isinstance(definition, dict):
        raise LoadError(["definition must be a JSON object"])
    doc = definition
    bad: list[str] = []

    name = doc.get("name")
    if not isinstance(name, str) or not name:
        bad.append("name must be a nonempty string")
        name = "<unnamed>"

    coords = doc.get("coords")
    if not (isinstance(coords, list) and coords
            and all(_is_ident(c) for c in coords)):
        bad.append("coords must be a nonempty list of identifiers")
        raise LoadError(bad)
    if len(set(coords)) != len(coords):
        bad.append("coords must be distinct")
    n = len(coords)

    k = doc.get("constraints_rank")
    if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k < n:
        bad.append(f"constraints_rank must be an integer in [0, {n - 1}]")
        raise LoadError(bad)

    params = doc.get("params", {})
    if not (isinstance(params, dict)
            and all(_is_ident(p) and _is_num(v) for p, v in params.items())):
        bad.append("params must map identifiers to finite numbers")
        params = {}
    params = {p: float(v) for p, v in params.items()}
    clash = set(params) & set(coords)
    if clash:
        bad.append(f"parameter names collide with coordinates: {sorted(clash)}")

    cset = set(coords)

    metric = _parse_grid(doc.get("metric"), n, n, "metric", cset, params,
                         bad)
    constraints = _parse_grid(doc.get("constraint_forms"), k, n,
                              "constraint_forms", cset, params, bad)

    potential = None
    if not isinstance(doc.get("potential"), str):
        bad.append("potential must be an expression string")
    else:
        try:
            potential = ex.fold_constants(
                ex.resolve(ex.parse(doc["potential"]), cset, set(params)),
                params)
        except (ParseError, EvalError) as err:
            bad.append(f"potential: {err}")

    w_frame = None
    if doc.get("w_frame") is not None:
        w_frame = _parse_grid(doc["w_frame"], k, n, "w_frame", cset, params,
                              bad)

    adapted = None
    if doc.get("adapted") is not None:
        a = doc["adapted"]
        si = a.get("s_indices") if isinstance(a, dict) else None
        if not (isinstance(si, list) and len(si) == k
                and all(isinstance(i, int) and not isinstance(i, bool)
                        and 0 <= i < n for i in si)
                and len(set(si)) == k):
            bad.append(f"adapted.s_indices must be {k} distinct indices in [0, {n - 1}]")
        else:
            adapted = tuple(si)

    d_frame = d_labels = None
    if doc.get("d_frame") is not None:
        if adapted is not None:
            bad.append("d_frame may not be combined with an adapted "
                       "declaration (the adapted frame is canonical)")
        d_frame = _parse_grid(doc["d_frame"], n - k, n, "d_frame", cset,
                              params, bad)
    if doc.get("d_frame_labels") is not None:
        dl = doc["d_frame_labels"]
        if doc.get("d_frame") is None:
            bad.append("d_frame_labels requires d_frame")
        elif not (isinstance(dl, list) and len(dl) == n - k
                  and all(_is_ident(s) for s in dl)
                  and len(set(dl)) == n - k):
            bad.append(f"d_frame_labels must be {n - k} distinct identifiers")
        else:
            d_labels = tuple(dl)

    domain = {}
    if doc.get("domain") is not None:
        dm = doc["domain"]
        if not isinstance(dm, dict):
            bad.append("domain must map coordinate names to [lo, hi]")
        else:
            for cname, box in dm.items():
                if cname not in cset:
                    bad.append(f"domain key {cname!r} is not a coordinate")
                elif not (isinstance(box, list) and len(box) == 2
                          and _is_num(box[0]) and _is_num(box[1])
                          and box[0] < box[1]):
                    bad.append(f"domain[{cname!r}] must be [lo, hi] with lo < hi")
                else:
                    domain[cname] = (float(box[0]), float(box[1]))

    if bad:
        raise LoadError(bad)

    system = NonholonomicSystem(
        name=name, coord_names=tuple(coords), params=params, n=n, k=k,
        metric=metric, potential=potential, constraints=constraints,
        w_frame=w_frame, d_frame=d_frame, adapted=adapted, domain=domain,
        definition=doc, d_frame_labels=d_labels,
    )
    object.__setattr__(system, "_compiled", CompiledSystem(system))

    # probe pointwise invariants at a few deterministic sample points, as
    # one stack; on a failure, probe point by point so that the error
    # names the first failing point
    rng = Lcg64(20210)
    qs = np.array([_sample_q(system, rng) for _ in range(7)])
    potential = get_compiled(system).potential
    try:
        complement_at(system, base_at(system, qs, order=0))
        for q in qs:
            potential.evaluate(q, 0)
    except (GeometryError, EvalError):
        for q in qs:
            try:
                complement_at(system, base_at(system, q, order=0))
                potential.evaluate(q, 0)
            except (GeometryError, EvalError) as err:
                bad.append(f"at sampled point q={np.round(q, 6).tolist()}: {err}")
                break
    if bad:
        raise LoadError(bad)
    get_compiled(system).loaded = True
    return system


# ----------------------------------------------------- pointwise pipeline
class BaseData(NamedTuple):
    """Packed per-point base data: each field's val is the matrix, d1[l]
    (order >= 1) its derivative along q^l and d2[l, m] (order 2) the
    second derivative.  For a stack of points, q is (B, n) and every
    Packed leads with the same stack axis.  A named tuple, like Packed:
    base_at builds one per call.  No field depends on the complement W
    (``complement_at``)."""
    q: np.ndarray
    order: int
    kappa: Packed            # n x n
    eps: Packed              # k x n
    X: Packed                # n x (n-k) columns spanning D
    mu: Packed               # (n-k) x n: kD^-1 X^T kappa, p = mu^T ptilde
    kD: Packed               # (n-k) x (n-k) Gram of X
    kD_inv: Packed


def _first(bad) -> int | None:
    """Stack index of the first point where a check fails (0 for an
    unstacked failure), or None when it holds everywhere."""
    if bad.ndim == 0:
        return 0 if bad else None
    return int(bad.argmax()) if bad.any() else None


def _inv(a: Packed, what: str) -> Packed:
    """pk_inv(a) once |det| of every matrix of a exceeds SINGULAR_TOL,
    else GeometryError naming the matrix ``what``."""
    if _first(abs(np.linalg.det(a.val)) <= SINGULAR_TOL) is not None:
        raise GeometryError(f"singular {what} (|det| <= {SINGULAR_TOL})")
    return pk_inv(a)


def _max_dev(m, ref=0.0):
    """Per point: the largest |entry of m - ref| (0 for an empty m)."""
    return np.abs(m - ref).max(axis=(-2, -1), initial=0.0)


def _finite(make) -> tuple[Packed, Packed]:
    """The pair (P, G) that make() derives from finite data, a product P
    and the Gram matrix G built from it, once each array of G is found
    finite (one test per array); else EvalError (NONFINITE).  Each entry
    of P is a term of an entry of G, so a non-finite P makes G
    non-finite too.  A product can overflow where its factors do not,
    and an infinite or NaN determinant would pass _inv's guard.  Where
    warnings are errors, numpy's overflow warning in make() stands for
    the failed test; elsewhere numpy prints it, and the test raises.
    (Suppressing it with np.errstate would add the cost of that context
    to every call.)"""
    try:
        P, G = make()
    except RuntimeWarning:
        raise EvalError(NONFINITE) from None
    for m in G:
        if m is not None and np.count_nonzero(np.isfinite(m)) < m.size:
            raise EvalError(NONFINITE)
    return P, G


def base_at(system: NonholonomicSystem, q, order: int = 1) -> BaseData:
    """Evaluate the base-level geometry at q to the requested jet order
    (0, 1 or 2) as ``BaseData``: the metric kappa, the constraint forms
    eps, the D-frame X, its Gram matrix kD = (X^T kappa) X and inverse,
    and the embedding coefficients mu = kD^-1 X^T kappa, which need no
    complement: p = kappa-flat(v) for the velocity v = X kD^-1 ptilde.
    With no constraints (k = 0), mu = X^-1, exact where X is the
    identity.  It enforces the pointwise invariants in this order:
    metric symmetry and positive definiteness, constraint rank, adapted
    identity block (which certifies the rank) and eps(X) = 0.  kD is
    tested for finiteness before it is inverted: a non-finite one raises
    EvalError (``jet.NONFINITE``), see _finite; each matrix inverted here
    is guarded once, by _inv.

    q is one point, shape (n,), a stack of B points, shape (B, n), or a
    PointM (stacked or not), checked once, first, by ``check_domain`` or
    ``check_point``.  A stack is evaluated as one pass whose arrays lead
    with the stack axis; each point's slice equals base_at at that point
    alone, bit for bit.  Every check runs on every point with the same
    thresholds and in the same order; the first failing check raises,
    naming the first point that fails it.  The exceptions are decided
    once per system, and base_at only reads them: the checks on a grid
    constant in q (the metric, or the constraint forms) run until
    ``load_system``'s probes have passed (``CompiledSystem.loaded``),
    and where the adapted s-block is the constant identity exactly
    (``CompiledSystem.identity_block``) neither it nor eps(X) of the
    adapted frame, exactly 0, is checked.
    """
    order = check_integer("order", order, 0, 3)
    q = (system.check_point if isinstance(q, PointM)
         else system.check_domain)(q)
    n, k = system.n, system.k
    qs = q.reshape(-1, n)                       # one row per point
    comp = get_compiled(system)

    kappa = comp.metric.packed(q, order)
    if not (comp.loaded and comp.metric.constant):
        i = _first(_max_dev(kappa.val, kappa.val.swapaxes(-1, -2)) > SYM_TOL)
        if i is not None:
            raise GeometryError(f"metric not symmetric at q={qs[i].tolist()}")
        evmin = np.linalg.eigvalsh(kappa.val).min(axis=-1)
        i = _first(evmin <= POSDEF_TOL)
        if i is not None:
            raise GeometryError(
                f"metric not positive definite at q={qs[i].tolist()} "
                f"(min eigenvalue {evmin.reshape(-1)[i]:.3e})")

    eps = comp.eps.packed(q, order)
    if not (comp.identity_block or comp.loaded and comp.eps.constant):
        # the SVD runs (on the whole stack) only where the s-block S fails:
        # sigma_min(eps)^2 = lambda_min(S S^T + A A^T) >= (1 - k ADAPTED_TOL)^2
        off = None if system.adapted is None else \
            _max_dev(eps.val[..., comp.s_idx], comp.eye_k) > ADAPTED_TOL
        if off is None or off.any():
            smin = np.linalg.svd(eps.val, compute_uv=False).min(-1, initial=np.inf)
            i = _first(smin <= RANK_TOL)
            if i is not None:
                raise GeometryError(
                    f"constraint forms rank-deficient at q={qs[i].tolist()} "
                    f"(min singular value {smin.reshape(-1)[i]:.3e})")
            if off is not None:
                raise GeometryError(
                    "adapted-declaration mismatch: constraint forms do not "
                    "have an identity block over s-columns "
                    f"{list(system.s_indices)} at q={qs[_first(off)].tolist()}")

    X = _d_frame_at(system, comp, q, eps, order)
    if not comp.identity_block:         # else eps(X) is exactly 0
        i = _first(_max_dev(eps.val @ X.val) > DUALITY_TOL)
        if i is not None:
            raise GeometryError(
                f"D-frame does not lie in the constraint kernel at q={qs[i].tolist()}")

    XTk, kD = _finite(lambda: (P := pk_matmul(pk_transpose(X), kappa),
                               pk_matmul(P, X)))
    kD_inv = _inv(kD, "D-frame Gram matrix")
    mu = pk_inv(X) if k == 0 else pk_matmul(kD_inv, XTk)
    return BaseData(q=q, order=order, kappa=kappa, eps=eps, X=X, mu=mu,
                    kD=kD, kD_inv=kD_inv)


def _d_frame_at(system, comp, q, eps, order) -> Packed:
    if comp.d is not None:
        return pk_transpose(comp.d.packed(q, order))
    if system.adapted is not None:
        # X_alpha = d/dr^alpha - A^a_alpha d/ds^a, with A^a_alpha the
        # r-column entries of eps^a (identity block already verified).
        parts = []
        for m in (eps.val, eps.d1, eps.d2)[:order + 1]:
            x = np.zeros(m.shape[:-2] + (system.n, system.n - system.k))
            x[..., comp.s_idx, :] = -m.take(comp.r_idx, axis=-1)
            parts.append(x)
        parts[0][..., comp.r_idx, comp.r_pos] = 1.0
        return Packed(*parts)
    return _kernel_frame(eps)


def _kernel_frame(eps: Packed) -> Packed:
    """Kernel basis of eps(q): per pivot pattern of the stack's points,
    -B^-1 F in the pivot rows (B the pivot-column block of eps, F its
    free columns) and the identity in the free rows."""
    lead, (k, n) = eps.val.shape[:-2], eps.val.shape[-2:]
    groups: dict = {}
    for i in np.ndindex(lead):
        groups.setdefault(_pivot_columns(eps.val[i]), []).append(i)
    parts = [None if m is None else np.empty(m.shape[:-2] + (n, n - k))
             for m in (eps.val, eps.d1, eps.d2)]
    for piv, points in groups.items():
        idx = tuple(np.array(axis) for axis in zip(*points))
        got = _kernel_solve(pk_at(eps, idx), piv)
        for out, m in zip(parts, (got.val, got.d1, got.d2)):
            if out is not None:
                out[idx] = m
    return Packed(*parts)


def _pivot_columns(e: np.ndarray) -> tuple:
    """Pivot columns of the Gauss-Jordan elimination of the k x n values e.

    Pivot columns are chosen in ascending coordinate index; within a
    column the row with the largest |value| wins.  A near-tie (within
    PIVOT_TOL) between candidate rows, or between a candidate pivot and
    zero, marks a frame singularity: the basis may fail to extend
    smoothly, and the caller should supply a d_frame.
    """
    k, n = e.shape
    a = [[float(x) for x in row] for row in e]
    cols = []
    for col in range(n):
        row = len(cols)
        if row >= k:
            break
        cand = sorted(range(row, k), key=lambda r: -abs(a[r][col]))
        if abs(a[cand[0]][col]) <= PIVOT_TOL:
            continue
        if len(cand) > 1 and abs(abs(a[cand[0]][col])
                                 - abs(a[cand[1]][col])) <= PIVOT_TOL:
            raise GeometryError(
                "frame elimination pivot tie: kernel basis not smoothly "
                "extendable here; supply an explicit d_frame")
        a[row], a[cand[0]] = a[cand[0]], a[row]
        d = a[row][col]
        a[row] = [x / d for x in a[row]]
        for r in range(k):
            f = a[r][col]
            if r != row and f != 0.0:
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        cols.append(col)
    if len(cols) < k:
        raise GeometryError("constraint forms rank-deficient in elimination")
    return tuple(cols)


def _kernel_solve(eps: Packed, piv: tuple) -> Packed:
    """The kernel basis for the pivot columns piv of every point of eps.
    The pivot block B is inverted unguarded: _pivot_columns kept each of
    its pivots above PIVOT_TOL, so B is nonsingular."""
    n = eps.val.shape[-1]
    free = [c for c in range(n) if c not in piv]

    def block(cols):
        return Packed(*(None if m is None else m[..., cols]
                        for m in (eps.val, eps.d1, eps.d2)))

    M = pk_matmul(pk_inv(block(list(piv))), block(free))
    X = [None if m is None else np.zeros(m.shape[:-2] + (n, len(free)))
         for m in (M.val, M.d1, M.d2)]
    for x, m in zip(X, (M.val, M.d1, M.d2)):
        if x is not None:
            x[..., list(piv), :] = -m
    X[0][..., free, range(len(free))] = 1.0
    return Packed(*X)


def complement_at(system: NonholonomicSystem,
                  bd: BaseData) -> tuple[np.ndarray, np.ndarray]:
    """The complement W at base data ``bd`` (stacked or not): returns
    (Z, chi) with Z the values of the complement frame (n x k columns,
    eps(Z) = 1) and chi those of the coframe rows ((n-k) x n) dual to X
    in {chi, eps}.  Z is the declared w_frame; else, for an adapted
    declaration, d/ds; else the kappa-orthogonal complement, whose
    constraint Gram matrix is tested for finiteness before it is
    inverted (EvalError, see _finite).

    Every point is checked: eps(Z) = 1, the guarded |det [X|Z]| and the
    coframe rows eps-hat = eps.  With Z = d/ds nothing is left to check:
    [X|Z] = [d/dr - A d/ds | d/ds] permutes the rows of [[1, 0], [-A, 1]]
    (|det| = 1), its coframe is {dr, ds + A dr}, and eps(Z) is the
    s-block that base_at checked."""
    n, k = system.n, system.k
    q, eps, X = bd.q, bd.eps, bd.X
    comp = get_compiled(system)
    Z = _w_frame_at(comp, q, bd.kappa, eps)
    if comp.adapted_chi is not None:    # a stack gets its own copy
        chi = comp.adapted_chi
        return Z, chi if q.ndim == 1 else chi[None].repeat(len(q), 0)
    qs = q.reshape(-1, n)
    i = _first(_max_dev(eps.val @ Z, comp.eye_k) > DUALITY_TOL)
    if i is not None:
        raise GeometryError(
            f"complement frame not dual to constraints at q={qs[i].tolist()}")
    Finv = _inv(Packed(np.concatenate([X.val, Z], axis=-1)),
                "frame matrix [X|Z]").val
    i = _first(_max_dev(Finv[..., n - k:, :], eps.val) > DUALITY_TOL)
    if i is not None:
        raise GeometryError(
            f"coframe rows do not reproduce the constraint forms at q={qs[i].tolist()}")
    return Z, Finv[..., :n - k, :]


def _w_frame_at(comp, q, kappa, eps) -> np.ndarray:
    """The values of the complement frame Z (see complement_at)."""
    if comp.w is not None:              # the declared w_frame, or d/ds
        return comp.w.packed(q, 0).val.swapaxes(-1, -2)
    # kappa-orthogonal complement, normalized so eps(Z) = identity, from
    # the values of kappa and eps
    kappa, eps = Packed(kappa.val), Packed(eps.val)
    kappa_inv = _inv(kappa, "metric")
    Z0, G = _finite(lambda: (P := pk_matmul(kappa_inv, pk_transpose(eps)),
                             pk_matmul(eps, P)))
    return pk_matmul(Z0, _inv(G, "constraint Gram matrix")).val


# ------------------------------------------------------------ public ops
def pick_default_W(system: NonholonomicSystem, q) -> np.ndarray:
    """Columns of the complement frame Z at q: the user's w_frame when
    given; d/ds^a for adapted systems; else the kappa-orthogonal
    complement normalized to eps^a(Z_b) = delta."""
    Z, _ = complement_at(system, base_at(system, q, order=0))
    return Z.copy()


def _eliminated_mu(system: NonholonomicSystem, bd: BaseData) -> np.ndarray:
    """The values of the embedding coefficients by the elimination
    through the complement (``complement_at``), chi + J_W^T eps with
    J_W = (Z^T kappa X) kD^-1: an independent check on
    mu = kD^-1 X^T kappa, which reads no complement."""
    Z, chi = complement_at(system, bd)
    X, kappa = bd.X.val, bd.kappa.val
    J_W = Z.swapaxes(-1, -2) @ kappa @ X @ bd.kD_inv.val
    return chi + J_W.swapaxes(-1, -2) @ bd.eps.val


def embed(system: NonholonomicSystem, p: PointM) -> np.ndarray:
    """Canonical momenta p_i on T*Q of the point (q, ptilde):
    p = ptilde_alpha mu^alpha, the metric image kappa-flat(v) of the
    velocity v in D with X-momenta ptilde.  Internally cross-checked
    against the elimination through the complement (_eliminated_mu),
    relative to max(1, max|p|) at each point, as the rounding of p
    grows with the momenta."""
    bd = base_at(system, p, order=0)
    pt = p.ptilde[..., None, :]
    pi = pt @ bd.mu.val
    err = _max_dev(pi, pt @ _eliminated_mu(system, bd))
    i = _first(err > DUALITY_TOL * np.maximum(1.0, _max_dev(pi)))
    if i is not None:
        raise GeometryError(f"embedding routes disagree by "
                            f"{err.reshape(-1)[i]:.3e} (internal invariant)")
    return pi[..., 0, :]


def _omega_arrays(system: NonholonomicSystem, pt, bd: BaseData,
                  order: int):
    """Omega_M at momenta pt over bd.q in the chart basis, with its parts:
    returns (E, Omega, dOmega).  E is the momentum-weighted
    antisymmetrized derivative of mu (the q-q block of Omega).  At order
    1, dOmega is Omega's derivative along the chart directions, q first;
    else it is None.  ``bd`` has order at least order + 1; pt and bd may
    carry the same leading stack axis.  No checks."""
    n = system.n
    dim = system.dimM
    lead = np.shape(pt)[:-1]
    dMu = bd.mu.d1                      # (..., n, nk, n)
    E = np.einsum("...a,...jai->...ij", pt, dMu)
    E = E - E.swapaxes(-1, -2)
    Omega = np.zeros(lead + (dim, dim))
    Omega[..., :n, :n] = E
    Omega[..., :n, n:] = bd.mu.val.swapaxes(-1, -2)
    Omega[..., n:, :n] = -bd.mu.val
    dOmega = None
    if order >= 1:
        d2Mu = bd.mu.d2                 # (..., n, n, nk, n)
        dE_q = np.einsum("...a,...ljai->...lij", pt, d2Mu)
        dE_q = dE_q - dE_q.swapaxes(-1, -2)
        dE_p = (np.einsum("...jai->...aij", dMu)
                - np.einsum("...iaj->...aij", dMu))
        dOmega = np.zeros(lead + (dim, dim, dim))
        dOmega[..., :n, :n, :n] = dE_q
        dOmega[..., n:, :n, :n] = dE_p
        dOmega[..., :n, :n, n:] = dMu.swapaxes(-1, -2)
        dOmega[..., :n, n:, :n] = -dMu
    return E, Omega, dOmega


def _c_basis(system: NonholonomicSystem, bd: BaseData, order: int) -> Packed:
    """The basis of C in the chart basis: the zero-momentum lifts of the
    D-frame, then the momentum directions, as a Packed matrix
    (dimM x 2(n-k), stacked like bd).  At order 1, d1 holds its
    derivatives along the chart directions (only the X block varies)."""
    n, nk, dim = system.n, system.n - system.k, system.dimM
    lead = bd.q.shape[:-1]
    C = np.zeros(lead + (dim, 2 * nk))
    C[..., :n, :nk] = bd.X.val
    C[..., n:, nk:] = np.eye(nk)
    d1 = None
    if order >= 1:
        d1 = np.zeros(lead + (dim, dim, 2 * nk))
        d1[..., :n, :n, :nk] = bd.X.d1
    return Packed(C, d1)


def _check_lift(lift, shape: tuple):
    """The lift's coefficient arrays (c, d) as floats: a pair of arrays of
    the given shape with finite real entries, else ParameterError."""
    try:
        c, d = lift
    except (TypeError, ValueError):     # not a pair
        raise ParameterError(f"lift coefficient arrays must be a pair "
                             f"(c, d), got {lift!r}") from None
    return [check_array(f"lift coefficient arrays (c, d): {name}", m, shape)
            for name, m in (("c", c), ("d", d))]


def _splitting(system: NonholonomicSystem, bd: BaseData, Z: np.ndarray,
               lift=None):
    """The splitting T M = C (+) W-lift from base data ``bd`` and the
    values of the complement frame Z at bd.q (``complement_at``):
    returns (Zl, epse, P_W, P_C) with Zl the lifted complement frame
    (dimM x k), epse the constraint rows padded to chart covectors
    (k x dimM) and the projections P_W = Zl epse and P_C = 1 - P_W.
    Each array leads with bd's stack axis, if it has one.

    lift is None (plain zero-momentum lift) or a pair (c, d) of constant
    coefficient arrays, adding c[a, be] X-lift_be + d[a, al] d/dptilde_al
    to the a-th complement leg (an admissible, C-valued correction)."""
    n, k, dim = system.n, system.k, system.dimM
    lead = bd.q.shape[:-1]
    Zl = np.zeros(lead + (dim, k))
    Zl[..., :n, :] = Z
    if lift is not None:
        c, d = _check_lift(lift, (k, n - k))
        Zl[..., :n, :] += bd.X.val @ c.T
        Zl[..., n:, :] += d.T
    epse = np.zeros(lead + (k, dim))
    epse[..., :n] = bd.eps.val
    P_W = Zl @ epse
    return Zl, epse, P_W, np.eye(dim) - P_W


def _omega_packed(system: NonholonomicSystem, p: PointM, bd: BaseData,
                  order: int) -> tuple[Packed, Packed, Packed, np.ndarray]:
    """Omega_M at p as a Packed matrix whose d1 (order 1) runs along the
    chart directions, q first, then the momenta, from base data ``bd``
    at p.q of order at least order + 1 (p and bd may be stacked alike).
    Returns (Omega, C, G, |det G|): the matrix, the C basis (``_c_basis``)
    and the restricted Gram matrix G = C^T Omega C, each to that order,
    and |det G|, which must exceed NONDEG_TOL at every point."""
    _, val, d1 = _omega_arrays(system, p.ptilde, bd, order)
    Om = Packed(val, d1)
    C = _c_basis(system, bd, order)
    G = pk_matmul(pk_matmul(pk_transpose(C), Om), C)
    # nondegeneracy of the restriction to C
    det = np.abs(np.linalg.det(G.val))
    i = _first(det <= NONDEG_TOL)
    if i is not None:
        raise GeometryError(
            "restriction of the 2-form to C is degenerate "
            f"(|det| = {det.reshape(-1)[i]:.3e})")
    return Om, C, G, det


def omega_M(system: NonholonomicSystem, p: PointM, order: int = 0) -> TwoFormAtPoint:
    """Pullback of the canonical symplectic form to M, in the chart basis.

    The embedded momenta p_i(q, ptilde) = ptilde_alpha mu^alpha_i(q) are
    differentiated along the chart variables; the matrix is assembled
    from d p_i / d q^j antisymmetrized (top-left block) and the
    d p_i / d ptilde_alpha block.  order=1 adds the derivatives along
    the chart variables (one more derivative level, for bracket use).
    """
    order = check_integer("order", order, 0, 2)
    om, _, _, det = _omega_packed(system, p, base_at(system, p, order + 1),
                                  order)
    return TwoFormAtPoint(mat=om.val, d1=om.d1, order=order,
                          restricted_abs_det=det)


def splitting_at(system: NonholonomicSystem, p: PointM) -> SplittingAtPoint:
    """Pointwise splitting T M = C (+) W-lift in the chart basis.

    C is spanned by the zero-momentum lifts of the D-frame together with
    all d/dptilde; the W-lift takes Z_a with zero momentum components.
    Projections come from the dual coframe of the assembled basis, which
    here collapses to P_W = Z-lift (x) pulled-back eps (``_splitting``)."""
    bd = base_at(system, p, order=0)
    Z, _ = complement_at(system, bd)
    Zl, _, P_W, P_C = _splitting(system, bd, Z)
    return SplittingAtPoint(dimM=system.dimM,
                            C_basis=_c_basis(system, bd, 0).val,
                            W_basis=Zl, P_C=P_C, P_W=P_W)


def adapted_coframe(system: NonholonomicSystem, q):
    """The frame-adapted covector basis at q: the duals chi^alpha of the
    D-frame within {X, Z}, the constraint forms eps^a, and the momentum
    differentials, each padded to chart covectors.

    Returns (names, rows) with rows[i] the chart components of the i-th
    basis covector.  A chi row that coincides with a coordinate
    differential named like its frame label keeps the bare label (for
    the snakeboard, chi^psi = dpsi); otherwise it is alpha_<label>.
    One point only: the names depend on the values of chi at it."""
    check_one_point(q.q if isinstance(q, PointM) else _real(q, "coordinates"))
    bd = base_at(system, q, order=0)
    _, chi = complement_at(system, bd)
    n, k = system.n, system.k
    nk = n - k
    dim = system.dimM
    labels = system.momentum_labels
    names = []
    rows = np.zeros((dim, dim))
    for al in range(nk):
        rows[al, :n] = chi[al]
        label = labels[al]
        if label in system.coord_names:
            unit = np.zeros(n)
            unit[system.coord_names.index(label)] = 1.0
            if np.max(np.abs(chi[al] - unit)) <= 1e-12:
                names.append(label)
                continue
        names.append(f"alpha_{label}")
    for a in range(k):
        rows[nk + a, :n] = bd.eps.val[a]
        names.append(f"eps{a + 1}")
    for al in range(nk):
        rows[nk + k + al, n + al] = 1.0
        names.append(f"ptilde_{labels[al]}")
    return tuple(names), rows


# --------------------------------------------------------------- sampling
def _sample_q(system: NonholonomicSystem, rng: Lcg64) -> np.ndarray:
    q = np.empty(system.n)
    for i, name in enumerate(system.coord_names):
        lo, hi = system.domain.get(name, DEFAULT_BOX)
        q[i] = rng.uniform(lo, hi)
    return q


def sample_points(system: NonholonomicSystem, count: int, seed: int,
                  momentum_lo: float = -2.0, momentum_hi: float = 2.0) -> PointM:
    """Deterministic sample points as one stacked PointM: coordinates
    uniform in the declared domain boxes ([-2, 2] when unbounded), then
    momenta uniform in [momentum_lo, momentum_hi], point by point, each
    in declaration order.  Any integer seed, taken mod 2^64."""
    count = check_integer("count", count, 0)
    rng = Lcg64(check_integer("seed", seed))
    lo = check_real("momentum_lo", momentum_lo)
    hi = check_real("momentum_hi", momentum_hi, lo)
    q, pt = np.empty((count, system.n)), np.empty((count, system.n - system.k))
    for i in range(count):
        q[i] = _sample_q(system, rng)
        pt[i] = [rng.uniform(lo, hi) for _ in range(pt.shape[1])]
    return PointM(q, pt)
