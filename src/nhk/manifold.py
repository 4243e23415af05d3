"""Geometric substrate for constrained mechanical systems.

A system is a Riemannian configuration space Q (kinetic metric kappa),
a potential U, and k constraint one-forms eps^a whose common kernel D is
the distribution of admitted velocities.  The constraint phase space is
the image M = kappa-flat(D) inside T*Q, charted globally here by

    (q^1..q^n, ptilde_1..ptilde_{n-k}),   ptilde_alpha = p(X_alpha),

where X_alpha is the working frame of D.  This module builds, pointwise:

* frames: the D-frame X, a complement frame Z spanning W (so that
  eps^a(Z_b) = delta^a_b), the dual coframe {chi^alpha, eps^a}, and the
  momentum-elimination coefficients J with p(Z_a) = J_a^beta ptilde_beta;
* the embedding M -> T*Q,  p_i = ptilde_alpha mu^alpha_i,
  mu^alpha = chi^alpha + J_a^alpha eps^a;
* the pullback 2-form Omega_M of the canonical symplectic form;
* the splitting TM = C (+) W-lift, with projections.

All per-point data is carried to the requested derivative order as
Packed arrays, and all linear algebra runs on them.  Frames are chosen
like this: an explicit `d_frame` wins; else an `adapted` declaration
gives X_alpha = d/dr^alpha - A^a_alpha d/ds^a; else a kernel basis of
eps(q), with pivot columns from an elimination of the values at each
point and one packed solve per pivot pattern.
"""

from __future__ import annotations

import json
import keyword
import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from ._compile import get_compiled
from ._linalg import (Packed, _first, jm_values, pk_add, pk_at, pk_const,
                      pk_hstack, pk_inv, pk_matmul, pk_rows, pk_transpose,
                      pk_unpack)
from ._rng import Lcg64
from .errors import DomainError, EvalError, GeometryError, LoadError, ParseError

__all__ = [
    "NonholonomicSystem", "PointM", "FrameAtPoint", "SplittingAtPoint",
    "TwoFormAtPoint", "load_system", "pick_default_W", "frame_at", "embed",
    "omega_M", "splitting_at", "sample_points", "BaseData", "base_at",
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


# ------------------------------------------------------------------ types
@dataclass(frozen=True)
class PointM:
    """A point of the constraint phase space: base coordinates q plus
    momenta ptilde in the D-frame."""
    q: np.ndarray
    ptilde: np.ndarray

    def __init__(self, q, ptilde):
        object.__setattr__(self, "q", np.asarray(q, dtype=float).copy())
        object.__setattr__(self, "ptilde",
                           np.asarray(ptilde, dtype=float).copy())


@dataclass(frozen=True)
class FrameAtPoint:
    """Frames and elimination data at a base point, entries as Jet2.

    X: n x (n-k) columns spanning D;  Z: n x k columns spanning W;
    chi: (n-k) x n rows of the coframe dual to X within {chi, eps};
    J: k x (n-k) with p(Z_a) = J[a, beta] ptilde_beta.
    """
    X: list
    Z: list
    chi: list
    J: list
    order: int


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

    mat is a float matrix at order 0, or a nested list of Jet2 over the
    chart variables at order 1.  restricted_abs_det is |det| of the
    restriction to C in the C-basis (nondegeneracy certificate).
    """
    mat: object
    order: int
    restricted_abs_det: float

    def values(self) -> np.ndarray:
        if self.order == 0:
            return self.mat
        return jm_values(self.mat)


@dataclass(frozen=True, eq=False)
class NonholonomicSystem:
    """Immutable loaded system; all expressions parsed, resolved against
    the coordinate/parameter lists, and constant-folded.  Identity
    semantics: two loads of the same definition are distinct objects."""
    name: str
    coord_names: tuple
    params: dict
    n: int
    k: int
    metric: list                  # n x n resolved Expr
    potential: object             # resolved Expr
    constraints: list             # k x n resolved Expr
    w_frame: list | None          # k x n resolved Expr (rows = Z_a)
    d_frame: list | None          # (n-k) x n resolved Expr (rows = X_alpha)
    adapted: tuple | None         # s-coordinate indices
    domain: dict                  # coord name -> (lo, hi), declared only
    definition: dict = field(repr=False)

    # compiled (constant-folded) copies, set in load_system
    _metric_c: list = field(default=None, repr=False, compare=False)
    _potential_c: object = field(default=None, repr=False, compare=False)
    _constraints_c: list = field(default=None, repr=False, compare=False)
    _w_frame_c: list = field(default=None, repr=False, compare=False)
    _d_frame_c: list = field(default=None, repr=False, compare=False)
    d_frame_labels: tuple | None = None

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

    def check_domain(self, q) -> None:
        q = np.asarray(q, dtype=float)
        if q.shape != (self.n,):
            raise DomainError(
                f"expected {self.n} coordinates, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise DomainError("non-finite coordinate value")
        for name, (lo, hi) in self.domain.items():
            v = float(q[self.coord_names.index(name)])
            if not lo < v < hi:
                raise DomainError(
                    f"coordinate {name} = {v!r} outside open domain ({lo}, {hi})")

    def in_domain(self, q) -> bool:
        try:
            self.check_domain(q)
            return True
        except DomainError:
            return False

    def check_point(self, p: PointM) -> None:
        self.check_domain(p.q)
        if p.ptilde.shape != (self.n - self.k,):
            raise DomainError(
                f"expected {self.n - self.k} momenta, got shape {p.ptilde.shape}")
        if not np.all(np.isfinite(p.ptilde)):
            raise DomainError("non-finite momentum value")


# --------------------------------------------------------------- loading
def _is_ident(s) -> bool:
    return isinstance(s, str) and bool(_IDENT_RE.match(s)) \
        and not keyword.iskeyword(s)


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


def _parse_grid(raw, rows, cols, what, names, params, bad):
    """Parse/resolve a rows x cols grid of expression strings against the
    coordinate names and the parameter dict; collect problems into `bad`;
    returns (resolved, folded) or (None, None)."""
    if not (isinstance(raw, list) and len(raw) == rows
            and all(isinstance(r, list) and len(r) == cols for r in raw)):
        bad.append(f"{what} must be a {rows}x{cols} grid of expression strings")
        return None, None
    resolved = [[None] * cols for _ in range(rows)]
    folded = [[None] * cols for _ in range(rows)]
    ok = True
    for i in range(rows):
        for j in range(cols):
            try:
                e = ex.parse(raw[i][j])
                r = ex.resolve(e, names, set(params))
                resolved[i][j] = r
                folded[i][j] = ex.fold_constants(r, params)
            except (ParseError, EvalError, TypeError) as err:
                bad.append(f"{what}[{i}][{j}]: {err}")
                ok = False
    return (resolved, folded) if ok else (None, None)


def load_system(definition) -> NonholonomicSystem:
    """Validate and load a system-definition document (dict or JSON text).

    Raises LoadError listing *all* violations found.  Pointwise geometric
    invariants (metric positive-definiteness, constraint rank, adapted
    identity block, frame duality) are additionally re-checked lazily at
    every queried point; here they are probed at a handful of sampled
    points to fail fast on structurally bad definitions.
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

    metric, metric_c = _parse_grid(doc.get("metric"), n, n, "metric",
                                   cset, params, bad)
    constraints, constraints_c = _parse_grid(
        doc.get("constraint_forms"), k, n, "constraint_forms", cset, params, bad)

    potential = potential_c = None
    if not isinstance(doc.get("potential"), str):
        bad.append("potential must be an expression string")
    else:
        try:
            potential = ex.resolve(ex.parse(doc["potential"]), cset, set(params))
            potential_c = ex.fold_constants(potential, params)
        except (ParseError, EvalError) as err:
            bad.append(f"potential: {err}")

    w_frame = w_frame_c = None
    if doc.get("w_frame") is not None:
        w_frame, w_frame_c = _parse_grid(doc["w_frame"], k, n, "w_frame",
                                         cset, params, bad)

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

    d_frame = d_frame_c = None
    d_labels = None
    if doc.get("d_frame") is not None:
        if adapted is not None:
            bad.append("d_frame may not be combined with an adapted "
                       "declaration (the adapted frame is canonical)")
        d_frame, d_frame_c = _parse_grid(doc["d_frame"], n - k, n, "d_frame",
                                         cset, params, bad)
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
        definition=doc,
        _metric_c=metric_c, _potential_c=potential_c,
        _constraints_c=constraints_c, _w_frame_c=w_frame_c,
        _d_frame_c=d_frame_c, d_frame_labels=d_labels,
    )

    # probe pointwise invariants at a few deterministic sample points, as
    # one stack; on a failure, probe point by point so that the error
    # names the first failing point
    rng = Lcg64(20210)
    qs = np.array([_sample_q(system, rng) for _ in range(7)])
    potential = get_compiled(system).potential
    try:
        base_at(system, qs, order=0)
        for q in qs:
            potential.evaluate(q, 0)
    except (GeometryError, EvalError):
        for q in qs:
            try:
                base_at(system, q, order=0)
                potential.evaluate(q, 0)
            except (GeometryError, EvalError) as err:
                bad.append(f"at sampled point q={np.round(q, 6).tolist()}: {err}")
                break
    if bad:
        raise LoadError(bad)
    return system


# ----------------------------------------------------- pointwise pipeline
@dataclass(frozen=True)
class BaseData:
    """Packed per-point base data (derivatives along q in the derivative
    axes).  For a stack of points, q is (B, n) and every Packed leads
    with the same stack axis."""
    q: np.ndarray
    order: int
    kappa: Packed            # n x n
    eps: Packed              # k x n
    X: Packed                # n x (n-k)
    Z: Packed                # n x k
    chi: Packed              # (n-k) x n
    J: Packed                # k x (n-k)
    mu: Packed               # (n-k) x n
    kD: Packed               # (n-k) x (n-k) Gram of X
    kD_inv: Packed


def _max_dev(m, ref=0.0):
    """Per point: the largest |entry of m - ref| (0 for an empty m)."""
    return np.abs(m - ref).max(axis=(-2, -1), initial=0.0)


def base_at(system: NonholonomicSystem, q, order: int = 1) -> BaseData:
    """Evaluate all base-level geometry at q to the requested jet order,
    enforcing the pointwise invariants (metric symmetry and positive
    definiteness, constraint rank, adapted identity block, frame duality).

    q is one point, shape (n,), or a stack of B points, shape (B, n).  A
    stack is evaluated as one pass whose arrays lead with the stack axis;
    each point's slice equals base_at at that point alone, bit for bit.
    Every check runs on every point with the same thresholds and in the
    same order; the first failing check raises, naming the first point
    that fails it.
    """
    q = np.asarray(q, dtype=float)
    for qi in (q if q.ndim == 2 else (q,)):
        system.check_domain(qi)
    n, k = system.n, system.k
    qs = q.reshape(-1, n)                       # one row per point
    lead = q.shape[:-1]
    comp = get_compiled(system)

    kappa = comp.metric.packed(q, order)
    i = _first(_max_dev(kappa.val, kappa.val.swapaxes(-1, -2)) > SYM_TOL)
    if i is not None:
        raise GeometryError(f"metric not symmetric at q={qs[i].tolist()}")
    evmin = np.linalg.eigvalsh(kappa.val).min(axis=-1)
    i = _first(evmin <= POSDEF_TOL)
    if i is not None:
        raise GeometryError(
            f"metric not positive definite at q={qs[i].tolist()} "
            f"(min eigenvalue {evmin.reshape(-1)[i]:.3e})")

    if k > 0:
        eps = comp.eps.packed(q, order)
        smin = np.linalg.svd(eps.val, compute_uv=False).min(axis=-1)
        i = _first(smin <= RANK_TOL)
        if i is not None:
            raise GeometryError(
                f"constraint forms rank-deficient at q={qs[i].tolist()} "
                f"(min singular value {smin.reshape(-1)[i]:.3e})")
    else:
        eps = pk_const(np.zeros(lead + (0, n)), n, order)

    if system.adapted is not None:
        blk = eps.val[..., list(system.s_indices)]
        i = _first(_max_dev(blk, np.eye(k)) > ADAPTED_TOL)
        if i is not None:
            raise GeometryError(
                "adapted-declaration mismatch: constraint forms do not have "
                f"an identity block over s-columns {list(system.s_indices)} "
                f"at q={qs[i].tolist()}")

    X = _d_frame_at(system, comp, q, eps, order)
    Z = _w_frame_at(system, comp, q, kappa, eps, order)

    if k > 0:
        i = _first(_max_dev(eps.val @ Z.val, np.eye(k)) > DUALITY_TOL)
        if i is not None:
            raise GeometryError(
                f"complement frame not dual to constraints at q={qs[i].tolist()}")
        i = _first(_max_dev(eps.val @ X.val) > DUALITY_TOL)
        if i is not None:
            raise GeometryError(
                f"D-frame does not lie in the constraint kernel at q={qs[i].tolist()}")

    F = pk_hstack(X, Z)
    Finv = pk_inv(F, what="frame matrix [X|Z]")
    chi = pk_rows(Finv, 0, n - k)
    epshat = pk_rows(Finv, n - k, n)
    if k > 0:
        i = _first(_max_dev(epshat.val, eps.val) > DUALITY_TOL)
        if i is not None:
            raise GeometryError(
                f"coframe rows do not reproduce the constraint forms at q={qs[i].tolist()}")

    kD = pk_matmul(pk_matmul(pk_transpose(X), kappa), X)
    kD_inv = pk_inv(kD, what="D-frame Gram matrix")
    kWD = pk_matmul(pk_matmul(pk_transpose(Z), kappa), X)
    J = pk_matmul(kWD, kD_inv)
    mu = pk_add(chi, pk_matmul(pk_transpose(J), eps))
    return BaseData(q=q, order=order, kappa=kappa, eps=eps, X=X, Z=Z,
                    chi=chi, J=J, mu=mu, kD=kD, kD_inv=kD_inv)


def _d_frame_at(system, comp, q, eps, order) -> Packed:
    n, k = system.n, system.k
    lead = q.shape[:-1]
    if system._d_frame_c is not None:
        return pk_transpose(comp.d.packed(q, order))
    if system.adapted is not None:
        # X_alpha = d/dr^alpha - A^a_alpha d/ds^a, with A^a_alpha the
        # r-column entries of eps^a (identity block already verified).
        r_idx, s_idx = system.r_indices, system.s_indices
        val = np.zeros(lead + (n, n - k))
        d1 = np.zeros(lead + (n, n, n - k)) if order >= 1 else None
        d2 = np.zeros(lead + (n, n, n, n - k)) if order >= 2 else None
        for al, r in enumerate(r_idx):
            val[..., r, al] = 1.0
            for a, s in enumerate(s_idx):
                val[..., s, al] = -eps.val[..., a, r]
                if order >= 1:
                    d1[..., s, al] = -eps.d1[..., a, r]
                if order >= 2:
                    d2[..., s, al] = -eps.d2[..., a, r]
        return Packed(val, d1, d2)
    if k == 0:
        return pk_const(np.tile(np.eye(n), lead + (1, 1)), n, order)
    return _kernel_frame(eps)


def _kernel_frame(eps: Packed) -> Packed:
    """Kernel basis of eps(q): per pivot pattern of the stack's points,
    -B^-1 F in the pivot rows (B the pivot-column block of eps, F its
    free columns) and the identity in the free rows.  The pivot checks
    keep B away from singular, so pk_inv adds no guard (tol 0)."""
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
    """The kernel basis for the pivot columns piv of every point of eps."""
    n = eps.val.shape[-1]
    free = [c for c in range(n) if c not in piv]

    def block(cols):
        return Packed(*(None if m is None else m[..., cols]
                        for m in (eps.val, eps.d1, eps.d2)))

    M = pk_matmul(pk_inv(block(list(piv)), tol=0.0, what="pivot block"),
                  block(free))
    X = [None if m is None else np.zeros(m.shape[:-2] + (n, len(free)))
         for m in (M.val, M.d1, M.d2)]
    for x, m in zip(X, (M.val, M.d1, M.d2)):
        if x is not None:
            x[..., list(piv), :] = -m
    X[0][..., free, range(len(free))] = 1.0
    return Packed(*X)


def _w_frame_at(system, comp, q, kappa, eps, order) -> Packed:
    n, k = system.n, system.k
    lead = q.shape[:-1]
    if system._w_frame_c is not None:
        return pk_transpose(comp.w.packed(q, order))
    if system.adapted is not None:
        val = np.zeros(lead + (n, k))
        for a, s in enumerate(system.s_indices):
            val[..., s, a] = 1.0
        return pk_const(val, n, order)
    if k == 0:
        return pk_const(np.zeros(lead + (n, 0)), n, order)
    # kappa-orthogonal complement, normalized so eps(Z) = identity
    Z0 = pk_matmul(pk_inv(kappa, what="metric"), pk_transpose(eps))
    G = pk_matmul(eps, Z0)
    return pk_matmul(Z0, pk_inv(G, what="constraint Gram matrix"))


# ------------------------------------------------------------ public ops
def pick_default_W(system: NonholonomicSystem, q) -> np.ndarray:
    """Columns of the complement frame Z at q: the user's w_frame when
    given; d/ds^a for adapted systems; else the kappa-orthogonal
    complement normalized to eps^a(Z_b) = delta."""
    bd = base_at(system, q, order=0)
    return bd.Z.val.copy()


def frame_at(system: NonholonomicSystem, q, order: int = 1) -> FrameAtPoint:
    """D-frame X, complement Z, dual coframe rows chi, and elimination
    coefficients J at q, entries as Jet2 of the requested order."""
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    bd = base_at(system, q, order)
    return FrameAtPoint(X=pk_unpack(bd.X), Z=pk_unpack(bd.Z),
                        chi=pk_unpack(bd.chi), J=pk_unpack(bd.J), order=order)


def embed(system: NonholonomicSystem, p: PointM) -> np.ndarray:
    """Canonical momenta p_i on T*Q of the point (q, ptilde):
    p = ptilde_alpha mu^alpha.  Internally cross-checked against the
    metric image kappa-flat(v) of the velocity v in D with
    X-momenta ptilde."""
    system.check_point(p)
    bd = base_at(system, p.q, order=0)
    pi = bd.mu.val.T @ p.ptilde
    v = bd.X.val @ (bd.kD_inv.val @ p.ptilde)
    p2 = bd.kappa.val @ v
    err = float(np.max(np.abs(pi - p2), initial=0.0))
    if err > DUALITY_TOL:
        raise GeometryError(
            f"embedding routes disagree by {err:.3e} (internal invariant)")
    return pi


def _omega_arrays(system: NonholonomicSystem, pt, bd: BaseData,
                  order: int):
    """Omega_M at momenta pt over bd.q in the chart basis, with its parts:
    returns (E, dE_q, dE_p, Omega, dOmega).  E is the momentum-weighted
    antisymmetrized derivative of mu (the q-q block of Omega).  At order
    1, dE_q and dE_p are E's derivatives along q and along the momenta,
    and dOmega is Omega's along the chart directions, q first; else they
    are None.  ``bd`` has order at least order + 1; pt and bd may carry
    the same leading stack axis.  No checks."""
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
    dE_q = dE_p = dOmega = None
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
    return E, dE_q, dE_p, Omega, dOmega


def _c_basis(system: NonholonomicSystem, bd: BaseData) -> np.ndarray:
    """The basis of C in the chart basis: the zero-momentum lifts of the
    D-frame, then the momentum directions (dimM x 2(n-k), stacked like
    bd)."""
    n, nk = system.n, system.n - system.k
    C = np.zeros(bd.q.shape[:-1] + (system.dimM, 2 * nk))
    C[..., :n, :nk] = bd.X.val
    C[..., n:, nk:] = np.eye(nk)
    return C


def _omega_packed(system: NonholonomicSystem, p: PointM, bd: BaseData,
                  order: int) -> tuple[Packed, np.ndarray]:
    """Omega_M at p as a Packed matrix whose d1 (order 1) runs along the
    chart directions, q first, then the momenta, from base data ``bd``
    at p.q of order at least order + 1 (p and bd may be stacked alike).
    Returns the matrix and |det| of its restriction to C, which must
    exceed NONDEG_TOL at every point."""
    _, _, _, val, d1 = _omega_arrays(system, p.ptilde, bd, order)
    # nondegeneracy of the restriction to C
    C = _c_basis(system, bd)
    det = np.abs(np.linalg.det(C.swapaxes(-1, -2) @ val @ C))
    i = _first(det <= NONDEG_TOL)
    if i is not None:
        raise GeometryError(
            "restriction of the 2-form to C is degenerate "
            f"(|det| = {det.reshape(-1)[i]:.3e})")
    return Packed(val, d1), det


def omega_M(system: NonholonomicSystem, p: PointM, order: int = 0) -> TwoFormAtPoint:
    """Pullback of the canonical symplectic form to M, in the chart basis.

    The embedded momenta p_i(q, ptilde) = ptilde_alpha mu^alpha_i(q) are
    differentiated along the chart variables; the matrix is assembled
    from d p_i / d q^j antisymmetrized (top-left block) and the
    d p_i / d ptilde_alpha block.  order=1 returns entries as Jet2 over
    the chart variables (one more derivative level, for bracket use).
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    system.check_point(p)
    bd = base_at(system, p.q, order + 1)
    om, det = _omega_packed(system, p, bd, order)
    mat = om.val if order == 0 else pk_unpack(om)
    return TwoFormAtPoint(mat=mat, order=order,
                          restricted_abs_det=float(det))


def splitting_at(system: NonholonomicSystem, p: PointM) -> SplittingAtPoint:
    """Pointwise splitting T M = C (+) W-lift in the chart basis.

    C is spanned by the zero-momentum lifts of the D-frame together with
    all d/dptilde; the W-lift takes Z_a with zero momentum components.
    Projections come from the dual coframe of the assembled basis, which
    here collapses to P_W = Z-lift (x) pulled-back eps."""
    system.check_point(p)
    n, k = system.n, system.k
    bd = base_at(system, p.q, order=0)
    dim = system.dimM
    C = _c_basis(system, bd)
    W = np.zeros((dim, k))
    W[:n, :] = bd.Z.val
    P_W = np.zeros((dim, dim))
    P_W[:n, :n] = bd.Z.val @ bd.eps.val
    P_C = np.eye(dim) - P_W
    return SplittingAtPoint(dimM=dim, C_basis=C, W_basis=W, P_C=P_C, P_W=P_W)


def adapted_coframe(system: NonholonomicSystem, q):
    """The frame-adapted covector basis at q: the duals chi^alpha of the
    D-frame within {X, Z}, the constraint forms eps^a, and the momentum
    differentials, each padded to chart covectors.

    Returns (names, rows) with rows[i] the chart components of the i-th
    basis covector.  A chi row that coincides with a coordinate
    differential named like its frame label keeps the bare label (for
    the snakeboard, chi^psi = dpsi); otherwise it is alpha_<label>."""
    bd = base_at(system, q, order=0)
    n, k = system.n, system.k
    nk = n - k
    dim = system.dimM
    labels = system.momentum_labels
    names = []
    rows = np.zeros((dim, dim))
    for al in range(nk):
        rows[al, :n] = bd.chi.val[al]
        label = labels[al]
        if label in system.coord_names:
            unit = np.zeros(n)
            unit[system.coord_names.index(label)] = 1.0
            if np.max(np.abs(bd.chi.val[al] - unit)) <= 1e-12:
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
                  momentum_lo: float = -2.0, momentum_hi: float = 2.0) -> list:
    """Deterministic sample points: base coordinates uniform in the
    declared domain boxes ([-2, 2] when unbounded), momenta uniform in
    [momentum_lo, momentum_hi].  Draw order per point: coordinates in
    declaration order, then momenta."""
    rng = Lcg64(seed)
    pts = []
    for _ in range(count):
        q = _sample_q(system, rng)
        pt = np.array([rng.uniform(momentum_lo, momentum_hi)
                       for _ in range(system.n - system.k)])
        pts.append(PointM(q, pt))
    return pts
