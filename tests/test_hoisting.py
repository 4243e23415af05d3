"""What is constant in q is computed once per system: constant grids
(metric, potential, constraint forms, declared frames), the canonical
frames of adapted coordinates, and the index bookkeeping of base_at.

Each invariant is established once, by the code that can prove it.  The
loader's probes check the constant grids, with the same thresholds,
messages and exception types, and after load base_at checks them no
more.  An adapted s-block that is the constant identity exactly needs
no check: the compiled grid copies its constants into every evaluation,
and eps(X) of the adapted frame is exactly 0; a block only near the
identity keeps both checks.  Every check whose input depends on the
point runs at every point.  On an adapted system the identity s-block
certifies the rank, the duality eps(d/ds) = 1, the frame matrix [X|Z]
and its coframe, so none of these is checked again where the block
passes; the messages and their precedence are unchanged.  Once loaded,
the compiled form is only read.  Shared constant arrays are read-only,
the closed-form adapted coframe is the inverse of the frame matrix, and
the per-system data does not keep a system alive.  The work counts of
an integration, whose RK4 stages run base_at's frame half at order 1
and its Gram half on values, and of a base evaluation are pinned by
counting calls, not by timing."""

import gc
import weakref

import numpy as np
import pytest

import nhk
from expr_corpus import nested_system
from nhk import (base_at, builtin_definition, complement_at, load_system,
                 sample_points)
from nhk import (_compile, _linalg, bracket, curvature, jacobiator, manifold,
                 sim)
from nhk._compile import get_compiled
from nhk._rng import Lcg64
from nhk.errors import GeometryError, LoadError
from nhk.manifold import _sample_q

def _first_probe_point() -> np.ndarray:
    """The first point load_system probes on nh_particle's coordinates."""
    return _sample_q(load_system(builtin_definition("nh_particle")),
                     Lcg64(20210))


# ------------------------------------------------------ constant checks
@pytest.mark.parametrize("metric, reason", [
    ([["1", "0.5", "0"], ["0", "1", "0"], ["0", "0", "1"]],
     "metric not symmetric at q={q}"),
    ([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1e-10"]],
     "metric not positive definite at q={q} (min eigenvalue 1.000e-10)"),
    ([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]],
     "metric not positive definite at q={q} (min eigenvalue -1.000e+00)"),
], ids=["asymmetric", "eigenvalue-at-tolerance", "indefinite"])
def test_a_bad_constant_metric_is_refused_at_load(metric, reason):
    definition = builtin_definition("nh_particle")
    q0 = _first_probe_point()
    definition["metric"] = metric
    # twice: a failed load leaves nothing behind
    for _ in range(2):
        with pytest.raises(LoadError) as err:
            load_system(definition)
        assert err.value.violations == [
            f"at sampled point q={np.round(q0, 6).tolist()}: "
            + reason.format(q=q0.tolist())]


@pytest.mark.parametrize("forms, reason", [
    ([["0", "0", "0"]], "constraint forms rank-deficient at q={q} "
                        "(min singular value 0.000e+00)"),
    ([["0.5", "0", "2"]], "adapted-declaration mismatch: constraint forms "
                          "do not have an identity block over s-columns "
                          "[2] at q={q}"),
], ids=["rank-deficient", "no-identity-block"])
def test_bad_constant_constraint_forms_are_refused_at_load(forms, reason):
    definition = builtin_definition("nh_particle")
    q0 = _first_probe_point()
    definition["constraint_forms"] = forms
    with pytest.raises(LoadError) as err:
        load_system(definition)
    assert err.value.violations == [
        f"at sampled point q={np.round(q0, 6).tolist()}: "
        + reason.format(q=q0.tolist())]


def test_a_q_dependent_metric_is_checked_at_every_point(monkeypatch):
    # definite everywhere but on a thin slab around x = -1.9, which the
    # load-time probes miss
    definition = builtin_definition("nh_particle")
    definition["metric"][0][0] = "1 - 3*exp(-50*(x-(-1.9))^2)"
    system = load_system(definition)
    eigvalsh = _count(monkeypatch, np.linalg, "eigvalsh")
    calls = 0
    for p in sample_points(system, 5, seed=2):
        if abs(p.q[0] + 1.9) > 0.5:
            base_at(system, p.q, order=1)
            calls += 1
    for _ in range(2):
        with pytest.raises(GeometryError,
                           match=r"metric not positive definite at "
                                 r"q=\[-1\.9, 0\.3, 0\.1\]"):
            base_at(system, [-1.9, 0.3, 0.1], order=1)
    # a passing point does not excuse the next one
    assert calls > 0 and eigvalsh.calls == calls + 2


def test_constant_grids_are_marked_checked_only_when_constant(
        system, monkeypatch):
    # after load, base_at takes no eigvalsh for a constant metric and no
    # SVD for constant forms or an exact identity block; otherwise one
    # per call, for a stack as for a point
    comp = get_compiled(system)
    counts = [_count(monkeypatch, np.linalg, f) for f in ("eigvalsh", "svd")]
    pts = sample_points(system, 3, seed=13)
    for q in (pts.q, pts.q[1]):
        for order in (0, 1, 2):
            base_at(system, q, order)
    assert [c.calls for c in counts] == [
        0 if constant else 6 for constant in
        (comp.metric.constant, comp.eps.constant or comp.identity_block)]


# ---------------------------------------------------- closed-form coframe
def _adapted_systems(request):
    fixtures = [request.getfixturevalue(name) for name in
                ("particle", "disk", "twist3", "twist5", "holonomic")]
    return fixtures + [load_system(nested_system(seed)) for seed in (0, 1, 2)]


def test_adapted_coframe_is_the_inverse_of_the_frame_matrix(request):
    for system in _adapted_systems(request):
        n, nk = system.n, system.n - system.k
        for p in sample_points(system, 6, seed=23):
            bd = base_at(system, p.q, order=2)
            Z, chi = complement_at(system, bd)
            Finv = np.linalg.inv(np.hstack([bd.X.val, Z]))
            tol = 1e-15 * max(1.0, float(np.abs(Finv).max()))
            assert np.abs(chi - Finv[:nk]).max() <= tol, system.name
            # the eps-hat rows: the constraint forms (identity s-block)
            assert np.abs(bd.eps.val - Finv[nk:]).max() <= tol, system.name
            dr = np.eye(n)[list(system.r_indices)]
            assert np.array_equal(chi, dr)


def test_the_identity_block_certifies_the_adapted_frames(request):
    for system in _adapted_systems(request):
        k, s_idx = system.k, list(system.s_indices)
        for p in sample_points(system, 20, seed=29):
            bd = base_at(system, p.q, order=0)
            Z = complement_at(system, bd)[0]
            # the complement is d/ds
            assert np.array_equal(Z, np.eye(system.n)[:, s_idx])
            frame = np.hstack([bd.X.val, Z])
            assert abs(abs(np.linalg.det(frame)) - 1.0) <= 1e-12, system.name
            assert np.array_equal(bd.eps.val @ Z, bd.eps.val[:, s_idx])
            smin = np.linalg.svd(bd.eps.val, compute_uv=False).min(
                initial=np.inf)
            assert smin >= 1.0 - k * manifold.ADAPTED_TOL, system.name


# a form whose s-block leaves the identity only on a thin slab around
# x = -1.9, which the load-time probes miss; at y = 0 it is zero there
_BUMP_FORMS = [["-y", "0", "1 - exp(-50*(x-(-1.9))^2)"]]
_BLOCK_ONLY = [-1.9, 0.3, 0.1]            # rank 1, no identity block
_BLOCK_AND_RANK = [-1.9, 0.0, 0.1]        # the zero form
_GOOD = [0.5, 0.2, 0.1]


@pytest.mark.parametrize("points, reason", [
    ([_BLOCK_ONLY], "block"),
    ([_GOOD, _BLOCK_ONLY], "block"),
    ([_GOOD, _BLOCK_ONLY, _GOOD], "block"),
    ([_BLOCK_AND_RANK], "rank"),
    ([_GOOD, _BLOCK_AND_RANK], "rank"),
    # the rank is checked on the whole stack first, so it wins even
    # where an earlier point fails only the block
    ([_GOOD, _BLOCK_ONLY, _BLOCK_AND_RANK], "rank"),
    ([_GOOD, _BLOCK_AND_RANK, _BLOCK_ONLY], "rank"),
], ids=["block", "block-second", "block-middle", "rank", "rank-second",
        "rank-after-block", "rank-before-block"])
def test_q_dependent_adapted_failures_keep_their_messages(points, reason):
    definition = builtin_definition("nh_particle")
    definition["constraint_forms"] = _BUMP_FORMS
    system = load_system(definition)
    expected = {
        "block": f"adapted-declaration mismatch: constraint forms do not "
                 f"have an identity block over s-columns [2] at "
                 f"q={_BLOCK_ONLY}",
        "rank": f"constraint forms rank-deficient at q={_BLOCK_AND_RANK} "
                f"(min singular value 0.000e+00)",
    }[reason]
    q = points[0] if len(points) == 1 else points
    # a q-dependent s-block carries no certificate: checked at every point
    assert not get_compiled(system).identity_block
    for order in (0, 1, 2):
        with pytest.raises(GeometryError) as err:
            base_at(system, q, order=order)
        assert str(err.value) == expected
    base_at(system, [_GOOD, _GOOD], order=2)


# ---------------------------------------------------- exact identity block
def _with_s_entry(entry: str) -> dict:
    """nh_particle with its s-block entry (the form's dz coefficient)
    replaced by ``entry``."""
    definition = builtin_definition("nh_particle")
    definition["constraint_forms"] = [["-y", "0", entry]]
    return definition


def test_the_identity_block_is_recorded_when_exact(request, monkeypatch):
    for system in _adapted_systems(request):
        assert get_compiled(system).identity_block, system.name
    for name in ("snakeboard", "kernel_path", "kernel2", "free"):
        comp = get_compiled(request.getfixturevalue(name))
        assert not comp.identity_block, name
    # a folded constant counts; a value off 1, or a q-dependent entry,
    # not; an exact block is not checked, nor is eps(X), else both are
    checks = _count(monkeypatch, manifold, "_max_dev")
    for entry, exact in [("1", True), ("2 - 1", True),
                         ("1.0000000000001", False), ("z/z", False)]:
        system = load_system(_with_s_entry(entry))
        assert get_compiled(system).identity_block is exact, entry
        checks.calls = 0
        base_at(system, [0.1, 0.2, 0.3], order=1)
        assert checks.calls == (0 if exact else 2), entry


@pytest.mark.parametrize("entry", ["1", "1.0000000000001"])
def test_a_near_identity_block_keeps_the_kernel_check(entry):
    # eps(X) = A - S A = (1 - S) A: within DUALITY_TOL while |A| is small,
    # beyond it at |A| = 5000 when S = 1 + 1e-13 (the block passes, as
    # |S - 1| <= ADAPTED_TOL)
    system = load_system(_with_s_entry(entry))
    far = [0.1, 5000.0, 0.2]
    for order in (0, 1, 2):
        if entry == "1":
            bd = base_at(system, far, order)
            assert not (bd.eps.val @ bd.X.val).any()
            continue
        for q in (far, [[0.1, 0.2, 0.3], far]):
            with pytest.raises(GeometryError) as err:
                base_at(system, q, order)
            assert str(err.value) == ("D-frame does not lie in the "
                                      f"constraint kernel at q={far}")


@pytest.mark.parametrize("name, entry, per_stage", [
    ("nh_particle", None, 0),
    ("rolling_disk", None, 0),
    # the near-identity block: its check and eps(X) at every stage
    ("nh_particle", "1.0000000000001", 2),
    # no adapted declaration: eps(X) = 0; the complement's checks, eps(Z)
    # = 1 and the coframe rows, are not made in an RK4 stage
    ("snakeboard", None, 1),
])
def test_value_checks_per_rk4_stage(name, entry, per_stage, monkeypatch):
    steps = 3
    checks = _count(monkeypatch, manifold, "_max_dev")
    definition = builtin_definition(name) if entry is None else \
        _with_s_entry(entry)
    system = load_system(definition)
    comp = get_compiled(system)
    assert comp.metric.constant and not comp.eps.constant
    assert comp.identity_block == (per_stage == 0)
    checks.calls = 0
    init = sample_points(system, 1, seed=3)[0]
    assert nhk.integrate(system, init, 0.01, steps).completed
    assert checks.calls == (1 + 4 * steps) * per_stage


# ------------------------------------------------------------ read-only
def test_hoisted_arrays_are_read_only(particle, snakeboard):
    q = [0.1, 0.2, 0.3]
    bd = base_at(particle, q, order=2)
    Z, chi = complement_at(particle, bd)
    shared = [bd.kappa.val, bd.kappa.d1, bd.kappa.d2, chi, Z]
    _, grad, hess = get_compiled(particle).potential.evaluate(q, 2)
    shared += [grad, hess]
    sb = base_at(snakeboard, sample_points(snakeboard, 1, seed=4)[0].q, 1)
    shared += [sb.kappa.val, sb.kappa.d1]
    for a in shared:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0
    # the next evaluation sees the same, unchanged values
    again = base_at(particle, q, order=2)
    assert again.kappa.val is bd.kappa.val
    assert np.array_equal(again.kappa.val, np.eye(3))


def test_stacked_constants_are_private_contiguous_copies(particle):
    qs = sample_points(particle, 3, seed=9).q
    bd = base_at(particle, qs, order=1)
    _, chi = complement_at(particle, bd)
    for a in (bd.kappa.val, bd.kappa.d1, chi):
        assert a.flags.c_contiguous and a.flags.writeable


# --------------------------------------------------------- compile once
def test_one_compile_per_load(system, monkeypatch):
    compiles = []
    init = _compile.CompiledSystem.__init__

    def counting_init(self, s):
        compiles.append(s.name)
        init(self, s)

    monkeypatch.setattr(_compile.CompiledSystem, "__init__", counting_init)
    s = load_system(system.definition)
    assert compiles == [s.name]
    assert get_compiled(s) is get_compiled(s)
    # once loaded, the compiled form is only read: no attribute is set,
    # and every entry stays the same object
    comp = get_compiled(s)
    before = dict(vars(comp))
    assert comp.loaded is True
    writes = []
    monkeypatch.setattr(_compile.CompiledSystem, "__setattr__",
                        lambda self, key, value: writes.append(key))
    nhk.cross_validate(s, samples=3, seed=5)
    p = sample_points(s, 1, seed=7)[0]
    nhk.integrate(s, p, 0.01, 3)
    dim, e = s.dimM, np.eye(s.dimM)
    for call in (base_at, nhk.pick_default_W, nhk.adapted_coframe):
        call(s, p.q)
    for call in (nhk.embed, nhk.omega_M, nhk.splitting_at,
                 nhk.chart_tensors, nhk.nh_bivector, nhk.hamiltonian_M,
                 nhk.nh_vector_field, nhk.curvature_coeffs):
        call(s, p)
    nhk.curvature_KW_M(s, p, e[0], e[1])
    nhk.curvature_KW_Q(s, p.q, e[0, :s.n], e[1, :s.n])
    triple = (0, dim - 2, dim - 1)
    nhk.jacobiator_bruteforce(s, p, triple)
    nhk.jacobiator_global(s, p, *e[list(triple)])
    if s.adapted is not None:
        nhk.adapted_data(s, p.q)
        nhk.jacobiator_km(s, p, triple)
    assert compiles == [s.name]
    assert writes == []
    assert vars(comp).keys() == before.keys()
    for key, value in vars(comp).items():
        assert value is before[key], key


# ---------------------------------------------------------------- memory
def test_a_loaded_system_is_not_kept_alive():
    system = load_system(builtin_definition("rolling_disk"))
    nhk.integrate(system, sample_points(system, 1, seed=1)[0], 0.01, 3)
    nhk.cross_validate(system, samples=2, seed=1)
    ref = weakref.ref(system)
    del system
    gc.collect()
    assert ref() is None


# ------------------------------------------------------------ work counts
class _Counter:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def _count(monkeypatch, owner, name) -> _Counter:
    counter = _Counter(getattr(owner, name))
    monkeypatch.setattr(owner, name, counter)
    return counter


@pytest.mark.parametrize("name, per_stage", [
    ("nh_particle", (0, 1, 1)),
    ("rolling_disk", (0, 1, 1)),
    # no adapted declaration: the rank; the frame matrix [X|Z] is not
    # inverted in an RK4 stage
    ("snakeboard", (1, 1, 1)),
])
def test_linear_algebra_per_rk4_stage(name, per_stage, monkeypatch):
    steps = 3
    counts = [_count(monkeypatch, np.linalg, f)
              for f in ("svd", "det", "inv")]
    system = load_system(builtin_definition(name))
    if system.adapted is not None:
        # the probes pass the identity block, which certifies the rank
        assert counts[0].calls == 0
    for c in counts:
        c.calls = 0
    init = sample_points(system, 1, seed=3)[0]
    assert nhk.integrate(system, init, 0.01, steps).completed
    assert tuple(c.calls for c in counts) == tuple(
        (1 + 4 * steps) * c for c in per_stage)


@pytest.mark.parametrize("name", ["snakeboard", "nh_particle"])
def test_omega_M_takes_one_determinant_of_the_restricted_gram(
        name, monkeypatch):
    system = load_system(builtin_definition(name))
    p = sample_points(system, 1, seed=3)[0]
    det = _count(monkeypatch, np.linalg, "det")
    for order in (0, 1):
        det.calls = 0
        base_at(system, p, order + 1)
        in_base = det.calls
        det.calls = 0
        nhk.omega_M(system, p, order)
        assert det.calls == in_base + 1
    # the brute-force route inverts G after that one guard, unguarded
    for pts in (p, sample_points(system, 2, seed=3)):
        det.calls = 0
        base_at(system, pts, 2)
        in_base = det.calls
        det.calls = 0
        nhk.jacobiator_tensor(system, pts, "bruteforce")
        assert det.calls == in_base + 1


def test_the_pivot_solve_takes_no_determinant(kernel_path, monkeypatch):
    # the pivots were kept above PIVOT_TOL, so the pivot block is inverted
    # unguarded: one inverse per pivot pattern, no determinant
    eps = get_compiled(kernel_path).eps.packed(
        sample_points(kernel_path, 4, seed=3).q, 2)
    det = _count(monkeypatch, np.linalg, "det")
    inv = _count(monkeypatch, np.linalg, "inv")
    X = manifold._kernel_frame(eps)
    assert (det.calls, inv.calls) == (0, 1)
    assert np.abs(eps.val @ X.val).max() <= manifold.DUALITY_TOL


@pytest.mark.parametrize("name", ["snakeboard", "nh_particle",
                                  "rolling_disk"])
def test_integrate_work_counts_on_a_constant_metric(name, monkeypatch):
    steps = 6
    eigvalsh = _count(monkeypatch, np.linalg, "eigvalsh")
    system = load_system(builtin_definition(name))
    # the load-time probes are one stack, which passes the metric checks
    assert eigvalsh.calls == 1
    assert get_compiled(system).metric.constant
    frame = _count(monkeypatch, sim, "_frame_at")
    residual = _count(monkeypatch, sim, "_residual")
    init = sample_points(system, 1, seed=3)[0]
    tr = nhk.integrate(system, init, 0.01, steps)
    assert tr.completed
    assert frame.calls == 1 + 4 * steps
    assert eigvalsh.calls == 1
    assert residual.calls == len(tr.times) == steps + 1


def test_integrate_work_counts_on_a_q_dependent_metric(twist5, monkeypatch):
    steps = 4
    eigvalsh = _count(monkeypatch, np.linalg, "eigvalsh")
    frame = _count(monkeypatch, sim, "_frame_at")
    residual = _count(monkeypatch, sim, "_residual")
    init = sample_points(twist5, 1, seed=3)[0]
    tr = nhk.integrate(twist5, init, 0.01, steps)
    assert tr.completed
    assert frame.calls == eigvalsh.calls == 1 + 4 * steps
    assert residual.calls == steps + 1


def test_an_rk4_stage_builds_no_derivative_of_the_gram_matrix(
        system, monkeypatch):
    # each stage runs the frame half at order 1 and the Gram half on
    # values: no derivative of kD, kD^-1 or mu is built (the halves are
    # recorded under both names, so a base_at call would show too).  The
    # Gram half forms no mu: its two products are X^T kappa and kD, and
    # the stage makes no other, but for the kernel frame's B^-1 F
    steps = 3
    orders = []
    frame, gram = manifold._frame_at, manifold._gram_at
    matmul = _count(monkeypatch, manifold, "pk_matmul")

    def frame_at(system, q, order):
        orders.append(("frame", order))
        return frame(system, q, order)

    def gram_at(kappa, X):
        before = matmul.calls
        out = gram(kappa, X)
        orders.append(("gram",) + tuple(m.order for m in (kappa, X, *out))
                      + (matmul.calls - before,))
        return out

    for owner in (manifold, sim):
        monkeypatch.setattr(owner, "_frame_at", frame_at)
        monkeypatch.setattr(owner, "_gram_at", gram_at)
    init = sample_points(system, 1, seed=3)[0]
    assert nhk.integrate(system, init, 0.01, steps).completed
    stages = 1 + 4 * steps
    assert orders == [("frame", 1), ("gram", 0, 0, 0, 0, 0, 2)] * stages
    kernel_frame = system.d_frame is None and system.adapted is None
    assert matmul.calls == (2 + kernel_frame) * stages


def test_the_coordinate_route_reads_j_from_mu(adapted_system, monkeypatch):
    # J = (mu Z)^T with Z = d/ds: _km_point_data slices bd.mu and makes no
    # product of its own
    pts = sample_points(adapted_system, 3, seed=5)
    bd = base_at(adapted_system, pts, 1)
    counters = [_count(monkeypatch, mod, "pk_matmul")
                for mod in (_linalg, manifold, bracket, curvature, jacobiator)
                if hasattr(mod, "pk_matmul")]
    data = jacobiator._km_point_data(adapted_system, pts, bd)
    assert [c.calls for c in counters] == [0] * len(counters)
    s_idx = list(adapted_system.s_indices)
    assert np.array_equal(data["J"], bd.mu.val[..., s_idx].swapaxes(-1, -2))
