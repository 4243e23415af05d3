"""What is constant in q is computed once per system: constant grids
(metric, potential, constraint forms, declared frames), the canonical
frames of adapted coordinates, and the index bookkeeping of base_at.

The checks on a constant grid run until they have passed once for the
system, with the same thresholds, messages and exception types; every
check whose input depends on q still runs at every point.  Shared
constant arrays are read-only, the closed-form adapted coframe is the
inverse of the frame matrix, and the per-system data does not keep a
system alive.  The work
counts of an integration are pinned by counting calls, not by timing."""

import gc
import weakref

import numpy as np
import pytest

import nhk
from expr_corpus import nested_system
from nhk import base_at, builtin_definition, load_system, sample_points
from nhk import _compile, manifold, sim
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
    # twice: a failed check is not recorded as passed
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


def test_a_q_dependent_metric_is_checked_at_every_point():
    # definite everywhere but on a thin slab around x = -1.9, which the
    # load-time probes miss
    definition = builtin_definition("nh_particle")
    definition["metric"][0][0] = "1 - 3*exp(-50*(x-(-1.9))^2)"
    system = load_system(definition)
    for p in sample_points(system, 5, seed=2):
        if abs(p.q[0] + 1.9) > 0.5:
            base_at(system, p.q, order=1)
    for _ in range(2):
        with pytest.raises(GeometryError,
                           match=r"metric not positive definite at "
                                 r"q=\[-1\.9, 0\.3, 0\.1\]"):
            base_at(system, [-1.9, 0.3, 0.1], order=1)
    assert not get_compiled(system).metric_checked


def test_constant_grids_are_marked_checked_only_when_constant(system):
    comp = get_compiled(system)
    assert comp.metric_checked == comp.metric.constant
    assert comp.eps_checked == comp.eps.constant


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
            Finv = np.linalg.inv(np.hstack([bd.X.val, bd.Z.val]))
            tol = 1e-15 * max(1.0, float(np.abs(Finv).max()))
            assert np.abs(bd.chi.val - Finv[:nk]).max() <= tol, system.name
            # the eps-hat rows: the constraint forms (identity s-block)
            assert np.abs(bd.eps.val - Finv[nk:]).max() <= tol, system.name
            dr = np.eye(n)[list(system.r_indices)]
            assert np.array_equal(bd.chi.val, dr)
            assert not bd.chi.d1.any() and not bd.chi.d2.any()
            assert not bd.Z.d1.any() and not bd.Z.d2.any()


def test_the_frame_matrix_guard_still_runs_on_adapted_systems(
        particle, monkeypatch):
    seen = []
    original = manifold.check_nonsingular

    def counting(m, tol=1e-12, what="matrix"):
        seen.append(what)
        return original(m, tol, what)

    monkeypatch.setattr(manifold, "check_nonsingular", counting)
    base_at(particle, [0.1, 0.2, 0.3], order=1)
    assert seen == ["frame matrix [X|Z]"]


# ------------------------------------------------------------ read-only
def test_hoisted_arrays_are_read_only(particle, snakeboard):
    q = [0.1, 0.2, 0.3]
    bd = base_at(particle, q, order=2)
    shared = [bd.kappa.val, bd.kappa.d1, bd.kappa.d2, bd.chi.val,
              bd.chi.d1, bd.Z.val, bd.Z.d2]
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
    for pk in (bd.kappa, bd.chi):
        for a in (pk.val, pk.d1):
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


@pytest.mark.parametrize("name", ["snakeboard", "nh_particle",
                                  "rolling_disk"])
def test_integrate_work_counts_on_a_constant_metric(name, monkeypatch):
    steps = 6
    eigvalsh = _count(monkeypatch, np.linalg, "eigvalsh")
    system = load_system(builtin_definition(name))
    # the load-time probes are one stack, which passes the metric checks
    assert eigvalsh.calls == 1
    assert get_compiled(system).metric_checked
    base = _count(monkeypatch, sim, "base_at")
    residual = _count(monkeypatch, sim, "_residual")
    init = sample_points(system, 1, seed=3)[0]
    tr = nhk.integrate(system, init, 0.01, steps)
    assert tr.completed
    assert base.calls == 1 + 4 * steps
    assert eigvalsh.calls == 1
    assert residual.calls == len(tr.times) == steps + 1


def test_integrate_work_counts_on_a_q_dependent_metric(twist5, monkeypatch):
    steps = 4
    eigvalsh = _count(monkeypatch, np.linalg, "eigvalsh")
    base = _count(monkeypatch, sim, "base_at")
    residual = _count(monkeypatch, sim, "_residual")
    init = sample_points(twist5, 1, seed=3)[0]
    tr = nhk.integrate(twist5, init, 0.01, steps)
    assert tr.completed
    assert base.calls == eigvalsh.calls == 1 + 4 * steps
    assert residual.calls == steps + 1
