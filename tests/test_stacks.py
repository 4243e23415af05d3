"""Stacked evaluation: a stack of points gives, at every point, exactly
the arrays that evaluating that point alone gives (np.array_equal, not a
tolerance), for the packed linear algebra, the base pipeline, the
Jacobiator routes, the cross-validation sweep and every public
per-point operation.  A stacked PointM is the one container of many
points; the four operations that take one point refuse it, and on a
stack of no points the others return arrays whose stack axis has
length 0."""

import inspect
from operator import attrgetter
from types import SimpleNamespace

import numpy as np
import pytest

import nhk
from nhk import (
    PointM,
    base_at,
    builtin_definition,
    complement_at,
    cross_validate,
    integrate,
    jacobiator_bruteforce,
    jacobiator_tensor,
    load_system,
    sample_points,
)
from nhk._linalg import (
    Packed,
    pk_add,
    pk_at,
    pk_const,
    pk_hstack,
    pk_inv,
    pk_matmul,
    pk_neg,
    pk_rows,
    pk_sub,
    pk_transpose,
)
from nhk._rng import Lcg64
from nhk.errors import (LoadError, NhkError, ParameterError,
                        UnsupportedOperationError)
from nhk.jacobiator import (_global_tensor, _km_point_data, _km_value,
                            _trivector_brute)
from nhk.manifold import _c_basis, _inv, _sample_q, _splitting

FIELDS = ("kappa", "eps", "X", "mu", "kD", "kD_inv")


def assert_packed_equal(a: Packed, b: Packed, what=""):
    assert a.order == b.order, what
    for part in ("val", "d1", "d2"):
        x, y = getattr(a, part), getattr(b, part)
        assert (x is None) == (y is None), (what, part)
        if x is not None:
            assert x.shape == y.shape, (what, part)
            assert np.array_equal(x, y), (what, part)


# ------------------------------------------------------------ packed ops
def _random_packed(rng, lead, rows, cols, nvars, order):
    shape = lead + (rows, cols)
    val = rng.standard_normal(shape)
    if rows == cols:
        val = val + 3.0 * np.eye(rows)          # well conditioned
    d1 = d2 = None
    if order >= 1:
        d1 = rng.standard_normal(lead + (nvars, rows, cols))
    if order >= 2:
        d2 = rng.standard_normal(lead + (nvars, nvars, rows, cols))
        d2 = d2 + d2.swapaxes(-4, -3)
    return Packed(val, d1, d2)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("lead", [(1,), (3,), (2, 3)])
def test_pk_ops_on_a_stack_equal_the_ops_per_slice(order, lead):
    rng = np.random.default_rng(17 + order)
    V = 4
    A = _random_packed(rng, lead, 5, 5, V, order)
    B = _random_packed(rng, lead, 5, 5, V, order)
    R = _random_packed(rng, lead, 5, 3, V, order)
    ops = {
        "matmul": lambda a, b, r: pk_matmul(a, b),
        "matmul_rect": lambda a, b, r: pk_matmul(a, r),
        "matmul_chain": lambda a, b, r: pk_matmul(pk_matmul(
            pk_transpose(r), a), r),
        "inv": lambda a, b, r: pk_inv(a),
        "add": lambda a, b, r: pk_add(a, b),
        "sub": lambda a, b, r: pk_sub(a, b),
        "neg": lambda a, b, r: pk_neg(a),
        "transpose": lambda a, b, r: pk_transpose(r),
        "hstack": lambda a, b, r: pk_hstack(a, r),
        "rows": lambda a, b, r: pk_rows(r, 1, 4),
    }
    for name, op in ops.items():
        stacked = op(A, B, R)
        for i in np.ndindex(lead):
            single = op(pk_at(A, i), pk_at(B, i), pk_at(R, i))
            assert_packed_equal(pk_at(stacked, i), single, (name, i))


@pytest.mark.parametrize("order", [0, 1, 2])
def test_pk_const_and_pk_at_on_a_stack(order):
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((3, 2, 4))
    stacked = pk_const(vals, 6, order)
    parts = [pk_const(v, 6, order) for v in vals]
    for i, p in enumerate(parts):
        assert_packed_equal(pk_at(stacked, i), p, i)
    # an index array selects a sub-stack
    sub = pk_at(stacked, (np.array([2, 0]),))
    assert_packed_equal(sub, pk_const(vals[[2, 0]], 6, order))


def test_the_guarded_inverse_rejects_a_stack_with_one_singular_matrix():
    rng = np.random.default_rng(3)
    A = _random_packed(rng, (3,), 4, 4, 2, 1)
    val = A.val.copy()
    val[1] = 0.0
    with pytest.raises(NhkError, match="singular"):
        _inv(Packed(val, A.d1), "matrix")


# ------------------------------------------------------------ base data
def assert_stack_equals_points(system, qs, order):
    """base_at and complement_at on the stack qs equal them at each point
    alone, bit for bit, field by field."""
    stacked = base_at(system, qs, order)
    Z, chi = complement_at(system, stacked)
    assert chi.shape == (len(qs), system.n - system.k, system.n)
    for i, q in enumerate(qs):
        single = base_at(system, q, order)
        assert np.array_equal(stacked.q[i], single.q)
        for f in FIELDS:
            # d1 is None at order 0, and d2 is present at order 2
            assert getattr(single, f).order == order, (f, i)
            assert_packed_equal(pk_at(getattr(stacked, f), i),
                                getattr(single, f), (f, i))
        Z1, chi1 = complement_at(system, single)
        assert np.array_equal(Z[i], Z1), ("Z", i)
        assert np.array_equal(chi[i], chi1), ("chi", i)
    return stacked


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("size", [1, 2, 7, 70])
def test_base_at_on_a_stack_equals_base_at_per_point(system, order, size):
    qs = sample_points(system, size, seed=71).q
    stacked = assert_stack_equals_points(system, qs, order)
    assert stacked.q.shape == (size, system.n)
    assert stacked.order == order


@pytest.mark.parametrize("order", [0, 1, 2])
def test_kernel_frame_stack_mixing_pivot_patterns_equals_per_point(
        kernel_path, order):
    # eps = -y dx + dz: pivot on x where y != 0, on z where y = 0
    qs = np.array([[0.3, 0.7, -0.2], [0.1, 0.0, 0.5], [-1.2, -0.4, 1.0],
                   [0.9, 0.0, -1.5], [1.1, 1.3, 0.2]])
    stacked = assert_stack_equals_points(kernel_path, qs, order)
    for i in (1, 3):
        assert np.array_equal(stacked.X.val[i], np.eye(3)[:, :2])
    np.testing.assert_allclose(stacked.X.val[0, 0], [0.0, 1 / 0.7],
                               rtol=1e-15, atol=0.0)


def test_base_at_on_a_stack_names_the_first_failing_point():
    definition = builtin_definition("nh_particle")
    definition["metric"][0][0] = "1 - 3*exp(-50*(x-(-1.9))^2)"
    system = load_system(definition)
    pts = sample_points(system, 40, seed=42)
    qs = pts.q
    with pytest.raises(NhkError) as stacked:
        base_at(system, qs, order=2)
    # points 1 and 20 fail (see the cross_validate skip test); point 1's
    # error is the one raised
    with pytest.raises(NhkError) as single:
        base_at(system, qs[1], order=2)
    assert str(stacked.value) == str(single.value)


def test_base_at_rejects_a_stack_with_a_point_outside_the_domain(snakeboard):
    qs = sample_points(snakeboard, 3, seed=1).q.copy()
    qs[2, 0] = np.nan
    with pytest.raises(NhkError, match="non-finite"):
        base_at(snakeboard, qs, order=0)


# ------------------------------------------------------------ splitting
@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("size", [1, 2, 7])
def test_splitting_on_a_stack_equals_the_splitting_per_point(system, order,
                                                             size):
    rng = np.random.default_rng(23)
    k, nk = system.k, system.n - system.k
    lift = (rng.normal(size=(k, nk)), rng.normal(size=(k, nk)))
    qs = sample_points(system, size, seed=37).q
    bd = base_at(system, qs, order)
    C = _c_basis(system, bd, order)
    for i, q in enumerate(qs):
        assert_packed_equal(pk_at(C, i),
                            _c_basis(system, base_at(system, q, order), order))
    Z, _ = complement_at(system, bd)
    for lf in (None, lift):
        stacked = _splitting(system, bd, Z, lf)
        alone = []
        for q in qs:
            bd1 = base_at(system, q, order)
            alone.append(_splitting(system, bd1,
                                    complement_at(system, bd1)[0], lf))
        for part, got in enumerate(stacked):
            assert got.shape[0] == size
            for i, a in enumerate(alone):
                assert np.array_equal(got[i], a[part]), (part, i)


# ---------------------------------------------------------------- routes
def test_stacked_routes_equal_the_public_tensors(system):
    pts = ps = sample_points(system, 4, seed=13)
    bd = base_at(system, ps.q, order=2)
    brute = _trivector_brute(system, ps, bd)
    glob = _global_tensor(system, ps, bd, complement_at(system, bd)[0])
    for i, p in enumerate(pts):
        assert np.array_equal(brute[i], jacobiator_tensor(system, p,
                                                          "bruteforce"))
        assert np.array_equal(glob[i], jacobiator_tensor(system, p,
                                                         "global"))
    if system.adapted is None:
        return
    km = _km_value(_km_point_data(system, ps, bd))
    for i, p in enumerate(pts):
        assert np.array_equal(km[i], jacobiator_tensor(system, p, "km"))
    # exact structure: entries with fewer than two momentum covectors are
    # 0.0, no zero is signed, and the tensor is antisymmetric bit for bit
    n, d = system.n, system.dimM
    momenta = (np.arange(d) >= n).astype(int)
    few = (momenta[:, None, None] + momenta[None, :, None]
           + momenta[None, None, :]) < 2
    assert (km[:, few] == 0.0).all()
    assert not np.signbit(km[km == 0.0]).any()
    assert (km == -km.transpose(0, 2, 1, 3)).all()
    assert (km == -km.transpose(0, 1, 3, 2)).all()
    assert (km == km.transpose(0, 2, 3, 1)).all()


def test_km_route_on_a_large_stack_equals_the_public_tensor(adapted_system):
    pts = ps = sample_points(adapted_system, 70, seed=31)
    km = _km_value(_km_point_data(adapted_system, ps,
                                  base_at(adapted_system, ps.q, order=2)))
    for i, p in enumerate(pts):
        assert np.array_equal(km[i], jacobiator_tensor(adapted_system, p,
                                                       "km"))


# -------------------------------------------------------- cross-validate
@pytest.mark.parametrize("seed", [3, 42])
def test_cross_validate_values_do_not_depend_on_the_stack(system, seed):
    seven = cross_validate(system, samples=7, seed=seed, tol=1e-8)
    two = cross_validate(system, samples=2, seed=seed, tol=1e-8)
    assert np.array_equal(seven.values[:2], two.values)


def test_cross_validate_across_stack_boundaries(particle):
    # more points than one stack holds
    samples, seed = 70, 8
    report = cross_validate(particle, samples=samples, seed=seed, tol=1e-8)
    assert report.skipped == []
    small = cross_validate(particle, samples=5, seed=seed, tol=1e-8)
    assert np.array_equal(report.values[:5], small.values)
    tri = tuple(np.array(report.triples).T)
    pts = sample_points(particle, samples, seed)
    for i in range(62, samples):
        for m, method in enumerate(report.methods):
            T = jacobiator_tensor(particle, pts[i], method)
            assert np.array_equal(report.values[i, :, m], T[tri]), (i, method)


def test_cross_validate_stack_with_both_error_kinds():
    # One stack of 40 points.  The metric turns indefinite on a thin slab
    # around x = -1.9 (points 1 and 20 fail a geometry check), and its
    # (y, y) entry takes sqrt of a negative value below y = -1.95 (point
    # 12 trips the expression guard).  The load-time probes miss both.
    definition = builtin_definition("nh_particle")
    definition["metric"][0][0] = "1 - 3*exp(-50*(x-(-1.9))^2)"
    definition["metric"][1][1] = "1 + sqrt(y + 1.95)"
    system = load_system(definition)
    samples, seed = 40, 42
    report = cross_validate(system, samples=samples, seed=seed, tol=1e-8)
    pts = sample_points(system, samples, seed)
    expected = []
    for i, p in enumerate(pts):
        try:
            jacobiator_bruteforce(system, p, (0, 1, 2))
        except NhkError as err:
            expected.append({"point": i,
                             "reason": f"{type(err).__name__}: {err}"})
    assert report.skipped == expected
    kinds = {s["reason"].split(":")[0] for s in expected}
    assert kinds == {"EvalError", "GeometryError"}
    bad = {s["point"] for s in expected}
    tri = tuple(np.array(report.triples).T)
    for i, p in enumerate(pts):
        if i in bad:
            assert np.isnan(report.values[i]).all()
            continue
        for m, method in enumerate(report.methods):
            T = jacobiator_tensor(system, p, method)
            assert np.array_equal(report.values[i, :, m], T[tri]), (i, method)
    assert report.passed


# ------------------------------------------------------------------ load
def test_load_error_names_the_first_failing_probe_point():
    # Probe point 1 fails the constraint rank check and probe point 2 the
    # earlier positive-definiteness check.  The stacked probe meets point
    # 2's failure first; the LoadError must still name point 1, the
    # first point that fails, with its own error.
    definition = builtin_definition("nh_particle")
    probe = load_system(definition)
    rng = Lcg64(20210)
    qs = [_sample_q(probe, rng) for _ in range(7)]
    x1, x2 = float(qs[1][0]), float(qs[2][0])
    assert min(abs(q[0] - x) for q in qs for x in (x1, x2)
               if q[0] != x) > 0.05
    del definition["adapted"]
    definition["constraint_forms"] = [[f"-y*(x - ({x1!r}))", "0",
                                       f"x - ({x1!r})"]]
    definition["metric"][0][0] = f"1 - 3*exp(-1e4*(x - ({x2!r}))^2)"
    with pytest.raises(LoadError) as err:
        load_system(definition)
    (violation,) = err.value.violations
    assert violation.startswith(
        f"at sampled point q={np.round(qs[1], 6).tolist()}: "
        "constraint forms rank-deficient")


# ------------------------------------------------------------- container
def test_a_stacked_point_is_a_sequence_of_points(snakeboard):
    stack = sample_points(snakeboard, 5, seed=29)
    assert isinstance(stack, PointM)
    assert stack.q.shape == (5, 5) and stack.ptilde.shape == (5, 3)
    assert len(stack) == 5
    for i in range(-5, 5):
        p = stack[i]
        assert p.q.shape == (5,) and p.ptilde.shape == (3,)
        assert np.array_equal(p.q, stack.q[i])
        assert np.array_equal(p.ptilde, stack.ptilde[i])
    part = stack[1:4]
    assert isinstance(part, PointM) and len(part) == 3
    assert np.array_equal(part.q, stack.q[1:4])
    assert np.array_equal(part.ptilde, stack.ptilde[1:4])
    points = list(stack)
    assert len(points) == 5
    for p, q, pt in zip(points, stack.q, stack.ptilde):
        assert np.array_equal(p.q, q) and np.array_equal(p.ptilde, pt)
    with pytest.raises(IndexError):
        stack[5]
    # a single point is no sequence
    p = stack[0]
    with pytest.raises(TypeError):
        len(p)
    with pytest.raises(TypeError):
        p[0]
    with pytest.raises(TypeError):
        list(p)


def test_points_compare_and_hash_by_identity(snakeboard):
    stack = sample_points(snakeboard, 2, seed=1)
    p = stack[0]
    assert p == p and hash(p) == hash(p) and p in [p]
    assert stack[0] != stack[0]         # two new points
    assert p not in stack               # each member is a new point
    assert {p: 1}[p] == 1 and len({p, stack[0], stack}) == 3


def test_sample_points_draws_point_by_point(system):
    # each point's coordinates, then its momenta, from one generator
    stack = sample_points(system, 6, seed=17, momentum_lo=-1.0,
                          momentum_hi=3.0)
    rng = Lcg64(17)
    for i in range(6):
        q = _sample_q(system, rng)
        pt = [rng.uniform(-1.0, 3.0) for _ in range(system.n - system.k)]
        assert np.array_equal(stack[i].q, q)
        assert np.array_equal(stack[i].ptilde, pt)
    empty = sample_points(system, 0, seed=17)
    assert len(empty) == 0
    assert empty.q.shape == (0, system.n)


def test_trajectory_states_are_one_stacked_point(particle):
    traj = integrate(particle, PointM([0.0, 0.3, 0.0], [1.0, -0.5]),
                     dt=0.01, steps=12)
    assert isinstance(traj.states, PointM)
    assert len(traj.states) == len(traj.times) == 13
    rows = traj.states_array()
    assert np.array_equal(traj.states[-1].q, rows[-1, :particle.n])
    assert np.array_equal(traj.states[-1].ptilde, rows[-1, particle.n:])


@pytest.fixture
def constructions(monkeypatch):
    """The number of PointM constructions so far."""
    count = [0]
    init = PointM.__init__

    def counting(self, q, ptilde):
        count[0] += 1
        init(self, q, ptilde)

    monkeypatch.setattr(PointM, "__init__", counting)
    return count


def test_point_constructions_per_call(particle, snakeboard, constructions):
    init = PointM([0.0, 0.3, 0.0], [1.0, -0.5])
    constructions[0] = 0
    integrate(particle, init, 0.01, 10)
    assert constructions[0] == 1
    constructions[0] = 0
    sample_points(snakeboard, 100, seed=3)
    assert constructions[0] == 1
    constructions[0] = 0
    cross_validate(snakeboard, samples=100, seed=3)
    assert constructions[0] <= 3


# ------------------------------------------- one point, refused as a stack
def _three(s):
    return sample_points(s, 3, seed=61)


# the public operations that take one point, each applied to a 3-point
# stack: the Hamiltonian and the field share their core with every RK4
# stage, integrate would need a truncation per member, and the coframe's
# names depend on the point
ONE_POINT_ONLY = {
    "hamiltonian_M": lambda s, p: nhk.hamiltonian_M(s, p),
    "nh_vector_field": lambda s, p: nhk.nh_vector_field(s, p),
    "adapted_coframe": lambda s, p: nhk.adapted_coframe(s, p.q),
    "integrate": lambda s, p: integrate(s, p, 0.01, 2),
}


@pytest.mark.parametrize("name", ["snakeboard", "particle"])
@pytest.mark.parametrize("op", list(ONE_POINT_ONLY))
def test_a_one_point_operation_refuses_a_stack(request, name, op):
    s = request.getfixturevalue(name)
    stacks = [_three(s)]
    # a last member outside the declared domain, or given as coordinates
    # with a NaN: the stack is refused before any point is evaluated
    if s.domain:
        q = _three(s).q.copy()
        coord, (_, hi) = next(iter(s.domain.items()))
        q[-1, s.coord_names.index(coord)] = hi + 1.0
        stacks.append(PointM(q, _three(s).ptilde))
    if op == "adapted_coframe":
        q = _three(s).q.copy()
        q[-1, 0] = np.nan
        stacks.append(SimpleNamespace(q=q))
    for stack in stacks:
        with pytest.raises(ParameterError,
                           match="^expected one point, got a stack of 3$"):
            ONE_POINT_ONLY[op](s, stack)


def _covectors(s, count):
    return np.random.default_rng(s.dimM).standard_normal((count, s.dimM))


# the public operations that take a stack, each reduced to its arrays:
# they lead with the stack axis
STACK_OPS = {
    "base_at": lambda s, p: base_at(s, p, 1).X.val,
    "check_domain": lambda s, p: s.check_domain(p.q),
    "chart_tensors": lambda s, p: nhk.chart_tensors(s, p).Pi,
    "nh_bivector": lambda s, p: nhk.nh_bivector(s, p).mat,
    "BivectorAtPoint.sharp": lambda s, p: nhk.nh_bivector(s, p).sharp(
        np.eye(s.dimM)[0]),
    "curvature_coeffs": lambda s, p: nhk.curvature_coeffs(s, p).coeffs,
    "jacobiator_tensor": lambda s, p: jacobiator_tensor(s, p),
    "pick_default_W": lambda s, p: nhk.pick_default_W(s, p.q),
    "nh_bivector(order=1)": lambda s, p: nhk.nh_bivector(s, p, order=1).d1,
    "jacobiator_tensor(km)": lambda s, p: jacobiator_tensor(s, p, "km"),
    "omega_M": lambda s, p: attrgetter("mat", "d1", "restricted_abs_det")(
        nhk.omega_M(s, p, order=1)),
    "embed": lambda s, p: nhk.embed(s, p),
    "splitting_at": lambda s, p: attrgetter("C_basis", "W_basis", "P_C",
                                            "P_W")(nhk.splitting_at(s, p)),
    "jacobiator_bruteforce": lambda s, p: nhk.jacobiator_bruteforce(
        s, p, (0, s.dimM - 2, s.dimM - 1)),
    "jacobiator_km": lambda s, p: nhk.jacobiator_km(
        s, p, (0, s.dimM - 2, s.dimM - 1)),
    "jacobiator_global": lambda s, p: nhk.jacobiator_global(
        s, p, *_covectors(s, 3)),
    "BivectorAtPoint.pairing": lambda s, p: nhk.nh_bivector(s, p).pairing(
        *_covectors(s, 2)),
    "CurvatureAtPoint.pair": lambda s, p: nhk.curvature_coeffs(s, p).pair(
        *_covectors(s, 2)),
    "curvature_KW_M": lambda s, p: nhk.curvature_KW_M(
        s, p, *_covectors(s, 2)),
    "curvature_KW_Q": lambda s, p: nhk.curvature_KW_Q(
        s, p.q, *_covectors(s, 2)[:, :s.n]),
    "adapted_data": lambda s, p: attrgetter("A.val", "A.d1", "A.d2", "C",
                                            "Kcoef")(nhk.adapted_data(s, p.q)),
}


def _arrays(out):
    return out if isinstance(out, tuple) else (out,)


@pytest.mark.parametrize("name", ["snakeboard", "particle"])
@pytest.mark.parametrize("op", list(STACK_OPS))
def test_a_stack_operation_takes_a_stack(request, name, op):
    s = request.getfixturevalue(name)
    if s.adapted is None and op in ("jacobiator_tensor(km)", "jacobiator_km",
                                    "adapted_data"):
        # refused on a stack as on one point
        for p in (_three(s), _three(s)[1]):
            with pytest.raises(UnsupportedOperationError):
                STACK_OPS[op](s, p)
        return
    for size in (1, 2, 7, 70):
        stack = sample_points(s, size, seed=61)
        out = _arrays(STACK_OPS[op](s, stack))
        for i, p in enumerate(stack):
            one = _arrays(STACK_OPS[op](s, p))
            for got, want in zip(out, one, strict=True):
                assert got.shape == (size,) + np.shape(want), (size, i)
                assert np.array_equal(got[i], want), (size, i)
    # a lone scalar is a numpy float64 (a float), not a 0-d array
    assert all(np.ndim(a) > 0 or type(a) is np.float64 for a in one)
    # a stack of no points: a leading axis of length 0
    empty = _arrays(STACK_OPS[op](s, sample_points(s, 0, seed=61)))
    assert [a.shape for a in empty] == [(0,) + np.shape(a) for a in one]


def test_every_point_operation_follows_the_point_rule():
    # each public function of (system, p | q | init, ...) takes a stack or
    # refuses one, and is listed as doing so: a new one cannot skip the rule
    def names(ops):
        return {key.split("(")[0] for key in ops}

    ops = [name for name in nhk.__all__
           if inspect.isfunction(getattr(nhk, name))
           and list(inspect.signature(getattr(nhk, name)).parameters)[:2]
           in (["system", "p"], ["system", "q"], ["system", "init"])]
    assert len(ops) >= 19
    for name in ops:
        assert (name in names(ONE_POINT_ONLY)) != (name in names(STACK_OPS)), \
            name
