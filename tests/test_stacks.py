"""Stacked evaluation: a stack of points gives, at every point, exactly
the arrays that evaluating that point alone gives (np.array_equal, not a
tolerance), for the packed linear algebra, the base pipeline, the
Jacobiator routes and the cross-validation sweep."""

import numpy as np
import pytest

from nhk import (
    PointM,
    base_at,
    builtin_definition,
    cross_validate,
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
from nhk.errors import LoadError, NhkError
from nhk.jacobiator import (_global_tensor, _km_point_data, _km_value,
                            _trivector_brute)
from nhk.manifold import _sample_q

FIELDS = ("kappa", "eps", "X", "Z", "chi", "J", "mu", "kD", "kD_inv")


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


def test_pk_inv_rejects_a_stack_with_one_singular_matrix():
    rng = np.random.default_rng(3)
    A = _random_packed(rng, (3,), 4, 4, 2, 1)
    val = A.val.copy()
    val[1] = 0.0
    with pytest.raises(NhkError, match="singular"):
        pk_inv(Packed(val, A.d1))


# ------------------------------------------------------------ base data
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("size", [1, 2, 7, 70])
def test_base_at_on_a_stack_equals_base_at_per_point(system, order, size):
    qs = np.array([p.q for p in sample_points(system, size, seed=71)])
    stacked = base_at(system, qs, order)
    assert stacked.q.shape == (size, system.n)
    assert stacked.order == order
    for i, q in enumerate(qs):
        single = base_at(system, q, order)
        assert np.array_equal(stacked.q[i], single.q)
        for f in FIELDS:
            # d1 is None at order 0, and d2 is present at order 2
            assert getattr(single, f).order == order, (f, i)
            assert_packed_equal(pk_at(getattr(stacked, f), i),
                                getattr(single, f), (f, i))


@pytest.mark.parametrize("order", [0, 1, 2])
def test_kernel_frame_stack_mixing_pivot_patterns_equals_per_point(
        kernel_path, order):
    # eps = -y dx + dz: pivot on x where y != 0, on z where y = 0
    qs = np.array([[0.3, 0.7, -0.2], [0.1, 0.0, 0.5], [-1.2, -0.4, 1.0],
                   [0.9, 0.0, -1.5], [1.1, 1.3, 0.2]])
    stacked = base_at(kernel_path, qs, order)
    for i, q in enumerate(qs):
        single = base_at(kernel_path, q, order)
        for f in FIELDS:
            assert_packed_equal(pk_at(getattr(stacked, f), i),
                                getattr(single, f), (f, i))
    for i in (1, 3):
        assert np.array_equal(stacked.X.val[i], np.eye(3)[:, :2])
    np.testing.assert_allclose(stacked.X.val[0, 0], [0.0, 1 / 0.7],
                               rtol=1e-15, atol=0.0)


def test_base_at_on_a_stack_names_the_first_failing_point():
    definition = builtin_definition("nh_particle")
    definition["metric"][0][0] = "1 - 3*exp(-50*(x-(-1.9))^2)"
    system = load_system(definition)
    pts = sample_points(system, 40, seed=42)
    qs = np.array([p.q for p in pts])
    with pytest.raises(NhkError) as stacked:
        base_at(system, qs, order=2)
    # points 1 and 20 fail (see the cross_validate skip test); point 1's
    # error is the one raised
    with pytest.raises(NhkError) as single:
        base_at(system, qs[1], order=2)
    assert str(stacked.value) == str(single.value)


def test_base_at_rejects_a_stack_with_a_point_outside_the_domain(snakeboard):
    qs = np.array([p.q for p in sample_points(snakeboard, 3, seed=1)])
    qs[2, 0] = np.nan
    with pytest.raises(NhkError, match="non-finite"):
        base_at(snakeboard, qs, order=0)


# ---------------------------------------------------------------- routes
def test_stacked_routes_equal_the_public_tensors(system):
    pts = sample_points(system, 4, seed=13)
    ps = PointM(np.array([p.q for p in pts]),
                np.array([p.ptilde for p in pts]))
    bd = base_at(system, ps.q, order=2)
    brute = _trivector_brute(system, ps, bd)
    glob = _global_tensor(system, ps, bd)
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
    pts = sample_points(adapted_system, 70, seed=31)
    ps = PointM(np.array([p.q for p in pts]),
                np.array([p.ptilde for p in pts]))
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
