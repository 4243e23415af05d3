"""Constraint phase space plumbing: loading/validation, frames and
duality, the embedding into T*Q, the pulled-back 2-form, and the
C (+) W-lift splitting."""

import copy
import json
import warnings

import numpy as np
import pytest

import nhk.manifold

from nhk import (
    NonholonomicSystem,
    PointM,
    adapted_coframe,
    base_at,
    builtin_definition,
    chart_tensors,
    complement_at,
    cross_validate,
    curvature_KW_M,
    curvature_KW_Q,
    curvature_coeffs,
    embed,
    hamiltonian_M,
    integrate,
    jacobiator_global,
    jacobiator_tensor,
    load_system,
    nh_bivector,
    nh_vector_field,
    omega_M,
    pick_default_W,
    sample_points,
    splitting_at,
)
from nhk._compile import get_compiled
from nhk.jacobiator import _applicable_methods
from nhk._linalg import pk_from_jets, pk_unpack
from nhk.errors import (DomainError, EvalError, GeometryError, LoadError,
                        check_array)
from nhk.expr import eval_expr, parse, resolve
from nhk.jet import NONFINITE, jet_binary, jet_const, jet_unary
from nhk.manifold import PIVOT_TOL
from test_curvature import _curvature_pair_assembled

# ------------------------------------------------------------- loading


def test_load_accepts_json_text():
    sys = load_system(json.dumps(builtin_definition("nh_particle")))
    assert sys.name == "nh_particle"
    assert sys.n == 3 and sys.k == 1 and sys.dimM == 5


def test_load_rejects_invalid_json_text():
    with pytest.raises(LoadError):
        load_system("{not json")


def test_load_rejects_non_object():
    with pytest.raises(LoadError):
        load_system(json.dumps([1, 2, 3]))


def test_load_collects_multiple_violations():
    doc = builtin_definition("nh_particle")
    doc["name"] = ""  # 1: bad name
    doc["metric"] = [["1", "0"], ["0", "1"]]  # 2: wrong shape
    doc["potential"] = "sin(x"  # 3: parse error
    doc["domain"] = {"w": [0, 1]}  # 4: unknown coordinate
    with pytest.raises(LoadError) as err:
        load_system(doc)
    violations = err.value.violations
    assert len(violations) >= 4
    assert all(isinstance(v, str) for v in violations)
    blob = "\n".join(violations)
    assert "name" in blob and "metric" in blob and "potential" in blob
    assert "domain" in blob


def test_load_reports_unknown_names_in_expressions():
    doc = builtin_definition("nh_particle")
    doc["metric"][0][0] = "massive"  # not a coord or param
    with pytest.raises(LoadError) as err:
        load_system(doc)
    assert any("metric" in v for v in err.value.violations)


def test_load_rejects_param_coordinate_clash():
    doc = builtin_definition("nh_particle")
    doc["params"] = {"x": 1.0}
    with pytest.raises(LoadError) as err:
        load_system(doc)
    assert any("collide" in v for v in err.value.violations)


def test_load_rejects_bad_constraint_rank():
    doc = builtin_definition("nh_particle")
    doc["constraints_rank"] = 3  # must be < n
    with pytest.raises(LoadError):
        load_system(doc)
    doc["constraints_rank"] = -1
    with pytest.raises(LoadError):
        load_system(doc)


def test_load_rejects_bad_adapted_indices():
    doc = builtin_definition("nh_particle")
    doc["adapted"] = {"s_indices": [5]}
    with pytest.raises(LoadError) as err:
        load_system(doc)
    assert any("s_indices" in v for v in err.value.violations)


def test_load_rejects_d_frame_with_adapted():
    doc = builtin_definition("snakeboard")
    assert doc.get("d_frame") is not None
    doc["adapted"] = {"s_indices": [0, 1]}
    with pytest.raises(LoadError):
        load_system(doc)


def test_load_probes_degenerate_constraints():
    doc = builtin_definition("nh_particle")
    doc["constraint_forms"] = [["0", "0", "0"]]  # rank 0 everywhere
    with pytest.raises(LoadError) as err:
        load_system(doc)
    assert any("sampled point" in v for v in err.value.violations)


def test_load_probes_indefinite_metric():
    doc = builtin_definition("nh_particle")
    doc["metric"] = [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]]
    with pytest.raises(LoadError) as err:
        load_system(doc)
    assert any("positive definite" in v for v in err.value.violations)


@pytest.mark.parametrize("potential, message", [
    ("exp(1000)", "exp has no finite value or derivative at 1000.0"),
    ("cos(1e308*1e308)", "cos has no finite value or derivative at inf"),
], ids=["exp", "cos"])
def test_load_reports_a_constant_beyond_the_float_range(potential, message):
    doc = builtin_definition("nh_particle")
    doc["potential"] = potential
    with pytest.raises(LoadError) as err:
        load_system(doc)
    assert err.value.violations == [f"potential: {message} (at offset 0)"]


@pytest.mark.parametrize("entry, x, message", [
    ("1 + exp(x)", 800.0, "exp has no finite value or derivative at 800.0"),
    ("1 + x^6", 1e60, "power 6 has no finite value or derivative at 1e+60"),
], ids=["exp", "pow"])
def test_base_at_reports_a_metric_beyond_the_float_range(entry, x, message):
    doc = builtin_definition("nh_particle")
    doc["metric"][0][0] = entry
    s = load_system(doc)
    for order in (0, 1, 2):
        with pytest.raises(EvalError) as err:
            base_at(s, [x, 0.0, 0.0], order)
        assert str(err.value) == message


def test_base_at_refuses_a_non_finite_metric_before_checking_it():
    # the product overflows to inf, which no function rule guards; the
    # symmetry check would compute inf - inf and pass NaN (and numpy
    # would warn, which pytest makes an error)
    doc = builtin_definition("nh_particle")
    doc["metric"][0][0] = "1 + x*x*x*x*x*x*x*x"
    s = load_system(doc)
    for q in ([1e40, 0.0, 0.0], [[0.5, 0.0, 0.0], [1e40, 0.0, 0.0]]):
        for order in (0, 1, 2):
            with pytest.raises(EvalError) as err:
                base_at(s, q, order)
            assert str(err.value) == NONFINITE


def test_load_refuses_a_non_finite_constant_grid():
    doc = builtin_definition("nh_particle")
    doc["metric"][1][1] = "1e308*1e308"
    with pytest.raises(LoadError) as err:
        load_system(doc)
    assert len(err.value.violations) == 1
    assert err.value.violations[0].startswith("at sampled point q=")
    assert err.value.violations[0].endswith(f": {NONFINITE}")


def _exp_form(doc: dict, **changes) -> dict:
    """doc with the constraint form -y*exp(x), whose grids are finite at
    x = 460 (about 1e200) while the Gram matrices built from them, about
    their square, overflow."""
    return dict(doc, constraint_forms=[["-y*exp(x)", "0", "1"]], **changes)


@pytest.mark.parametrize("warnings_as", ["error", "ignore", "always"])
def test_load_refuses_a_derived_block_that_overflows(warnings_as):
    # the same refusal whatever becomes of numpy's overflow warning
    doc = _exp_form(builtin_definition("nh_particle"),
                   domain={"x": [460.0, 461.0]})
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter(warnings_as)
        with pytest.raises(LoadError) as err:
            load_system(doc)
    assert err.value.violations == [
        f"at sampled point q=[460.538637, 1.576695, -0.5427]: {NONFINITE}"]
    if warnings_as == "always":
        assert shown and all(w.category is RuntimeWarning for w in shown)
    else:
        assert not shown


def test_base_at_refuses_a_derived_block_before_inverting_it(monkeypatch):
    # finite on the probes' [-2, 2]
    s = load_system(_exp_form(builtin_definition("nh_particle")))
    dets = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda m: dets.append(m) or det(m))
    for q in ([460.5, 1.5, 0.0], [[0.5, 0.2, 0.1], [460.5, 1.5, 0.0]]):
        for order in (0, 1, 2):
            with pytest.raises(EvalError) as err:
                base_at(s, q, order)
            assert str(err.value) == NONFINITE
    # the D-frame Gram matrix is refused before pk_inv's guard sees it
    assert dets == []
    base_at(s, [20.0, 1.5, 0.0], 2)


def test_base_at_refuses_an_overflowing_complement_gram(kernel_path):
    # no adapted declaration: the constraint Gram matrix eps kappa^-1
    # eps^T of the kappa-orthogonal complement overflows, where the
    # D-frame data is finite.  The operations that do not read the
    # complement succeed there; every one that reads it refuses the point.
    s = load_system(_exp_form(kernel_path.definition))
    q = [460.5, 1.5, 0.0]
    p = PointM(q, [0.3, -0.2])
    e = np.eye(s.dimM)
    with pytest.raises(EvalError) as err:
        complement_at(s, base_at(s, q, 0))
    assert str(err.value) == NONFINITE
    chart_tensors(s, p)
    for order in (0, 1):
        nh_bivector(s, p, order)
        omega_M(s, p, order)
    jacobiator_tensor(s, p, "bruteforce")
    assert integrate(s, p, 0.01, 3).completed
    readers = [
        lambda: jacobiator_tensor(s, p, "global"),
        lambda: jacobiator_global(s, p, *e[:3]),
        lambda: nh_vector_field(s, p),
        lambda: hamiltonian_M(s, p),
        lambda: embed(s, p),
        lambda: curvature_coeffs(s, p),
        lambda: curvature_KW_M(s, p, *e[:2]),
        lambda: curvature_KW_Q(s, q, *np.eye(s.n)[:2]),
        lambda: pick_default_W(s, q),
        lambda: splitting_at(s, p),
        lambda: adapted_coframe(s, q),
    ]
    for read in readers:
        with pytest.raises(EvalError) as err:
            read()
        assert str(err.value) == NONFINITE


def test_load_probes_the_complement(snakeboard):
    # a declared complement twice too long: eps(Z) = 2 everywhere, which
    # only the complement's own check sees
    doc = builtin_definition("snakeboard")
    doc["w_frame"] = [[f"2*({e})" for e in row] for row in doc["w_frame"]]
    with pytest.raises(LoadError) as err:
        load_system(doc)
    assert len(err.value.violations) == 1
    assert "complement frame not dual to constraints" in \
        err.value.violations[0]


def test_load_accepts_an_empty_complement_frame(free):
    # k = 0 with an explicit "w_frame": []: the complement of no forms is
    # an n x 0 frame, and D-frame and coframe are the identity
    s = load_system(dict(free.definition, w_frame=[]))
    q = sample_points(s, 1, seed=3)[0].q
    for order in (0, 1, 2):
        bd = base_at(s, q, order)
        assert bd.eps.val.shape == (0, s.n)
        assert np.array_equal(bd.X.val, np.eye(s.n))
    Z, chi = complement_at(s, base_at(s, q, 0))
    assert Z.shape == (s.n, 0)
    assert np.array_equal(chi, np.eye(s.n))


def test_loads_are_distinct_objects():
    doc = builtin_definition("nh_particle")
    a = load_system(copy.deepcopy(doc))
    b = load_system(copy.deepcopy(doc))
    assert a is not b and a != b


# ------------------------------------------------------------ domains


def test_check_domain_shape_and_finiteness(particle):
    with pytest.raises(DomainError):
        particle.check_domain([1.0, 2.0])
    with pytest.raises(DomainError):
        particle.check_domain([1.0, np.nan, 0.0])


def test_check_domain_open_interval(snakeboard):
    q = np.zeros(5)
    q[4] = np.pi / 2  # phi endpoint excluded
    with pytest.raises(DomainError) as err:
        snakeboard.check_domain(q)
    assert "phi" in str(err.value)
    q[4] = np.pi / 2 - 1e-3
    snakeboard.check_domain(q)  # inside: fine


def test_check_point_momentum_shape(particle):
    with pytest.raises(DomainError):
        particle.check_point(PointM([0.0, 0.0, 0.0], [1.0]))  # needs 2
    with pytest.raises(DomainError):
        particle.check_point(PointM([0.0, 0.0, 0.0], [1.0, np.inf]))


def test_point_copies_input_arrays():
    q = np.zeros(3)
    p = PointM(q, [1.0, 2.0])
    q[0] = 9.0
    assert p.q[0] == 0.0


# arrays of three entries that are not all real numbers
NOT_REAL3 = [[1j, 0, 0], ["a", 0, 0], ["0.1", "0.2", "0.3"],
             [True, 0.1, 0.2], [0.1, np.True_, 0.2], [True, 0, 1],
             np.array([True, False, True]), [[0.1, 0.2], 0.0, 0.0],
             [None, 0.0, 0.0], np.array([0.1, 0.2, 0.3], dtype=object)]


@pytest.mark.parametrize("bad", NOT_REAL3, ids=range(len(NOT_REAL3)))
def test_coordinates_and_momenta_follow_the_array_rule(particle, bad):
    """PointM, check_domain and base_at take finite real numbers only,
    as check_array does, and refuse the rest with DomainError."""
    q, pt = [0.1, 0.2, 0.3], [0.5, -0.5]
    with pytest.raises(DomainError, match="coordinates must be real"):
        PointM(bad, pt)
    with pytest.raises(DomainError, match="momenta must be real"):
        PointM(q, bad[:2] if isinstance(bad, list) else bad)
    with pytest.raises(DomainError, match="coordinates must be real"):
        particle.check_domain(bad)
    for order in (0, 1):
        with pytest.raises(DomainError, match="coordinates must be real"):
            base_at(particle, bad, order)
    with pytest.raises(ValueError, match="finite real array"):
        check_array("v", bad, (3,))


def test_points_take_integers_and_refuse_non_finite_values(particle):
    p = PointM(np.array([0, 1, 0]), [1, -2])
    assert p.q.dtype == p.ptilde.dtype == float
    assert np.array_equal(nh_vector_field(particle, p),
                          nh_vector_field(particle, PointM([0.0, 1.0, 0.0],
                                                           [1.0, -2.0])))
    ref = base_at(particle, [0.0, 1.0, 0.0], 2)
    got = base_at(particle, [0, 1, 0], 2)
    for f in ("eps", "X", "mu"):
        assert np.array_equal(getattr(got, f).d2, getattr(ref, f).d2)
    with pytest.raises(DomainError, match="non-finite coordinate value"):
        PointM([0.0, np.nan, 0.0], [0.0, 0.0])
    with pytest.raises(DomainError, match="non-finite momentum value"):
        PointM([0.0, 0.0, 0.0], [0.0, -np.inf])


# ------------------------------------------------- frames and duality


def test_frame_duality_everywhere(system):
    for pt in sample_points(system, 40, seed=7):
        bd = base_at(system, pt.q, order=0)
        Z, chi = complement_at(system, bd)
        n, k = system.n, system.k
        F = np.hstack([bd.X.val, Z])
        co = np.vstack([chi, bd.eps.val])
        np.testing.assert_allclose(co @ F, np.eye(n), atol=1e-10)
        if k:
            # D-frame lies in the constraint kernel
            assert np.max(np.abs(bd.eps.val @ bd.X.val)) < 1e-10
        # mu is dual to X as well: mu X = chi X + J^T eps X = I
        np.testing.assert_allclose(bd.mu.val @ bd.X.val, np.eye(n - k),
                                   atol=1e-10)
        # Gram matrix of the D-frame is symmetric positive definite
        np.testing.assert_allclose(bd.kD.val, bd.kD.val.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(bd.kD.val)) > 0


@pytest.mark.parametrize("order", [3, -1, True, 1.0])
def test_base_at_rejects_bad_order(particle, order):
    with pytest.raises(ValueError):
        base_at(particle, [0.2, -0.1, 0.3], order=order)


def test_base_at_jets_match_finite_differences(system):
    # first derivative route vs central differences of the value route
    q0 = sample_points(system, 1, seed=11)[0].q
    h = 1e-6

    def at(field, q, order):
        return getattr(base_at(system, q, order), field)

    for field in ("X", "mu", "kD_inv"):
        d1 = at(field, q0, 1).d1
        fd = np.empty_like(d1)
        for i in range(system.n):
            up, dn = q0.copy(), q0.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (at(field, up, 0).val - at(field, dn, 0).val) / (2 * h)
        np.testing.assert_allclose(d1, fd, rtol=1e-5, atol=1e-6)


def test_elimination_coefficients_match_their_definition(system):
    if system.k == 0:
        pytest.skip("no constraints")
    for pt in sample_points(system, 10, seed=3):
        bd = base_at(system, pt.q, order=0)
        Z = complement_at(system, bd)[0]
        kD = bd.X.val.T @ bd.kappa.val @ bd.X.val
        J = Z.T @ bd.kappa.val @ bd.X.val @ np.linalg.inv(kD)
        # J = (mu Z)^T, so that p(Z_a) = J[a, beta] ptilde_beta
        np.testing.assert_allclose((bd.mu.val @ Z).T, J, atol=1e-10)
        # and the eliminated momenta reproduce the embedding on Z
        p = embed(system, pt)
        np.testing.assert_allclose(Z.T @ p, J @ pt.ptilde, atol=1e-10)


def test_default_complement_is_metric_orthogonal(kernel_path):
    # without w_frame/adapted declarations, Z spans the kappa-orthogonal
    # of D and is normalized against the constraint forms
    for pt in sample_points(kernel_path, 10, seed=5):
        bd = base_at(kernel_path, pt.q, order=0)
        W = pick_default_W(kernel_path, pt.q)
        np.testing.assert_array_equal(W, complement_at(kernel_path, bd)[0])
        np.testing.assert_allclose(bd.eps.val @ W,
                                   np.eye(kernel_path.k), atol=1e-10)
        gram = bd.X.val.T @ bd.kappa.val @ W
        np.testing.assert_allclose(gram, 0.0, atol=1e-10)


# ---------------------------------------------------------- kernel frame


def _kernel_frame_jet2(eps, n, k, order):
    """The kernel basis of eps by a Gauss-Jordan elimination carried in
    Jet2 scalars, pivots chosen as in manifold._pivot_columns: the
    reference that the packed kernel frame is pinned against."""
    a = pk_unpack(eps)
    pivots = []
    for col in range(n):
        row = len(pivots)
        if row >= k:
            break
        cand = sorted(range(row, k), key=lambda r: -abs(a[r][col].value))
        if abs(a[cand[0]][col].value) <= PIVOT_TOL:
            continue
        if len(cand) > 1 and abs(abs(a[cand[0]][col].value)
                                 - abs(a[cand[1]][col].value)) <= PIVOT_TOL:
            raise GeometryError("frame elimination pivot tie")
        a[row], a[cand[0]] = a[cand[0]], a[row]
        d = a[row][col]
        a[row] = [jet_binary("div", e, d) for e in a[row]]
        for r in range(k):
            if r != row:
                f = a[r][col]
                a[r] = [jet_binary("sub", a[r][j],
                                   jet_binary("mul", f, a[row][j]))
                        for j in range(n)]
        pivots.append((row, col))
    assert len(pivots) == k
    free = [c for c in range(n) if c not in [c for _, c in pivots]]
    grid = [[jet_const(0.0, n, order) for _ in free] for _ in range(n)]
    for alpha, f in enumerate(free):
        grid[f][alpha] = jet_const(1.0, n, order)
        for r, c in pivots:
            grid[c][alpha] = jet_unary("neg", a[r][f])
    return pk_from_jets(grid, n, order)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("name", ["kernel_path", "kernel2"])
def test_kernel_frame_matches_the_jet2_elimination(request, name, order):
    system = request.getfixturevalue(name)
    qs = [p.q for p in sample_points(system, 12, seed=83)]
    if name == "kernel_path":
        qs.append(np.array([0.4, 0.0, -1.1]))   # y = 0 pivots on z
    for q in qs:
        bd = base_at(system, q, order)
        ref = _kernel_frame_jet2(bd.eps, system.n, system.k, order)
        for part in ("val", "d1", "d2")[:order + 1]:
            got, want = getattr(bd.X, part), getattr(ref, part)
            tol = 1e-15 * max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() <= tol, (q, part)


TIE_DEF = {
    "name": "tie",
    "coords": ["x", "y", "z"],
    "constraints_rank": 2,
    "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "potential": "0",
    "constraint_forms": [["x", "1", "0"], ["1", "0", "1"]],
}

TIE_MESSAGE = ("frame elimination pivot tie: kernel basis not smoothly "
               "extendable here; supply an explicit d_frame")


def test_kernel_frame_pivot_tie_raises_alone_and_in_a_stack():
    system = load_system(copy.deepcopy(TIE_DEF))
    # at x = 1 both rows offer |1| as the first pivot
    for q in ([1.0, 0.2, -0.3], [[0.5, 0.2, -0.3], [1.0, 0.2, -0.3]]):
        with pytest.raises(GeometryError) as info:
            base_at(system, q, order=1)
        assert str(info.value) == TIE_MESSAGE
    base_at(system, [[0.5, 0.2, -0.3], [1.5, 0.2, -0.3]], order=1)


def test_kernel_frame_accepts_small_pivots():
    # pivots 1e-7 give a pivot block with |det| = 1e-14; the pivot
    # checks, not a determinant threshold, decide whether it is usable
    system = load_system({
        "name": "small_pivots",
        "coords": ["a", "b", "c", "d"],
        "constraints_rank": 2,
        "params": {"h": 1e-7},
        "metric": [["1" if i == j else "0" for j in range(4)]
                   for i in range(4)],
        "potential": "0",
        "constraint_forms": [["h", "0", "1", "0.2*b"],
                             ["0", "h", "0.3*a", "1"]],
    })
    qs = sample_points(system, 5, seed=3).q
    for order in (0, 1, 2):
        bd = base_at(system, qs, order)
        np.testing.assert_allclose(bd.eps.val @ bd.X.val, 0.0, atol=1e-9)
        assert np.all(bd.X.val[:, 2:] == np.eye(2))


def _without_adapted(name: str) -> NonholonomicSystem:
    definition = builtin_definition(name)
    del definition["adapted"]
    return load_system(definition)


def test_the_kernel_frame_is_the_adapted_frame_of_its_pivot_columns(disk):
    # rolling_disk pivots on its declared s = (x, y), whose block is the
    # identity: B^-1 F = A, and one assembly builds both frames, so the
    # base data is the declared system's, bit for bit
    system = _without_adapted("rolling_disk")
    pts = sample_points(disk, 6, seed=5)
    for q in pts.q:
        eps = base_at(system, q, 0).eps.val
        assert nhk.manifold._pivot_columns(eps) == disk.s_indices
    for order in (0, 1, 2):
        for at in (pts, pts[0], pts[4]):
            got, want = base_at(system, at, order), base_at(disk, at, order)
            for name in ("kappa", "eps", "X", "mu", "kD", "kD_inv"):
                for a, b in zip(getattr(got, name), getattr(want, name)):
                    assert (a is None) == (b is None), (name, order)
                    assert a is None or (a.shape == b.shape and a.tobytes()
                                         == b.tobytes()), (name, order)
    report = cross_validate(system, samples=20, seed=3)
    assert report.passed and report.methods == ("bruteforce", "global")


def test_the_particle_without_its_declaration_pivots_on_x():
    # eps = -y dx + dz: the elimination takes the first usable column, x,
    # not the declared s = z; D and the routes' agreement are unchanged
    system = _without_adapted("nh_particle")
    for q in sample_points(system, 6, seed=5).q:
        eps = base_at(system, q, 0).eps.val
        assert nhk.manifold._pivot_columns(eps) == (0,)
    report = cross_validate(system, samples=20, seed=3)
    assert report.passed and report.methods == ("bruteforce", "global")


# ------------------------------------------------------------ embedding


def test_embedding_velocity_lies_in_constraint_kernel(system):
    if system.k == 0:
        pytest.skip("no constraints")
    for pt in sample_points(system, 20, seed=13):
        p = embed(system, pt)
        bd = base_at(system, pt.q, order=0)
        v = np.linalg.solve(bd.kappa.val, p)
        assert np.max(np.abs(bd.eps.val @ v)) < 1e-9


def test_embedding_two_routes_agree_externally(system):
    for pt in sample_points(system, 20, seed=17):
        bd = base_at(system, pt.q, order=0)
        route_mu = bd.mu.val.T @ pt.ptilde
        route_flat = bd.kappa.val @ (bd.X.val @ (bd.kD_inv.val @ pt.ptilde))
        np.testing.assert_allclose(route_mu, route_flat, atol=1e-10)
        np.testing.assert_allclose(embed(system, pt), route_mu, atol=1e-12)


@pytest.mark.parametrize("scale", [1e7, 1e8, 1e12, 1e100])
def test_embedding_at_large_momenta(snakeboard, disk, scale):
    # the routes' rounding grows with p: the check is relative to
    # max(1, max|p|), so large momenta are no false failure
    for s in (snakeboard, disk):
        q = sample_points(s, 1, 3)[0].q
        pt = np.linspace(0.3, 1.0, s.n - s.k) * scale
        got = embed(s, PointM(q, pt))
        ref = base_at(s, q, order=0).mu.val.T @ pt
        np.testing.assert_allclose(got, ref, rtol=1e-14,
                                   atol=1e-14 * np.abs(ref).max())


def test_embedding_refuses_a_relative_gap(snakeboard, monkeypatch):
    # a gap of f |p| between the routes, |p| > 1: refused for f above
    # DUALITY_TOL at every scale of the momenta, accepted below it
    real = nhk.manifold._eliminated_mu
    q = sample_points(snakeboard, 1, 3)[0].q
    for f, refused in ((2e-10, True), (5e-11, False)):
        monkeypatch.setattr(nhk.manifold, "_eliminated_mu",
                            lambda *args: real(*args) * (1 + f))
        for scale in (1e2, 1e7, 1e100):
            p = PointM(q, np.linspace(0.3, 1.0, 3) * scale)
            if refused:
                with pytest.raises(GeometryError,
                                   match="embedding routes disagree"):
                    embed(snakeboard, p)
            else:
                embed(snakeboard, p)


def test_embedding_is_linear_in_momenta(particle):
    q = np.array([0.4, -0.3, 0.8])
    p1 = embed(particle, PointM(q, [1.0, 0.0]))
    p2 = embed(particle, PointM(q, [0.0, 1.0]))
    p12 = embed(particle, PointM(q, [2.0, -3.0]))
    np.testing.assert_allclose(p12, 2 * p1 - 3 * p2, atol=1e-12)


# ---------------------------------------------------------- the 2-form


def test_two_form_is_antisymmetric(system):
    for pt in sample_points(system, 15, seed=23):
        om = omega_M(system, pt, order=0)
        np.testing.assert_allclose(om.mat, -om.mat.T, atol=1e-12)
        assert om.restricted_abs_det > 0


def test_two_form_momentum_blocks(system):
    # mixed block is mu^T; momentum-momentum block vanishes
    n, nk = system.n, system.n - system.k
    for pt in sample_points(system, 10, seed=29):
        om = omega_M(system, pt, order=0).mat
        bd = base_at(system, pt.q, order=0)
        np.testing.assert_allclose(om[:n, n:], bd.mu.val.T, atol=1e-12)
        np.testing.assert_allclose(om[n:, n:], 0.0, atol=1e-14)


def test_two_form_base_block_vanishes_at_zero_momentum(system):
    q = sample_points(system, 1, seed=31)[0].q
    pt = PointM(q, np.zeros(system.n - system.k))
    om = omega_M(system, pt, order=0).mat
    np.testing.assert_allclose(om[: system.n, : system.n], 0.0, atol=1e-14)


def test_two_form_orders_agree(system):
    pt = sample_points(system, 1, seed=37)[0]
    om0 = omega_M(system, pt, order=0)
    om1 = omega_M(system, pt, order=1)
    assert om0.d1 is None and om1.d1.shape == (system.dimM,) * 3
    np.testing.assert_allclose(om1.mat, om0.mat, atol=1e-14)
    assert om1.restricted_abs_det == pytest.approx(om0.restricted_abs_det,
                                                   rel=1e-12)


def test_two_form_is_closed(system):
    # cyclic sum of chart derivatives vanishes: the form is exact
    # (it is the pullback of d of the tautological 1-form)
    dim = system.dimM
    for pt in sample_points(system, 3, seed=41):
        G = np.moveaxis(omega_M(system, pt, order=1).d1, 0, -1)
        assert G.shape == (dim, dim, dim)
        # G[i, j, l] = d_l Omega_ij; cyclic sum d_l O_ij + d_i O_jl + d_j O_li
        cyc = np.einsum("ijl->lij", G) + np.einsum("jli->lij", G) + G
        np.testing.assert_allclose(cyc, 0.0, atol=1e-9)


def test_two_form_rejects_bad_order(particle):
    pt = sample_points(particle, 1, seed=1)[0]
    for order in (2, -1, True, 1.0):
        with pytest.raises(ValueError):
            omega_M(particle, pt, order=order)


# ----------------------------------------------------------- splitting


def test_splitting_projections(system):
    dim = system.dimM
    for pt in sample_points(system, 10, seed=43):
        sp = splitting_at(system, pt)
        assert sp.dimM == dim
        np.testing.assert_allclose(sp.P_C + sp.P_W, np.eye(dim), atol=1e-12)
        np.testing.assert_allclose(sp.P_C @ sp.P_C, sp.P_C, atol=1e-10)
        np.testing.assert_allclose(sp.P_W @ sp.P_W, sp.P_W, atol=1e-10)
        np.testing.assert_allclose(sp.P_W @ sp.C_basis, 0.0, atol=1e-10)
        np.testing.assert_allclose(sp.P_C @ sp.W_basis, 0.0, atol=1e-10)
        # ranks: dim C = 2(n-k), dim W-lift = k
        assert np.linalg.matrix_rank(sp.C_basis) == 2 * (system.n - system.k)
        if system.k:
            assert np.linalg.matrix_rank(sp.W_basis) == system.k
        # C is horizontal for the constraint forms in the base slot
        bd = base_at(system, pt.q, order=0)
        if system.k:
            np.testing.assert_allclose(
                bd.eps.val @ sp.C_basis[: system.n], 0.0, atol=1e-10)


def test_two_form_restricted_to_C_is_nondegenerate(system):
    for pt in sample_points(system, 10, seed=47):
        om = omega_M(system, pt, order=0)
        sp = splitting_at(system, pt)
        G = sp.C_basis.T @ om.mat @ sp.C_basis
        assert abs(np.linalg.det(G)) > 1e-12
        assert om.restricted_abs_det == pytest.approx(abs(np.linalg.det(G)),
                                                      rel=1e-9)


# ------------------------------------------------------ adapted coframe


def test_adapted_coframe_snakeboard_names(snakeboard):
    names, rows = adapted_coframe(snakeboard, [0.1, -0.2, 0.3, 0.25, 0.4])
    assert names == ("psi", "phi", "alpha_S", "eps1", "eps2",
                     "ptilde_psi", "ptilde_phi", "ptilde_S")
    assert rows.shape == (8, 8)
    assert abs(np.linalg.det(rows)) > 1e-12


def test_adapted_coframe_is_dual_to_the_splitting(system):
    pt = sample_points(system, 1, seed=53)[0]
    names, rows = adapted_coframe(system, pt.q)
    n, k = system.n, system.k
    nk = n - k
    sp = splitting_at(system, pt)
    # chi rows pair to identity with the C base-lift columns, eps rows to
    # zero; eps rows pair to identity with the W columns
    pair_C = rows @ sp.C_basis
    np.testing.assert_allclose(pair_C[:nk, :nk], np.eye(nk), atol=1e-10)
    np.testing.assert_allclose(pair_C[nk:nk + k, :], 0.0, atol=1e-10)
    np.testing.assert_allclose(pair_C[nk + k:, nk:], np.eye(nk), atol=1e-12)
    if k:
        pair_W = rows @ sp.W_basis
        np.testing.assert_allclose(pair_W[nk:nk + k], np.eye(k), atol=1e-10)


def test_adapted_coframe_chi_keeps_plain_names_for_adapted_systems(twist3):
    names, rows = adapted_coframe(twist3, [0.1, 0.2, -0.1, 0.05])
    # r-coordinates u, v, w keep their own names: chi^alpha = dr^alpha
    assert names[:3] == ("u", "v", "w")
    np.testing.assert_allclose(rows[0, :4], [1, 0, 0, 0], atol=1e-12)


# ----------------------------------------------------- compiled pipeline


def test_compiled_grids_match_jet_evaluation(system):
    # the closed-form evaluator is an optimization; pin it against the
    # direct jet interpretation of the same expressions, re-parsed from
    # the definition and not constant-folded, so that the loader's
    # folding is checked too
    comp = get_compiled(system)
    names = list(system.coord_names)
    doc = system.definition

    def unfolded(text):
        return resolve(parse(text), set(names), set(system.params))

    metric = [[unfolded(e) for e in row] for row in doc["metric"]]
    potential = unfolded(doc["potential"])
    for pt in sample_points(system, 5, seed=59):
        q = pt.q
        coords = system.coord_map(q)
        pk = comp.metric.packed(q, 2)
        for i in range(system.n):
            for j in range(system.n):
                jet = eval_expr(metric[i][j], coords,
                                system.params, names, order=2)
                assert pk.val[i, j] == pytest.approx(jet.value,
                                                     rel=1e-12, abs=1e-12)
                np.testing.assert_allclose(pk.d1[:, i, j], jet.grad,
                                           rtol=1e-9, atol=1e-11)
                np.testing.assert_allclose(pk.d2[:, :, i, j], jet.hess,
                                           rtol=1e-9, atol=1e-10)
        val, grad, hess = comp.potential.evaluate(q, 2)
        jet = eval_expr(potential, coords, system.params,
                        names, order=2)
        assert val == pytest.approx(jet.value, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(grad, jet.grad, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(hess, jet.hess, rtol=1e-9, atol=1e-10)


# ------------------------------------------------------------- sampling


def test_sample_points_deterministic(snakeboard):
    a = sample_points(snakeboard, 10, seed=42)
    b = sample_points(snakeboard, 10, seed=42)
    for x, y in zip(a, b):
        assert np.array_equal(x.q, y.q)
        assert np.array_equal(x.ptilde, y.ptilde)
    c = sample_points(snakeboard, 10, seed=43)
    assert not np.array_equal(a[0].q, c[0].q)


def test_sample_points_respect_domain(system):
    for pt in sample_points(system, 50, seed=61):
        system.check_point(pt)


@pytest.mark.parametrize("kwargs", [
    {"count": -1}, {"count": 2.5}, {"count": True}, {"seed": 1.5},
    {"momentum_lo": float("nan")}, {"momentum_hi": float("inf")},
    {"momentum_lo": 1.0, "momentum_hi": -1.0},
], ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()))
def test_sample_points_rejects_meaningless_arguments(particle, kwargs):
    with pytest.raises(ValueError):
        sample_points(particle, **{"count": 2, "seed": 1, **kwargs})


def test_sample_points_seed_is_any_integer(particle):
    # numpy integers are integers, and seeds are taken mod 2^64
    ref = sample_points(particle, 3, seed=3)
    for seed in (np.int64(3), 3 + 2**64):
        for a, b in zip(sample_points(particle, 3, seed=seed), ref):
            assert np.array_equal(a.q, b.q)
            assert np.array_equal(a.ptilde, b.ptilde)


def test_sample_points_momentum_bounds(particle):
    pts = sample_points(particle, 50, seed=67, momentum_lo=-0.5,
                        momentum_hi=0.5)
    for pt in pts:
        assert np.all(np.abs(pt.ptilde) <= 0.5)


# ------------------------------------------------- one check per point
# The public single-point operations that evaluate the base once; each
# takes (system, p).  jacobiator_tensor is counted per route below.
ONE_POINT_OPS = {
    "chart_tensors": chart_tensors,
    "nh_bivector": nh_bivector,
    "hamiltonian_M": hamiltonian_M,
    "nh_vector_field": nh_vector_field,
    "curvature_coeffs": curvature_coeffs,
    "_curvature_pair_assembled": lambda s, p: _curvature_pair_assembled(
        s, p, *np.eye(s.dimM)[:2]),
    "embed": embed,
    "omega_M": omega_M,
    "splitting_at": splitting_at,
}


@pytest.fixture
def domain_checks(monkeypatch):
    """The shape of q at every check_domain call, in order."""
    calls = []
    orig = NonholonomicSystem.check_domain

    def counting(self, q):
        calls.append(np.shape(q))
        return orig(self, q)

    monkeypatch.setattr(NonholonomicSystem, "check_domain", counting)
    return calls


@pytest.mark.parametrize("op", list(ONE_POINT_OPS))
def test_a_single_point_operation_checks_the_point_once(system, op,
                                                        domain_checks):
    ONE_POINT_OPS[op](system, sample_points(system, 1, seed=9)[0])
    assert domain_checks == [(system.n,)]


def test_every_jacobiator_route_checks_the_point_once(system, domain_checks):
    p = sample_points(system, 1, seed=9)[0]
    for method in _applicable_methods(system):
        domain_checks.clear()
        jacobiator_tensor(system, p, method)
        assert domain_checks == [(system.n,)], method


def test_cross_validate_checks_each_stack_once(snakeboard, domain_checks):
    cross_validate(snakeboard, samples=100, seed=4)
    assert domain_checks == [(64, 5), (36, 5)]


def test_integrate_checks_the_start_and_each_stage(particle, domain_checks):
    # the start once, then the first stage and four stages per step
    integrate(particle, sample_points(particle, 1, seed=2)[0], 0.01, 10)
    assert len(domain_checks) == 2 + 4 * 10


@pytest.mark.parametrize("fault", ["non-finite", "out of bounds", "width"])
def test_a_stack_reports_its_first_failing_member(snakeboard, fault):
    # member 2 fails first (by the fault) and member 3 is out of bounds
    # too; a wrong width fails every member alike
    pts = sample_points(snakeboard, 4, seed=5)
    qs, pt = pts.q.copy(), pts.ptilde
    qs[3, 4] = -2.0
    if fault == "non-finite":
        qs[2, 4], qs[2, 1] = 2.0, np.nan
    elif fault == "out of bounds":
        qs[2, 4] = 2.0
    else:
        qs = np.hstack([qs, np.zeros((4, 1))])
    with pytest.raises(DomainError) as alone:
        base_at(snakeboard, qs[2], order=0)
    checks = [lambda: snakeboard.check_domain(qs),
              lambda: base_at(snakeboard, qs, order=0)]
    if fault != "non-finite":   # a PointM refuses that when it is made
        checks.append(lambda: base_at(snakeboard, PointM(qs, pt), order=0))
    for check in checks:
        with pytest.raises(DomainError) as stacked:
            check()
        assert str(stacked.value) == str(alone.value)


def _first_fault(system, qs):
    """The coordinate rule as a loop over the points and coordinates:
    the message for the first failing point of qs, or None."""
    for q in qs:
        if not all(np.isfinite(q)):
            return "non-finite coordinate value"
        for name, (lo, hi) in system.domain.items():
            v = float(q[system.coord_names.index(name)])
            if not lo < v < hi:
                return (f"coordinate {name} = {v!r} outside open domain "
                        f"({lo}, {hi})")
    return None


def test_a_stack_check_matches_the_rule_as_a_loop(snakeboard):
    rng = np.random.default_rng(11)
    faults = 0
    for _ in range(300):
        qs = rng.uniform(-2.0, 2.0, (rng.integers(1, 6), 5))
        qs[rng.random(qs.shape) < 0.05] = rng.choice([np.nan, np.inf,
                                                      -np.inf])
        expected = _first_fault(snakeboard, qs)
        if expected is None:
            assert np.array_equal(snakeboard.check_domain(qs), qs)
            continue
        faults += 1
        with pytest.raises(DomainError) as err:
            snakeboard.check_domain(qs)
        assert str(err.value) == expected
    assert 100 < faults < 300


@pytest.mark.parametrize("op", list(ONE_POINT_OPS))
def test_a_point_reports_its_coordinates_before_its_momenta(particle, op):
    with pytest.raises(DomainError, match="expected 3 coordinates"):
        ONE_POINT_OPS[op](particle, PointM([0.1, 0.2], [1.0]))


@pytest.mark.parametrize("op", list(ONE_POINT_OPS))
def test_a_point_reports_its_momenta_before_its_geometry(op):
    # the metric is degenerate at x = -1.9 (see test_hoisting)
    definition = builtin_definition("nh_particle")
    definition["metric"][0][0] = "1 - 3*exp(-50*(x-(-1.9))^2)"
    system = load_system(definition)
    with pytest.raises(GeometryError):
        ONE_POINT_OPS[op](system, PointM([-1.9, 0.3, 0.1], [1.0, 0.0]))
    with pytest.raises(DomainError, match="expected 2 momenta"):
        ONE_POINT_OPS[op](system, PointM([-1.9, 0.3, 0.1], [1.0]))


def test_a_point_is_read_only():
    for p in (PointM([0.1, 0.2, 0.3], [1.0, 2.0]),
              PointM(np.zeros((2, 3)), np.ones((2, 2)))):
        for a in (p.q, p.ptilde):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = np.nan
            with pytest.raises(ValueError, match="read-only"):
                a += 1.0
