"""Built-in systems: definitions, parameter validation, the snakeboard
closed forms against hand-derived values, and the reduced snakeboard
model against the full chart computation."""

import math

import numpy as np
import pytest

from nhk import (
    BuiltinSpec,
    PointM,
    base_at,
    builtin,
    builtin_definition,
    builtin_spec,
    chart_tensors,
    complement_at,
    jacobiator_bruteforce,
    list_builtins,
    load_system,
    sample_points,
    snakeboard_reduced_jacobiator,
    snakeboard_reduced_sharp,
)
from nhk.errors import DomainError, ParameterError
from nhk.systems import (
    SNAKEBOARD_REDUCED_CHART_INDICES,
    SNAKEBOARD_REDUCED_NAMES,
    snakeboard_expected,
)

# ---------------------------------------------------------- definitions


def test_list_builtins():
    assert list_builtins() == ["nh_particle", "rolling_disk", "snakeboard"]


@pytest.mark.parametrize("name", ["nh_particle", "rolling_disk", "snakeboard"])
def test_builtin_definitions_load(name):
    sys = builtin(name)
    assert sys.name == name
    # the stored definition document round-trips through the loader
    again = load_system(sys.definition)
    assert again.coord_names == sys.coord_names
    assert again.params == sys.params


def test_builtin_definition_returns_copies():
    a = builtin_definition("nh_particle")
    a["metric"][0][0] = "999"
    b = builtin_definition("nh_particle")
    assert b["metric"][0][0] != "999"


def test_builtin_shapes():
    sb = builtin("snakeboard")
    assert (sb.n, sb.k, sb.dimM) == (5, 2, 8)
    pa = builtin("nh_particle")
    assert (pa.n, pa.k, pa.dimM) == (3, 1, 5)
    rd = builtin("rolling_disk")
    assert (rd.n, rd.k, rd.dimM) == (4, 2, 6)


def test_unknown_builtin_rejected():
    with pytest.raises(ParameterError):
        builtin_definition("unicycle")


def test_parameter_overrides_merge():
    sys = builtin("snakeboard", {"r": 2.0})
    assert sys.params["r"] == 2.0
    assert sys.params["m"] == 1.0  # untouched default


def test_unknown_parameter_rejected():
    with pytest.raises(ParameterError):
        builtin_definition("snakeboard", {"mass": 2.0})


def test_invalid_parameter_values_rejected():
    with pytest.raises(ParameterError):
        builtin_definition("snakeboard", {"m": -1.0})
    with pytest.raises(ParameterError):
        builtin_definition("snakeboard", {"m": float("nan")})
    with pytest.raises(ParameterError):
        builtin_definition("snakeboard", {"m": True})
    with pytest.raises(ParameterError) as err:
        # violates the rotor-inertia bound m r^2 > J0
        builtin_definition("snakeboard", {"J0": 5.0})
    assert "m*r^2 > J0" in str(err.value)
    with pytest.raises(ParameterError):
        builtin_definition("rolling_disk", {"R": 0.0})


def test_builtin_spec():
    spec = builtin_spec("snakeboard")
    assert isinstance(spec, BuiltinSpec)
    assert spec.name == "snakeboard"
    assert spec.default_params == {"m": 1.0, "r": 1.0, "J0": 0.5, "Jw": 0.25}
    assert set(spec.closed_forms) == {"J1", "J2", "jac_ppsi", "jac_palphaS",
                                      "jac_eps1", "jac_eps2", "KW_coeff"}
    q = [0.0, 0.0, 0.0, 0.0, 0.3]
    assert spec.closed_forms["J2"](q) == snakeboard_expected("J2", q)
    assert builtin_spec("nh_particle").closed_forms == {}
    with pytest.raises(ParameterError):
        builtin_spec("hovercraft")


# ------------------------------------------------- snakeboard closed forms


def q_phi(phi):
    return np.array([0.0, 0.0, 0.0, 0.0, phi])


def test_expected_values_hand_derived_at_pi_over_six():
    # with defaults m = r = 1, J0 = 1/2 at phi = pi/6:
    #   Delta = 1 - sin^2/2 = 7/8,  J2 = -cos/ (2 Delta) = -2 sqrt(3)/7,
    #   J1 = -(1/2) sin / (4 cos^2 Delta) = -2/21,
    #   Jac(ptilde_phi, ptilde_S, dpsi) = 4 cos J2 = -12/7,
    #   eps-values and the curvature coefficient are -+2 cos = -+sqrt(3)
    q = q_phi(math.pi / 6)
    assert snakeboard_expected("J2", q) == pytest.approx(
        -2 * math.sqrt(3) / 7, rel=1e-14)
    assert snakeboard_expected("J1", q) == pytest.approx(-2 / 21, rel=1e-14)
    assert snakeboard_expected("jac_ppsi", q) == pytest.approx(
        -12 / 7, rel=1e-14)
    assert snakeboard_expected("jac_palphaS", q) == pytest.approx(
        -4 * math.sqrt(3) / 21, rel=1e-14)
    assert snakeboard_expected("jac_eps1", q) == pytest.approx(
        -math.sqrt(3), rel=1e-14)
    assert snakeboard_expected("jac_eps2", q) == pytest.approx(
        math.sqrt(3), rel=1e-14)
    assert snakeboard_expected("KW_coeff", q) == pytest.approx(
        -math.sqrt(3), rel=1e-14)


def test_expected_values_frozen_at_phi_04():
    q = q_phi(0.4)
    assert snakeboard_expected("jac_ppsi", q) == pytest.approx(
        -1.8359116291882427, rel=1e-15)
    assert snakeboard_expected("KW_coeff", q) == pytest.approx(
        -2.0 * math.cos(0.4), rel=1e-15)


def test_expected_accepts_point_or_coordinates():
    q = q_phi(0.3)
    p = PointM(q, [0.1, 0.2, 0.3])
    assert snakeboard_expected("J1", q) == snakeboard_expected("J1", p)


@pytest.mark.parametrize("q, error, message", [
    ([1j, 0, 0, 0, 0.1], DomainError, "coordinates must be real numbers"),
    (["a", 0, 0, 0, 0.1], DomainError, "coordinates must be real numbers"),
    ([True, 0, 0, 0, 0.1], DomainError, "coordinates must be real numbers"),
    (np.zeros(4), DomainError, r"expected 5 coordinates, got shape \(4,\)"),
    (np.zeros((2, 5)), ParameterError,
     r"^expected one point, got a stack of 2$"),
    (PointM(np.zeros((2, 5)), np.zeros((2, 3))), ParameterError,
     r"^expected one point, got a stack of 2$"),
    ([0, np.nan, 0, 0, 0.1], DomainError, "non-finite coordinate value"),
    ([0, 0, 0, 0, np.inf], DomainError, "non-finite coordinate value"),
], ids=["complex", "string", "bool", "short", "stack", "stacked_point", "nan",
        "inf"])
def test_expected_follows_the_coordinate_rule(q, error, message):
    # a stack, as an array or a PointM, meets the one-point rule of every
    # single-point operation
    with pytest.raises(error, match=message):
        snakeboard_expected("J1", q)


def test_expected_rejects_pole_angles():
    for phi in (math.pi / 2, -math.pi / 2, 2.0):
        with pytest.raises(DomainError):
            snakeboard_expected("J2", q_phi(phi))


POLE_ANGLES = [math.pi / 2, -math.pi / 2, 2.0, 3.0]


@pytest.mark.parametrize("phi", POLE_ANGLES)
def test_reduced_closed_forms_reject_pole_angles(phi):
    # the steering-angle rule of snakeboard_expected, with its message
    with pytest.raises(DomainError) as expected:
        snakeboard_expected("J2", q_phi(phi))
    p_red = [0.3, phi, 0.5, -0.2, 0.7]
    calls = [lambda: snakeboard_reduced_sharp(p_red, np.eye(5)[3]),
             lambda: snakeboard_reduced_jacobiator(p_red, (3, 4, 0)),
             lambda: snakeboard_reduced_jacobiator(p_red, (0, 1, 2))]
    for call in calls:
        with pytest.raises(DomainError) as reduced:
            call()
        assert str(reduced.value) == str(expected.value)


def test_expected_unknown_name():
    # a ParameterError, which is still a ValueError
    with pytest.raises(ParameterError, match="unknown expected-value name"):
        snakeboard_expected("J3", q_phi(0.1))
    assert issubclass(ParameterError, ValueError)


def test_expected_respects_parameter_overrides():
    q = q_phi(0.2)
    base = snakeboard_expected("KW_coeff", q)
    scaled = snakeboard_expected("KW_coeff", q, params={"r": 2.0})
    assert scaled == pytest.approx(2 * base, rel=1e-14)


def test_elimination_matrix_reproduces_closed_forms(snakeboard):
    # p(Z_a) = J[a, :] ptilde with rows (J2, 0, J1) and (-J2, 0, -J1)
    for p in sample_points(snakeboard, 50, seed=401):
        bd = base_at(snakeboard, p.q, order=0)
        J = (bd.mu.val @ complement_at(snakeboard, bd)[0].val).T
        J1 = snakeboard_expected("J1", p)
        J2 = snakeboard_expected("J2", p)
        np.testing.assert_allclose(J,
                                   [[J2, 0.0, J1], [-J2, 0.0, -J1]],
                                   rtol=1e-12, atol=1e-12)


# ------------------------------------------------------- reduced model


def test_reduced_names_match_full_chart(snakeboard):
    chart = snakeboard.chart_names
    assert tuple(chart[i] for i in SNAKEBOARD_REDUCED_CHART_INDICES) \
        == SNAKEBOARD_REDUCED_NAMES


def test_reduced_sharp_is_antisymmetric():
    p_red = [0.3, 0.25, 0.7, -0.2, 1.1]
    mat = np.column_stack([
        snakeboard_reduced_sharp(p_red, np.eye(5)[i]) for i in range(5)
    ])
    np.testing.assert_allclose(mat, -mat.T, atol=1e-14)


def test_reduced_sharp_input_validation():
    with pytest.raises(ValueError):
        snakeboard_reduced_sharp([0.1, 0.2], np.zeros(5))
    with pytest.raises(ValueError):
        snakeboard_reduced_sharp([0.1, 0.2, 0.3, 0.4, 0.5], np.zeros(3))


def test_reduced_sharp_matches_full_model(snakeboard):
    # the reduced bivector is the (psi, phi, momenta) block of the full
    # one; the dropped group variables (x, y, theta) never enter it
    idx = list(SNAKEBOARD_REDUCED_CHART_INDICES)
    for group in ([0.0, 0.0, 0.0], [1.3, -0.7, 0.9]):
        q = np.array(group + [0.3, 0.25])
        pt = np.array([0.7, -0.2, 1.1])
        full = chart_tensors(snakeboard, PointM(q, pt), order=0).Pi
        block = full[np.ix_(idx, idx)]
        p_red = [0.3, 0.25, 0.7, -0.2, 1.1]
        red = np.column_stack([
            snakeboard_reduced_sharp(p_red, np.eye(5)[i]) for i in range(5)
        ])
        np.testing.assert_allclose(red, block, rtol=1e-10, atol=1e-12)


def test_reduced_sharp_independent_of_group_variables(snakeboard):
    idx = list(SNAKEBOARD_REDUCED_CHART_INDICES)
    pt = np.array([0.7, -0.2, 1.1])
    a = chart_tensors(snakeboard,
                      PointM([0.0, 0.0, 0.0, 0.3, 0.25], pt), order=0)
    b = chart_tensors(snakeboard,
                      PointM([1.3, -0.7, 0.9, 0.3, 0.25], pt), order=0)
    np.testing.assert_allclose(a.Pi[np.ix_(idx, idx)],
                               b.Pi[np.ix_(idx, idx)], atol=1e-12)


def test_reduced_jacobiator_matches_full_model(snakeboard):
    p_red = [0.3, 0.25, 0.7, -0.2, 1.1]
    q = np.array([0.4, -0.9, 1.2, 0.3, 0.25])
    p = PointM(q, [0.7, -0.2, 1.1])
    # reduced dual-basis indices map to full chart indices
    to_full = dict(enumerate(SNAKEBOARD_REDUCED_CHART_INDICES))
    for triple in [(3, 4, 0), (4, 3, 0), (0, 3, 4), (2, 3, 4), (0, 1, 2),
                   (1, 3, 4), (0, 2, 4)]:
        red = snakeboard_reduced_jacobiator(p_red, triple)
        full = jacobiator_bruteforce(
            snakeboard, p, tuple(to_full[t] for t in triple))
        assert red == pytest.approx(full, rel=1e-10, abs=1e-10), triple


def test_reduced_jacobiator_closed_form():
    p_red = [0.0, 0.4, 0.0, 0.0, 0.0]
    got = snakeboard_reduced_jacobiator(p_red, (3, 4, 0))
    assert got == pytest.approx(
        snakeboard_expected("jac_ppsi", q_phi(0.4)), rel=1e-14)
    # permutation signs
    assert snakeboard_reduced_jacobiator(p_red, (4, 3, 0)) == -got
    assert snakeboard_reduced_jacobiator(p_red, (0, 3, 4)) == got
    # repeated and irrelevant triples vanish
    assert snakeboard_reduced_jacobiator(p_red, (3, 3, 0)) == 0.0
    assert snakeboard_reduced_jacobiator(p_red, (0, 1, 2)) == 0.0


def test_reduced_jacobiator_parameter_validation():
    with pytest.raises(ParameterError):
        snakeboard_reduced_jacobiator([0, 0.1, 0, 0, 0], (3, 4, 0),
                                      params={"r": -2.0})
    # the triple rule of the full model's Jacobiator entry points
    p_red = [0, 0.1, 0, 0, 0]
    for triple in [(3.5, 4, 0), (3, 4, 9), (3, 4, -5), ("a", "b", "c"),
                   (3, 4, False), (3, 4), 3]:
        with pytest.raises(ParameterError):
            snakeboard_reduced_jacobiator(p_red, triple)
    assert snakeboard_reduced_jacobiator(p_red, (np.int64(3), 4, 0)) \
        == snakeboard_reduced_jacobiator(p_red, (3, 4, 0)) != 0.0


# ------------------------------------------------------ systems as loaded


def test_snakeboard_base_frame_columns(snakeboard):
    # the d_frame declaration gives X columns psi, phi, S with the S leg
    # steering the contact frame; duality against mu is exact
    q = np.array([0.2, -0.1, 0.7, 0.3, 0.25])
    bd = base_at(snakeboard, q, order=0)
    assert bd.X.val.shape == (5, 3)
    np.testing.assert_allclose(bd.mu.val @ bd.X.val, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(bd.eps.val @ bd.X.val, 0.0, atol=1e-12)


def test_builtin_momentum_labels(snakeboard):
    assert snakeboard.momentum_labels == ("psi", "phi", "S")
    assert builtin("nh_particle").momentum_labels == ("x", "y")
    assert builtin("rolling_disk").momentum_labels == ("phi", "theta")


def test_parameters_change_the_geometry():
    heavy = builtin("snakeboard", {"m": 3.0})
    light = builtin("snakeboard")
    q = np.array([0.0, 0.0, 0.0, 0.0, 0.3])
    kd_h = base_at(heavy, q, order=0).kD.val
    kd_l = base_at(light, q, order=0).kD.val
    assert not np.allclose(kd_h, kd_l)
