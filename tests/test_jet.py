"""Second-order jet arithmetic: exact examples, finite-difference cross
checks, domain guards, and structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhk.errors import EvalError
from nhk.jet import (
    Jet2,
    jet_binary,
    jet_const,
    jet_lift,
    jet_unary,
)

# ------------------------------------------------------------ FD helpers

H = 1e-4


def fd_grad(f, xs, h=H):
    xs = np.asarray(xs, dtype=float)
    g = np.zeros(xs.shape[0])
    for i in range(xs.shape[0]):
        up, dn = xs.copy(), xs.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2 * h)
    return g


def fd_hess(f, xs, h=H):
    xs = np.asarray(xs, dtype=float)
    n = xs.shape[0]
    hess = np.zeros((n, n))
    f0 = f(xs)
    for i in range(n):
        up, dn = xs.copy(), xs.copy()
        up[i] += h
        dn[i] -= h
        hess[i, i] = (f(up) - 2 * f0 + f(dn)) / h**2
        for j in range(i + 1, n):
            pp, pm, mp, mm = xs.copy(), xs.copy(), xs.copy(), xs.copy()
            pp[[i, j]] += h
            mm[[i, j]] -= h
            pm[i] += h
            pm[j] -= h
            mp[i] -= h
            mp[j] += h
            hess[i, j] = hess[j, i] = (f(pp) - f(pm) - f(mp) + f(mm)) / (4 * h**2)
    return hess


def assert_jet_matches_fd(jet, f, xs, rtol=1e-6, atol=1e-6):
    assert jet.value == pytest.approx(f(np.asarray(xs, dtype=float)), rel=1e-12)
    np.testing.assert_allclose(jet.grad, fd_grad(f, xs), rtol=rtol, atol=atol)
    np.testing.assert_allclose(jet.hess, fd_hess(f, xs), rtol=rtol, atol=atol)


# ------------------------------------------------------------ seeds


def test_lift_single_variable():
    j = jet_lift([3.0], 0)
    assert j.value == 3.0
    assert np.array_equal(j.grad, [1.0])
    assert np.array_equal(j.hess, [[0.0]])


def test_lift_second_of_three():
    j = jet_lift([1.0, 4.0, 9.0], 1)
    assert j.value == 4.0
    assert np.array_equal(j.grad, [0.0, 1.0, 0.0])
    assert np.array_equal(j.hess, np.zeros((3, 3)))


def test_lift_first_order_only():
    j = jet_lift([2.0, 5.0], 0, order=1)
    assert j.value == 2.0
    assert np.array_equal(j.grad, [1.0, 0.0])
    assert j.hess is None
    assert j.order == 1


def test_lift_index_out_of_range():
    with pytest.raises(EvalError):
        jet_lift([1.0, 2.0], 2)
    with pytest.raises(EvalError):
        jet_lift([1.0], -1)


def test_const_has_zero_derivatives():
    j = jet_const(7.5, 3)
    assert j.value == 7.5
    assert np.array_equal(j.grad, np.zeros(3))
    assert np.array_equal(j.hess, np.zeros((3, 3)))


# ------------------------------------------------------------ binary ops


def test_mul_square_exact():
    x = jet_lift([3.0], 0)
    j = jet_binary("mul", x, x)
    assert j.value == 9.0
    assert np.array_equal(j.grad, [6.0])
    assert np.array_equal(j.hess, [[2.0]])


def test_add_sub_exact():
    x = jet_lift([2.0, -1.0], 0)
    y = jet_lift([2.0, -1.0], 1)
    s = jet_binary("add", x, y)
    assert s.value == 1.0
    assert np.array_equal(s.grad, [1.0, 1.0])
    d = jet_binary("sub", x, y)
    assert d.value == 3.0
    assert np.array_equal(d.grad, [1.0, -1.0])
    assert np.array_equal(d.hess, np.zeros((2, 2)))


def test_product_rule_sin_cos_fd():
    x0 = 0.7
    s = jet_unary("sin", jet_lift([x0], 0))
    c = jet_unary("cos", jet_lift([x0], 0))
    j = jet_binary("mul", s, c)
    assert_jet_matches_fd(j, lambda v: math.sin(v[0]) * math.cos(v[0]), [x0])


def test_quotient_rule_fd():
    x0, y0 = 1.3, 0.8
    x = jet_lift([x0, y0], 0)
    y = jet_lift([x0, y0], 1)
    num = jet_binary("add", jet_unary("sin", x), jet_const(2.0, 2))
    den = jet_binary("add", jet_unary("exp", y), x)
    j = jet_binary("div", num, den)
    assert_jet_matches_fd(
        j,
        lambda v: (math.sin(v[0]) + 2.0) / (math.exp(v[1]) + v[0]),
        [x0, y0],
    )


def test_div_near_zero_denominator_raises():
    a = jet_const(1.0, 1)
    with pytest.raises(EvalError):
        jet_binary("div", a, jet_const(0.0, 1))
    with pytest.raises(EvalError):
        jet_binary("div", a, jet_const(1e-15, 1))
    # just above the guard threshold still works
    j = jet_binary("div", a, jet_const(1e-13, 1))
    assert j.value == pytest.approx(1e13)


def test_pow_positive_exponent_exact():
    x = jet_lift([2.0], 0)
    j = jet_binary("pow", x, jet_const(3.0, 1))
    assert j.value == 8.0
    assert np.array_equal(j.grad, [12.0])
    assert np.array_equal(j.hess, [[12.0]])


def test_pow_negative_exponent_fd():
    x = jet_lift([1.7], 0)
    j = jet_binary("pow", x, jet_const(-2.0, 1))
    assert_jet_matches_fd(j, lambda v: v[0] ** -2.0, [1.7])


def test_pow_zero_exponent_is_one():
    x = jet_lift([5.0], 0)
    j = jet_binary("pow", x, jet_const(0.0, 1))
    assert j.value == 1.0
    assert np.array_equal(j.grad, [0.0])


def test_pow_rejects_bad_exponents():
    x = jet_lift([2.0], 0)
    with pytest.raises(EvalError):
        jet_binary("pow", x, jet_const(0.5, 1))
    with pytest.raises(EvalError):
        jet_binary("pow", x, jet_const(7.0, 1))
    with pytest.raises(EvalError):
        jet_binary("pow", x, jet_const(-7.0, 1))
    with pytest.raises(EvalError):
        # non-constant exponent
        jet_binary("pow", x, jet_lift([2.0], 0))


def test_nvars_mismatch_raises():
    with pytest.raises(EvalError):
        jet_binary("add", jet_const(1.0, 2), jet_const(1.0, 3))


def test_unknown_binary_op_raises():
    with pytest.raises(EvalError):
        jet_binary("mod", jet_const(1.0, 1), jet_const(1.0, 1))


# ------------------------------------------------------------ unary fns


def test_sin_at_zero_exact():
    j = jet_unary("sin", jet_lift([0.0], 0))
    assert j.value == 0.0
    assert np.array_equal(j.grad, [1.0])
    assert np.array_equal(j.hess, [[0.0]])


def test_sec_at_zero_exact():
    j = jet_unary("sec", jet_lift([0.0], 0))
    assert j.value == 1.0
    assert np.array_equal(j.grad, [0.0])
    assert np.array_equal(j.hess, [[1.0]])


def test_exp_of_square_fd():
    x0 = 0.5
    x = jet_lift([x0], 0)
    j = jet_unary("exp", jet_binary("mul", x, x))
    assert_jet_matches_fd(j, lambda v: math.exp(v[0] ** 2), [x0])


@pytest.mark.parametrize("fn", ["sin", "cos", "tan", "sec", "sqrt", "exp", "ln"])
def test_each_function_fd(fn):
    x0 = 0.6  # inside every domain, away from poles
    f = {
        "sin": math.sin,
        "cos": math.cos,
        "tan": math.tan,
        "sec": lambda t: 1.0 / math.cos(t),
        "sqrt": math.sqrt,
        "exp": math.exp,
        "ln": math.log,
    }[fn]
    j = jet_unary(fn, jet_lift([x0], 0))
    assert_jet_matches_fd(j, lambda v: f(v[0]), [x0])


def test_neg_is_exact():
    x = jet_lift([1.5], 0)
    j = jet_unary("neg", jet_binary("mul", x, x))
    assert j.value == -2.25
    assert np.array_equal(j.grad, [-3.0])
    assert np.array_equal(j.hess, [[-2.0]])


def test_domain_guards_raise():
    with pytest.raises(EvalError):
        jet_unary("sqrt", jet_const(-1.0, 1))
    with pytest.raises(EvalError):
        jet_unary("sqrt", jet_const(0.0, 1))  # derivative pole
    with pytest.raises(EvalError):
        jet_unary("ln", jet_const(0.0, 1))
    with pytest.raises(EvalError):
        jet_unary("ln", jet_const(-2.0, 1))
    with pytest.raises(EvalError):
        jet_unary("tan", jet_const(math.pi / 2, 1))
    with pytest.raises(EvalError):
        jet_unary("sec", jet_const(math.pi / 2, 1))


@pytest.mark.parametrize("fn, x", [
    ("exp", 1000.0), ("sin", math.inf), ("cos", -math.inf),
    ("tan", math.inf), ("sec", math.inf), ("sqrt", 1e-300),
    ("ln", 1e-200)])
def test_a_result_beyond_the_float_range_is_an_eval_error(fn, x):
    # exp overflows, the trigonometric functions are undefined at inf,
    # and the derivatives of sqrt and ln divide by an underflowed zero
    message = f"{fn} has no finite value or derivative at {x!r}"
    for order in (0, 2):
        with pytest.raises(EvalError) as err:
            jet_unary(fn, jet_const(x, 1, order))
        assert str(err.value) == message


def test_a_power_beyond_the_float_range_is_an_eval_error():
    for x, e in ((1e60, 6), (-1e100, 5)):
        with pytest.raises(EvalError) as err:
            jet_binary("pow", jet_const(x, 1), jet_const(e, 1))
        assert str(err.value) == (f"power {e} has no finite value or "
                                  f"derivative at {x!r}")


def test_unknown_unary_fn_raises():
    with pytest.raises(EvalError):
        jet_unary("sinh", jet_const(1.0, 1))


# ---------------------------------------------------- composite chains


def test_composite_chain_fd():
    # f(x, y) = ln(1 + exp(x) * sec(y)) / sqrt(2 + sin(x*y))
    x0, y0 = 0.3, -0.4
    x = jet_lift([x0, y0], 0)
    y = jet_lift([x0, y0], 1)
    num = jet_unary(
        "ln",
        jet_binary(
            "add",
            jet_const(1.0, 2),
            jet_binary("mul", jet_unary("exp", x), jet_unary("sec", y)),
        ),
    )
    den = jet_unary(
        "sqrt",
        jet_binary("add", jet_const(2.0, 2), jet_unary("sin", jet_binary("mul", x, y))),
    )
    j = jet_binary("div", num, den)

    def f(v):
        return math.log(1 + math.exp(v[0]) / math.cos(v[1])) / math.sqrt(
            2 + math.sin(v[0] * v[1])
        )

    assert_jet_matches_fd(j, f, [x0, y0])


def test_operator_sugar_matches_module_functions():
    x = jet_lift([1.1, 0.4], 0)
    y = jet_lift([1.1, 0.4], 1)
    a = (x * y + 2.0) / (1.0 + x) - y
    b = jet_binary(
        "sub",
        jet_binary(
            "div",
            jet_binary("add", jet_binary("mul", x, y), jet_const(2.0, 2)),
            jet_binary("add", jet_const(1.0, 2), x),
        ),
        y,
    )
    assert a.value == b.value
    assert np.array_equal(a.grad, b.grad)
    assert np.array_equal(a.hess, b.hess)
    c = -x
    assert c.value == -1.1 and np.array_equal(c.grad, [-1.0, 0.0])


# -------------------------------------------------- structural invariants


def test_hessian_symmetric_exactly():
    # A lopsided composite whose mixed partials would expose any
    # asymmetric accumulation.
    x = jet_lift([0.9, 1.7, -0.3], 0)
    y = jet_lift([0.9, 1.7, -0.3], 1)
    z = jet_lift([0.9, 1.7, -0.3], 2)
    j = jet_unary("sin", x * y) * jet_unary("exp", y * z) + x * x * z
    assert np.array_equal(j.hess, j.hess.T)


def test_zero_variable_jets_degrade_to_scalar_arithmetic():
    a = jet_const(0.8, 0)
    b = jet_const(2.5, 0)
    j = jet_unary("sin", a) * b + jet_unary("exp", jet_binary("div", a, b))
    assert j.value == math.sin(0.8) * 2.5 + math.exp(0.8 / 2.5)
    assert j.nvars == 0
    assert j.grad.shape == (0,) and j.hess.shape == (0, 0)
    # at order 0 the derivative slots disappear entirely
    k = jet_const(0.8, 0, order=0) * jet_const(2.5, 0, order=0)
    assert k.value == 0.8 * 2.5
    assert k.grad is None and k.hess is None and k.order == 0


def test_lower_order_propagates():
    x = jet_lift([0.5], 0, order=1)
    j = jet_unary("sin", x) * x
    assert j.hess is None
    assert j.grad is not None
    assert j.value == pytest.approx(math.sin(0.5) * 0.5)
    assert j.grad[0] == pytest.approx(math.sin(0.5) + 0.5 * math.cos(0.5), rel=1e-12)


def test_mixed_order_takes_minimum():
    x2 = jet_lift([0.5], 0, order=2)
    x1 = jet_lift([0.5], 0, order=1)
    j = x2 * x1
    assert j.order == 1


# ---------------------------------------------------- property tests


@given(
    c0=st.floats(-3, 3),
    c1=st.floats(-3, 3),
    c2=st.floats(-3, 3),
    x0=st.floats(-2, 2),
)
@settings(max_examples=60, deadline=None)
def test_polynomial_jets_are_analytically_exact(c0, c1, c2, x0):
    x = jet_lift([x0], 0)
    j = jet_const(c0, 1) + jet_const(c1, 1) * x + jet_const(c2, 1) * x * x
    assert j.value == pytest.approx(c0 + c1 * x0 + c2 * x0 * x0, rel=1e-12, abs=1e-12)
    assert j.grad[0] == pytest.approx(c1 + 2 * c2 * x0, rel=1e-12, abs=1e-12)
    assert j.hess[0, 0] == pytest.approx(2 * c2, rel=1e-12, abs=1e-12)


@given(
    x0=st.floats(-1.4, 1.4),
    y0=st.floats(-1.4, 1.4),
)
@settings(max_examples=60, deadline=None)
def test_product_rule_property(x0, y0):
    # grad(fg) = f grad(g) + g grad(f), checked on f=sin(x+y), g=exp(x-y)
    x = jet_lift([x0, y0], 0)
    y = jet_lift([x0, y0], 1)
    f = jet_unary("sin", x + y)
    g = jet_unary("exp", x - y)
    fg = f * g
    np.testing.assert_allclose(
        fg.grad, f.value * g.grad + g.value * f.grad, rtol=1e-12, atol=1e-12
    )
    np.testing.assert_allclose(
        fg.hess,
        f.value * g.hess
        + g.value * f.hess
        + np.outer(f.grad, g.grad)
        + np.outer(g.grad, f.grad),
        rtol=1e-12,
        atol=1e-12,
    )


@given(x0=st.floats(-1.2, 1.2))
@settings(max_examples=40, deadline=None)
def test_chain_rule_property(x0):
    # d/dx exp(sin x) = cos(x) exp(sin x); second derivative analytic too.
    x = jet_lift([x0], 0)
    j = jet_unary("exp", jet_unary("sin", x))
    e = math.exp(math.sin(x0))
    assert j.value == pytest.approx(e, rel=1e-12)
    assert j.grad[0] == pytest.approx(math.cos(x0) * e, rel=1e-12, abs=1e-12)
    assert j.hess[0, 0] == pytest.approx(
        (math.cos(x0) ** 2 - math.sin(x0)) * e, rel=1e-12, abs=1e-12
    )
