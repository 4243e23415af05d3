"""Expression language v1: grammar shape, round-tripping, offsets in
errors, and jet evaluation of parsed trees."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expr_corpus import CORPUS
from nhk.errors import EvalError, ParseError
from nhk.expr import (
    Binary,
    Name,
    Num,
    Param,
    Unary,
    Var,
    collect_names,
    eval_expr,
    fold_constants,
    format_expr,
    parse,
    resolve,
)
from test_jet import fd_grad, fd_hess


def eval_jet(e, coords, params, active):
    """The full second-order Jet2 of e at the point, differentiated along
    the active names in order."""
    return eval_expr(e, coords, params, active, order=2)


# ------------------------------------------------------------ round trip


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 50


@pytest.mark.parametrize("text", [t for t, _ in CORPUS])
def test_corpus_roundtrip(text):
    ast = parse(text)
    printed = format_expr(ast)
    assert parse(printed) == ast


@pytest.mark.parametrize("text,bindings", CORPUS)
def test_corpus_roundtrip_evaluates_identically(text, bindings):
    ast = parse(text)
    again = parse(format_expr(ast))
    v1 = eval_expr(ast, bindings, {}, [], order=0).value
    v2 = eval_expr(again, bindings, {}, [], order=0).value
    assert v1 == v2  # same tree, bitwise-identical arithmetic


def test_roundtrip_preserves_tricky_precedence():
    for text in [
        "-x^2",
        "(-x)^2",
        "a - (b - c)",
        "a - b - c",
        "a/(b*c)",
        "a/b*c",
        "-(a + b)",
        "2^(-3)",
        "-sin(x)^2",
    ]:
        ast = parse(text)
        assert parse(format_expr(ast)) == ast


# ------------------------------------------------------------ AST shapes


def test_sum_inside_function():
    assert parse("sin(theta+phi)") == Unary(
        "sin", Binary("add", Name("theta"), Name("phi"))
    )


def test_unary_minus_times_function_resolved():
    ast = resolve(parse("-r*cos(phi)"), ["theta", "phi"], ["r"])
    assert ast == Binary("mul", Unary("neg", Param("r")), Unary("cos", Var("phi")))


def test_unary_minus_binds_looser_than_pow():
    assert parse("-x^2") == Unary("neg", Binary("pow", Name("x"), Num(2.0)))
    assert parse("(-x)^2") == Binary("pow", Unary("neg", Name("x")), Num(2.0))


def test_left_associativity():
    assert parse("a - b - c") == Binary(
        "sub", Binary("sub", Name("a"), Name("b")), Name("c")
    )
    assert parse("a/b/c") == Binary(
        "div", Binary("div", Name("a"), Name("b")), Name("c")
    )


def test_precedence_mul_over_add():
    assert parse("a + b*c") == Binary(
        "add", Name("a"), Binary("mul", Name("b"), Name("c"))
    )


def test_number_formats():
    assert parse("2.5e-3") == Num(0.0025)
    assert parse(".5") == Num(0.5)
    assert parse("3.") == Num(3.0)
    assert parse("1e2") == Num(100.0)


def test_whitespace_insensitive():
    assert parse("  x +\ty * z ") == parse("x+y*z")
    assert parse("sin( x )") == parse("sin(x)")


# ------------------------------------------------------- parse errors


def test_unclosed_call_reports_offset():
    with pytest.raises(ParseError) as err:
        parse("sin(theta")
    assert err.value.offset == 9


def test_exponent_rules():
    parse("x^6")
    parse("x^-6")
    parse("x^(3)")
    parse("x^(-4)")
    for bad in ["x^7", "x^-7", "x^0.5", "x^y", "x^(2.5)"]:
        with pytest.raises(ParseError):
            parse(bad)


def test_no_implicit_multiplication():
    with pytest.raises(ParseError) as err:
        parse("2x")
    assert err.value.offset == 1
    with pytest.raises(ParseError):
        parse("2(x+1)")
    with pytest.raises(ParseError):
        parse("(a)(b)")


def test_non_ascii_rejected():
    with pytest.raises(ParseError) as err:
        parse("π + 1")
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        parse("sin(θ)")
    assert err.value.offset == 4


def test_empty_expression_rejected():
    for text in ["", "   ", "\t\n"]:
        with pytest.raises(ParseError):
            parse(text)


def test_unknown_function_rejected():
    with pytest.raises(ParseError) as err:
        parse("foo(x)")
    assert err.value.offset == 0
    with pytest.raises(ParseError):
        parse("sin(x, y)")  # wrong arity


def test_assorted_malformed_inputs():
    for bad in ["()", "1 +", "* x", "x )", "sin()", "a..b", "x ^ ^ 2", "@x"]:
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_error_carries_message_and_offset():
    with pytest.raises(ParseError) as err:
        parse("a + + b")
    assert isinstance(err.value.offset, int)
    assert err.value.message
    assert str(err.value.offset) in str(err.value)


# --------------------------------------------------------- resolution


def test_resolve_classifies_names():
    ast = resolve(parse("m*x + g"), ["x"], ["m", "g"])
    assert ast == Binary("add", Binary("mul", Param("m"), Var("x")), Param("g"))


def test_resolve_unknown_name_raises_with_offset():
    with pytest.raises(EvalError) as err:
        resolve(parse("x + bogus"), ["x"], [])
    assert err.value.offset == 4


def test_collect_names():
    assert collect_names(parse("sin(a)*b + c_2 - a")) == {"a", "b", "c_2"}


def test_fold_constants_collapses_numeric_subtrees():
    assert fold_constants(parse("2*3 + x"), {}) == parse("6 + x")
    assert fold_constants(
        resolve(parse("m*r^2*y"), ["y"], ["m", "r"]), {"m": 2.0, "r": 3.0}
    ) == Binary("mul", Num(18.0), Var("y"))


def test_fold_constants_surfaces_domain_errors():
    with pytest.raises(EvalError):
        fold_constants(parse("ln(0) + x"), {})


# --------------------------------------------------------- evaluation


@pytest.mark.parametrize("text,bindings", CORPUS)
def test_eval_jet_matches_finite_differences(text, bindings):
    ast = parse(text)
    names = sorted(n for n in collect_names(ast) if n in bindings)
    if not names:
        pytest.skip("constant expression")
    xs = np.array([bindings[n] for n in names])

    def f(v):
        coords = dict(zip(names, v))
        return eval_expr(ast, coords, {}, [], order=0).value

    j = eval_jet(ast, bindings, {}, names)
    assert j.value == pytest.approx(f(xs), rel=1e-12)
    np.testing.assert_allclose(j.grad, fd_grad(f, xs), rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(j.hess, fd_hess(f, xs), rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("text,bindings", CORPUS)
def test_eval_with_empty_active_list_is_plain_arithmetic(text, bindings):
    ast = parse(text)
    scalar = eval_expr(ast, bindings, {}, [], order=0)
    assert scalar.grad is None and scalar.hess is None
    # Same value bitwise when derivatives ride along.
    full = eval_jet(ast, bindings, {}, sorted(bindings))
    assert full.value == scalar.value


def test_eval_against_independent_arithmetic():
    bindings = {"x": 0.7, "y": -0.3}
    got = eval_expr(parse("sin(x)*exp(y) + x^2/(1 + y^2)"), bindings, {}, [], 0).value
    want = math.sin(0.7) * math.exp(-0.3) + 0.7**2 / (1 + (-0.3) ** 2)
    assert got == pytest.approx(want, rel=1e-15)


def test_parameters_are_constants_under_differentiation():
    ast = resolve(parse("r*sin(x)"), ["x"], ["r"])
    j = eval_jet(ast, {"x": 0.7}, {"r": 2.0}, ["x"])
    assert j.value == pytest.approx(2.0 * math.sin(0.7), rel=1e-15)
    assert j.grad[0] == pytest.approx(2.0 * math.cos(0.7), rel=1e-15)


def test_inactive_coordinates_have_zero_derivative():
    j = eval_jet(parse("x*y"), {"x": 3.0, "y": 5.0}, {}, ["x"])
    assert j.value == 15.0
    assert np.array_equal(j.grad, [5.0])  # y held fixed


def test_unbound_parameter_raises():
    ast = resolve(parse("k*x"), ["x"], ["k"])
    with pytest.raises(EvalError):
        eval_jet(ast, {"x": 1.0}, {}, ["x"])


def test_unbound_variable_raises():
    with pytest.raises(EvalError):
        eval_jet(parse("x + z"), {"x": 1.0}, {}, ["x"])


def test_evaluation_error_carries_source_offset():
    with pytest.raises(EvalError) as err:
        eval_expr(parse("x + ln(0-1)"), {"x": 1.0}, {}, [], 0)
    assert err.value.offset == 4  # points at the ln call


def test_active_name_must_be_bound():
    with pytest.raises(EvalError):
        eval_jet(parse("x"), {"x": 1.0}, {}, ["x", "ghost"])


def test_an_active_name_may_not_repeat():
    # a name lifts into one derivative slot: a repeat would read 0
    e = parse("x*y")
    for active in (["x", "x"], ["x", "y", "x"], ["y", "x", "y"]):
        with pytest.raises(EvalError, match="^active variable '(x|y)' is "
                                            "repeated$") as err:
            eval_jet(e, {"x": 2.0, "y": 3.0}, {}, active)
        assert active[0] in str(err.value)


# ------------------------------------------------------------- fuzzing


@given(
    st.text(
        alphabet="xy01._+-*/^(), sincostaexpqrln",
        max_size=40,
    )
)
@settings(max_examples=300, deadline=None)
def test_parser_total_on_garbage(text):
    # Any input either parses to an AST or raises ParseError — nothing else.
    try:
        ast = parse(text)
    except ParseError as err:
        assert 0 <= err.offset <= len(text)
    else:
        # and whatever parses must round-trip
        assert parse(format_expr(ast)) == ast


@given(st.text(max_size=25))
@settings(max_examples=200, deadline=None)
def test_parser_total_on_unicode_garbage(text):
    try:
        parse(text)
    except ParseError:
        pass
