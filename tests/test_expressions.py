import numpy as np
import pytest

from mildhjb.expressions import (DifferentiationError, ExpressionError,
                                 parse_expression)


def fd2(fn, x, step=1e-4):
    return (fn(x + step) - 2 * fn(x) + fn(x - step)) / step**2


def fd1(fn, x, step=1e-6):
    return (fn(x + step) - fn(x - step)) / (2 * step)


@pytest.mark.parametrize("text,x,expected", [
    ("2 + 3*4", 0.0, 14.0),
    ("(2 + 3)*4", 0.0, 20.0),
    ("2^3^2", 0.0, 512.0),        # right associative
    ("-2^2", 0.0, -4.0),          # power binds tighter than unary minus
    ("2^-1", 0.0, 0.5),
    ("x/4 + 1", 2.0, 1.5),
    ("exp(0) + cos(0)", 0.0, 2.0),
    ("tanh(1000)", 0.0, 1.0),
    ("abs(-3) + abs(2)", 0.0, 5.0),
    ("pi - pi", 0.0, 0.0),
    ("e", 0.0, np.e),
    ("2^0.5", 0.0, np.sqrt(2.0)),
])
def test_evaluation(text, x, expected):
    expr = parse_expression(text)
    assert float(expr(x)) == pytest.approx(expected, rel=1e-12)


def test_vectorized_evaluation():
    expr = parse_expression("exp(-x^2) * sin(x)")
    xs = np.linspace(-2, 2, 41)
    np.testing.assert_allclose(expr(xs), np.exp(-xs**2) * np.sin(xs),
                               atol=1e-14)


@pytest.mark.parametrize("text", ["x", "-x", "2", "x + 0"])
def test_result_never_aliases_the_argument(text):
    x = np.array([0.5, -1.0, 2.0])
    before = x.copy()
    out = parse_expression(text)(x)
    assert not np.shares_memory(out, x)
    out[...] = 7.0  # writable, and writing leaves the argument alone
    np.testing.assert_array_equal(x, before)


def test_two_variable_expression():
    expr = parse_expression("x*y + sin(x)", variables=("x", "y"))
    assert float(expr(2.0, 3.0)) == pytest.approx(6.0 + np.sin(2.0))
    dx = expr.derivative("x")
    assert float(dx(2.0, 3.0)) == pytest.approx(3.0 + np.cos(2.0))
    dy = expr.derivative("y")
    assert float(dy(2.0, 3.0)) == pytest.approx(2.0)


@pytest.mark.parametrize("text", [
    "tanh(x)", "exp(-x^2)", "x^3 - 2*x", "sin(x)*cos(x)",
    "1/(1 + x^2)", "exp(x)/(2 + sin(x))", "2^0.5 + 0.1*sin(x)",
])
def test_derivatives_cross_checked_by_finite_differences(text):
    expr = parse_expression(text)
    d1 = expr.derivative()
    d2 = d1.derivative()
    for x in (-1.7, -0.3, 0.0, 0.9, 2.2):  # five probe points
        assert float(d1(x)) == pytest.approx(fd1(expr, x), abs=1e-7)
        assert float(d2(x)) == pytest.approx(fd2(expr, x), abs=1e-5)


def test_tanh_second_derivative_closed_form():
    expr = parse_expression("tanh(x)")
    d2 = expr.derivative().derivative()
    xs = np.linspace(-3, 3, 25)
    expected = -2.0 * np.tanh(xs) * (1.0 - np.tanh(xs) ** 2)
    np.testing.assert_allclose(d2(xs), expected, atol=1e-13)


def test_gaussian_second_derivative_closed_form():
    expr = parse_expression("exp(-x^2)")
    d2 = expr.derivative().derivative()
    xs = np.linspace(-3, 3, 25)
    np.testing.assert_allclose(d2(xs), (4 * xs**2 - 2) * np.exp(-xs**2),
                               atol=1e-13)


def test_abs_refuses_derivative():
    expr = parse_expression("abs(x)")
    with pytest.raises(DifferentiationError, match="abs"):
        expr.derivative()
    # abs of a constant subexpression is fine
    assert float(parse_expression("abs(-2) * x").derivative()(1.0)) == 2.0


def test_variable_exponent_refuses_derivative():
    expr = parse_expression("2^x")
    with pytest.raises(DifferentiationError, match="exponent"):
        expr.derivative()


@pytest.mark.parametrize("text,fragment", [
    ("2 +", "value"),
    ("sin 3", "expected"),
    ("foo(3)", "unknown identifier"),
    ("x + y", "unknown identifier"),
    ("(1 + 2", "expected"),
    ("1 2", "trailing"),
    ("2..5", "bad number"),
    ("$", "unexpected character"),
])
def test_parse_errors_name_the_problem(text, fragment):
    with pytest.raises(ExpressionError, match=fragment):
        parse_expression(text)


def test_errors_carry_column():
    try:
        parse_expression("1 + bogus")
    except ExpressionError as exc:
        assert exc.column == 4
    else:
        raise AssertionError("expected an ExpressionError")
