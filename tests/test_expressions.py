import numpy as np
import pytest

from mildhjb.config import PRESETS
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
    (".5", 0.0, 0.5),
    ("5.", 0.0, 5.0),
    ("\u0663", 0.0, 3.0),       # ARABIC-INDIC DIGIT THREE is a digit
    ("x + 1 \t ", 2.0, 3.0),    # trailing whitespace
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
    ("1e+", "bad number '1e\\+'"),
    ("1e5.5", "bad number '1e5.5'"),
    ("1e999*x", "bad number '1e999'"),   # overflows to inf
    ("2e3e4", "trailing input 'e4'"),
    ("1e", "trailing input 'e'"),
    ("x2", "unknown identifier 'x2'"),
    ("$", "unexpected character"),
])
def test_parse_errors_name_the_problem(text, fragment):
    with pytest.raises(ExpressionError, match=fragment):
        parse_expression(text)


def test_errors_carry_column():
    for text, column in [("1 + bogus", 4), ("1 +\tbogus", 4),
                         ("\t\tx $", 4)]:
        with pytest.raises(ExpressionError) as exc:
            parse_expression(text)
        assert exc.value.column == column, text


def test_division_by_a_zero_constant_raises():
    # a constant divisor is checked as it is parsed, so 1/0 is an error at
    # the operator, not inf in the evaluated field
    with pytest.raises(ExpressionError, match="division by a constant zero"):
        parse_expression("1/0")(np.array([1.0, 2.0]))


@pytest.mark.parametrize("text, column, fragment", [
    ("1e308*10*exp(-x^2)", 0, "constant evaluates to inf"),
    ("x + 10^400", 4, "constant evaluates to inf"),
    ("exp(1000)*x", 0, "constant evaluates to inf"),
    ("x*(-1e308*10)", 3, "constant evaluates to -inf"),
    ("0^-1 + x", 0, "constant evaluates to inf"),
    ("exp(-x^2)/(1-1)", 9, "division by a constant zero"),
    ("0/0 + x", 1, "division by a constant zero"),
    ("x/sin(0)", 1, "division by a constant zero"),
    ("x/2^-2000", 1, "division by a constant zero"),  # underflows to 0
])
def test_constant_that_is_not_finite_is_a_parse_error(text, column,
                                                      fragment):
    with pytest.raises(ExpressionError, match=fragment) as exc:
        parse_expression(text)
    assert exc.value.column == column


@pytest.mark.parametrize("text, column", [
    ("(" * 400 + "x" + ")" * 400, 64),
    ("exp(" * 300 + "x" + ")" * 300, 4 * 64),
    ("-" * 300 + "x", 64),
    ("2^" * 300 + "x", 2 * 64),
    ("x" + "+x" * 300, 2 * 64),
], ids=["parentheses", "calls", "signs", "powers", "chain"])
def test_deep_nesting_is_a_parse_error(text, column):
    with pytest.raises(ExpressionError, match="nested deeper than 64") as exc:
        parse_expression(text)
    assert exc.value.column == column


def test_nesting_at_the_cap_parses_and_differentiates():
    # 63 nested calls around a 1-level argument: the two derivatives recurse
    # deeper than the parse, and stay inside the recursion limit
    expr = parse_expression("sin(" * 63 + "x" + ")" * 63)
    second = expr.derivative().derivative()
    assert np.all(np.isfinite(second(np.array([0.1, 0.5]))))


# float.hex of the value and of the first two derivatives at PIN_POINTS,
# None where the derivative does not exist.  A change that moves these bits
# on purpose regenerates them with ``pinned_bits`` and says so.
PIN_POINTS = np.array([-1.3, -0.0, 0.7])

PINNED_BITS = {
    "exp(x)": (
        "0x1.17129308ce281p-2 0x1.0000000000000p+0 0x1.01c2a61268987p+1",
        "0x1.17129308ce281p-2 0x1.0000000000000p+0 0x1.01c2a61268987p+1",
        "0x1.17129308ce281p-2 0x1.0000000000000p+0 0x1.01c2a61268987p+1"),
    "tanh(x)": (
        "-0x1.b933c726e9b3ap-1 -0x0.0p+0 0x1.356fb17af2e90p-1",
        "0x1.079c9162fa648p-2 0x1.0000000000000p+0 0x1.44fc9668e6f7dp-1",
        "0x1.c65207b73ef70p-2 0x0.0p+0 -0x1.88d2ac608f021p-1"),
    "sin(x)": (
        "-0x1.ed577f9c51e4bp-1 -0x0.0p+0 0x1.49d6e694619b8p-1",
        "0x1.11eb3682a4c5fp-2 0x1.0000000000000p+0 0x1.87996529f9d93p-1",
        "0x1.ed577f9c51e4bp-1 0x0.0p+0 -0x1.49d6e694619b8p-1"),
    "cos(x)": (
        "0x1.11eb3682a4c5fp-2 0x1.0000000000000p+0 0x1.87996529f9d93p-1",
        "0x1.ed577f9c51e4bp-1 0x0.0p+0 -0x1.49d6e694619b8p-1",
        "-0x1.11eb3682a4c5fp-2 -0x1.0000000000000p+0 -0x1.87996529f9d93p-1"),
    "abs(x)": (
        "0x1.4cccccccccccdp+0 0x0.0p+0 0x1.6666666666666p-1",
        None,
        None),
    "exp(2)": (
        "0x1.d8e64b8d4ddaep+2 0x1.d8e64b8d4ddaep+2 0x1.d8e64b8d4ddaep+2",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "tanh(2)": (
        "0x1.ed9505e1bc3d4p-1 0x1.ed9505e1bc3d4p-1 0x1.ed9505e1bc3d4p-1",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "sin(2)": (
        "0x1.d18f6ead1b446p-1 0x1.d18f6ead1b446p-1 0x1.d18f6ead1b446p-1",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "cos(2)": (
        "-0x1.aa22657537205p-2 -0x1.aa22657537205p-2 -0x1.aa22657537205p-2",
        "-0x0.0p+0 -0x0.0p+0 -0x0.0p+0",
        "-0x0.0p+0 -0x0.0p+0 -0x0.0p+0"),
    "abs(-2)*x": (
        "-0x1.4cccccccccccdp+1 -0x0.0p+0 0x1.6666666666666p+0",
        "0x1.0000000000000p+1 0x1.0000000000000p+1 0x1.0000000000000p+1",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "cos(sin(x))": (
        "0x1.2425e21bc9258p-1 0x1.0000000000000p+0 0x1.996138146a6fdp-1",
        "0x1.c1e62944b56c1p-3 0x0.0p+0 -0x1.d65e2e8a67854p-2",
        "0x1.803da531d8177p-1 -0x1.0000000000000p+0 -0x1.4b1a1110b3f90p-4"),
    "tanh(x^2)": (
        "0x1.de488b0caad2fp-1 0x0.0p+0 0x1.d11e1cceb4506p-2",
        "-0x1.531b7144e1b60p-2 -0x0.0p+0 0x1.1c7523aeda4f8p+0",
        "-0x1.5a988f058e5cap+0 0x1.0000000000000p+1 0x1.64beb0b726f88p-3"),
    "exp(-x^2)*sin(x)": (
        "-0x1.6c1ff0e878542p-3 -0x0.0p+0 0x1.9422ff9fc1f0ap-2",
        "-0x1.a6d19f1a00430p-2 0x1.0000000000000p+0 -0x1.57eefce7af938p-4",
        "-0x1.a5baa3b259ff2p-2 0x0.0p+0 -0x1.b8f0ef6f79707p+0"),
    "x + 2": (
        "0x1.6666666666666p-1 0x1.0000000000000p+1 0x1.599999999999ap+1",
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "x - 2": (
        "-0x1.a666666666666p+1 -0x1.0000000000000p+1 -0x1.4cccccccccccdp+0",
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "3*x": (
        "-0x1.f333333333334p+1 -0x0.0p+0 0x1.0ccccccccccccp+1",
        "0x1.8000000000000p+1 0x1.8000000000000p+1 0x1.8000000000000p+1",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "x/4": (
        "-0x1.4cccccccccccdp-2 -0x0.0p+0 0x1.6666666666666p-3",
        "0x1.0000000000000p-2 0x1.0000000000000p-2 0x1.0000000000000p-2",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "x/(2 + x)": (
        "-0x1.db6db6db6db6fp+0 -0x0.0p+0 0x1.097b425ed097bp-2",
        "0x1.05397829cbc16p+2 0x1.0000000000000p-1 0x1.18eecaf953edbp-2",
        "-0x1.752d871723144p+3 -0x1.0000000000000p-1 -0x1.a0325c1c0a8f8p-3"),
    "1/(1 + x^2)": (
        "0x1.7cab4d15e3731p-2 0x1.0000000000000p+0 0x1.579fc90527845p-1",
        "0x1.6feed941e2805p-2 0x0.0p+0 -0x1.42de4b7b64b34p-1",
        "0x1.ac38770942084p-2 -0x1.0000000000000p+1 0x1.22fbe2d4d2885p-2"),
    "x^3": (
        "-0x1.19374bc6a7efap+1 -0x0.0p+0 0x1.5f3b645a1cabfp-2",
        "0x1.447ae147ae148p+2 0x0.0p+0 0x1.7851eb851eb84p+0",
        "-0x1.f333333333334p+2 -0x0.0p+0 0x1.0ccccccccccccp+2"),
    "(1 + x^2)^0.5": (
        "0x1.a3df082a77818p+0 0x1.0000000000000p+0 0x1.387ce204a35d2p+0",
        "-0x1.95d2cfbe75692p-1 -0x0.0p+0 0x1.259cdb3d0e541p-1",
        "0x1.d03236c1fd1c8p-3 0x1.0000000000000p+0 0x1.198204842c2c5p-1"),
    "2^x": (
        "0x1.9fdf8bcce533dp-2 0x1.0000000000000p+0 0x1.9fdf8bcce533dp+0",
        None,
        None),
    "-x": (
        "0x1.4cccccccccccdp+0 0x0.0p+0 -0x1.6666666666666p-1",
        "-0x1.0000000000000p+0 -0x1.0000000000000p+0 -0x1.0000000000000p+0",
        "-0x0.0p+0 -0x0.0p+0 -0x0.0p+0"),
    "+x": (
        "-0x1.4cccccccccccdp+0 -0x0.0p+0 0x1.6666666666666p-1",
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "-2^2": (
        "-0x1.0000000000000p+2 -0x1.0000000000000p+2 -0x1.0000000000000p+2",
        "-0x0.0p+0 -0x0.0p+0 -0x0.0p+0",
        "-0x0.0p+0 -0x0.0p+0 -0x0.0p+0"),
    "2^-1": (
        "0x1.0000000000000p-1 0x1.0000000000000p-1 0x1.0000000000000p-1",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "2^3^2": (
        "0x1.0000000000000p+9 0x1.0000000000000p+9 0x1.0000000000000p+9",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "pi": (
        "0x1.921fb54442d18p+1 0x1.921fb54442d18p+1 0x1.921fb54442d18p+1",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "e": (
        "0x1.5bf0a8b145769p+1 0x1.5bf0a8b145769p+1 0x1.5bf0a8b145769p+1",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "pi*x + e": (
        "-0x1.5da452b556006p+0 0x1.5bf0a8b145769p+1 0x1.3ab6a096ed516p+2",
        "0x1.921fb54442d18p+1 0x1.921fb54442d18p+1 0x1.921fb54442d18p+1",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "e^x": (
        "0x1.17129308ce281p-2 0x1.0000000000000p+0 0x1.01c2a61268986p+1",
        None,
        None),
    "0": (
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "exp(-x^2)": (
        "0x1.79e55f482fdfdp-3 0x1.0000000000000p+0 0x1.39aa2aaf607f6p-1",
        "0x1.eb43c8aaa4a30p-2 0x0.0p+0 -0x1.b7216ef58718bp-1",
        "0x1.c1b23ba0247dap-1 -0x1.0000000000000p+1 -0x1.917da746e1ec0p-6"),
    "2^0.5": (
        "0x1.6a09e667f3bcdp+0 0x1.6a09e667f3bcdp+0 0x1.6a09e667f3bcdp+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "0 + x": (
        "-0x1.4cccccccccccdp+0 -0x0.0p+0 0x1.6666666666666p-1",
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "x + 0": (
        "-0x1.4cccccccccccdp+0 -0x0.0p+0 0x1.6666666666666p-1",
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "2 + 3": (
        "0x1.4000000000000p+2 0x1.4000000000000p+2 0x1.4000000000000p+2",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "x + x": (
        "-0x1.4cccccccccccdp+1 -0x0.0p+0 0x1.6666666666666p+0",
        "0x1.0000000000000p+1 0x1.0000000000000p+1 0x1.0000000000000p+1",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "x - 0": (
        "-0x1.4cccccccccccdp+0 -0x0.0p+0 0x1.6666666666666p-1",
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "3 - 2": (
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "0 - x": (
        "0x1.4cccccccccccdp+0 0x0.0p+0 -0x1.6666666666666p-1",
        "-0x1.0000000000000p+0 -0x1.0000000000000p+0 -0x1.0000000000000p+0",
        "-0x0.0p+0 -0x0.0p+0 -0x0.0p+0"),
    "x - x": (
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "0*x": (
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "x*0": (
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "1*x": (
        "-0x1.4cccccccccccdp+0 -0x0.0p+0 0x1.6666666666666p-1",
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "x*1": (
        "-0x1.4cccccccccccdp+0 -0x0.0p+0 0x1.6666666666666p-1",
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "2*3": (
        "0x1.8000000000000p+2 0x1.8000000000000p+2 0x1.8000000000000p+2",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "x*x": (
        "0x1.b0a3d70a3d70bp+0 0x0.0p+0 0x1.f5c28f5c28f5bp-2",
        "-0x1.4cccccccccccdp+1 -0x0.0p+0 0x1.6666666666666p+0",
        "0x1.0000000000000p+1 0x1.0000000000000p+1 0x1.0000000000000p+1"),
    "0/x": (
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "x/1": (
        "-0x1.4cccccccccccdp+0 -0x0.0p+0 0x1.6666666666666p-1",
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "(x + 1)/2": (
        "-0x1.3333333333334p-3 0x1.0000000000000p-1 0x1.b333333333333p-1",
        "0x1.0000000000000p-1 0x1.0000000000000p-1 0x1.0000000000000p-1",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "x^1": (
        "-0x1.4cccccccccccdp+0 -0x0.0p+0 0x1.6666666666666p-1",
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "x^0": (
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
    "x^2": (
        "0x1.b0a3d70a3d70bp+0 0x0.0p+0 0x1.f5c28f5c28f5bp-2",
        "-0x1.4cccccccccccdp+1 -0x0.0p+0 0x1.6666666666666p+0",
        "0x1.0000000000000p+1 0x1.0000000000000p+1 0x1.0000000000000p+1"),
    "(x + 1)^1": (
        "-0x1.3333333333334p-2 0x1.0000000000000p+0 0x1.b333333333333p+0",
        "0x1.0000000000000p+0 0x1.0000000000000p+0 0x1.0000000000000p+0",
        "0x0.0p+0 0x0.0p+0 0x0.0p+0"),
}


def pinned_bits(text):
    expr = parse_expression(text)
    bits = []
    for _ in range(3):
        bits.append(" ".join(map(float.hex, expr(PIN_POINTS).tolist())))
        try:
            expr = expr.derivative()
        except DifferentiationError:
            return tuple(bits + [None] * (3 - len(bits)))
    return tuple(bits)


@pytest.mark.parametrize("text", list(PINNED_BITS))
def test_expression_bits_are_pinned(text):
    got = pinned_bits(text)
    assert got == PINNED_BITS[text], f"new bits: {text!r}: {got!r},"


def test_every_preset_is_pinned():
    assert set(PRESETS.values()) <= set(PINNED_BITS)
