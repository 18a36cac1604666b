import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import desk_problem
from mildhjb.conjugate import ConjugateHamiltonian
from mildhjb.drift import DriftData
from mildhjb.grid import (Grid1D, Grid2D, diff1_central, diff2,
                          green_constants, poisson_gradient, poisson_solve)
from mildhjb.resolvent import EllipticOperands, solve_resolvent
from mildhjb.stepper import TransformedProblem
from mildhjb.twodim import Problem2D


def test_grid_geometry():
    g = Grid1D(10.0, 201)
    assert g.h == pytest.approx(0.1)
    assert abs(g.h * (g.n - 1) - 2 * g.half_width) < 1e-13
    assert g.x[100] == 0.0
    np.testing.assert_array_equal(g.x, -g.x[::-1])
    assert np.all(np.diff(g.x) > 0)


@pytest.mark.parametrize("half_width,n", [(0.0, 11), (-1.0, 11), (1.0, 10),
                                          (1.0, 3), (5.0, 7.5), (1.0, 11.0),
                                          (1.0, True), (np.inf, 5),
                                          (np.nan, 5)])
def test_grid_rejects_bad_parameters(half_width, n):
    # a float n once built a mesh past L, an infinite L a NaN node at 0
    with pytest.raises(ValueError):
        Grid1D(half_width, n)


def test_grid_takes_a_numpy_integer_node_count():
    assert Grid1D(1.0, np.int64(11)) == Grid1D(1.0, 11)


def test_poisson_zero_source():
    g = Grid1D(3.0, 41)
    np.testing.assert_array_equal(poisson_solve(g, np.zeros(g.n)), 0.0)
    np.testing.assert_array_equal(poisson_gradient(g, np.zeros(g.n)), 0.0)


@pytest.mark.parametrize("L,n", [(1.0, 81), (10.0, 20001)])
def test_poisson_quadratic_exact(L, n):
    # -psi'' = 2 with psi(+-L) = 0 has psi = L^2 - x^2; the stencil is exact
    g = Grid1D(L, n)
    psi = poisson_solve(g, np.full(g.n, 2.0))
    assert np.max(np.abs(psi - (L**2 - g.x**2))) <= 1e-12 * L**2
    grad = poisson_gradient(g, np.full(g.n, 2.0))
    assert np.max(np.abs(grad[1:-1] + 2.0 * g.x[1:-1])) <= 1e-12 * L**2


def test_poisson_solve_ignores_boundary_source_values():
    g = Grid1D(2.0, 21)
    z = np.random.default_rng(4).standard_normal(g.n)
    cut = z.copy()
    cut[[0, -1]] = 0.0
    np.testing.assert_array_equal(poisson_solve(g, z), poisson_solve(g, cut))


def test_poisson_solves_a_stack_row_by_row():
    g = Grid1D(10.0, 201)
    rng = np.random.default_rng(11)
    ys = rng.standard_normal((51, g.n))[::-1]  # reversed view, as in value.py
    psi = poisson_solve(g, ys)
    grad = poisson_gradient(g, ys)
    assert psi.shape == grad.shape == ys.shape
    for k, y in enumerate(ys):
        np.testing.assert_array_equal(psi[k], poisson_solve(g, y))
        np.testing.assert_array_equal(grad[k], poisson_gradient(g, y))


def test_poisson_parity():
    g = Grid1D(5.0, 101)
    z_even = np.exp(-g.x**2)
    psi = poisson_solve(g, z_even)
    np.testing.assert_allclose(psi, psi[::-1], atol=1e-13)
    z_odd = g.x * np.exp(-g.x**2)
    grad = poisson_gradient(g, z_odd)
    np.testing.assert_allclose(grad[1:-1], grad[::-1][1:-1], atol=1e-13)


def test_poisson_linearity():
    g = Grid1D(4.0, 61)
    rng = np.random.default_rng(5)
    z1, z2 = rng.standard_normal((2, g.n))
    lhs = poisson_solve(g, 2.5 * z1 - 1.5 * z2)
    rhs = 2.5 * poisson_solve(g, z1) - 1.5 * poisson_solve(g, z2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_poisson_stability_constant():
    g = Grid1D(10.0, 201)
    c_val, c_grad = green_constants(g)
    assert c_val <= 0.5 * g.half_width + 1e-9
    assert c_grad <= 1.0 + 1e-9
    rng = np.random.default_rng(9)
    for _ in range(20):
        z = rng.standard_normal(g.n)
        bound = (c_val + c_grad) * g.norm1(z)
        psi = poisson_solve(g, z)
        grad = diff1_central(g, psi)
        assert np.max(np.abs(psi)) + np.max(np.abs(grad)) <= bound + 1e-9


@pytest.mark.parametrize("n", [5, 11, 201])
def test_green_constants_are_the_operator_norms(n):
    # brute force over the unit nodal sources (L1 norm h each); a boundary
    # source is ignored by the solve, so the interior ones attain the norms
    g = Grid1D(3.0, n)
    psi = poisson_solve(g, np.eye(n))
    grad = diff1_central(g, psi)
    c_val, c_grad = green_constants(g)
    assert abs(np.max(np.abs(psi)) / g.h - c_val) <= 1e-12
    assert abs(np.max(np.abs(grad)) / g.h - c_grad) <= 1e-12


def test_diff2_inverts_poisson():
    g = Grid1D(6.0, 91)
    rng = np.random.default_rng(3)
    z = rng.standard_normal(g.n)
    recovered = diff2(g, poisson_solve(g, z))
    np.testing.assert_allclose(recovered[1:-1], -z[1:-1], atol=1e-9)


def test_diff2_exact_on_quadratic():
    g = Grid1D(2.0, 41)
    out = diff2(g, g.x**2)
    np.testing.assert_allclose(out[1:-1], 2.0, atol=1e-11)


CONJ = ConjugateHamiltonian.quadratic()
LINE, SQUARE = Grid1D(5.0, 11), Grid2D(3.0, 11)
OPS_1D = EllipticOperands(LINE, CONJ, np.ones(LINE.n))
OPS_2D = Problem2D(SQUARE, np.eye(2), np.ones((SQUARE.n, SQUARE.n)), CONJ)

# (table name, its shape, a constructor or solve taking that table)
TABLE_SITES = {
    "TransformedProblem-1d": ("initial", OPS_1D.shape, lambda t:
                              TransformedProblem(OPS_1D, t,
                                                 np.zeros(OPS_1D.shape), 1.0)),
    "TransformedProblem-2d": ("source", OPS_2D.shape, lambda t:
                              TransformedProblem(OPS_2D,
                                                 np.zeros(OPS_2D.shape), t,
                                                 1.0)),
    "DriftData": ("f1", (LINE.n,), lambda t:
                  DriftData(LINE, np.zeros(LINE.n), t, np.zeros(LINE.n))),
    "Problem2D": ("sigma0", OPS_2D.shape, lambda t:
                  Problem2D(SQUARE, np.eye(2), t, CONJ)),
    "EllipticOperands": ("half_sigma_sq", (LINE.n,), lambda t:
                         EllipticOperands(LINE, CONJ, t)),
    "solve_resolvent": ("eta", (LINE.n,), lambda t:
                        solve_resolvent(OPS_1D, 1.0, t)),
}


@pytest.mark.parametrize("site", TABLE_SITES)
@pytest.mark.parametrize("defect", ["shape", "nan"])
def test_every_grid_table_is_checked_by_name(site, defect):
    name, shape, build = TABLE_SITES[site]
    table = np.ones(shape)
    if defect == "shape":
        table = table[..., 1:]
        message = f"{name} has shape {table.shape}, expected {shape}"
    else:
        table.flat[0] = np.nan
        message = f"{name} contains non-finite entries"
    with pytest.raises(ValueError, match=re.escape(message)):
        build(table)


@pytest.mark.parametrize("name", ["sigma", "sigma_x", "sigma_xx"])
def test_multiplier_slopes_check_every_table_by_name(name):
    # the barrier's slopes are tabulated on the run's grid; a NaN in any of
    # the three tables is named, not carried into the bound
    problem = replace(desk_problem(), **{name: lambda x: np.where(
        x == 0.0, np.nan, 1.0 + 0.0 * x)})
    with pytest.raises(ValueError, match=f"^{name} contains non-finite"):
        problem.multiplier_slopes(LINE)
