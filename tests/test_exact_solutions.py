"""Exact nonlinear solutions as oracles for the march.

With sigma = sqrt(2) (flux multiplier m = 1), the quadratic cost with
alpha1 = 1 (``value(p) = max(p, 0)^2/4``), g = 0 and no drift, the march
solves ``y_t = div(b grad(y_+^2/4))``, the porous-medium equation with
exponent 2 in the time ``s = t/4``.  Its Barenblatt profile

    Y(s, xi) = s^-alpha * (C - k |xi|^2 s^(-2 alpha/d))_+,
    alpha = d/(d + 2),  k = alpha/(4d),

is exact (Barenblatt 1952; Vazquez, The Porous Medium Equation, 2007,
ch. 4).  In 2-D with the factor matrix ``a`` (``b = a a^T``) the solution is
``Y(s, a^-1 x)``, so the cross term is tested too.  The control binds
outside the support, so the free boundary is the Newton active-set edge.
These profiles have a nonzero integral, so they test the y-march and its
operator, not the value pipeline.
"""

import numpy as np
import pytest

from mildhjb.conjugate import ConjugateHamiltonian
from mildhjb.drift import DriftData
from mildhjb.grid import Grid1D
from mildhjb.resolvent import EllipticOperands
from mildhjb.stepper import TransformedProblem, mild_solve
from mildhjb.twodim import Grid2D, Problem2D

CONJ = ConjugateHamiltonian.quadratic()


def barenblatt(s, r2, dim, c=1.0):
    """Y at time s and squared radius r2 in ``dim`` dimensions."""
    alpha = dim / (dim + 2.0)
    k = alpha / (4.0 * dim)
    return s**-alpha * np.maximum(c - k * r2 * s**(-2.0 * alpha / dim), 0.0)


def march_1d(n, eps, horizon, s0, kappa=None):
    """The 1-D march from Y(s0) on [-10, 10], with the drift ``kappa*x``
    unless kappa is None; returns (grid, solution)."""
    grid = Grid1D(10.0, n)
    drift = None if kappa is None else DriftData.from_callables(
        grid, lambda x: kappa * x, lambda x: kappa + 0.0 * x,
        lambda x: 0.0 * x)
    ops = EllipticOperands(grid, CONJ, np.ones(n), drift=drift)
    initial = barenblatt(s0, grid.x**2, 1)
    problem = TransformedProblem(ops, initial, np.zeros(n), horizon)
    return grid, mild_solve(problem, eps)


def test_1d_error_falls_at_first_order_in_h_and_eps():
    # C = 1, s0 = 0.25, T = 1; the support stays within |x| < 2.8
    errors = []
    for n, eps in ((201, 0.02), (401, 0.01), (801, 0.005)):
        grid, sol = march_1d(n, eps, 1.0, 0.25)
        exact = barenblatt(0.25 + 1.0 / 4.0, grid.x**2, 1)
        errors.append(grid.norm1(sol.final - exact))
    # 9.58e-3, 4.62e-3 and 2.09e-3
    assert all(a >= 1.8 * b for a, b in zip(errors, errors[1:])), errors


def test_2d_error_falls_with_the_cross_term_and_mass_is_kept():
    # Y(s, a^-1 x) with C = 1, s0 = 0.5, T = 0.5, L = 8
    a = np.array([[1.0, 0.3], [0.0, 1.0]])
    inverse = np.linalg.inv(a)
    errors = []
    for n, eps in ((41, 0.025), (81, 0.0125)):
        grid = Grid2D(8.0, n)
        X, Y = grid.mesh
        xi = inverse[0, 0] * X + inverse[0, 1] * Y
        zeta = inverse[1, 0] * X + inverse[1, 1] * Y
        r2 = xi**2 + zeta**2
        ops = Problem2D(grid, a, np.full((n, n), np.sqrt(2.0)), CONJ)
        problem = TransformedProblem(ops, barenblatt(0.5, r2, 2),
                                     np.zeros((n, n)), 0.5)
        sol = mild_solve(problem, eps)
        errors.append(grid.norm1(sol.final
                                 - barenblatt(0.5 + 0.5 / 4.0, r2, 2)))
        drift = grid.integral(sol.final) - grid.integral(problem.initial)
        assert abs(drift) <= 1e-12
    # 0.195 and 0.0573
    assert errors[0] >= 2.5 * errors[1], errors


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: the nodal drift terms do not telescope, so the mass "
    "exceeds the implicit-Euler law (by 0.137 at n = 201 for kappa = 0.5)"))
@pytest.mark.parametrize("kappa", [0.5, -0.5])
def test_linear_drift_mass_follows_the_implicit_euler_law(kappa):
    # with f = kappa*x the continuum mass grows as exp(kappa*t); each
    # implicit step multiplies the discrete mass by 1/(1 - kappa*eps)
    eps = 0.02
    grid, sol = march_1d(201, eps, 1.0, 0.25, kappa)
    steps = len(sol.times) - 1
    law = grid.integral(sol.snapshots[0]) * (1.0 - kappa * eps) ** -steps
    assert grid.integral(sol.final) == pytest.approx(law, rel=1e-10)
