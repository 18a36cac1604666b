"""Whole-pipeline oracle: an explicit march of the backward equation.

The forward implicit solver, the Green reconstruction, and the feedback
synthesis must together reproduce the cost-to-go of the original control
problem.  The oracle here discretizes the backward equation directly
(explicit stepping in reversed time, a completely different scheme class),
so agreement pins down the transformation, the lower-order coupling term,
and both sign conventions at once.
"""

import numpy as np

from conftest import desk_problem
from mildhjb.grid import Grid1D, poisson_solve
from mildhjb.montecarlo import SimConfig, simulate_cost
from mildhjb.stepper import mild_solve
from mildhjb.value import synthesize_feedback

HORIZON = 0.25


def backward_march(n, steps, horizon=HORIZON, half_width=10.0):
    """Explicit finite-difference solve of the cost-to-go equation."""
    x = np.linspace(-half_width, half_width, n)
    h = x[1] - x[0]
    s2 = (np.sqrt(2.0) + 0.1 * np.sin(x)) ** 2
    f = np.tanh(x)
    g = np.exp(-x**2)
    psi = np.exp(-x**2)
    dt = horizon / steps
    for _ in range(steps):
        pxx = np.zeros(n)
        pxx[1:-1] = (psi[2:] - 2 * psi[1:-1] + psi[:-2]) / h**2
        flux = np.maximum(-0.5 * s2 * pxx, 0.0) ** 2 / 4.0
        fwd = np.zeros(n)
        fwd[:-1] = (psi[1:] - psi[:-1]) / h
        bwd = np.zeros(n)
        bwd[1:] = (psi[1:] - psi[:-1]) / h
        slope = np.where(f > 0, fwd, bwd)
        psi[1:-1] += dt * (-flux + f * slope + g)[1:-1]
    pxx = np.zeros(n)
    pxx[1:-1] = (psi[2:] - 2 * psi[1:-1] + psi[:-2]) / h**2
    return x, psi, -pxx


def test_forward_field_converges_to_backward_curvature():
    control = desk_problem(horizon=HORIZON)
    gaps = []
    for n, eps, oracle_steps in ((201, 2.5e-3, 4000), (401, 1.25e-3, 16000)):
        grid = Grid1D(10.0, n)
        y = mild_solve(control.discretize(grid), eps).final
        _, _, y_oracle = backward_march(n, oracle_steps)
        gaps.append(grid.h * float(np.sum(np.abs(y - y_oracle))))
    assert gaps[0] <= 0.12          # frozen from the oracle run
    assert gaps[1] <= 0.7 * gaps[0]  # first-order joint refinement


def test_reconstructed_value_converges_to_backward_solution():
    control = desk_problem(horizon=HORIZON)
    offsets = []
    for n, eps, oracle_steps in ((201, 2.5e-3, 4000), (401, 1.25e-3, 16000)):
        grid = Grid1D(10.0, n)
        y = mild_solve(control.discretize(grid), eps).final
        _, psi, _ = backward_march(n, oracle_steps)
        offsets.append(abs(poisson_solve(grid, y)[n // 2] - psi[n // 2]))
    assert offsets[0] <= 0.3
    assert offsets[1] <= 0.7 * offsets[0]


def test_feedback_cost_matches_the_value_it_came_from():
    # the simulated cost of the synthesized control equals the cost-to-go of
    # the original problem at the start point, up to noise and truncation
    control = desk_problem(horizon=HORIZON)
    grid = Grid1D(10.0, 201)
    problem = control.discretize(grid)
    sol = mild_solve(problem, 2.5e-3)
    policy = synthesize_feedback(sol)
    _, psi, _ = backward_march(201, 4000)
    report = simulate_cost(control, policy,
                           SimConfig(n_paths=10000, dt=2.5e-4, seed=5))
    truth = psi[100]
    assert abs(report.mean - truth) <= max(3.0 * report.stderr, 0.01)
