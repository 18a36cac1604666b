from dataclasses import replace

import numpy as np
import pytest

from conftest import desk_problem, linear_conjugate
from mildhjb.conjugate import ConjugateHamiltonian, RunningCost
from mildhjb.degenerate import (VolatilityData, check_linf_bound,
                                solve_degenerate, sup_bound)
from mildhjb.grid import Grid1D, green_constants
from mildhjb.problem import ControlProblem
from mildhjb.resolvent import EllipticOperands
from mildhjb.stepper import (TransformedProblem, mild_solve, step_lengths,
                             sup_time_gap)

PINCHED = dict(
    sigma=lambda x: x * np.exp(-x**2),
    sigma_x=lambda x: (1.0 - 2.0 * x**2) * np.exp(-x**2),
    sigma_xx=lambda x: (4.0 * x**3 - 6.0 * x) * np.exp(-x**2))


def pinched_volatility(grid):
    return VolatilityData.from_callables(grid, *PINCHED.values())


def bump_problem(**volatility):
    """g = g0 = exp(-x^2), so y0 = source = (2 - 4x^2) exp(-x^2); the
    pinched volatility unless another is given."""
    return ControlProblem(
        g=lambda x: np.exp(-x**2),
        g_xx=lambda x: (4.0 * x**2 - 2.0) * np.exp(-x**2),
        g0=lambda x: np.exp(-x**2),
        g0_xx=lambda x: (4.0 * x**2 - 2.0) * np.exp(-x**2),
        cost=RunningCost.quadratic(), horizon=0.1,
        **(volatility or PINCHED))


def test_zero_data_zero_at_every_level():
    grid = Grid1D(8.0, 161)
    zero = {name: (lambda x: 0.0 * x) for name in ("g", "g_xx", "g0", "g0_xx")}
    problem = replace(bump_problem(), **zero)
    sweep = solve_degenerate(problem, grid, eps=0.025,
                             ladder=(1e-1, 1e-2, 1e-3, 1e-4))
    for sol in sweep.solutions:
        assert float(np.max(np.abs(sol.snapshots))) == 0.0
    assert all(g == 0.0 for g in sweep.gaps)


def test_ladder_gaps_decrease_for_pinched_volatility():
    grid = Grid1D(8.0, 161)
    sweep = solve_degenerate(bump_problem(), grid, eps=0.025,
                             ladder=(1e-1, 1e-2, 1e-3, 1e-4))
    assert sweep.gaps_monotone
    assert all(b < a for a, b in zip(sweep.gaps, sweep.gaps[1:]))
    for report in sweep.bound_reports:
        assert report.passed
        assert report.min_slack >= 0.0


def test_levels_converge_to_nondegenerate_run_when_bounded_below():
    grid = Grid1D(8.0, 161)
    problem = bump_problem(sigma=lambda x: np.sqrt(2.0) + 0.0 * x,
                           sigma_x=lambda x: 0.0 * x,
                           sigma_xx=lambda x: 0.0 * x)
    sweep = solve_degenerate(problem, grid, eps=0.025,
                             ladder=(1e-1, 1e-2, 1e-3, 1e-4))
    reference = mild_solve(problem.discretize(grid), 0.025)
    offsets = [sup_time_gap(reference, sol) for sol in sweep.solutions]
    assert all(b < a for a, b in zip(offsets, offsets[1:]))
    assert offsets[-1] <= 1e-3


def test_bound_report_certifies_each_step():
    grid = Grid1D(8.0, 161)
    sweep = solve_degenerate(bump_problem(), grid, eps=0.025,
                             ladder=(1e-1, 1e-2))
    sol, report = sweep.solutions[0], sweep.bound_reports[0]
    assert np.all(report.certified)
    np.testing.assert_array_equal(
        report.y_inf, np.max(np.abs(sol.snapshots[1:]), axis=1))
    assert np.all(report.y_inf <= report.bounds)
    recomputed = check_linf_bound(sol, pinched_volatility(grid), 1e-1)
    np.testing.assert_allclose(recomputed.bounds, report.bounds)


def test_bound_report_equals_sup_bound_step_by_step():
    # a tabulated conjugate whose slope at 0 is 1/4 (h = 2u^2 - u + 1/4 has
    # its minimum at u = 1/4), and a shortened last step of 0.01; each
    # step's eta is formed as mild_solve forms it
    cost = RunningCost.from_callable(lambda u: 2.0 * u * u - u + 0.25, 1.0)
    problem = replace(bump_problem(), cost=cost, horizon=0.06)
    grid = Grid1D(8.0, 81)
    vol = pinched_volatility(grid)
    sweep = solve_degenerate(problem, grid, 0.025, (1e-1,))
    sol, report = sweep.solutions[0], sweep.bound_reports[0]
    conj = sol.operands.conj
    assert conj.p_range is not None
    assert float(conj.derivative(0.0)) == pytest.approx(0.25)
    steps = step_lengths(0.06, 0.025)
    assert steps[-1] == sol.partial_step == pytest.approx(0.01)
    bounds, y_inf = [], []
    for i, dt in enumerate(steps, start=1):
        eta = sol.problem.source + sol.snapshots[i - 1] / dt
        bounds.append(sup_bound(conj, vol, 1e-1, 1.0 / dt,
                                grid.norm_inf(eta)))
        y_inf.append(grid.norm_inf(sol.snapshots[i]))
    assert report.lams.tolist() == [1.0 / dt for dt in steps]
    assert report.bounds.tolist() == bounds
    assert report.y_inf.tolist() == y_inf
    assert report.passed


def test_sup_bound_reads_the_slope_at_zero_from_the_derivative():
    # the identity conjugate has slope 1 everywhere and no curvature, so the
    # barrier solves lam*M = eta_inf + M * sup|sigma*sigma'' + sigma'^2|
    vol = pinched_volatility(Grid1D(8.0, 161))
    bound = sup_bound(linear_conjugate(), vol, 1e-2, lam=50.0, eta_inf=3.0)
    assert bound == 3.0 / (50.0 - vol.curvature_product_sup)


def test_sup_bound_grows_as_shift_shrinks():
    grid = Grid1D(8.0, 161)
    vol = pinched_volatility(grid)
    conj = ConjugateHamiltonian.quadratic()
    loose = sup_bound(conj, vol, 1e-2, lam=5.0, eta_inf=3.0)
    tight = sup_bound(conj, vol, 1e-2, lam=50.0, eta_inf=3.0)
    assert loose is not None and tight is not None
    assert loose > tight


def test_sup_bound_not_certifiable_for_tiny_shift():
    grid = Grid1D(8.0, 161)
    vol = pinched_volatility(grid)
    conj = ConjugateHamiltonian.quadratic()
    assert sup_bound(conj, vol, 1e-2, lam=1e-3, eta_inf=100.0) is None
    # a conjugate rising at 0 needs a shift above slope * curvature sup
    c1 = vol.curvature_product_sup
    assert sup_bound(linear_conjugate(), vol, 1e-2, c1, eta_inf=0.0) is None


def test_gaps_that_grow_down_the_ladder_warn():
    # two nearly equal weights, then a large drop: the second gap is larger
    with pytest.warns(RuntimeWarning, match="not monotonically decreasing"):
        sweep = solve_degenerate(bump_problem(), Grid1D(8.0, 41), eps=0.025,
                                 ladder=(1e-1, 0.0999, 1e-3))
    assert sweep.gaps[1] > sweep.gaps[0]
    assert not sweep.gaps_monotone


def test_ladder_must_decrease():
    with pytest.raises(ValueError, match="decreasing"):
        solve_degenerate(bump_problem(), Grid1D(8.0, 161), eps=0.025,
                         ladder=(1e-2, 1e-1))


@pytest.mark.parametrize("ladder", [(1e-1, 1e-2, 0.0), (1e-1, -1.0)],
                         ids=["zero", "negative"])
def test_ladder_weights_must_be_positive(ladder):
    # a weight <= 0 would fail inside the sweep with a message that sends
    # the caller back to the sweep
    with pytest.raises(ValueError, match="must be positive"):
        solve_degenerate(bump_problem(), Grid1D(8.0, 161), eps=0.025,
                         ladder=ladder)


def test_each_level_marches_the_lifted_operands():
    # level w marches the flux multiplier (sigma^2 + w)/2 on the problem's
    # own data and drift, bit for bit
    grid = Grid1D(10.0, 101)
    problem = desk_problem(horizon=0.1)
    ladder = (1e-1, 1e-2)
    sweep = solve_degenerate(problem, grid, 0.025, ladder)
    conj = ConjugateHamiltonian.quadratic()
    sigma = problem.volatility_data(grid).sigma
    initial, source = problem.transformed_data(grid)
    for level, sol in zip(ladder, sweep.solutions):
        ops = EllipticOperands(grid, conj, 0.5 * (sigma**2 + level),
                               problem.drift_data(grid))
        march = mild_solve(TransformedProblem(ops, initial, source, 0.1),
                           0.025)
        np.testing.assert_array_equal(sol.snapshots, march.snapshots)


def test_expression_cost_is_tabulated_on_the_default_range():
    problem = replace(bump_problem(), cost=RunningCost.from_callable(
        lambda u: u * u + 0.25 * u, 1.0))
    sweep = solve_degenerate(problem, Grid1D(8.0, 81), 0.025, (1e-1,))
    assert sweep.solutions[0].operands.conj.p_range == (-50.0, 50.0)


def test_each_level_satisfies_energy_finiteness():
    from mildhjb.stepper import energy_report
    grid = Grid1D(8.0, 161)
    sweep = solve_degenerate(bump_problem(), grid, eps=0.025,
                             ladder=(1e-1, 1e-2))
    for sol in sweep.solutions:
        report = energy_report(sol)
        assert np.isfinite(report.potential_max)
        assert np.isfinite(report.dissipation_total)
        assert report.dissipation_total >= 0.0


@pytest.mark.parametrize("eps", [0.03, 0.2])
def test_shortened_last_step_is_certified_at_its_own_shift(eps):
    grid = Grid1D(10.0, 101)
    control = desk_problem(horizon=0.5)
    vol = control.volatility_data(grid)
    conj = ConjugateHamiltonian.quadratic()
    sweep = solve_degenerate(control, grid, eps, ladder=(0.1,))
    sol, report = sweep.solutions[0], sweep.bound_reports[0]
    assert 0.0 < sol.partial_step < eps
    # the last step solved lam = 1/partial_step, not 1/eps; the desk
    # drift lowers that shift by 2 sup|f'| and adds its curvature term
    drift = sol.operands.drift
    eta = sol.problem.source + sol.snapshots[-2] / sol.partial_step
    curvature = (float(np.max(np.abs(drift.f2))) * green_constants(grid)[1]
                 * grid.norm1(sol.snapshots[-1]))
    last = sup_bound(conj, vol, 0.1,
                     1.0 / sol.partial_step - 2.0 * drift.slope_sup,
                     grid.norm_inf(eta) + curvature)
    assert report.bounds[-1] == last
    assert report.y_inf[-1] <= last


def test_drifted_ladder_is_certified_against_the_full_operator():
    # the march carries -f*y' + f''*phi_x - 2f'*y; a barrier solved without
    # them was exceeded at every level (max|y| 2.3048 against 2.2686 at 1e-1)
    problem = replace(
        bump_problem(sigma=lambda x: 0.5 * (1.0 + np.tanh(x)),
                     sigma_x=lambda x: 0.5 / np.cosh(x) ** 2,
                     sigma_xx=lambda x: -np.tanh(x) / np.cosh(x) ** 2),
        f=np.tanh, f_x=lambda x: 1.0 / np.cosh(x) ** 2,
        f_xx=lambda x: -2.0 * np.tanh(x) / np.cosh(x) ** 2, horizon=0.05)
    sweep = solve_degenerate(problem, Grid1D(5.0, 41), 0.01,
                             (1e-1, 1e-2, 1e-3))
    for report in sweep.bound_reports:
        assert np.all(report.certified)
        assert report.passed
        assert report.min_slack > 0.0
