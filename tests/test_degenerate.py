import numpy as np
import pytest

from conftest import desk_problem, linear_conjugate
from mildhjb.conjugate import ConjugateHamiltonian
from mildhjb.degenerate import (VolatilityData, check_linf_bound,
                                solve_degenerate, sup_bound)
from mildhjb.grid import Grid1D
from mildhjb.resolvent import EllipticOperands
from mildhjb.stepper import TransformedProblem, mild_solve, sup_time_gap


def pinched_volatility(grid):
    return VolatilityData.from_callables(
        grid,
        lambda x: x * np.exp(-x**2),
        lambda x: (1.0 - 2.0 * x**2) * np.exp(-x**2),
        lambda x: (4.0 * x**3 - 6.0 * x) * np.exp(-x**2))


def bump_data(grid):
    y0 = (2.0 - 4.0 * grid.x**2) * np.exp(-grid.x**2)
    return y0, y0.copy()


def test_zero_data_zero_at_every_level():
    grid = Grid1D(8.0, 161)
    vol = pinched_volatility(grid)
    zeros = np.zeros(grid.n)
    sweep = solve_degenerate(grid, ConjugateHamiltonian.quadratic(), vol,
                             zeros, zeros, horizon=0.1, eps=0.025,
                             ladder=(1e-1, 1e-2, 1e-3, 1e-4))
    for sol in sweep.solutions:
        assert float(np.max(np.abs(sol.snapshots))) == 0.0
    assert all(g == 0.0 for g in sweep.gaps)


def test_ladder_gaps_decrease_for_pinched_volatility():
    grid = Grid1D(8.0, 161)
    vol = pinched_volatility(grid)
    y0, source = bump_data(grid)
    sweep = solve_degenerate(grid, ConjugateHamiltonian.quadratic(), vol,
                             y0, source, horizon=0.1, eps=0.025,
                             ladder=(1e-1, 1e-2, 1e-3, 1e-4))
    assert sweep.gaps_monotone
    assert all(b < a for a, b in zip(sweep.gaps, sweep.gaps[1:]))
    for report in sweep.bound_reports:
        assert report.passed
        assert report.min_slack >= 0.0


def test_levels_converge_to_nondegenerate_run_when_bounded_below():
    grid = Grid1D(8.0, 161)
    vol = VolatilityData.from_callables(
        grid, lambda x: np.sqrt(2.0) + 0.0 * x,
        lambda x: 0.0 * x, lambda x: 0.0 * x)
    y0, source = bump_data(grid)
    conj = ConjugateHamiltonian.quadratic()
    sweep = solve_degenerate(grid, conj, vol, y0, source, horizon=0.1,
                             eps=0.025, ladder=(1e-1, 1e-2, 1e-3, 1e-4))
    ops = EllipticOperands.build(grid, conj, np.sqrt(2.0))
    reference = mild_solve(TransformedProblem(ops, y0, source, 0.1), 0.025)
    offsets = [sup_time_gap(reference, sol) for sol in sweep.solutions]
    assert all(b < a for a, b in zip(offsets, offsets[1:]))
    assert offsets[-1] <= 1e-3


def test_bound_report_certifies_each_step():
    grid = Grid1D(8.0, 161)
    vol = pinched_volatility(grid)
    y0, source = bump_data(grid)
    sweep = solve_degenerate(grid, ConjugateHamiltonian.quadratic(), vol,
                             y0, source, horizon=0.1, eps=0.025,
                             ladder=(1e-1, 1e-2))
    report = sweep.bound_reports[0]
    assert np.all(report.certified)
    assert np.all(report.y_inf <= report.bounds)
    recomputed = check_linf_bound(sweep.solutions[0],
                                  ConjugateHamiltonian.quadratic(), vol, 1e-1)
    np.testing.assert_allclose(recomputed.bounds, report.bounds)


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


def test_ladder_must_decrease():
    grid = Grid1D(8.0, 161)
    vol = pinched_volatility(grid)
    zeros = np.zeros(grid.n)
    with pytest.raises(ValueError, match="decreasing"):
        solve_degenerate(grid, ConjugateHamiltonian.quadratic(), vol, zeros,
                         zeros, horizon=0.1, eps=0.025, ladder=(1e-2, 1e-1))


def test_each_level_satisfies_energy_finiteness():
    from mildhjb.stepper import energy_report
    grid = Grid1D(8.0, 161)
    vol = pinched_volatility(grid)
    y0, source = bump_data(grid)
    sweep = solve_degenerate(grid, ConjugateHamiltonian.quadratic(), vol,
                             y0, source, horizon=0.1, eps=0.025,
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
    initial, source = control.transformed_data(grid)
    vol = control.volatility_data(grid)
    conj = linear_conjugate()
    sweep = solve_degenerate(grid, conj, vol, initial, source, 0.5, eps,
                             ladder=(0.1,), drift=control.drift_data(grid))
    sol, report = sweep.solutions[0], sweep.bound_reports[0]
    assert 0.0 < sol.partial_step < eps
    # the last step solved lam = 1/partial_step, not 1/eps
    last = sup_bound(conj, vol, 0.1, 1.0 / sol.partial_step,
                     sol.diagnostics[-1].eta_inf)
    assert report.bounds[-1] == last
    assert report.y_inf[-1] <= last
