import os
import re
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import mildhjb.stepper as stepper
from mildhjb import _fork
from conftest import (deadline, desk_problem, elliptic_operands, heat_exact,
                      heat_problem, stored_run, tanh_drift)
from mildhjb.conjugate import ConjugateHamiltonian, RunningCost
from mildhjb.grid import Grid1D, Grid2D, diff1_central
from mildhjb.stepper import (StepDiagnostics, TransformedProblem,
                             energy_report, mild_solve, refine_until, step,
                             step_lengths, sup_time_gap)
from mildhjb.twodim import Problem2D


def quad_problem(grid, horizon=0.5, use_perturbation=True, drift=None,
                 y0=None, source=None):
    ops = elliptic_operands(
        grid, ConjugateHamiltonian.quadratic(),
        lambda x: np.sqrt(2.0) + 0.1 * np.sin(x),
        drift=drift, use_perturbation=use_perturbation)
    y0 = y0 if y0 is not None else (2.0 - 4.0 * grid.x**2) * np.exp(-grid.x**2)
    source = source if source is not None else y0.copy()
    return TransformedProblem(ops, y0, source, horizon)


def test_stationary_zero():
    g = Grid1D(10.0, 201)
    problem = quad_problem(g, y0=np.zeros(g.n), source=np.zeros(g.n),
                           drift=tanh_drift(g))
    res = step(problem, 0.01, np.zeros(g.n))
    assert g.norm1(res.y) <= 1e-12


def test_heat_step_matches_direct_solve():
    g = Grid1D(10.0, 201)
    problem = heat_problem(g)
    eps = 1e-2
    res = step(problem, eps, problem.initial)
    lam = 1.0 / eps
    h2 = g.h**2
    system = (lam + 2.0 / h2) * np.eye(g.n)
    system -= np.diag(np.full(g.n - 1, 1.0 / h2), 1)
    system -= np.diag(np.full(g.n - 1, 1.0 / h2), -1)
    direct = np.linalg.solve(system, problem.initial * lam)
    assert np.max(np.abs(res.y - direct)) <= 1e-10


def test_step_conserves_mass_without_drift():
    g = Grid1D(10.0, 201)
    problem = quad_problem(g, use_perturbation=False,
                           y0=np.exp(-g.x**2), source=np.zeros(g.n))
    res = step(problem, 0.01, problem.initial)
    drift = abs(g.integral(res.y) - g.integral(problem.initial))
    assert drift <= 1e-9 * g.norm1(problem.initial)


def test_step_size_cap_is_enforced():
    g = Grid1D(10.0, 201)
    problem = quad_problem(g, drift=tanh_drift(g))
    with pytest.raises(ValueError, match="need eps < 0.5$"):
        step(problem, 0.6, problem.initial)


@pytest.mark.parametrize("horizon", [0.0, -0.5])
def test_horizon_must_be_positive(horizon):
    g = Grid1D(10.0, 101)
    with pytest.raises(ValueError, match="horizon must be positive"):
        quad_problem(g, horizon=horizon)
    with pytest.raises(ValueError, match="horizon must be positive"):
        replace(desk_problem(), horizon=horizon)


@pytest.mark.parametrize("march", [step, mild_solve], ids=["step", "march"])
@pytest.mark.parametrize("eps", [0.0, -0.01])
def test_step_size_must_be_positive(march, eps):
    problem = quad_problem(Grid1D(10.0, 101))
    args = (problem.initial,) if march is step else ()
    with pytest.raises(ValueError, match="step size must be positive"):
        march(problem, eps, *args)


@pytest.mark.parametrize("march", [step, mild_solve], ids=["step", "march"])
def test_infinite_step_size_is_rejected(march):
    # a step of inf once ran no step at all and reported the time nan
    problem = quad_problem(Grid1D(10.0, 41))
    args = (problem.initial,) if march is step else ()
    with pytest.raises(ValueError, match="positive and finite, got inf"):
        march(problem, np.inf, *args)


def test_refine_rejects_an_infinite_step_before_forking(monkeypatch):
    # its runs took no step, so the sweep once converged with gaps [0.0]
    monkeypatch.setattr(_fork, "cores", lambda: 2)
    monkeypatch.setattr(_fork, "forked", lambda *tasks: pytest.fail("forked"))
    with pytest.raises(ValueError, match="positive and finite, got inf"):
        refine_until(quad_problem(Grid1D(10.0, 41)), 1e-3, np.inf,
                     max_levels=2)


@pytest.mark.parametrize("build", [
    lambda: quad_problem(Grid1D(10.0, 41), horizon=np.inf),
    lambda: replace(desk_problem(), horizon=np.inf),
], ids=["transformed", "control"])
def test_infinite_horizon_is_rejected(build):
    with pytest.raises(ValueError, match="horizon must be positive and finite"):
        build()


def test_short_horizon_keeps_initial_snapshot_only():
    # a horizon of at most eps/100 is dropped as a negligible remainder
    g = Grid1D(10.0, 201)
    problem = quad_problem(g, horizon=5e-5)
    sol = mild_solve(problem, eps=0.01)
    assert len(sol.snapshots) == 1
    np.testing.assert_array_equal(sol.final, problem.initial)
    np.testing.assert_array_equal(sol.times, [0.0])
    # above eps/100 the horizon is one step of its own length
    short = mild_solve(quad_problem(g, horizon=0.005), eps=0.01)
    np.testing.assert_array_equal(short.times, [0.0, 0.005])


def test_partial_final_step_recorded():
    g = Grid1D(10.0, 201)
    problem = quad_problem(g, horizon=0.025)
    sol = mild_solve(problem, eps=0.01)
    assert sol.partial_step == pytest.approx(0.005)
    assert sol.times[-1] == pytest.approx(0.025)
    assert len(sol.times) == 4


def test_heat_solution_against_kernel():
    g = Grid1D(10.0, 801)
    problem = heat_problem(g, width=0.5, horizon=0.25)
    sol = mild_solve(problem, eps=1e-3)
    err = g.norm1(sol.final - heat_exact(g, 0.5, 0.25))
    assert err <= 0.05


def test_two_grid_consistency():
    g = Grid1D(10.0, 201)
    problem = desk_problem(horizon=0.2).discretize(g)
    fine = mild_solve(problem, 2.5e-3)
    mid = mild_solve(problem, 5e-3)
    coarse = mild_solve(problem, 1e-2)
    gap_coarse = g.norm1(coarse.final - mid.final)
    gap_fine = g.norm1(mid.final - fine.final)
    assert gap_fine < gap_coarse


def test_refine_until_stationary_zero():
    g = Grid1D(10.0, 201)
    problem = quad_problem(g, y0=np.zeros(g.n), source=np.zeros(g.n),
                           horizon=0.1)
    result = refine_until(problem, tol=1e-12, eps0=0.02)
    assert result.converged
    assert len(result.gaps) == 1
    assert result.gaps[0] == 0.0


def test_refine_until_rejects_levels_that_take_no_step():
    # eps0 = 100 and 50 leave T = 0.1 as a negligible remainder: both runs
    # kept only the initial snapshot, and their gap of 0 was certified
    problem = quad_problem(Grid1D(10.0, 41), horizon=0.1)
    with pytest.raises(ValueError, match="takes no step"):
        refine_until(problem, 1e-3, 100.0, max_levels=2)


def test_refine_until_gap_series_decreases():
    g = Grid1D(10.0, 201)
    problem = heat_problem(g, horizon=0.1)
    result = refine_until(problem, tol=1e-12, eps0=0.02, max_levels=3)
    assert not result.converged
    assert result.gaps[0] > result.gaps[1] > result.gaps[2]
    ratios = [b / a for a, b in zip(result.gaps, result.gaps[1:])]
    # first-order stepping: halving ratios live between 1/2 and 1/sqrt(2)
    assert all(r < 1.0 for r in ratios)


def test_energy_report_zero_solution():
    g = Grid1D(10.0, 201)
    problem = quad_problem(g, y0=np.zeros(g.n), source=np.zeros(g.n),
                           horizon=0.1)
    report = energy_report(mild_solve(problem, 0.01))
    assert report.potential_max == 0.0
    assert report.dissipation_total == 0.0


def snapshot_energies(sol, y):
    """Potential and dissipation of one snapshot, summed on its own."""
    ops, grid = sol.operands, sol.grid
    m = ops.half_sigma_sq
    w = ops.conj.value(m * y)
    pot = grid.h * float(np.sum(ops.conj.potential(m * y) / (2.0 * m)))
    dis = grid.h * float(np.sum(diff1_central(grid, w) ** 2))
    return pot, dis


def test_energy_report_equals_per_snapshot_sums_bit_for_bit():
    # a tabulated conjugate, and a shortened last step of 0.01
    cost = RunningCost.from_callable(lambda u: u * u + 0.25 * u, 1.0)
    control = replace(desk_problem(horizon=0.13), cost=cost)
    problem = control.discretize(Grid1D(10.0, 101))
    assert problem.operands.conj.p_range is not None
    sol = mild_solve(problem, 0.02)
    assert sol.partial_step == pytest.approx(0.01)
    report = energy_report(sol)
    pots, diss = np.array([snapshot_energies(sol, y)
                           for y in sol.snapshots]).T
    assert report.potential.tobytes() == pots.tobytes()
    assert report.dissipation.tobytes() == diss.tobytes()


def test_energy_report_rejects_a_non_finite_series():
    g = Grid1D(10.0, 101)
    sol = mild_solve(quad_problem(g, horizon=0.05), 0.01)
    snapshots = sol.snapshots
    snapshots[-1, g.n // 2] = np.nan
    sol = stored_run(sol.problem, sol.eps, snapshots, sol.diagnostics)
    with pytest.raises(ArithmeticError, match="non-finite"):
        energy_report(sol)


def test_energy_stable_under_refinement():
    g = Grid1D(10.0, 201)
    problem = heat_problem(g, horizon=0.1)
    reports = [energy_report(mild_solve(problem, eps))
               for eps in (4e-3, 2e-3, 1e-3)]
    total = [r.dissipation_total for r in reports]
    assert all(t > 0 for t in total)
    assert max(total) / min(total) <= 1.2
    peak = [r.potential_max for r in reports]
    assert max(peak) / min(peak) <= 1.2


def test_time_marching_quasi_contraction():
    g = Grid1D(10.0, 201)
    drift = tanh_drift(g)
    eps = 0.01
    base = quad_problem(g, drift=drift, horizon=0.2)
    shifted = TransformedProblem(base.operands,
                                 base.initial + 0.3 * np.exp(-(g.x - 1.0)**2),
                                 base.source, base.horizon)
    a = mild_solve(base, eps)
    b = mild_solve(shifted, eps)
    gap0 = g.norm1(a.snapshots[0] - b.snapshots[0])
    cb = drift.perturbation_bound()
    rate = 1.0 / (1.0 - eps * (drift.slope_sup + cb))
    for i in range(1, len(a.snapshots)):
        gap = g.norm1(a.snapshots[i] - b.snapshots[i])
        assert gap <= rate**i * gap0 * (1 + 1e-8) + 1e-9


def test_positivity_preserved_without_drift():
    g = Grid1D(10.0, 201)
    y0 = np.exp(-g.x**2)
    source = 0.5 * np.exp(-(g.x - 2.0)**2)
    problem = quad_problem(g, use_perturbation=False, y0=y0, source=source,
                           horizon=0.2)
    sol = mild_solve(problem, 0.01)
    assert float(np.min(sol.snapshots)) >= -1e-9


def test_sup_time_gap_between_refinements():
    g = Grid1D(10.0, 201)
    problem = heat_problem(g, horizon=0.1)
    coarse = mild_solve(problem, 0.02)
    fine = mild_solve(problem, 0.01)
    gap = sup_time_gap(coarse, fine)
    endpoint = g.norm1(coarse.final - fine.final)
    assert gap >= endpoint > 0


def test_sup_time_gap_of_runs_on_two_grids_is_rejected():
    # the gap of such runs once read 0.080
    a, b = (mild_solve(heat_problem(Grid1D(w, 41), horizon=0.1), 0.05)
            for w in (5.0, 6.0))
    message = re.escape(f"runs on {a.grid} and {b.grid}")
    with pytest.raises(ValueError, match=message):
        sup_time_gap(a, b)


def planar_problem():
    """Drift-free 2-D problem with a cross term and a Gaussian start."""
    g = Grid2D(3.0, 11)
    X, Y = g.mesh
    ops = Problem2D(g, [[1.2, 0.0], [0.3, 1.0]],
                    np.full((g.n, g.n), np.sqrt(2.0)),
                    ConjugateHamiltonian.quadratic())
    return TransformedProblem(ops, np.exp(-(X**2 + Y**2)),
                              np.zeros((g.n, g.n)), 0.05)


@pytest.mark.parametrize("make, eps", [
    (lambda: heat_problem(Grid1D(10.0, 21), horizon=0.5), 2.0**-12),
    (lambda: heat_problem(Grid1D(10.0, 21), horizon=0.5), 0.01),
    (planar_problem, 0.01),
], ids=["1d-dyadic", "1d-decimal", "2d"])
def test_sup_time_gap_is_exact_over_every_step(make, eps):
    # on [k*eps, (k+1)*eps) the coarse run is step k and the fine run is
    # steps 2k and 2k+1, whether or not eps is a power of two
    problem = make()
    coarse = mild_solve(problem, eps)
    fine = mild_solve(problem, eps / 2)
    np.testing.assert_array_equal(fine.times[::2], coarse.times)
    g, ys, zs = fine.grid, fine.snapshots, coarse.snapshots
    expected = g.norm1(fine.final - coarse.final)
    for k in range(len(zs) - 1):
        expected = max(expected, g.norm1(ys[2 * k] - zs[k]),
                       g.norm1(ys[2 * k + 1] - zs[k]))
    assert sup_time_gap(coarse, fine) == expected


def test_sup_time_gap_of_a_non_finite_snapshot_is_nan():
    # a pair that cannot be compared must not be left out of the sup; the
    # 4,097 pairs here are compared in three slices
    problem = heat_problem(Grid1D(10.0, 21), horizon=0.5)
    coarse = mild_solve(problem, 2.0**-11)
    fine = mild_solve(problem, 2.0**-12)
    for run in (coarse, fine):
        for k in (0, len(run.snapshots) // 2, -1):
            snapshots = run.snapshots
            snapshots[k, 3] = np.nan
            broken = stored_run(run.problem, run.eps, snapshots)
            pair = (broken, fine) if run is coarse else (coarse, broken)
            assert np.isnan(sup_time_gap(*pair))


def test_refine_until_certifies_every_step_of_a_long_run():
    # the finest level takes 4,096 steps, all stored; its gap is about
    # 3.4e-4, so a tolerance of 1e-4 must not pass
    problem = heat_problem(Grid1D(10.0, 21), horizon=0.5)
    result = refine_until(problem, tol=1e-4, eps0=2.0**-12, max_levels=1)
    assert result.converged is False
    assert result.gaps[0] > 1e-4
    sol = result.solution
    assert len(sol.times) == len(sol.snapshots) == 4097
    np.testing.assert_array_equal(sol.times, np.arange(4097) * 2.0**-13)


def test_refine_until_certifies_a_2d_run(monkeypatch):
    runs = []

    def recorded(*args, **kwargs):
        runs.append(mild_solve(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(stepper, "mild_solve", recorded)
    # a forked worker's march of the finest level would not be recorded here
    monkeypatch.setattr(_fork, "cores", lambda: 1)
    result = refine_until(planar_problem(), tol=1e-6, eps0=0.01, max_levels=3)
    assert result.converged is False
    assert len(result.gaps) == 3
    assert result.gaps[0] > result.gaps[1] > result.gaps[2] > 0
    assert [sol.eps for sol in runs] == result.eps_levels
    for sol in runs:
        steps = round(0.05 / sol.eps)
        assert sol.snapshots.shape == (steps + 1, 11, 11)
        assert len(sol.diagnostics) == steps
    assert result.solution is runs[-1]


@pytest.mark.parametrize("cores", [1, 2], ids=["serial", "forked"])
def test_refine_holds_states_not_whole_levels(monkeypatch, cores):
    # each level is read from its file a slice at a time: from 3 to 5
    # levels, this process's peak grows by less than one snapshot (8 bytes
    # a node) per step of the finest level, where holding the finest level
    # and the one before it grew by 12 bytes a node or more
    problem = heat_problem(Grid1D(10.0, 41), horizon=0.1)
    monkeypatch.setattr(_fork, "cores", lambda: cores)
    peaks = []
    for levels in (3, 5):
        tracemalloc.start()
        try:
            refine_until(problem, 1e-12, 0.1 / 64, max_levels=levels)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    steps = 64 * (2**5 - 2**3)  # more steps of the finest level
    assert peaks[1] - peaks[0] < 8 * 41 * steps


@pytest.mark.parametrize("make, eps", [
    (lambda: quad_problem(Grid1D(10.0, 41), horizon=0.1,
                          drift=tanh_drift(Grid1D(10.0, 41))), 2.0**-9),
    (planar_problem, 0.01),
], ids=["1d", "2d"])
def test_run_reads_back_the_march(tmp_path, make, eps):
    # in a temporary file or the caller's, a run reads back the states and
    # certificates march yields, whole, by row, and by the repeated rows
    # that sup_time_gap asks of a coarser run; its descriptor closes with it
    problem = make()
    results = list(stepper.march(problem, eps))
    ys = np.array([problem.initial, *(res.y for res in results)])
    diags = [StepDiagnostics(res.residual, res.iterations, res.fallback,
                             res.out_of_table) for res in results]
    rows = np.array([1, 2, 2, 5, len(ys) - 1])
    fds = sorted(os.listdir("/proc/self/fd"))
    with open(tmp_path / "run.bin", "w+b") as out:
        runs = [mild_solve(problem, eps), mild_solve(problem, eps, out=out)]
    for run in runs:
        assert run.times.tobytes() == \
            stepper.step_times(problem.horizon, eps).tobytes()
        assert run.snapshots.tobytes() == ys.tobytes()
        assert run.final.tobytes() == ys[-1].tobytes()
        assert run.diagnostics == diags
        assert run.read(rows).tobytes() == ys[rows].tobytes()
    del runs, run
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_a_contiguous_read_is_held_once(tmp_path):
    # 256 contiguous rows at n=101 (206,848 B) are filled in place, not
    # gathered into a second copy; nor is a whole-run snapshots read
    problem = heat_problem(Grid1D(10.0, 101), horizon=0.5)
    with open(tmp_path / "run.bin", "w+b") as out:
        run = mild_solve(problem, 2.0**-10, out=out)
    row, rows = 8 * 101, np.arange(100, 356)
    for read, size in ((lambda: run.read(rows), 256 * row),
                       (lambda: run.snapshots, len(run.times) * row)):
        tracemalloc.start()
        try:
            read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= size + 8192


def test_final_of_a_stored_run_reads_one_row(tmp_path):
    # the last of 4,097 snapshots is read alone: one row read and one row
    # copied, and a few KiB of Python objects whatever the row size
    problem = heat_problem(Grid1D(10.0, 101), horizon=0.5)
    with open(tmp_path / "run.bin", "w+b") as out:
        stored = mild_solve(problem, 2.0**-13, out=out)
    assert len(stored.times) == 4097
    tracemalloc.start()
    try:
        final = stored.final
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row = 8 * 101
    assert peak <= 2 * row + 4096
    np.testing.assert_array_equal(final, stored.read(np.array([4096]))[0])


def levels_marched_here(monkeypatch, *args, **kwargs):
    """``refine_until(*args, **kwargs)`` and the eps of each level this
    process marched itself."""
    here = []

    def recorded(problem, eps, *rest, **options):
        here.append(eps)
        return mild_solve(problem, eps, *rest, **options)

    monkeypatch.setattr(stepper, "mild_solve", recorded)
    return refine_until(*args, **kwargs), here


@pytest.mark.parametrize("make, eps0, levels", [
    (lambda: heat_problem(Grid1D(10.0, 41), horizon=0.1), 0.02, 3),
    (lambda: quad_problem(Grid1D(10.0, 41), horizon=0.1,
                          drift=tanh_drift(Grid1D(10.0, 41))), 0.025, 2),
    (planar_problem, 0.01, 1),
], ids=["heat", "drift", "2d"])
def test_forked_finest_level_is_the_serial_run(monkeypatch, make, eps0,
                                               levels):
    problem = make()
    monkeypatch.setattr(_fork, "cores", lambda: 1)
    serial, marched = levels_marched_here(monkeypatch, problem, 1e-12, eps0,
                                          max_levels=levels)
    assert marched == serial.eps_levels
    monkeypatch.setattr(_fork, "cores", lambda: 2)
    forked, marched = levels_marched_here(monkeypatch, problem, 1e-12, eps0,
                                          max_levels=levels)
    assert marched == serial.eps_levels[:-1]  # a worker marched the finest
    assert (forked.eps_levels, forked.gaps, forked.converged) == \
        (serial.eps_levels, serial.gaps, serial.converged)
    a, b = forked.solution, serial.solution
    assert a.problem is b.problem is problem
    assert (a.eps, a.partial_step, a.diagnostics) == \
        (b.eps, b.partial_step, b.diagnostics)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.snapshots, b.snapshots)


def stalled_finest(monkeypatch, finest, coarse_error=None):
    """Let a worker's march of eps ``finest`` sleep instead, and this
    process's marches raise ``coarse_error`` (if given) below the first
    level."""
    caller = os.getpid()

    def march(problem, eps, *args, **kwargs):
        if os.getpid() != caller and eps == finest:
            time.sleep(60)  # a worker that is not killed outlives the deadline
            os._exit(0)
        if coarse_error is not None and eps < 0.02:
            raise coarse_error
        return mild_solve(problem, eps, *args, **kwargs)

    monkeypatch.setattr(stepper, "mild_solve", march)
    monkeypatch.setattr(_fork, "cores", lambda: 2)


def test_early_convergence_kills_the_finest_level(monkeypatch):
    g = Grid1D(10.0, 201)
    problem = quad_problem(g, y0=np.zeros(g.n), source=np.zeros(g.n),
                           horizon=0.1)
    stalled_finest(monkeypatch, 0.02 * 0.5**3)
    with deadline(30):
        result = refine_until(problem, tol=1e-12, eps0=0.02, max_levels=3)
    assert result.converged and result.eps_levels == [0.02, 0.01]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_error_in_a_coarse_level_kills_the_finest_level(monkeypatch):
    stalled_finest(monkeypatch, 0.02 * 0.5**3,
                   ArithmeticError("coarse level"))
    with deadline(30), pytest.raises(ArithmeticError, match="coarse level"):
        refine_until(heat_problem(Grid1D(10.0, 41), horizon=0.1), tol=1e-12,
                     eps0=0.02, max_levels=3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_level_of_a_dead_worker_is_marched_here(monkeypatch):
    problem = heat_problem(Grid1D(10.0, 41), horizon=0.1)
    monkeypatch.setattr(_fork, "cores", lambda: 1)
    serial = refine_until(problem, tol=1e-12, eps0=0.02, max_levels=2)
    caller = os.getpid()

    def dying(*args, **kwargs):
        if os.getpid() != caller:
            os._exit(3)
        return mild_solve(*args, **kwargs)

    monkeypatch.setattr(_fork, "cores", lambda: 2)
    monkeypatch.setattr(stepper, "mild_solve", dying)
    result = refine_until(problem, tol=1e-12, eps0=0.02, max_levels=2)
    assert result.gaps == serial.gaps
    np.testing.assert_array_equal(result.solution.snapshots,
                                  serial.solution.snapshots)
    assert result.solution.diagnostics == serial.solution.diagnostics
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("levels", [0, -1, True, 2.0, 1.5, "3", None])
def test_refine_levels_must_be_a_positive_integer(levels):
    problem = heat_problem(Grid1D(10.0, 21), horizon=0.1)
    with pytest.raises(ValueError, match="max_levels"):
        refine_until(problem, tol=1e-3, eps0=0.02, max_levels=levels)


def test_numpy_integer_is_a_level_count():
    problem = heat_problem(Grid1D(10.0, 21), horizon=0.1)
    result = refine_until(problem, tol=1e-12, eps0=0.02,
                          max_levels=np.int64(2))
    assert len(result.gaps) == 2


def test_every_step_carries_a_residual_certificate():
    g = Grid1D(10.0, 201)
    problem = desk_problem(horizon=0.1).discretize(g)
    sol = mild_solve(problem, 0.01)
    steps = step_lengths(problem.horizon, 0.01)
    assert len(sol.diagnostics) == len(steps) > 0
    for d, y_prev, dt in zip(sol.diagnostics, sol.snapshots, steps):
        eta = problem.source + y_prev / dt
        assert d.residual <= 1e-10 * max(1.0, g.norm1(eta))
        assert d.iterations >= 1


def cold_march(problem, eps):
    """Reference march: a plain ``step`` per step, each forming its own
    ``eta`` and evaluating its start."""
    ys, diags = [problem.initial], []
    for dt in step_lengths(problem.horizon, eps):
        res = step(problem, dt, ys[-1])
        ys.append(res.y)
        diags.append(StepDiagnostics(res.residual, res.iterations,
                                     res.fallback, res.out_of_table))
    return np.array(ys), diags


# a drifted 1-D run and a 2-D run, each with a shortened last step
SHORTENED_RUNS = pytest.mark.parametrize("make, eps", [
    (lambda: desk_problem(horizon=0.105).discretize(Grid1D(10.0, 201)), 0.01),
    (planar_problem, 0.015),
], ids=["1d-desk", "2d"])


@SHORTENED_RUNS
def test_warm_started_march_equals_a_cold_march_bit_for_bit(make, eps):
    # each step starts from the previous step's stored terms; the last step
    # is shortened, so its shift differs from the one those terms came with
    problem = make()
    sol = mild_solve(problem, eps)
    assert sol.partial_step > 0
    ys, diags = cold_march(problem, eps)
    assert sol.snapshots.tobytes() == ys.tobytes()
    assert sol.diagnostics == diags


@SHORTENED_RUNS
def test_march_yields_the_stored_steps_bit_for_bit(make, eps):
    # a caller that reads the march step by step, as the 2-D runner does,
    # sees the states, certificates and times that mild_solve stores
    problem = make()
    sol = mild_solve(problem, eps)
    results = list(stepper.march(problem, eps))
    assert sol.partial_step > 0
    ys = np.array([problem.initial, *(res.y for res in results)])
    assert ys.tobytes() == sol.snapshots.tobytes()
    assert [StepDiagnostics(res.residual, res.iterations, res.fallback,
                            res.out_of_table)
            for res in results] == sol.diagnostics
    times = stepper.step_times(problem.horizon, eps)
    assert times.tobytes() == sol.times.tobytes()
