"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at run time.
"""

import time
import warnings

import numpy as np
import pytest

from conftest import (desk_problem, elliptic_operands, heat_exact,
                      heat_problem, tanh_drift)
from mildhjb.conjugate import ConjugateHamiltonian, RunningCost
from mildhjb.degenerate import solve_degenerate
from mildhjb.grid import Grid1D
from mildhjb.montecarlo import SimConfig, compare_policies, simulate_cost
from mildhjb.problem import ControlProblem
from mildhjb.resolvent import ResolventConfig, solve_resolvent
from mildhjb.stepper import (TransformedProblem, energy_report, mild_solve,
                             sup_time_gap)
from mildhjb.twodim import Grid2D, Problem2D
from mildhjb.value import reconstruct_value, synthesize_feedback
from test_resolvent import oracle_fixed_point
from test_twodim import apply_L

DESK_EPS_LADDER = (1e-2, 5e-3, 2.5e-3)


def verdict(number, passed, detail, elapsed):
    line = (f"criterion {number:02d} {'PASS' if passed else 'FAIL'}  "
            f"{detail} [{elapsed:.1f}s]")
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def desk_runs():
    """Shared solves of the reference problem across the step ladder."""
    started = time.perf_counter()
    grid = Grid1D(10.0, 201)
    problem = desk_problem(horizon=0.5).discretize(grid)
    runs = {eps: mild_solve(problem, eps) for eps in DESK_EPS_LADDER}
    return grid, problem, runs, time.perf_counter() - started


def test_criterion_1_resolvent_l1_contraction():
    started = time.perf_counter()
    grid = Grid1D(10.0, 201)
    drift = tanh_drift(grid)
    ops = elliptic_operands(
        grid, ConjugateHamiltonian.quadratic(1.0, 0.0),
        lambda x: np.sqrt(2.0) + 0.1 * np.sin(x),
        drift=drift, use_perturbation=False)
    lam0 = drift.slope_sup
    lam = 2.0 * lam0 + 1.0
    cfg = ResolventConfig()
    bound = (1.0 / (lam - lam0)) * (1.0 + 1e-6) + 10.0 * cfg.tol_res
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        eta = rng.standard_normal(grid.n)
        eta_bar = eta + rng.standard_normal(grid.n) * rng.uniform(0.1, 2.0)
        y = solve_resolvent(ops, lam, eta, cfg).y
        y_bar = solve_resolvent(ops, lam, eta_bar, cfg).y
        worst = max(worst, grid.norm1(y - y_bar) / grid.norm1(eta - eta_bar))
    elapsed = time.perf_counter() - started
    verdict(1, worst <= bound and elapsed < 60.0,
            f"L1 contraction: worst ratio {worst:.6f} <= {bound:.6f} "
            f"over 50 pairs", elapsed)


def test_criterion_2_heat_kernel_oracle():
    started = time.perf_counter()
    levels = [(4e-3, 201), (2e-3, 401), (1e-3, 801)]
    errors = []
    for eps, n in levels:
        grid = Grid1D(10.0, n)
        problem = heat_problem(grid, width=0.5, horizon=0.25)
        sol = mild_solve(problem, eps)
        errors.append(grid.norm1(sol.final - heat_exact(grid, 0.5, 0.25)))
    decreasing = errors[0] > errors[1] > errors[2]
    halved = errors[2] <= errors[0] / 2.0
    elapsed = time.perf_counter() - started
    verdict(2, decreasing and halved and elapsed < 120.0,
            "heat oracle errors " + " > ".join(f"{e:.2e}" for e in errors)
            + f", finest <= first/2 ({errors[0] / 2:.2e})", elapsed)


def test_criterion_3_mild_limit_cauchy_certificate(desk_runs):
    started = time.perf_counter()
    _, _, runs, build_seconds = desk_runs
    sols = [runs[eps] for eps in DESK_EPS_LADDER]
    gaps = [sup_time_gap(a, b) for a, b in zip(sols, sols[1:])]
    elapsed = time.perf_counter() - started + build_seconds
    verdict(3, gaps[1] < gaps[0] and elapsed < 300.0,
            f"sup-time L1 gaps decrease: {gaps[0]:.3e} > {gaps[1]:.3e}",
            elapsed)


def test_criterion_4_energy_estimate(desk_runs):
    started = time.perf_counter()
    _, _, runs, _ = desk_runs
    reports = [energy_report(runs[eps]) for eps in DESK_EPS_LADDER]
    peaks = [r.potential_max for r in reports]
    totals = [r.dissipation_total for r in reports]
    finite = all(np.isfinite(peaks)) and all(np.isfinite(totals))
    stable = (max(peaks) / min(peaks) <= 1.2
              and max(totals) / min(totals) <= 1.2)
    elapsed = time.perf_counter() - started
    verdict(4, finite and stable and elapsed < 60.0,
            f"energy peak {min(peaks):.4f}..{max(peaks):.4f}, "
            f"dissipation {min(totals):.4f}..{max(totals):.4f} "
            f"(each within 20%)", elapsed)


def test_criterion_5_small_instance_oracle():
    started = time.perf_counter()
    grid = Grid1D(2.0, 9)
    drift = tanh_drift(grid, scale=0.3)
    ops = elliptic_operands(grid, ConjugateHamiltonian.quadratic(),
                            np.sqrt(2.0), drift=drift)
    lam = 20.0
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        eta = rng.uniform(-1.0, 1.0, grid.n)
        solved = solve_resolvent(ops, lam, eta).y
        oracle = oracle_fixed_point(grid, ops.conj, ops.half_sigma_sq, drift,
                                    lam, eta, include_perturbation=True,
                                    tol=1e-13)
        worst = max(worst, float(np.max(np.abs(solved - oracle))))
    elapsed = time.perf_counter() - started
    verdict(5, worst <= 1e-9,
            f"one implicit step vs fixed-point oracle: max nodewise gap "
            f"{worst:.2e} <= 1e-9 over 20 right-hand sides", elapsed)


def test_criterion_6_feedback_argmin_certificate(desk_runs):
    started = time.perf_counter()
    grid, problem, runs, _ = desk_runs
    vf = reconstruct_value(runs[5e-3], horizon=0.5)
    policy = synthesize_feedback(vf, problem.operands)
    cost = RunningCost.quadratic(1.0, 0.0)
    u_max = max(2.0 * float(np.max(policy.u)), 1.0)
    probe = np.linspace(0.0, u_max, 10000)
    probe_cost = cost.evaluate(probe)
    rng = np.random.default_rng(7)
    worst = -np.inf
    for _ in range(200):
        i = int(rng.integers(0, len(vf.times)))
        k = int(rng.integers(0, grid.n))
        q = problem.operands.half_sigma_sq[k] * vf.curvature[i, k]
        best = float(np.min(q * probe + probe_cost))
        star = q * policy.u[i, k] + float(cost.evaluate(policy.u[i, k]))
        worst = max(worst, star - best)
    elapsed = time.perf_counter() - started
    verdict(6, worst <= 1e-8,
            f"argmin certificate: max excess {worst:.2e} <= 1e-8 over 200 "
            f"samples x 10^4-point probe grid", elapsed)


def test_criterion_7_monte_carlo_analytic_case():
    started = time.perf_counter()
    problem = ControlProblem(
        sigma=lambda x: np.ones_like(x),
        g=lambda x: x * x,
        g0=lambda x: 0.0 * x,
        cost=RunningCost.quadratic(1.0, 0.0),
        horizon=1.0)
    cfg = SimConfig(n_paths=10000, dt=1e-3, seed=314)
    first = simulate_cost(problem, 1.0, cfg)
    second = simulate_cost(problem, 1.0, cfg)
    target = 1.0 / 2.0 + 1.0  # c T^2/2 + h(c) T with c = T = 1
    within = abs(first.mean - target) <= 3.0 * first.stderr
    deterministic = (first.mean == second.mean
                     and first.stderr == second.stderr)
    elapsed = time.perf_counter() - started
    verdict(7, within and deterministic and elapsed < 60.0,
            f"analytic cost {target:.4f} vs mc {first.mean:.4f} "
            f"+- {first.stderr:.4f} (3 stderr), seed-deterministic",
            elapsed)


def test_criterion_8_feedback_beats_constant_controls(desk_runs):
    started = time.perf_counter()
    _, problem, runs, _ = desk_runs
    control = desk_problem(horizon=0.5)
    vf = reconstruct_value(runs[1e-2], horizon=0.5)
    policy = synthesize_feedback(vf, problem.operands)
    cfg = SimConfig(n_paths=10000, dt=0.5 / 1000.0, seed=2718, x0=0.0)
    baselines = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    comparison = compare_policies(control, policy, baselines, cfg)
    best = comparison.best_baseline
    margin = best.mean + 2.0 * best.stderr - comparison.feedback.mean
    elapsed = time.perf_counter() - started
    verdict(8, margin >= 0.0 and elapsed < 300.0,
            f"feedback {comparison.feedback.mean:.4f} <= best baseline "
            f"{best.mean:.4f} + 2x{best.stderr:.4f} ({best.label}, "
            f"common random numbers, 10^4 paths)", elapsed)


def test_criterion_9_degenerate_ladder():
    started = time.perf_counter()
    grid = Grid1D(8.0, 161)
    problem = ControlProblem(
        sigma=lambda x: x * np.exp(-x**2),
        sigma_x=lambda x: (1.0 - 2.0 * x**2) * np.exp(-x**2),
        sigma_xx=lambda x: (4.0 * x**3 - 6.0 * x) * np.exp(-x**2),
        g=lambda x: np.exp(-x**2),
        g_xx=lambda x: (4.0 * x**2 - 2.0) * np.exp(-x**2),
        g0=lambda x: np.exp(-x**2),
        g0_xx=lambda x: (4.0 * x**2 - 2.0) * np.exp(-x**2),
        cost=RunningCost.quadratic(), horizon=0.1)
    sweep = solve_degenerate(problem, grid, eps=0.025,
                             ladder=(1e-1, 1e-2, 1e-3, 1e-4))
    decreasing = all(b < a for a, b in zip(sweep.gaps, sweep.gaps[1:]))
    bounds_ok = all(r.passed for r in sweep.bound_reports)
    elapsed = time.perf_counter() - started
    verdict(9, decreasing and bounds_ok,
            "degenerate ladder gaps "
            + " > ".join(f"{g:.2e}" for g in sweep.gaps)
            + f", sup-norm barrier holds at all {len(sweep.levels)} levels",
            elapsed)


def test_criterion_10_two_dimensional_drift_free():
    started = time.perf_counter()
    grid = Grid2D(6.0, 41)
    conj = ConjugateHamiltonian.quadratic()
    factor = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # b = diag(2, 1)
    flat = np.full((grid.n, grid.n), np.sqrt(2.0))
    prob = Problem2D(grid, factor, flat, conj)

    lam = 25.0
    tol = 1e-10
    rng = np.random.default_rng(64)
    worst = 0.0
    for _ in range(20):
        e1 = rng.standard_normal((grid.n, grid.n))
        e2 = e1 + 0.5 * rng.standard_normal((grid.n, grid.n))
        y1 = solve_resolvent(prob, lam, e1, ResolventConfig(tol)).y
        y2 = solve_resolvent(prob, lam, e2, ResolventConfig(tol)).y
        worst = max(worst, grid.norm1(y1 - y2) / grid.norm1(e1 - e2))
    contraction_ok = worst <= 1.0 / lam + 10.0 * tol

    X, Y = grid.mesh
    y0 = np.exp(-(X**2 + Y**2))
    march = TransformedProblem(prob, y0, np.zeros((grid.n, grid.n)), 0.5)
    sol = mild_solve(march, 0.01)
    assert len(sol.times) == 51
    mass_ok = (abs(sol.masses[-1] - sol.masses[0])
               <= 1e-8 * abs(sol.masses[0]))

    skewed = np.array([[np.sqrt(2.0), 0.0],
                       [1.0 / np.sqrt(2.0), np.sqrt(1.4)]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cross = Problem2D(grid, skewed, flat, conj)
    lz = apply_L(cross, X * Y)
    stencil_ok = bool(np.all(np.abs(lz[1:-1, 1:-1] - 2.0 * cross.b[0, 1])
                             <= 1e-10))
    elapsed = time.perf_counter() - started
    verdict(10, contraction_ok and mass_ok and stencil_ok,
            f"2-D: contraction ratio {worst:.5f} <= 1/{lam:.0f}, mass drift "
            f"{abs(sol.masses[-1] - sol.masses[0]):.1e} over 50 steps, "
            f"cross stencil exact on x*y", elapsed)
