import math

import numpy as np
import pytest

from conftest import constant_policy
from mildhjb import montecarlo
from mildhjb.conjugate import RunningCost
from mildhjb.grid import Grid1D
from mildhjb.montecarlo import (SimConfig, SimulationError, compare_policies,
                                simulate_cost)
from mildhjb.problem import ControlProblem
from mildhjb.value import FeedbackPolicy


def brownian_problem(horizon=1.0):
    return ControlProblem(
        sigma=lambda x: np.ones_like(x),
        g=lambda x: x * x,
        g0=lambda x: 0.0 * x,
        cost=RunningCost.quadratic(1.0, 0.0),
        horizon=horizon)


def desk_problem(horizon=0.5):
    return ControlProblem(
        f=np.tanh,
        sigma=lambda x: np.sqrt(2.0) + 0.1 * np.sin(x),
        g=lambda x: np.exp(-x**2),
        g0=lambda x: np.exp(-x**2),
        cost=RunningCost.quadratic(1.0, 0.0),
        horizon=horizon)


def discrete_expected_cost(c, horizon, steps):
    # E[X_{t_k}^2] = c * t_k under constant control c; left-endpoint sum
    dt = horizon / steps
    running = c * dt * dt * steps * (steps - 1) / 2.0
    return running + c * c * horizon


def test_noiseless_control_matches_ode_quadrature():
    problem = ControlProblem(
        f=lambda x: -0.5 * x,
        sigma=lambda x: np.ones_like(x),
        g=lambda x: x * x,
        g0=lambda x: np.abs(x),
        cost=RunningCost.quadratic(1.0, 0.0),
        horizon=1.0)
    cfg = SimConfig(n_paths=4, dt=1e-3, seed=1, x0=2.0)
    report = simulate_cost(problem, 0.0, cfg)
    # independent fine-step explicit integration of the noiseless dynamics
    steps = 1000
    dt = 1e-3
    x = 2.0
    oracle = 0.0
    for _ in range(steps):
        oracle += (x * x + 0.0) * dt
        x += -0.5 * x * dt
    oracle += abs(x)
    assert report.mean == pytest.approx(oracle, abs=1e-12)
    assert report.stderr == 0.0


def test_brownian_quadratic_cost_analytic():
    problem = brownian_problem()
    cfg = SimConfig(n_paths=10000, dt=1e-3, seed=42)
    report = simulate_cost(problem, 1.0, cfg)
    target = 1.0 * 1.0 / 2.0 + 1.0 * 1.0  # c T^2/2 + h(c) T
    assert abs(report.mean - target) <= 3.0 * report.stderr


def test_seed_determinism():
    problem = brownian_problem()
    cfg = SimConfig(n_paths=2000, dt=2e-3, seed=7)
    a = simulate_cost(problem, 0.5, cfg, keep_samples=True)
    b = simulate_cost(problem, 0.5, cfg, keep_samples=True)
    assert a.mean == b.mean and a.stderr == b.stderr
    np.testing.assert_array_equal(a.samples, b.samples)


def test_block_size_does_not_change_results(monkeypatch):
    problem = brownian_problem()
    cfg = SimConfig(n_paths=600, dt=2e-3, seed=3)

    def both():
        return [simulate_cost(problem, 0.5, cfg, keep_samples=True),
                *compare_policies(problem, 0.5, [0.0, 1.0], cfg,
                                  keep_samples=True).rows()]

    base = both()
    monkeypatch.setattr(montecarlo, "_BLOCK", 64)
    for a, b in zip(base, both(), strict=True):
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.mean == b.mean


def test_comparison_rows_equal_single_policy_runs(monkeypatch):
    # three blocks, the last one partial
    monkeypatch.setattr(montecarlo, "_BLOCK", 64)
    problem = desk_problem(horizon=0.25)
    grid = Grid1D(5.0, 41)
    times = np.linspace(0.0, 0.25, 6)
    u = 0.2 + 0.1 * np.abs(grid.x)[None, :] + times[:, None]
    feedback = FeedbackPolicy(grid, 0.25, times, u)
    baselines = [0, 0.3, 1.0]
    cfg = SimConfig(n_paths=150, dt=5e-3, seed=31)
    rows = compare_policies(problem, feedback, baselines, cfg,
                            keep_samples=True).rows()
    for row, policy in zip(rows, [feedback, *baselines], strict=True):
        single = simulate_cost(problem, policy, cfg, keep_samples=True)
        np.testing.assert_array_equal(row.samples, single.samples)
        assert row.mean == single.mean and row.stderr == single.stderr


def test_comparison_draws_noise_one_block_at_a_time(monkeypatch):
    monkeypatch.setattr(montecarlo, "_BLOCK", 64)
    draws = []
    draw = montecarlo._path_normals

    def spy(seed, first, count, steps):
        draws.append((first, count))
        return draw(seed, first, count, steps)

    monkeypatch.setattr(montecarlo, "_path_normals", spy)
    compare_policies(brownian_problem(horizon=0.1), 0.5, [0.0, 1.0],
                     SimConfig(n_paths=129, dt=1e-2, seed=3))
    assert draws == [(0, 64), (64, 64), (128, 1)]


def test_scalar_returning_policy_equals_constant_pathwise():
    problem = brownian_problem(horizon=0.5)
    cfg = SimConfig(n_paths=200, dt=1e-3, seed=37)
    comparison = compare_policies(problem, lambda t, x: 0.8, [0.8], cfg,
                                  keep_samples=True)
    np.testing.assert_array_equal(comparison.feedback.samples,
                                  comparison.baselines[0].samples)


def test_constant_feedback_table_equals_constant_policy_pathwise():
    problem = brownian_problem(horizon=0.5)
    grid = Grid1D(5.0, 41)
    table = constant_policy(grid, 0.5, 0.8)
    cfg = SimConfig(n_paths=500, dt=1e-3, seed=11)
    via_table = simulate_cost(problem, table, cfg, keep_samples=True)
    via_const = simulate_cost(problem, 0.8, cfg, keep_samples=True)
    np.testing.assert_array_equal(via_table.samples, via_const.samples)


def test_negative_policy_values_are_clamped():
    problem = brownian_problem(horizon=0.2)
    cfg = SimConfig(n_paths=50, dt=1e-3, seed=5)
    raw = simulate_cost(problem, lambda t, x: -3.0 * np.ones_like(x), cfg,
                        keep_samples=True)
    off = simulate_cost(problem, 0.0, cfg, keep_samples=True)
    np.testing.assert_array_equal(raw.samples, off.samples)


def test_common_random_numbers_align_policies():
    problem = brownian_problem(horizon=0.5)
    cfg = SimConfig(n_paths=800, dt=1e-3, seed=23)
    comparison = compare_policies(problem, 0.4, [0.4, 1.0], cfg,
                                  keep_samples=True)
    np.testing.assert_array_equal(comparison.feedback.samples,
                                  comparison.baselines[0].samples)


def test_enlarging_baseline_grid_never_hurts():
    problem = brownian_problem(horizon=0.5)
    cfg = SimConfig(n_paths=500, dt=2e-3, seed=29)
    small = compare_policies(problem, 0.2, [0.0, 1.0], cfg)
    large = compare_policies(problem, 0.2, [0.0, 0.5, 1.0, 1.5], cfg)
    assert large.best_baseline.mean <= small.best_baseline.mean


def test_ci_coverage_on_analytic_case():
    problem = brownian_problem(horizon=0.5)
    steps = 250
    target = discrete_expected_cost(1.0, 0.5, steps)
    hits = 0
    for rep in range(100):
        cfg = SimConfig(n_paths=400, dt=0.5 / steps, seed=1000 + rep)
        report = simulate_cost(problem, 1.0, cfg)
        if report.ci_low <= target <= report.ci_high:
            hits += 1
    assert hits >= 90


def test_blowup_paths_fail_the_run():
    problem = ControlProblem(
        f=lambda x: x**3,
        sigma=lambda x: np.ones_like(x),
        g=lambda x: x * x,
        g0=lambda x: 0.0 * x,
        cost=RunningCost.quadratic(1.0, 0.0),
        horizon=5.0)
    cfg = SimConfig(n_paths=16, dt=0.05, seed=2, x0=3.0)
    with pytest.raises(SimulationError):
        simulate_cost(problem, 0.0, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n_paths=1, dt=1e-3, seed=0)
    with pytest.raises(ValueError):
        SimConfig(n_paths=10, dt=0.0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(n_paths=10, dt=1e-3, seed=-1)


def test_largest_seed_runs_and_the_next_is_rejected():
    # a seed is one 64-bit word of the Philox key
    cfg = SimConfig(n_paths=4, dt=1e-2, seed=2**64 - 1)
    assert math.isfinite(simulate_cost(brownian_problem(0.1), 0.5, cfg).mean)
    with pytest.raises(ValueError, match="seed"):
        SimConfig(n_paths=4, dt=1e-2, seed=2**64)


@pytest.mark.parametrize("x0", [math.nan, math.inf, "0.5",
                                lambda rng, n: rng.normal(size=n)],
                         ids=["nan", "inf", "text", "sampler"])
def test_start_point_must_be_a_finite_number(x0):
    with pytest.raises(ValueError, match="x0"):
        SimConfig(n_paths=4, dt=1e-2, seed=0, x0=x0)


def test_exact_reduction_matches_fsum():
    problem = brownian_problem(horizon=0.25)
    cfg = SimConfig(n_paths=500, dt=1e-3, seed=17)
    report = simulate_cost(problem, 0.7, cfg, keep_samples=True)
    mean = math.fsum(report.samples.tolist()) / report.samples.size
    assert report.mean == mean
