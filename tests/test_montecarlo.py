import dataclasses
import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

import conftest
from conftest import constant_policy, deadline
from mildhjb import _fork, montecarlo
from mildhjb.conjugate import RunningCost
from mildhjb.expressions import parse_expression
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


def fresh_stream(seed, path):
    """The documented stream of a path: a new generator keyed (seed, path)."""
    key = np.array([seed, path], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
    feedback = FeedbackPolicy(grid, times, u)
    baselines = [0, 0.3, 1.0]
    cfg = SimConfig(n_paths=150, dt=5e-3, seed=31)
    rows = compare_policies(problem, feedback, baselines, cfg,
                            keep_samples=True).rows()
    for row, policy in zip(rows, [feedback, *baselines], strict=True):
        single = simulate_cost(problem, policy, cfg, keep_samples=True)
        np.testing.assert_array_equal(row.samples, single.samples)
        assert row.mean == single.mean and row.stderr == single.stderr


def test_comparison_draws_noise_one_block_at_a_time(monkeypatch):
    # one worker draws the blocks of _BLOCK paths in path order, and each
    # path's stream at most _DRAW normals at a time
    monkeypatch.setattr(montecarlo, "_BLOCK", 64)
    monkeypatch.setattr(montecarlo, "_workers", lambda paths, states: 1)
    blocks, draws = [], []
    noise, draw = montecarlo._noise, montecarlo._path_normals

    def spy_noise(seed, first, count, steps):
        blocks.append((first, count))
        return noise(seed, first, count, steps)

    def spy_draw(streams, out):
        draws.append(out.shape)
        return draw(streams, out)

    monkeypatch.setattr(montecarlo, "_noise", spy_noise)
    monkeypatch.setattr(montecarlo, "_path_normals", spy_draw)
    run = (lambda: compare_policies(
        brownian_problem(horizon=0.3), 0.5, [0.0, 1.0],
        SimConfig(n_paths=129, dt=1e-3, seed=3)))
    run()
    assert blocks == [(0, 64), (64, 64), (128, 1)]
    # each block's 300 steps in draws of at most _DRAW normals a path
    size = montecarlo._DRAW
    assert draws == [(count, steps) for _, count in blocks
                     for steps in (size, size, 300 - 2 * size)]
    assert all(steps <= size for _, steps in draws)
    assert montecarlo._shares(129, 1) == [[(0, 64), (64, 128), (128, 129)]]
    # with more workers, the shares tile the paths, and all processes
    # together hold at most _BLOCK paths of noise
    for workers in (2, 3, 5):
        shares = montecarlo._shares(129, workers)
        blocks = [block for share in shares for block in share]
        assert len(shares) == workers
        assert [b[0] for b in blocks] == [0] + [b[1] for b in blocks[:-1]]
        assert blocks[-1][1] == 129
        assert workers * max(stop - first for first, stop in blocks) <= 64
        sizes = [share[-1][1] - share[0][0] for share in shares]
        assert max(sizes) - min(sizes) <= 1
    # and this process draws the blocks of the first share
    blocks.clear()
    monkeypatch.setattr(montecarlo, "_workers", lambda paths, states: 2)
    run()
    assert blocks == [(first, stop - first)
                      for first, stop in montecarlo._shares(129, 2)[0]]


def test_worker_count_is_bounded_by_cores_and_share_size(monkeypatch):
    monkeypatch.setattr(_fork.os, "sched_getaffinity",
                        lambda pid: set(range(8)))
    least = montecarlo._MIN_SHARE
    assert montecarlo._workers(4000, 100 * least) == montecarlo._MAX_WORKERS
    monkeypatch.setattr(_fork.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2})
    assert montecarlo._workers(4000, 100 * least) == 3
    assert montecarlo._workers(4000, 2 * least) == 2
    assert montecarlo._workers(4000, 2 * least - 1) == 1
    assert montecarlo._workers(2, 100 * least) == 2
    monkeypatch.setattr(_fork.os, "sched_getaffinity", lambda pid: {0})
    assert montecarlo._workers(4000, 100 * least) == 1
    monkeypatch.delattr(_fork.os, "fork")
    monkeypatch.setattr(_fork.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2, 3})
    assert montecarlo._workers(4000, 100 * least) == 1


def test_another_thread_keeps_the_march_serial(monkeypatch):
    # a lock the other thread held at a fork would stay held in the worker
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(_fork.os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = SimConfig(n_paths=1000, dt=1e-3, seed=3)
    states = 2 * 1000 * 300
    assert montecarlo._workers(1000, states) == 2
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert montecarlo._workers(1000, states) == 1
        monkeypatch.setattr(_fork.os, "fork", fork)
        compare_policies(brownian_problem(horizon=0.3), 0.5, [1.0], cfg)
    finally:
        release.set()
        other.join()


def test_one_usable_core_forks_no_worker(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(_fork.os, "fork", fork)
    monkeypatch.setattr(_fork.os, "sched_getaffinity", lambda pid: {0})
    # on two cores this run would be split in two
    cfg = SimConfig(n_paths=1000, dt=1e-3, seed=3)
    assert 1000 * 300 * 2 >= 2 * montecarlo._MIN_SHARE
    compare_policies(brownian_problem(horizon=0.3), 0.5, [1.0], cfg)


def test_worker_count_does_not_change_results(monkeypatch):
    grid = Grid1D(5.0, 41)
    times = np.linspace(0.0, 0.1, 3)
    feedback = FeedbackPolicy(
        grid, times, 0.4 + 0.2 * np.abs(grid.x)[None, :] + times[:, None])
    # paths beyond |x| = 0.6 blow up: 4 of 600 are excluded
    blowup = dataclasses.replace(
        brownian_problem(horizon=0.1),
        f=lambda x: np.where(np.abs(x) > 0.6, np.inf, 0.0))
    runs = [(desk_problem(horizon=0.1), 129), (desk_problem(horizon=0.1), 600),
            (blowup, 600)]

    def all_rows(problem, paths):
        cfg = SimConfig(n_paths=paths, dt=5e-3, seed=13)
        return [simulate_cost(problem, feedback, cfg, keep_samples=True),
                *compare_policies(problem, feedback, [0.0, 0.5], cfg,
                                  keep_samples=True).rows()]

    monkeypatch.setattr(montecarlo, "_workers", lambda paths, states: 1)
    serial = [all_rows(*run) for run in runs]
    assert serial[2][0].n_excluded == 4
    for workers in (2, 3):
        monkeypatch.setattr(montecarlo, "_workers",
                            lambda paths, states: workers)
        for base, run in zip(serial, runs, strict=True):
            for a, b in zip(base, all_rows(*run), strict=True):
                np.testing.assert_array_equal(a.samples, b.samples)
                assert (a.mean, a.stderr, a.n_excluded) == \
                    (b.mean, b.stderr, b.n_excluded)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("share", ["own", "worker"])
def test_error_in_a_share_is_the_serial_error(monkeypatch, share, workers):
    problem = brownian_problem(horizon=0.02)
    # each share's columns, 3 rows x 3000 paths x 9 bytes, are more than a
    # pipe's 64 KiB buffer
    cfg = SimConfig(n_paths=9000, dt=1e-2, seed=41)

    def compare(policy):
        return compare_policies(problem, policy, [0.0, 1.0], cfg)

    def half(t, x):
        return np.full_like(x, 0.5)

    monkeypatch.setattr(montecarlo, "_workers", lambda paths, states: 1)
    states = conftest.first_step_states(compare, half)
    shares = montecarlo._shares(cfg.n_paths, workers)
    path = shares[0 if share == "own" else -1][-1][1] - 1
    trapped = conftest.trap(half, states, path)
    with pytest.raises(ArithmeticError) as serial:
        compare(trapped)

    monkeypatch.setattr(montecarlo, "_workers", lambda paths, states: workers)
    with deadline(60), pytest.raises(ArithmeticError) as split:
        compare(trapped)
    assert str(split.value) == str(serial.value) == f"path {path} reached " \
        f"{states[path]!r}"
    # every worker is reaped, after a failure as after a success
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    compare(0.5)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_error_in_this_process_kills_the_workers(monkeypatch):
    caller = os.getpid()

    def stalled(t, x):
        if os.getpid() == caller:
            raise ArithmeticError("this process's share")
        time.sleep(60)  # a worker that is not killed outlives the deadline
        os._exit(0)

    monkeypatch.setattr(montecarlo, "_workers", lambda paths, states: 3)
    with deadline(30), pytest.raises(ArithmeticError, match="process's"):
        compare_policies(brownian_problem(horizon=0.02), stalled, [0.0],
                         SimConfig(n_paths=90, dt=1e-2, seed=41))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_share_of_a_dead_worker_is_marched_here(monkeypatch):
    caller = os.getpid()

    def dying(t, x):
        if os.getpid() != caller:
            os._exit(3)
        return np.full_like(x, 0.5)

    problem = brownian_problem(horizon=0.05)
    cfg = SimConfig(n_paths=90, dt=1e-2, seed=41)
    monkeypatch.setattr(montecarlo, "_workers", lambda paths, states: 3)
    split = simulate_cost(problem, dying, cfg, keep_samples=True)
    monkeypatch.setattr(montecarlo, "_workers", lambda paths, states: 1)
    serial = simulate_cost(problem, 0.5, cfg, keep_samples=True)
    np.testing.assert_array_equal(split.samples, serial.samples)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_zero_control_row_skips_sigma_with_the_same_bits():
    # sqrt(0) * sigma(x) adds +0.0 to a zero row; skipping sigma and the
    # kick keeps its bits wherever sigma is finite
    problem = desk_problem(horizon=0.1)
    cfg = SimConfig(n_paths=50, dt=5e-3, seed=3, x0=0.3)
    zero = compare_policies(problem, 0.5, [0.0, 1.0], cfg,
                            keep_samples=True).baselines[0].samples
    steps = 20
    dt = 0.1 / steps
    z = np.array([fresh_stream(cfg.seed, i).standard_normal(steps)
                  for i in range(cfg.n_paths)])
    x = np.full(cfg.n_paths, 0.3)
    run = np.zeros(cfg.n_paths)
    cost = problem.cost.evaluate(np.zeros(cfg.n_paths))
    for k in range(steps):
        paid = problem.g(x) + cost
        paid *= dt
        run += paid
        kick = 0.0 * problem.sigma(x)
        kick *= math.sqrt(dt)
        kick *= z[:, k]
        x = x + problem.f(x) * dt
        x += kick
    run += problem.g0(x)
    np.testing.assert_array_equal(zero, run)
    # where sigma is not finite, the zero row no longer turns NaN
    nowhere = dataclasses.replace(problem, sigma=lambda x: np.nan * x)
    alone = simulate_cost(nowhere, 0.0, cfg, keep_samples=True)
    assert alone.n_excluded == 0
    np.testing.assert_array_equal(alone.samples, zero)


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


@pytest.mark.parametrize("run", [
    lambda problem, cfg: simulate_cost(problem, -0.5, cfg),
    lambda problem, cfg: compare_policies(problem, 0.5, [-1.0, 0.5], cfg),
], ids=["simulate", "compare"])
def test_negative_constant_control_is_rejected(run):
    # clamped, it would run as u = 0 under the label of the negative level
    cfg = SimConfig(n_paths=50, dt=1e-3, seed=5)
    with pytest.raises(ValueError, match="must be >= 0"):
        run(brownian_problem(horizon=0.2), cfg)


def test_comparison_needs_a_baseline():
    cfg = SimConfig(n_paths=50, dt=1e-3, seed=5)
    with pytest.raises(ValueError, match="at least one baseline"):
        compare_policies(brownian_problem(horizon=0.2), 0.5, [], cfg)


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


@pytest.mark.parametrize("dt", [math.inf, -math.inf, math.nan, True, 0.0,
                                "0.1", None])
def test_time_step_must_be_a_positive_finite_number(dt):
    # dt=inf and dt=True used to march one step of the whole horizon
    with pytest.raises(ValueError, match="dt"):
        SimConfig(n_paths=10, dt=dt, seed=0)


@pytest.mark.parametrize("n_paths", [100.5, 100.0, True, "100"])
def test_path_count_must_be_an_integer(n_paths):
    # a float count would fail only later, in the march
    with pytest.raises(ValueError, match="n_paths"):
        SimConfig(n_paths=n_paths, dt=1e-2, seed=0)


@pytest.mark.parametrize("seed", [2.5, 2.9, 2.0, True, np.float64(2.0)],
                         ids=["2.5", "2.9", "2.0", "True", "float64"])
def test_seed_must_be_an_integer(seed):
    # 2.5 and 2.9 would run seed 2's noise, and True seed 1's
    with pytest.raises(ValueError, match="seed"):
        SimConfig(n_paths=4, dt=1e-2, seed=seed)


def test_numpy_integers_are_a_path_count_and_a_seed():
    problem = brownian_problem(0.1)
    plain = simulate_cost(problem, 0.5, SimConfig(n_paths=8, dt=1e-2, seed=7),
                          keep_samples=True)
    numpy = simulate_cost(
        problem, 0.5,
        SimConfig(n_paths=np.int64(8), dt=1e-2, seed=np.uint64(7)),
        keep_samples=True)
    np.testing.assert_array_equal(plain.samples, numpy.samples)


def test_exact_reduction_matches_fsum():
    problem = brownian_problem(horizon=0.25)
    cfg = SimConfig(n_paths=500, dt=1e-3, seed=17)
    report = simulate_cost(problem, 0.7, cfg, keep_samples=True)
    mean = math.fsum(report.samples.tolist()) / report.samples.size
    assert report.mean == mean


def test_comparison_bits_are_pinned():
    # recorded before the direct-index lookup, the reused Philox generator
    # and the contiguous noise buffer; every one of them must keep the bits
    problem = dataclasses.replace(
        conftest.desk_problem(horizon=0.5),
        cost=RunningCost.from_callable(
            parse_expression("u^2 + 0.25*u", ("u",)), 1.0))
    grid = Grid1D(5.0, 41)
    times = np.linspace(0.0, 0.5, 6)
    u = (0.2 + 0.1 * np.abs(grid.x)[None, :] + times[:, None]
         + 0.05 * np.sin(3.0 * grid.x)[None, :])
    feedback = FeedbackPolicy(grid, times, u)
    rows = compare_policies(problem, feedback, [0.25, 1.0],
                            SimConfig(n_paths=300, dt=0.005, seed=19)).rows()
    assert [(r.label, r.mean.hex(), r.stderr.hex()) for r in rows] == [
        ("feedback", "0x1.441c43144ba61p+0", "0x1.3f97dc6155353p-6"),
        ("constant 0.25", "0x1.401c6d12d4385p+0", "0x1.0e312e0452500p-6"),
        ("constant 1", "0x1.77e342219c4d0p+0", "0x1.9470f2ddecec4p-6"),
    ]


def test_path_normals_match_fresh_per_path_generators(monkeypatch):
    # draws of 3 are shorter than a chunk, 300 steps cross draws of _DRAW,
    # and the largest seed fills the key's first word
    for seed, draw, steps in ((5, montecarlo._DRAW, 7), (5, 3, 20),
                              (2**64 - 1, montecarlo._DRAW, 300)):
        monkeypatch.setattr(montecarlo, "_DRAW", draw)
        noise = montecarlo._noise(seed, 3, 4, steps)
        z = np.array([row.copy() for row in noise]).T
        assert z.shape == (4, steps)
        for i in range(4):
            np.testing.assert_array_equal(
                z[i], fresh_stream(seed, 3 + i).standard_normal(steps))


def test_path_generators_gather_no_os_entropy(monkeypatch):
    # Philox(key=...) fills a SeedSequence() from OS entropy, then drops it
    from numpy.random import bit_generator

    drawn = []
    monkeypatch.setattr(bit_generator, "randbits",
                        lambda bits: drawn.append(bits) or 0)
    next(montecarlo._noise(5, 3, 4, 7))
    assert drawn == []
    fresh_stream(5, 3)
    assert drawn == [128]


def test_key_seeds_nothing_but_a_philox_key():
    with pytest.raises(ValueError, match="2 uint64 words"):
        montecarlo._key_type()(5).generate_state(4, np.uint32)


def test_draw_size_does_not_change_results(monkeypatch):
    # 203 steps are a multiple of neither _CHUNK nor any draw size below
    monkeypatch.setattr(montecarlo, "_BLOCK", 64)
    grid = Grid1D(5.0, 41)
    times = np.linspace(0.0, 0.203, 4)
    feedback = FeedbackPolicy(
        grid, times, 0.4 + 0.2 * np.abs(grid.x)[None, :] + times[:, None])
    cfg = SimConfig(n_paths=150, dt=1e-3, seed=29, x0=0.2)

    def rows():
        return compare_policies(desk_problem(horizon=0.203), feedback,
                                [0.0, 0.5], cfg, keep_samples=True).rows()

    base = rows()
    for draw in (1, 3, 64, 203, 1000):
        monkeypatch.setattr(montecarlo, "_DRAW", draw)
        for a, b in zip(base, rows(), strict=True):
            np.testing.assert_array_equal(a.samples, b.samples)


def test_noise_memory_does_not_grow_with_the_step_count(monkeypatch):
    # drawing all 5,000 steps of 256 paths at once holds 10.24 MB of noise
    # (a traced peak of 11.2 MB); draws of _DRAW steps hold 256 * 128 * 8
    # bytes (a traced peak of 1.2 MB)
    monkeypatch.setattr(montecarlo, "_workers", lambda paths, states: 1)
    cfg = SimConfig(n_paths=256, dt=1e-4, seed=3)
    tracemalloc.start()
    try:
        compare_policies(brownian_problem(horizon=0.5), 0.5, [1.0], cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6
