"""Monte Carlo validation of a synthesized feedback controller.

Paths follow the explicit scheme

    X_{k+1} = X_k + f(X_k) dt + sqrt(u_k) sigma(X_k) sqrt(dt) xi_k,

with ``u_k = max(0, policy(t_k, X_k))`` and the running cost accumulated by
left-endpoint quadrature.  Each path owns a counter-based random stream
keyed by (seed, path index), so runs are reproducible bit for bit and two
policies simulated at the same seed see identical noise (common random
numbers).  Reductions over paths use exact summation, making the report
independent of the accumulation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .problem import ControlProblem
from .value import FeedbackPolicy

__all__ = [
    "ComparisonReport",
    "McReport",
    "SimConfig",
    "SimulationError",
    "compare_policies",
    "simulate_cost",
]

Policy = Union[FeedbackPolicy, float, Callable]


class SimulationError(RuntimeError):
    """Too many paths blew up for the estimate to be trustworthy."""


@dataclass(frozen=True)
class SimConfig:
    """Path count, time step, seed, and initial state (point or sampler)."""

    n_paths: int
    dt: float
    seed: int
    x0: Union[float, Callable] = 0.0
    block: int = 4096
    max_excluded_fraction: float = 0.01

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("need at least two paths for a standard error")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.block < 1:
            raise ValueError("block must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class McReport:
    label: str
    n_paths: int
    n_excluded: int
    mean: float
    stderr: float
    ci_low: float
    ci_high: float
    samples: Optional[np.ndarray] = None


def _as_policy(policy: Policy) -> Callable:
    if isinstance(policy, FeedbackPolicy):
        return policy
    if callable(policy):
        return policy
    level = float(policy)

    def constant(t, x):
        return np.full_like(np.asarray(x, dtype=float), level)

    return constant


def _path_normals(seed: int, first: int, count: int, steps: int) -> np.ndarray:
    """(count, steps) standard normals from per-path counter streams."""
    out = np.empty((count, steps))
    for i in range(count):
        key = np.array([seed, first + i], dtype=np.uint64)
        out[i] = np.random.Generator(np.random.Philox(key=key)) \
            .standard_normal(steps)
    return out


def _initial_states(cfg: SimConfig) -> np.ndarray:
    if callable(cfg.x0):
        key = np.array([cfg.seed, np.uint64(2**64 - 1)], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        return np.asarray(cfg.x0(rng, cfg.n_paths), dtype=float)
    return np.full(cfg.n_paths, float(cfg.x0))


def _fsum_mean_var(samples: np.ndarray) -> tuple[float, float]:
    n = samples.size
    mean = math.fsum(samples.tolist()) / n
    var = math.fsum(((samples - mean) ** 2).tolist()) / (n - 1)
    return mean, var


def simulate_cost(problem: ControlProblem, policy: Policy, cfg: SimConfig,
                  label: str = "policy", keep_samples: bool = False,
                  noise: Optional[np.ndarray] = None) -> McReport:
    """Estimate the expected cost of one policy.

    ``noise`` can inject a precomputed (n_paths, steps) normal array (used by
    ``compare_policies`` to share one draw across policies); by default the
    per-path streams are generated from the seed.  Paths that leave the
    finite range are excluded and counted; more than the configured fraction
    of exclusions raises ``SimulationError``.
    """
    act = _as_policy(policy)
    T = problem.horizon
    steps = max(1, int(round(T / cfg.dt)))
    dt = T / steps
    sqrt_dt = math.sqrt(dt)
    drift = problem.f if problem.f is not None else (lambda x: 0.0 * x)

    x_all = _initial_states(cfg)
    costs = np.empty(cfg.n_paths)
    alive_all = np.empty(cfg.n_paths, dtype=bool)

    for start in range(0, cfg.n_paths, cfg.block):
        stop = min(start + cfg.block, cfg.n_paths)
        z = (noise[start:stop] if noise is not None
             else _path_normals(cfg.seed, start, stop - start, steps))
        x = x_all[start:stop].copy()
        run = np.zeros(stop - start)
        with np.errstate(all="ignore"):
            for k in range(steps):
                t = k * dt
                u = np.maximum(np.asarray(act(t, x), dtype=float), 0.0)
                run += (np.asarray(problem.g(x), dtype=float)
                        + problem.cost.evaluate(u)) * dt
                x = (x + np.asarray(drift(x), dtype=float) * dt
                     + np.sqrt(u) * np.asarray(problem.sigma(x), dtype=float)
                     * sqrt_dt * z[:, k])
            run += np.asarray(problem.g0(x), dtype=float)
        costs[start:stop] = run
        alive_all[start:stop] = np.isfinite(x) & np.isfinite(run)

    excluded = int(np.sum(~alive_all))
    if excluded > cfg.max_excluded_fraction * cfg.n_paths:
        raise SimulationError(
            f"{excluded}/{cfg.n_paths} paths excluded (non-finite state)")
    good = costs[alive_all]
    mean, var = _fsum_mean_var(good)
    stderr = math.sqrt(var / good.size)
    return McReport(
        label=label, n_paths=int(good.size), n_excluded=excluded,
        mean=mean, stderr=stderr,
        ci_low=mean - 1.96 * stderr, ci_high=mean + 1.96 * stderr,
        samples=good.copy() if keep_samples else None)


@dataclass
class ComparisonReport:
    """Side-by-side costs under common random numbers."""

    feedback: McReport
    baselines: list[McReport]
    feedback_beats_baselines: bool
    intervals_separated: bool

    @property
    def best_baseline(self) -> McReport:
        return min(self.baselines, key=lambda r: r.mean)

    def rows(self) -> list[McReport]:
        return [self.feedback, *self.baselines]


def compare_policies(problem: ControlProblem, feedback: Policy,
                     baselines: Sequence[float], cfg: SimConfig,
                     keep_samples: bool = False) -> ComparisonReport:
    """Evaluate the feedback against constant controls on shared noise."""
    if not baselines:
        raise ValueError("need at least one baseline control level")
    steps = max(1, int(round(problem.horizon / cfg.dt)))
    noise = _path_normals(cfg.seed, 0, cfg.n_paths, steps)
    fb = simulate_cost(problem, feedback, cfg, label="feedback",
                       keep_samples=keep_samples, noise=noise)
    rows = [simulate_cost(problem, float(c), cfg, label=f"constant {c:g}",
                          keep_samples=keep_samples, noise=noise)
            for c in baselines]
    best = min(rows, key=lambda r: r.mean)
    return ComparisonReport(
        feedback=fb, baselines=rows,
        feedback_beats_baselines=fb.mean <= best.mean,
        intervals_separated=fb.ci_high < best.ci_low)
