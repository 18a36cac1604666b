"""Monte Carlo validation of a synthesized feedback controller.

Paths follow the explicit scheme

    X_{k+1} = X_k + f(X_k) dt + sqrt(u_k) sigma(X_k) sqrt(dt) xi_k,

with ``u_k = max(0, policy(t_k, X_k))`` and the running cost accumulated by
left-endpoint quadrature.  Every path starts at the same point ``x0``.  Each
path owns a counter-based random stream keyed by (seed, path index), so runs
are reproducible bit for bit and two policies simulated at the same seed see
identical noise (common random numbers).  One march steps every compared
policy as one row of a (policies, paths) state on the same noise, in blocks
of ``_BLOCK`` paths; it holds one block of noise at a time
(``_BLOCK * steps * 8`` bytes).  A constant policy's control row is filled
once per block, and only the callable policies are called on each step.
Reductions over paths use exact summation, making the report independent of
the accumulation order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .problem import ControlProblem

__all__ = [
    "ComparisonReport",
    "McReport",
    "SimConfig",
    "SimulationError",
    "compare_policies",
    "simulate_cost",
]

# a float is a constant control; a FeedbackPolicy is a callable (t, x) -> u
Policy = Union[float, Callable]

# a run fails when more than this share of its paths turn non-finite
MAX_EXCLUDED_FRACTION = 0.01

# paths stepped, and noise held, at a time
_BLOCK = 4096

# a seed is one 64-bit word of the Philox key
SEED_RANGE = "0 <= seed <= 2**64 - 1"


def seed_in_range(seed: int) -> bool:
    return 0 <= seed <= 2**64 - 1


class SimulationError(RuntimeError):
    """Too many paths blew up for the estimate to be trustworthy."""


@dataclass(frozen=True)
class SimConfig:
    """Path count, time step, seed, and the start point of every path."""

    n_paths: int
    dt: float
    seed: int
    x0: float = 0.0

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("need at least two paths for a standard error")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not seed_in_range(self.seed):
            raise ValueError(f"seed out of range ({SEED_RANGE}): {self.seed}")
        if not (isinstance(self.x0, numbers.Real) and math.isfinite(self.x0)):
            raise ValueError(f"x0 must be a finite number, got {self.x0!r}")


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


def _path_normals(seed: int, first: int, count: int, steps: int) -> np.ndarray:
    """(count, steps) standard normals from per-path counter streams."""
    out = np.empty((count, steps))
    for i in range(count):
        key = np.array([seed, first + i], dtype=np.uint64)
        out[i] = np.random.Generator(np.random.Philox(key=key)) \
            .standard_normal(steps)
    return out


def _report(label: str, costs, alive, keep_samples: bool) -> McReport:
    excluded = int(np.sum(~alive))
    if excluded > MAX_EXCLUDED_FRACTION * costs.size:
        raise SimulationError(
            f"{excluded}/{costs.size} paths excluded (non-finite state)")
    good = costs[alive]
    n = good.size
    mean = math.fsum(good.tolist()) / n
    var = math.fsum(((good - mean) ** 2).tolist()) / (n - 1)
    stderr = math.sqrt(var / n)
    return McReport(
        label=label, n_paths=n, n_excluded=excluded,
        mean=mean, stderr=stderr,
        ci_low=mean - 1.96 * stderr, ci_high=mean + 1.96 * stderr,
        samples=good if keep_samples else None)


def _simulate(problem: ControlProblem, policies: Sequence[Policy],
              labels: Sequence[str], cfg: SimConfig,
              keep_samples: bool) -> list[McReport]:
    """One report per policy, each one row of a (policies, paths) state."""
    called = [(i, p) for i, p in enumerate(policies) if callable(p)]
    steps = max(1, int(round(problem.horizon / cfg.dt)))
    dt = problem.horizon / steps
    sqrt_dt = math.sqrt(dt)
    drift = problem.f if problem.f is not None else (lambda x: 0.0 * x)
    costs = np.empty((len(policies), cfg.n_paths))
    alive = np.empty(costs.shape, dtype=bool)

    for start in range(0, cfg.n_paths, _BLOCK):
        stop = min(start + _BLOCK, cfg.n_paths)
        z = _path_normals(cfg.seed, start, stop - start, steps)
        x = np.full((len(policies), stop - start), float(cfg.x0))
        u = np.empty(x.shape)
        for i, p in enumerate(policies):
            if not callable(p):
                u[i] = np.maximum(float(p), 0.0)
        run = np.zeros(x.shape)
        with np.errstate(all="ignore"):
            for k in range(steps):
                t = k * dt
                for i, act in called:
                    u[i] = np.maximum(act(t, x[i]), 0.0)
                run += (np.asarray(problem.g(x), dtype=float)
                        + problem.cost.evaluate(u)) * dt
                x = (x + np.asarray(drift(x), dtype=float) * dt
                     + np.sqrt(u) * np.asarray(problem.sigma(x), dtype=float)
                     * sqrt_dt * z[:, k])
            run += np.asarray(problem.g0(x), dtype=float)
        costs[:, start:stop] = run
        alive[:, start:stop] = np.isfinite(x) & np.isfinite(run)
        del z  # release this block's noise before drawing the next
    return [_report(*row, keep_samples) for row in zip(labels, costs, alive)]


def simulate_cost(problem: ControlProblem, policy: Policy, cfg: SimConfig,
                  label: str = "policy",
                  keep_samples: bool = False) -> McReport:
    """Estimate the expected cost of one policy.

    Paths that turn non-finite are excluded and counted; more than
    ``MAX_EXCLUDED_FRACTION`` of them raises ``SimulationError``.
    """
    return _simulate(problem, [policy], [label], cfg, keep_samples)[0]


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
    fb, *rows = _simulate(
        problem, [feedback, *baselines],
        ["feedback", *(f"constant {c:g}" for c in baselines)],
        cfg, keep_samples)
    best = min(rows, key=lambda r: r.mean)
    return ComparisonReport(
        feedback=fb, baselines=rows,
        feedback_beats_baselines=fb.mean <= best.mean,
        intervals_separated=fb.ci_high < best.ci_low)
