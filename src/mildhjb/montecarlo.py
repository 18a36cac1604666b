"""Monte Carlo validation of a synthesized feedback controller.

Paths follow the explicit scheme

    X_{k+1} = X_k + f(X_k) dt + sqrt(u_k) sigma(X_k) sqrt(dt) xi_k,

with ``u_k = max(0, policy(t_k, X_k))`` and the running cost accumulated by
left-endpoint quadrature.  Every path starts at the same point ``x0``.  Each
path owns a counter-based random stream keyed by (seed, path index), so runs
are reproducible bit for bit and two policies simulated at the same seed see
identical noise (common random numbers).  One march steps every compared
policy as one row of a (policies, paths) state on the same noise, in blocks
of paths.  Each path's generator draws ``_DRAW`` steps at a time (in
sequence, so the pieces are its one stream) into a ``(paths, _DRAW)``
buffer, copied ``_CHUNK`` steps at a time into a contiguous
``(_CHUNK, paths)`` buffer that the steps read row by row.  A constant
policy's rows of the control, its square root and its running cost are
filled once per block, and only the callable policies are called on each
step.  A constant 0 row has ``sqrt(u) = 0``: sigma and the kick skip it.

The paths are split into contiguous shares, one per core the fork gate
gives (``_fork.cores``) and at most ``_MAX_WORKERS``, when each share
marches at least ``_MIN_SHARE`` states.  Costs and survival flags live in
one shared anonymous mapping, serial runs included.  This process marches
the first share and a forked worker each other one, writing its columns in
place.  The split does not change a bit: a path's noise depends only on
(seed, path index), its arithmetic is elementwise, and each share's columns
land at their paths' places, so the report reduces the same arrays
(exactly, by ``math.fsum``) however the paths were split.  A block holds
at most ``_BLOCK // workers`` paths, so all processes together hold at
most ``_BLOCK * _DRAW * 8`` bytes of drawn noise, as one serial march does.
That bound leaves out the generators: each path's holds about 0.6 KB
resident (1.2 MB for a 2,000-path block, 2.4 MB for 4,096 paths).
"""

from __future__ import annotations

import functools
import math
import mmap
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import _fork
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

# paths stepped, and noise held, at a time across all processes; their
# generators add about 0.6 KB a path (2.4 MB) beside the noise
_BLOCK = 4096

# the fewest (policy, path, step) states a share must march to be given a
# forked worker: about 10 ms of march at 40 ns a state, four times the
# 2.4 ms of a fork plus its reap at 40 MB resident (2-core x86-64 host)
_MIN_SHARE = 2**18

# the most processes one march is split across: each worker adds about 8 MB
# of private pages (7.5-8.9 MB at the end of a simulate benchmark march)
_MAX_WORKERS = 4

# steps of noise copied at a time into a contiguous (steps, paths) buffer
_CHUNK = 8

# steps of noise drawn at a time, a multiple of _CHUNK so copies fill a chunk:
# all processes hold _BLOCK * _DRAW * 8 bytes (4 MiB), whatever the step count
_DRAW = 128

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
        for name in ("n_paths", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.n_paths < 2:
            raise ValueError("need at least two paths for a standard error")
        if isinstance(self.dt, bool) or not (
                isinstance(self.dt, numbers.Real) and 0 < self.dt < math.inf):
            raise ValueError(f"dt must be finite and > 0, got {self.dt!r}")
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


def _path_normals(streams: list, out: np.ndarray) -> None:
    """Fill row ``i`` of ``out`` with the next normals of ``streams[i]``;
    the benchmark's tracer times these draws as ``montecarlo.noise_s``."""
    for row, stream in zip(out, streams):
        stream.standard_normal(out=row)


@functools.cache
def _key_type():
    """A seed sequence that hands ``Philox`` the key ``[seed, path]``
    itself, counter 0: the stream of ``Philox(key=...)`` without the
    ``SeedSequence()`` it fills from OS entropy and drops (4.4 against 10.6
    us a path).  Each generator keeps it, so one serves a block.  Defined
    on first use, as importing ``numpy.random`` maps about 6 MB."""
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        def __init__(self, seed: int):
            self.seed, self.path = seed, 0

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError(
                    f"a Philox key is 2 uint64 words, not {n_words}")
            return np.array([self.seed, self.path], dtype=np.uint64)

    return Key


def _noise(seed: int, first: int, count: int, steps: int):
    """Yield ``steps`` rows, each valid until the next is taken: column ``i``
    is path ``first + i``'s next normal, from its own ``Generator``."""
    key, streams = _key_type()(seed), []
    for path in range(first, first + count):
        key.path = path
        streams.append(np.random.Generator(np.random.Philox(key)))
    drawn = np.empty((count, min(_DRAW, steps)))
    noise = np.empty((_CHUNK, count))
    for start in range(0, steps, _DRAW):
        part = drawn[:, :steps - start]
        _path_normals(streams, part)
        for k in range(0, part.shape[1], _CHUNK):
            ahead = part[:, k:k + _CHUNK]
            noise[:ahead.shape[1]] = ahead.T
            yield from noise[:ahead.shape[1]]


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


def _workers(paths: int, states: int) -> int:
    """Processes that march ``paths`` paths of ``states`` (policy, path,
    step) states: ``_fork.cores()``, at most ``_MAX_WORKERS``, while each
    share keeps at least ``_MIN_SHARE`` states."""
    return max(1, min(_fork.cores(), _MAX_WORKERS, paths,
                      states // _MIN_SHARE))


def _shares(paths: int, workers: int) -> list[list[tuple[int, int]]]:
    """The blocks ``(start, stop)`` of each process's share of the paths.

    The shares are contiguous and differ by at most one path.  A block
    holds at most ``_BLOCK // workers`` paths, so all processes together
    hold at most ``_BLOCK`` paths of noise; one worker gets the blocks of
    ``_BLOCK`` paths a serial run draws.
    """
    size = max(1, _BLOCK // workers)
    edges = [paths * w // workers for w in range(workers + 1)]
    return [[(start, min(start + size, stop))
             for start in range(first, stop, size)]
            for first, stop in zip(edges, edges[1:])]


def _march(problem: ControlProblem, policies: Sequence[Policy],
           cfg: SimConfig, steps: int, blocks: list[tuple[int, int]],
           costs: np.ndarray, alive: np.ndarray) -> None:
    """March the share ``blocks`` into its columns of ``costs`` and
    ``alive``; each policy is one row of a (policies, paths) state."""
    # sqrt(u) is 0 on a constant 0 row: its rows go last, and sigma and the
    # kick skip them
    still = [not callable(p) and p == 0 for p in policies]
    order = sorted(range(len(policies)), key=still.__getitem__)
    policies = [policies[i] for i in order]
    moved = still.count(False)
    called = [(i, p) for i, p in enumerate(policies) if callable(p)]
    dt = problem.horizon / steps
    sqrt_dt = math.sqrt(dt)
    drift = problem.f if problem.f is not None else (lambda x: 0.0 * x)

    for start, stop in blocks:
        noise = _noise(cfg.seed, start, stop - start, steps)
        x = np.full((len(policies), stop - start), float(cfg.x0))
        u = np.zeros(x.shape)
        for i, p in enumerate(policies):
            if not callable(p):
                u[i] = p
        # the constant rows of sqrt(u) and h(u) hold for the whole block
        root = np.sqrt(u)
        cost = np.array(problem.cost.evaluate(u), dtype=float)
        run = np.zeros(x.shape)
        with np.errstate(all="ignore"):
            for k, xi in enumerate(noise):
                t = k * dt
                for i, act in called:
                    np.maximum(act(t, x[i]), 0.0, out=u[i])
                    np.sqrt(u[i], out=root[i])
                    cost[i] = problem.cost.evaluate(u[i])
                paid = np.asarray(problem.g(x), dtype=float) + cost
                paid *= dt
                run += paid
                if moved:
                    kick = root[:moved] * np.asarray(
                        problem.sigma(x[:moved]), dtype=float)
                    kick *= sqrt_dt
                    kick *= xi
                x = x + np.asarray(drift(x), dtype=float) * dt
                if moved:
                    x[:moved] += kick
            run += np.asarray(problem.g0(x), dtype=float)
        costs[order, start:stop] = run
        alive[order, start:stop] = np.isfinite(x) & np.isfinite(run)


def _simulate(problem: ControlProblem, policies: Sequence[Policy],
              labels: Sequence[str], cfg: SimConfig,
              keep_samples: bool) -> list[McReport]:
    """One report per policy, on paths marched in shares across processes.

    The workers are joined in path order, so a share whose worker failed is
    marched again here (``_fork``) and its error is the serial one."""
    for p in policies:
        if not (callable(p) or p >= 0):
            raise ValueError(f"a constant control must be >= 0, got {p}")
    steps = max(1, int(round(problem.horizon / cfg.dt)))
    size = len(policies) * cfg.n_paths
    shared = mmap.mmap(-1, 9 * size)
    costs = np.frombuffer(shared, float, size).reshape(len(policies), -1)
    alive = np.frombuffer(shared, bool, size, 8 * size).reshape(costs.shape)
    march = functools.partial(_march, problem, policies, cfg, steps,
                              costs=costs, alive=alive)
    shares = _shares(cfg.n_paths, _workers(cfg.n_paths, size * steps))
    with _fork.forked(*(lambda out, blocks=blocks: march(blocks)
                        for blocks in shares[1:])) as workers:
        march(shares[0])
        for worker in workers:
            worker.join()
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
