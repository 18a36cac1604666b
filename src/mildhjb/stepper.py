"""Implicit time stepping of the transformed Cauchy problem.

Each step is one resolvent solve with shift ``1/eps``:

    (y_next - y_prev)/eps + A(y_next) + B(y_next) = source,

and the piecewise-constant interpolant of the snapshots is the approximate mild
solution.  ``refine_until`` halves ``eps`` and measures the sup-in-time L1 gap
between successive refinements, the computable Cauchy certificate for the
limit; a forked worker (``_fork``) marches its finest level speculatively,
killed if the sweep converges before it, and its CPU time and memory show only
in ``RUSAGE_CHILDREN``.  ``march`` is the one march loop: it yields each step's
result and keeps none, so a caller holds only the states it reads;
``mild_solve`` writes every step to a file, the caller's or an unlinked one
in ``tempfile``'s directory, that the one run type, ``MildSolution``, reads
a slice at a time.  A ``TransformedProblem`` holds the data (initial state,
source, horizon) on any operand of ``solve_resolvent`` (``EllipticOperands``,
``twodim.Problem2D``), which holds no data, and forms each step's right-hand
side, ``rhs``, for ``step`` and ``degenerate``'s barrier; a ``MildSolution``
holds its problem and derives its shortened last step from it.
``step_lengths`` is the one check of a schedule, ``step_times`` gives its
times.  ``energy_report`` (1-D only) computes, per snapshot, the potential
integral ``h * sum j(m*y)/sigma^2`` and the flux dissipation
``h * sum ((value(m*y))_x)^2``.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import tempfile
import weakref
from dataclasses import dataclass
from operator import eq
from typing import Optional

import numpy as np

from . import _fork
from .grid import check_table, diff1_central, is_count
from .resolvent import (EllipticOperands, ResolventConfig, ResolventResult,
                        shift_floor, solve_resolvent)

__all__ = [
    "EnergyReport",
    "MildSolution",
    "RefineResult",
    "StepDiagnostics",
    "TransformedProblem",
    "energy_report",
    "march",
    "mild_solve",
    "refine_until",
    "step",
    "step_lengths",
    "step_times",
]


@dataclass(frozen=True)
class TransformedProblem:
    """Initial state, forcing, and horizon on any resolvent operand."""

    operands: EllipticOperands
    initial: np.ndarray
    source: np.ndarray
    horizon: float

    def __post_init__(self):
        for name in ("initial", "source"):
            check_table(name, getattr(self, name), self.operands.shape)
        if not 0 < self.horizon < math.inf:
            raise ValueError(
                f"horizon must be positive and finite, got {self.horizon}")

    def rhs(self, y_prev: np.ndarray, dt) -> np.ndarray:
        """``source + y_prev/dt``; dt is a column for a stack of states."""
        return self.source + y_prev / dt


@dataclass(frozen=True, slots=True)
class StepDiagnostics:
    residual: float
    iterations: int
    fallback: str
    out_of_table: bool


class MildSolution:
    """Every snapshot of one implicit run plus per-step diagnostics, in the
    file ``mild_solve`` wrote: snapshots, then the pickled diagnostics.

    ``snapshots[i]`` is the state at ``times[i] = min(i*eps, horizon)``; the
    times cover every step taken, including a shortened final step when the
    horizon is not a multiple of ``eps``.  Rows are read by ``os.preadv`` (a
    memory map's pages would stay resident) through the run's own
    descriptor, closed with it.
    """

    def __init__(self, eps: float, problem: TransformedProblem, file):
        self.eps, self.problem = eps, problem
        self.times = step_times(problem.horizon, eps)
        self._row = 8 * math.prod(problem.operands.shape)  # bytes a snapshot
        self._fd = os.dup(file.fileno())
        weakref.finalize(self, os.close, self._fd)

    @property
    def partial_step(self) -> float:
        """Length of the shortened final step, 0.0 when there is none."""
        last = step_lengths(self.problem.horizon, self.eps)[-1:]
        return last[0] if last and last[0] != self.eps else 0.0

    operands = property(lambda self: self.problem.operands)
    grid = property(lambda self: self.operands.grid)
    final = property(lambda self: self.read([len(self.times) - 1])[0])

    def read(self, rows: np.ndarray) -> np.ndarray:
        """The snapshots of ascending ``rows``, from one read of the rows
        they span, gathered only where ``rows`` skips or repeats one (seen
        in Python: a numpy kernel's first use raises a run's peak RSS)."""
        out = self._span(rows[0], rows[-1] + 1)
        gather = len(out) != len(rows) or any(map(eq, rows, rows[1:]))
        return out[rows - rows[0]] if gather else out

    def _span(self, start, stop) -> np.ndarray:
        out = np.empty((stop - start, *self.operands.shape))
        if os.preadv(self._fd, [out], start * self._row) != out.nbytes:
            raise EOFError(f"snapshot {stop - 1} is not in the file")
        return out

    snapshots = property(lambda self: self._span(0, len(self.times)))
    diagnostics = property(lambda self: pickle.loads(os.pread(
        self._fd, os.fstat(self._fd).st_size, len(self.times) * self._row)))

    @property
    def masses(self) -> np.ndarray:
        """Discrete integral of every snapshot."""
        return np.array([self.grid.integral(y) for y in self.snapshots])


def step(problem: TransformedProblem, eps: float, prev,
         cfg: Optional[ResolventConfig] = None) -> ResolventResult:
    """One implicit step of length eps from ``prev``, the state ``y_prev``
    or the result whose ``y`` it is: a single resolvent solve with shift
    ``1/eps`` and right-hand side ``problem.rhs(y_prev, eps)``, started from
    ``prev`` (a result lends its stored operator terms)."""
    if not 0 < eps < math.inf:
        raise ValueError(f"step size must be positive and finite, got {eps}")
    floor = shift_floor(problem.operands)
    if not 1.0 / eps > floor:
        raise ValueError(
            f"step size {eps:g} too large for the drift slope bound; "
            f"need eps < {1.0 / floor:g}")
    y_prev = prev.y if isinstance(prev, ResolventResult) else prev
    return solve_resolvent(problem.operands, 1.0 / eps,
                           problem.rhs(y_prev, eps), cfg, prev)


def step_lengths(horizon: float, eps: float) -> list[float]:
    """Full steps of eps, then the remainder as one shortened step.

    A remainder of at most eps/100 is dropped; a horizon shorter than eps
    (but above eps/100) is one step of length horizon.  This is the one
    check of a schedule: ``0 < eps < inf`` and a positive finite horizon.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"step size must be positive and finite, got {eps}")
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    n_full = int(math.floor(horizon / eps + 1e-12))
    remainder = horizon - n_full * eps
    return [eps] * n_full + ([remainder] if remainder > eps / 100.0 else [])


def step_times(horizon: float, eps: float) -> np.ndarray:
    """The start time 0 and the end time of every step of ``step_lengths``,
    ``min(i*eps, horizon)``: exact multiples of eps, so runs at eps and
    eps/2 meet at the same times."""
    steps = len(step_lengths(horizon, eps))
    return np.minimum(eps * np.arange(steps + 1), horizon)


def march(problem: TransformedProblem, eps: float,
          cfg: Optional[ResolventConfig] = None):
    """Yield the ``ResolventResult`` of every step of ``step_lengths``, in
    order, each started from the one before; the state after step ``i`` is
    the ``i``-th result's ``y``.  Nothing is kept, so the march holds two
    states whatever its length."""
    prev = problem.initial
    for dt in step_lengths(problem.horizon, eps):
        prev = step(problem, dt, prev, cfg=cfg)
        yield prev


def mild_solve(problem: TransformedProblem, eps: float,
               cfg: Optional[ResolventConfig] = None,
               out=None) -> MildSolution:
    """Write every step of ``march`` as it comes to ``out`` (a binary file at
    its start), or to an unlinked temporary file, and return the run that
    reads it.

    A shortened final step shows in ``times`` (``step_times``) and in the
    derived ``partial_step``.  The snapshots take (steps + 1) * 8 bytes a node.
    """
    stored = contextlib.nullcontext(out) if out else tempfile.TemporaryFile()
    with stored as file:
        row = np.array(problem.initial, dtype=float)  # each state's bytes
        file.write(row)
        diags: list[StepDiagnostics] = []
        for res in march(problem, eps, cfg):
            row[...] = res.y
            file.write(row)
            diags.append(StepDiagnostics(res.residual, res.iterations,
                                         res.fallback, res.out_of_table))
        pickle.dump(diags, file, protocol=5)
        file.flush()
        return MildSolution(eps, problem, file)


@dataclass
class RefineResult:
    solution: MildSolution
    eps_levels: list[float]
    gaps: list[float]
    converged: bool


def sup_time_gap(coarse: MildSolution, fine: MildSolution) -> float:
    """sup over time of the L1 distance between two piecewise-constant runs
    on one grid.

    The runs are compared at every step time of either run (a time of both
    twice: merging would sort, and a run's first sort raises its peak RSS by
    0.7 MB), each through its snapshot covering that time, over slices of
    one run's times.  A run that takes no step is rejected (``ValueError``).
    """
    if coarse.grid != fine.grid:
        raise ValueError(f"runs on {coarse.grid} and {fine.grid}")
    if min(len(coarse.times), len(fine.times)) < 2:
        raise ValueError("a run that takes no step has no time gap")
    m = fine.grid.n**fine.grid.dim  # values a snapshot
    size, sums = max(1, 2**13 // m), []  # 64 KiB of differences a slice
    for times in (fine.times, coarse.times):  # the other run's span is short
        i, j = (np.searchsorted(run.times, times, side="right") - 1
                for run in (fine, coarse))
        sums += [np.abs(fine.read(i[k:k + size]) - coarse.read(j[k:k + size]))
                 .reshape(-1, m).sum(axis=1).max()
                 for k in range(0, len(times), size)]
    gap = np.max(sums)  # NaN propagates
    return float(fine.grid.h**fine.grid.dim * gap)  # norm1 of farthest pair


def refine_until(problem: TransformedProblem, tol: float, eps0: float,
                 cfg: Optional[ResolventConfig] = None,
                 max_levels: int = 8) -> RefineResult:
    """Halve eps until successive runs differ by at most tol in sup-time L1.

    Each level is a run stored in an unlinked file in ``tempfile``'s
    directory, so this process holds a few states and slices, not whole
    levels.  A forked worker marches the finest level (see the module
    docstring); ``join`` marches it here if the worker fails: the bits are
    serial."""
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if not is_count(max_levels, 1):
        raise ValueError(f"max_levels must be an integer >= 1: {max_levels!r}")
    step_lengths(problem.horizon, eps0)  # rejects a bad eps0 before the fork

    def march_finest(out):  # at the eps the halving reaches, bit for bit
        mild_solve(problem, eps0 * 0.5**max_levels, cfg, out)

    with _fork.forked(*[march_finest] if _fork.cores() > 1 else []) as workers:
        prev = mild_solve(problem, eps0, cfg)
        levels, gaps = [eps0], []
        for k in range(1, max_levels + 1):
            eps = levels[-1] * 0.5
            cur = (MildSolution(eps, problem, workers[0].join())
                   if workers and k == max_levels
                   else mild_solve(problem, eps, cfg))
            levels.append(eps)
            gaps.append(sup_time_gap(prev, cur))
            prev = cur
            if gaps[-1] <= tol:
                return RefineResult(prev, levels, gaps, True)
    return RefineResult(prev, levels, gaps, False)


@dataclass
class EnergyReport:
    potential: np.ndarray
    dissipation: np.ndarray
    potential_max: float
    dissipation_total: float
    implied_constant: float


def energy_report(sol: MildSolution) -> EnergyReport:
    """Energy series of every snapshot of a 1-D run, max potential,
    cumulative dissipation, and their combined bound.

    Raises if either series is non-finite; stability of these numbers under
    eps-refinement is the computable content of the energy estimate.
    """
    grid, m, conj = sol.grid, sol.operands.half_sigma_sq, sol.operands.conj
    if grid.dim != 1:
        raise ValueError("energy_report is 1-D only; use twodim.solve_L")
    args = m * sol.snapshots
    pots = grid.h * np.sum(conj.potential(args) / (2.0 * m), axis=1)
    diss = grid.h * np.sum(diff1_central(grid, conj.value(args)) ** 2, axis=1)
    if not (np.all(np.isfinite(pots)) and np.all(np.isfinite(diss))):
        raise ArithmeticError("energy series contain non-finite entries")
    steps = np.diff(sol.times)
    cum = np.concatenate(([0.0], np.cumsum(steps * diss[1:])))
    implied = float(np.max(2.0 * pots + cum))
    return EnergyReport(
        potential=pots,
        dissipation=diss,
        potential_max=float(np.max(pots)),
        dissipation_total=float(cum[-1]),
        implied_constant=implied)
