"""Implicit time stepping of the transformed Cauchy problem.

Each step is one resolvent solve with shift ``1/eps``:

    (y_next - y_prev)/eps + A(y_next) + B(y_next) = source,

and the piecewise-constant interpolant of the snapshots is the approximate
mild solution.  ``refine_until`` halves ``eps`` and measures the sup-in-time
L1 gap between successive refinements, the computable Cauchy certificate for
the limit; a forked worker (``_fork``) marches its finest level
speculatively, killed if the sweep converges before it, and its CPU time and
memory show only in ``RUSAGE_CHILDREN``.  ``march`` is the one march loop:
it yields each step's result and keeps none, so a caller holds only the
states it reads; ``mild_solve`` stores every step.  A
``TransformedProblem`` holds the data (initial state, source, horizon) on
any operand of ``solve_resolvent`` (``EllipticOperands``,
``twodim.Problem2D``), which holds no data; a ``MildSolution`` holds its
problem and derives its shortened last step from it.  ``step_lengths`` is
the one check of a schedule, and ``step_times`` gives its step times.
``energy_report`` (1-D only) computes, per snapshot, the potential integral
``h * sum j(m*y)/sigma^2`` and the flux dissipation
``h * sum ((value(m*y))_x)^2``.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _fork
from .grid import Grid1D, check_table, diff1_central, is_count
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


@dataclass(frozen=True, slots=True)
class StepDiagnostics:
    residual: float
    iterations: int
    fallback: str
    out_of_table: bool


@dataclass
class MildSolution:
    """Every snapshot of one implicit run plus per-step diagnostics.

    ``snapshots[i]`` is the state at ``times[i] = min(i*eps, horizon)``; the
    times cover every step taken, including a shortened final step when the
    horizon is not a multiple of ``eps``.
    """

    eps: float
    problem: TransformedProblem
    times: np.ndarray
    snapshots: np.ndarray
    diagnostics: list[StepDiagnostics]

    @property
    def partial_step(self) -> float:
        """Length of the shortened final step, 0.0 when there is none."""
        last = step_lengths(self.problem.horizon, self.eps)[-1:]
        return last[0] if last and last[0] != self.eps else 0.0

    @property
    def operands(self) -> EllipticOperands:
        return self.problem.operands

    @property
    def grid(self) -> Grid1D:
        return self.operands.grid

    @property
    def final(self) -> np.ndarray:
        return self.snapshots[-1]

    @property
    def masses(self) -> np.ndarray:
        """Discrete integral of every snapshot."""
        return np.array([self.grid.integral(y) for y in self.snapshots])


def step(problem: TransformedProblem, eps: float, prev,
         cfg: Optional[ResolventConfig] = None) -> ResolventResult:
    """One implicit step of length eps from ``prev``, the state ``y_prev``
    or the result whose ``y`` it is: a single resolvent solve with shift
    ``1/eps`` and right-hand side ``source + y_prev/eps``, started from
    ``prev`` (a result lends its stored operator terms)."""
    if not 0 < eps < math.inf:
        raise ValueError(f"step size must be positive and finite, got {eps}")
    floor = shift_floor(problem.operands)
    if not 1.0 / eps > floor:
        raise ValueError(
            f"step size {eps:g} too large for the drift slope bound; "
            f"need eps < {1.0 / floor:g}")
    y_prev = prev.y if isinstance(prev, ResolventResult) else prev
    eta = problem.source + y_prev / eps
    return solve_resolvent(problem.operands, 1.0 / eps, eta, cfg, prev)


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
               cfg: Optional[ResolventConfig] = None) -> MildSolution:
    """Store every step of ``march``.

    A shortened final step shows in ``times`` (``step_times``) and in the
    derived ``partial_step``.  The snapshots take ``(steps + 1) * 8`` bytes
    per node.
    """
    times = step_times(problem.horizon, eps)
    ys = np.empty((len(times), *problem.operands.shape))
    ys[0] = problem.initial
    diags: list[StepDiagnostics] = []
    for i, res in enumerate(march(problem, eps, cfg), start=1):
        ys[i] = res.y
        diags.append(StepDiagnostics(res.residual, res.iterations,
                                     res.fallback, res.out_of_table))
    return MildSolution(eps=eps, problem=problem, times=times,
                        snapshots=ys, diagnostics=diags)


@dataclass
class RefineResult:
    solution: MildSolution
    eps_levels: list[float]
    gaps: list[float]
    converged: bool


def sup_time_gap(coarse: MildSolution, fine: MildSolution) -> float:
    """sup over time of the L1 distance between two piecewise-constant runs
    on one grid.

    The runs are compared at every step time of either run, each through its
    snapshot covering that time, as row sums over slices of pairs; a time of
    both runs is compared twice, as merging the times would sort them, and a
    run's first sort raises its peak RSS by 0.7 MB.  A run that takes no
    step is rejected with ``ValueError``.
    """
    if coarse.grid != fine.grid:
        raise ValueError(f"runs on {coarse.grid} and {fine.grid}")
    if min(len(coarse.times), len(fine.times)) < 2:
        raise ValueError("a run that takes no step has no time gap")
    times = np.concatenate((fine.times, coarse.times))
    i, j = (np.searchsorted(run.times, times, side="right") - 1
            for run in (fine, coarse))
    ys, zs = (r.snapshots.reshape(len(r.times), -1) for r in (fine, coarse))
    size = max(1, 2**13 // ys.shape[1])  # 64 KiB of differences a slice
    gap = np.max([np.abs(ys[i[k:k + size]] - zs[j[k:k + size]]).sum(axis=1)
                  .max() for k in range(0, len(i), size)])  # NaN propagates
    return float(fine.grid.h**fine.grid.dim * gap)  # norm1 of farthest pair


def refine_until(problem: TransformedProblem, tol: float, eps0: float,
                 cfg: Optional[ResolventConfig] = None,
                 max_levels: int = 8) -> RefineResult:
    """Halve eps until successive runs differ by at most tol in sup-time L1.

    A forked worker marches the finest level (see the module docstring);
    ``join`` marches it here if the worker fails: the bits are serial."""
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if not is_count(max_levels, 1):
        raise ValueError(f"max_levels must be an integer >= 1: {max_levels!r}")
    step_lengths(problem.horizon, eps0)  # rejects a bad eps0 before the fork

    def march_finest(out):  # at the eps the halving reaches, bit for bit
        sol = mild_solve(problem, eps0 * 0.5**max_levels, cfg=cfg)
        pickle.dump((sol.times, sol.snapshots, sol.diagnostics), out,
                    protocol=5)

    with _fork.forked(*[march_finest] if _fork.cores() > 1 else []) as workers:
        prev = mild_solve(problem, eps0, cfg=cfg)
        levels, gaps = [eps0], []
        for k in range(1, max_levels + 1):
            eps = levels[-1] * 0.5
            cur = (MildSolution(eps, problem, *pickle.load(workers[0].join()))
                   if workers and k == max_levels
                   else mild_solve(problem, eps, cfg=cfg))
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
