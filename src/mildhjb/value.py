"""Value-function reconstruction and feedback synthesis.

The forward unknown is minus the second space derivative of the value at
reversed time, so the value and its slope come back through the Green solve
(which inverts minus the second derivative):

    value(t)   = green(y(T - t)),
    curvature  = -y(T - t)          (exact, no re-differentiation),

making ``diff2(value) == -y`` an identity of the discretization and the
terminal slice reproduce the terminal cost up to the truncation offset.  The
curvature is the run's own ``-snapshots[::-1]``, and ``start_value`` is phi at
t = 0 alone.  The optimal control is the conjugate derivative at minus half
the squared volatility times the curvature, which the normal cone clamps at
0.  All read nothing but the run, and the control needs no Green solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid1D, diff1_central, poisson_solve
# unused here, but perfbench/layers.py wraps the name value.poisson_gradient
from .grid import poisson_gradient  # noqa: F401
from .stepper import MildSolution

__all__ = [
    "FeedbackPolicy",
    "ValueFunction",
    "interpolate_policy",
    "reconstruct_value",
    "start_value",
    "synthesize_feedback",
]


@dataclass
class ValueFunction:
    """Value snapshots phi(t_i, x_k) and their slope table; ``times`` ascend
    to the horizon, ``times[-1]``."""

    grid: Grid1D
    times: np.ndarray
    phi: np.ndarray
    phi_x: np.ndarray

    def sup_norms(self) -> tuple[float, float]:
        """(sup|phi|, sup|phi_x|) over the whole table."""
        return (float(np.max(np.abs(self.phi))),
                float(np.max(np.abs(self.phi_x))))


def _reversed(sol: MildSolution, name: str):
    """The times ``T - t`` and snapshots of a 1-D run, ascending in ``T - t``."""
    if sol.grid.dim != 1:
        raise ValueError(f"{name} is 1-D only; use twodim.solve_L")
    return sol.problem.horizon - sol.times[::-1], sol.snapshots[::-1]


def reconstruct_value(sol: MildSolution) -> ValueFunction:
    """Green-solve every stored snapshot once and reverse the time axis."""
    times, ys = _reversed(sol, "reconstruct_value")
    phi = poisson_solve(sol.grid, ys)
    return ValueFunction(grid=sol.grid, times=times, phi=phi,
                         phi_x=diff1_central(sol.grid, phi))


def start_value(sol: MildSolution) -> np.ndarray:
    """phi(0, .), the Green solve of the run's last state (1-D only)."""
    if sol.grid.dim != 1:
        raise ValueError("start_value is 1-D only; use twodim.solve_L")
    return poisson_solve(sol.grid, sol.final)


@dataclass
class FeedbackPolicy:
    """Tabulated nonnegative control u(t_i, x_k) with bilinear evaluation."""

    grid: Grid1D
    times: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        if np.any(self.u < 0):
            raise ValueError("feedback table must be nonnegative")
        # the cell slopes np.interp forms; None for a table that is not
        # finite, where np.interp's own NaN rules apply
        xs, u = self.grid.x, np.asarray(self.u, dtype=float)
        with np.errstate(all="ignore"):
            slopes = (u[:, 1:] - u[:, :-1]) / (xs[1:] - xs[:-1])
        finite = np.isfinite(u).all() and np.isfinite(slopes).all()
        self._slopes = slopes if finite else None

    def __call__(self, t, x):
        return interpolate_policy(self, t, x)


def synthesize_feedback(sol: MildSolution) -> FeedbackPolicy:
    """u(t, x) = conjugate derivative of (-sigma^2/2 * curvature), read off
    the run as ``sigma^2/2 * y(T - t)``."""
    times, ys = _reversed(sol, "synthesize_feedback")
    ops = sol.operands
    u = np.maximum(ops.conj.derivative(ops.half_sigma_sq * ys), 0.0)
    return FeedbackPolicy(grid=sol.grid, times=times, u=u)


def interpolate_policy(policy: FeedbackPolicy, t, x):
    """Bilinear in (t, x); constant extrapolation beyond the table.

    The interpolation is written in offset form (left value plus weighted
    difference) so that a table of equal values evaluates to that value
    bitwise exactly.  Each time row is interpolated in space bit for bit as
    ``np.interp`` does it, but the cell comes from the uniform grid directly
    and serves both rows (see ``_cell_rows``); the points where ``np.interp``
    makes a special choice go to ``np.interp`` itself.
    """
    times, table, xs = policy.times, policy.u, policy.grid.x
    t = float(t)
    i = int(np.searchsorted(times, t, side="right")) - 1
    i = min(max(i, 0), len(times) - 2)
    dt = times[i + 1] - times[i]
    wt = 0.0 if dt == 0 else min(max((t - times[i]) / dt, 0.0), 1.0)
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    lo, hi, inside = _cell_rows(policy, i, flat)
    if not inside.all():
        rest = ~inside
        special = flat[rest]
        lo[rest] = np.interp(special, xs, table[i])
        hi[rest] = np.interp(special, xs, table[i + 1])
    return (lo + wt * (hi - lo)).reshape(x.shape)[()]


def _cell_rows(policy: FeedbackPolicy, i: int, x: np.ndarray):
    """Time rows ``i`` and ``i + 1`` at the 1-D points ``x``, as
    ``slope[j] * (x - x_j) + u[j]``, with the mask of the points where that
    is ``np.interp``'s own arithmetic: ``x_j < x < x_{j+1}``.

    The cell is ``floor(x/h)`` on the uniform grid, not a binary search.
    Node hits, the ends and beyond, NaN, and the rare point that rounding
    puts one cell off fall outside the mask.
    """
    if policy._slopes is None:
        return np.empty_like(x), np.empty_like(x), np.zeros(x.shape, bool)
    grid, nodes = policy.grid, policy.grid.x
    with np.errstate(all="ignore"):
        # x_j = h*(j - (n-1)/2); fmin/fmax keep NaN and inf off the cast
        cell = np.floor(x / grid.h)
        cell += (grid.n - 1) // 2
        np.fmax(np.fmin(cell, grid.n - 2, out=cell), 0.0, out=cell)
        j = cell.astype(np.intp)
        d = x - nodes[j]
        inside = d > 0
        inside &= x < nodes[j + 1]
        lo = policy._slopes[i][j]
        lo *= d
        lo += policy.u[i][j]
        hi = policy._slopes[i + 1][j]
        hi *= d
        hi += policy.u[i + 1][j]
    return lo, hi, inside
