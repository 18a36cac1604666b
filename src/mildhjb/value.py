"""Value-function reconstruction and feedback synthesis.

The forward unknown is minus the second space derivative of the value at
reversed time, so the value and its slope come back through the Green solve
(which inverts minus the second derivative):

    value(t)   = green(y(T - t)),
    curvature  = -y(T - t)          (exact, no re-differentiation),

making ``diff2(value) == -y`` an identity of the discretization and the
terminal slice reproduce the terminal cost up to the truncation offset.  The
optimal control is the conjugate derivative at minus half the squared
volatility times the curvature, which the normal cone clamps at 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid1D, poisson_gradient, poisson_solve
from .resolvent import EllipticOperands
from .stepper import MildSolution

__all__ = [
    "FeedbackPolicy",
    "ValueFunction",
    "interpolate_policy",
    "reconstruct_value",
    "synthesize_feedback",
]


@dataclass
class ValueFunction:
    """Value snapshots phi(t_i, x_k) with slope and curvature tables.

    ``times`` ascend from 0 to the horizon; ``curvature`` is minus the
    forward unknown by construction, so ``diff2(phi) == -y`` holds to
    round-off at interior nodes.
    """

    grid: Grid1D
    horizon: float
    times: np.ndarray
    phi: np.ndarray
    phi_x: np.ndarray
    curvature: np.ndarray

    def sup_norms(self) -> tuple[float, float]:
        """(sup|phi|, sup|phi_x|) over the whole table."""
        return (float(np.max(np.abs(self.phi))),
                float(np.max(np.abs(self.phi_x))))


def reconstruct_value(sol: MildSolution, horizon: float | None = None
                      ) -> ValueFunction:
    """Green-solve every stored snapshot and reverse the time axis."""
    grid = sol.grid
    T = float(horizon) if horizon is not None else float(sol.times[-1])
    ys = sol.snapshots[::-1]
    return ValueFunction(grid=grid, horizon=T, times=T - sol.times[::-1],
                         phi=poisson_solve(grid, ys),
                         phi_x=poisson_gradient(grid, ys), curvature=-ys)


@dataclass
class FeedbackPolicy:
    """Tabulated nonnegative control u(t_i, x_k) with bilinear evaluation."""

    grid: Grid1D
    horizon: float
    times: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        if np.any(self.u < 0):
            raise ValueError("feedback table must be nonnegative")

    def __call__(self, t, x):
        return interpolate_policy(self, t, x)


def synthesize_feedback(v: ValueFunction, ops: EllipticOperands
                        ) -> FeedbackPolicy:
    """u(t, x) = conjugate derivative of (-sigma^2/2 * curvature)."""
    m = ops.half_sigma_sq
    u = np.maximum(ops.conj.derivative(-m * v.curvature), 0.0)
    return FeedbackPolicy(grid=v.grid, horizon=v.horizon, times=v.times, u=u)


def interpolate_policy(policy: FeedbackPolicy, t, x):
    """Bilinear in (t, x); constant extrapolation beyond the table.

    The interpolation is written in offset form (left value plus weighted
    difference) so that a table of equal values evaluates to that value
    bitwise exactly.
    """
    times, table, xs = policy.times, policy.u, policy.grid.x
    t = float(t)
    i = int(np.searchsorted(times, t, side="right")) - 1
    i = min(max(i, 0), len(times) - 2)
    dt = times[i + 1] - times[i]
    wt = 0.0 if dt == 0 else min(max((t - times[i]) / dt, 0.0), 1.0)
    lo = np.interp(x, xs, table[i])
    hi = np.interp(x, xs, table[i + 1])
    return lo + wt * (hi - lo)
