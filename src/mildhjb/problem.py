"""User-facing control problem and its reduction to grid data.

A ``ControlProblem`` holds the continuous coefficients (vectorized callables
of the state) and the horizon.  ``discretize`` builds the transformed
initial state and forcing, minus the second derivatives of the terminal and
running state costs, tabulating analytic derivatives when supplied and
falling back to central differences of the sampled tables otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .conjugate import ConjugateHamiltonian, RunningCost
from .degenerate import VolatilityData
from .drift import DriftData
from .grid import Grid1D, tabulate
from .resolvent import EllipticOperands
from .stepper import TransformedProblem

__all__ = ["ControlProblem"]


@dataclass(frozen=True)
class ControlProblem:
    """Coefficients (f, sigma), costs (g, g0, running cost), and horizon.

    The coefficients must accept arrays of any shape: grids tabulate them on
    1-D node arrays, and Monte Carlo calls them on (policies, paths) states.
    Optional analytic derivatives sharpen the grid data; any that are
    missing are replaced by central differences of the sampled tables.
    ``f=None`` means zero drift.
    """

    sigma: Callable
    g: Callable
    g0: Callable
    cost: RunningCost
    horizon: float
    f: Optional[Callable] = None
    f_x: Optional[Callable] = None
    f_xx: Optional[Callable] = None
    g_xx: Optional[Callable] = None
    g0_xx: Optional[Callable] = None
    sigma_x: Optional[Callable] = None
    sigma_xx: Optional[Callable] = None

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ValueError(
                f"horizon must be positive and finite, got {self.horizon}")

    def drift_data(self, grid: Grid1D) -> Optional[DriftData]:
        if self.f is None:
            return None
        return DriftData.from_callables(grid, self.f, self.f_x, self.f_xx)

    def volatility_data(self, grid: Grid1D) -> VolatilityData:
        return VolatilityData.from_callables(grid, self.sigma, self.sigma_x,
                                             self.sigma_xx)

    def transformed_data(self, grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
        """(initial, source) = (-g0'', -g'') tabulated on the grid."""
        return (-tabulate(grid, self.g0, None, self.g0_xx)[2],
                -tabulate(grid, self.g, None, self.g_xx)[2])

    def discretize(self, grid: Grid1D,
                   conj: Optional[ConjugateHamiltonian] = None,
                   regularization: float = 0.0) -> TransformedProblem:
        """Assemble the transformed Cauchy problem on one grid.

        Without ``conj`` the cost's conjugate is the closed form when
        quadratic, otherwise a table sized to the data.  ``regularization``
        lifts sigma^2 in the flux multiplier, as the degenerate sweep does.
        """
        initial, source = self.transformed_data(grid)
        sigma = tabulate(grid, self.sigma)[0]
        if conj is None:
            smax2 = float(np.max(sigma**2))
            p_abs = max(1.0, 4.0 * smax2 * float(np.max(np.abs(initial))))
            conj = ConjugateHamiltonian.for_cost(self.cost, -p_abs, p_abs)
        ops = EllipticOperands(grid, conj, 0.5 * (sigma**2 + regularization),
                               self.drift_data(grid))
        return TransformedProblem(ops, initial, source, self.horizon)
