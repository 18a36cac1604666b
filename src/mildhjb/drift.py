"""Tabulated drift coefficient and the bounded nonlocal perturbation.

Differentiating the transport term of the backward equation twice in space
(the forward unknown is minus the value curvature at reversed time) leaves
the lower-order coupling

    perturbation(y) = f'' * gradient(green(y)) - 2 f' * y,

where the Green solve inverts minus the second derivative, so
``gradient(green(y))`` is exactly the value slope the chain rule produces.
The perturbation is bounded on L1 with constant
``||f''||_1 * c_gradient + 2 ||f'||_inf``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import (Grid1D, check_table, green_constants, poisson_gradient,
                   tabulate)

__all__ = ["DriftData", "apply_B"]


@dataclass(frozen=True)
class DriftData:
    """Drift f with its first two derivatives tabulated on the grid."""

    grid: Grid1D
    f: np.ndarray
    f1: np.ndarray
    f2: np.ndarray

    def __post_init__(self):
        for name in ("f", "f1", "f2"):
            check_table(name, getattr(self, name), (self.grid.n,))

    @classmethod
    def from_callables(cls, grid: Grid1D, f, f1=None, f2=None) -> "DriftData":
        """Tabulate f; derivatives fall back to central differences of f."""
        return cls(grid, *tabulate(grid, f, f1, f2))

    @cached_property
    def slope_sup(self) -> float:
        """sup |f'| on the grid, the quasi-accretivity shift of the operator."""
        return float(np.max(np.abs(self.f1)))

    @cached_property
    def upwind(self) -> tuple[np.ndarray, ...]:
        """The upwind transport ``-f*y'``, computed once: the forward-slope
        mask ``f >= 0`` and the Jacobian's ``|f|/h`` on the diagonal,
        ``-max(f[:-1], 0)/h`` above it and ``min(f[1:], 0)/h`` below it."""
        f, h = self.f, self.grid.h
        return (f >= 0.0, np.abs(f) / h, np.maximum(f[:-1], 0.0) / h,
                np.minimum(f[1:], 0.0) / h)

    @cached_property
    def two_f1(self) -> np.ndarray:
        return 2.0 * self.f1

    @property
    def curvature_l1(self) -> float:
        """Discrete L1 norm of f''."""
        return self.grid.norm1(self.f2)

    def perturbation_bound(self) -> float:
        """L1 bound of the nonlocal perturbation (exact Green constant)."""
        _, c_grad = green_constants(self.grid)
        return self.curvature_l1 * c_grad + 2.0 * self.slope_sup


def apply_B(drift: DriftData, y) -> np.ndarray:
    """f'' * (green(y))' - 2 f' * y, nodewise."""
    return (drift.f2 * poisson_gradient(drift.grid, y)
            - drift.two_f1 * np.asarray(y, dtype=float))
