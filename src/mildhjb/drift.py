"""The drift's stencil: transport, perturbation, Jacobian and barrier.

Differentiating the transport term of the backward equation twice in space
(the forward unknown is minus the value curvature at reversed time) leaves
the upwinded transport ``-f*y'`` and the lower-order coupling

    perturbation(y) = f'' * gradient(green(y)) - 2 f' * y,

where the Green solve inverts minus the second derivative, so
``gradient(green(y))`` is exactly the value slope the chain rule produces.
The perturbation is bounded on L1 with constant
``||f''||_1 * c_gradient + 2 ||f'||_inf``.  This module owns every drift
formula: no other module reads the tables ``f``, ``f1`` or ``f2``.
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
        vars(self).update(_forward=self.f >= 0.0, _two_f1=2.0 * self.f1)

    @classmethod
    def from_callables(cls, grid: Grid1D, f, f1=None, f2=None) -> "DriftData":
        """Tabulate f; derivatives fall back to central differences of f."""
        return cls(grid, *tabulate(grid, f, f1, f2))

    @cached_property
    def slope_sup(self) -> float:
        """sup |f'| on the grid, the quasi-accretivity shift of the operator."""
        return float(np.max(np.abs(self.f1)))

    def perturbation_bound(self) -> float:
        """L1 bound of the nonlocal perturbation (exact Green constant)."""
        _, c_grad = green_constants(self.grid)
        return self.grid.norm1(self.f2) * c_grad + 2.0 * self.slope_sup

    def transport(self, y) -> np.ndarray:
        """The upwinded ``-f*y'``: forward differences where ``f >= 0``,
        backward elsewhere, zero ghost values; the term is monotone."""
        y = np.asarray(y, dtype=float)
        # d[k] = (y[k] - y[k-1])/h, zero ghosts: forward d[1:], backward d[:-1]
        d = np.empty(y.size + 1)
        np.subtract(y[1:], y[:-1], out=d[1:-1])
        d[0] = y[0]
        d[-1] = -y[-1]
        d /= self.grid.h
        out = self.f * np.where(self._forward, d[1:], d[:-1])
        return np.negative(out, out=out)

    def jacobian(self, perturbation: bool):
        """``(on_delta, on_psi)``, tridiagonals ``(lower, diag, upper)``
        whose row k applied to delta and to ``psi = poisson_solve(delta)``
        sums to row k of ``transport(delta)`` plus, while ``perturbation``,
        ``apply_B(self, delta)``; both are linear, so this is exact."""
        f, f2, h = self.f, self.f2, self.grid.h
        on_delta = [np.minimum(f[1:], 0.0) / h, np.abs(f) / h,
                    -np.maximum(f[:-1], 0.0) / h]
        on_psi = [np.zeros(f.size - 1), np.zeros(f.size), np.zeros(f.size - 1)]
        if perturbation:  # -2f', and f'' times psi's central slope
            on_delta[1] = on_delta[1] - self._two_f1
            on_psi[0] = -np.r_[f2[1:-1], 2.0 * f2[-1]] / (2.0 * h)
            on_psi[1][[0, -1]] = f2[[0, -1]] * [-1.0, 1.0] / h  # one-sided
            on_psi[2] = np.r_[2.0 * f2[0], f2[1:-1]] / (2.0 * h)
        return on_delta, on_psi

    def barrier_terms(self, ys) -> tuple[float, np.ndarray]:
        """A constant sup-norm barrier's shift drop and right-hand-side term
        at each state ``ys[k]``.  Where y_k peaks (or dips) the transport is
        >= 0, ``-2f'*y >= -2 sup|f'| y_k`` and ``|f''*phi_x| <= max|f''| *
        c_grad * ||y_k||_1`` (``c_grad`` the exact Green slope norm)."""
        c = float(np.max(np.abs(self.f2))) * green_constants(self.grid)[1]
        return (2.0 * self.slope_sup,
                c * np.array([self.grid.norm1(y) for y in ys]))


def apply_B(drift: DriftData, y) -> np.ndarray:
    """f'' * (green(y))' - 2 f' * y, nodewise."""
    return (drift.f2 * poisson_gradient(drift.grid, y)
            - drift._two_f1 * np.asarray(y, dtype=float))
