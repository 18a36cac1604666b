"""Truncated meshes, 1-D finite-difference stencils, and the Dirichlet Green solve.

Grid functions ("fields") are plain float arrays aligned with ``Grid1D.x``
or ``Grid2D.mesh``; the grid object carries the geometry and the discrete
norms.  All stencils close with zero ghost values outside the mesh, the
discrete counterpart of integrable data decaying at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_banded

__all__ = [
    "Grid1D",
    "Grid2D",
    "diff1_central",
    "diff1_upwind",
    "diff2",
    "green_constants",
    "poisson_gradient",
    "poisson_solve",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform mesh of ``n`` nodes per axis on [-L, L]^dim, symmetric about 0.

    ``n`` must be odd (so 0 is a node) and at least 5; the spacing is
    ``h = 2L/(n-1)`` and each node carries the weight ``h**dim``.
    """

    half_width: float
    n: int

    dim = 1

    def __post_init__(self):
        if not self.half_width > 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        if self.n < 5 or self.n % 2 == 0:
            raise ValueError(f"node count must be odd and >= 5, got {self.n}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.n - 1)

    @cached_property
    def x(self) -> np.ndarray:
        # centered construction keeps the mesh exactly antisymmetric
        return self.h * (np.arange(self.n) - (self.n - 1) // 2)

    def norm1(self, values) -> float:
        """Discrete L1 norm, h**dim * sum |v_k|."""
        return self.h**self.dim * float(np.sum(np.abs(values)))

    def norm_inf(self, values) -> float:
        return float(np.max(np.abs(values)))

    def integral(self, values) -> float:
        return self.h**self.dim * float(np.sum(values))


class Grid2D(Grid1D):
    """The square [-L, L]^2 with the same ``n`` nodes on both axes."""

    dim = 2

    @cached_property
    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) with X varying along axis 0 and Y along axis 1."""
        return np.meshgrid(self.x, self.x, indexing="ij")


def diff2(grid: Grid1D, values) -> np.ndarray:
    """Three-point second difference with zero ghost values at both ends."""
    v = np.asarray(values, dtype=float)
    out = -2.0 * v
    out[:-1] += v[1:]
    out[1:] += v[:-1]
    out /= grid.h**2
    return out


def diff1_central(grid: Grid1D, values) -> np.ndarray:
    """Centered first difference, one-sided at the boundary nodes."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * grid.h)
    out[0] = (v[1] - v[0]) / grid.h
    out[-1] = (v[-1] - v[-2]) / grid.h
    return out


def diff1_upwind(grid: Grid1D, values, wind) -> np.ndarray:
    """One-sided slope selected nodewise by the sign of ``wind``.

    Forward difference where ``wind >= 0``, backward where ``wind < 0``, with
    zero ghost values; this pairing makes a transport term ``-wind * slope``
    monotone, which is what the elliptic operator needs.
    """
    v = np.asarray(values, dtype=float)
    h = grid.h
    forward = np.empty_like(v)
    forward[:-1] = (v[1:] - v[:-1]) / h
    forward[-1] = -v[-1] / h
    backward = np.empty_like(v)
    backward[1:] = forward[:-1]
    backward[0] = v[0] / h
    return np.where(np.asarray(wind) >= 0.0, forward, backward)


def _interior_banded(grid: Grid1D) -> np.ndarray:
    m = grid.n - 2
    h2 = grid.h**2
    ab = np.empty((3, m))
    ab[0] = -1.0 / h2
    ab[1] = 2.0 / h2
    ab[2] = -1.0 / h2
    return ab


def poisson_solve(grid: Grid1D, source) -> np.ndarray:
    """Solve -psi'' = source with psi(-L) = psi(L) = 0.

    Tridiagonal elimination on the interior nodes, O(n); the scheme is exact
    whenever the solution is a piecewise quadratic of the mesh.
    """
    z = np.asarray(source, dtype=float)
    psi = np.zeros(grid.n)
    psi[1:-1] = solve_banded((1, 1), _interior_banded(grid), z[1:-1])
    return psi


def poisson_gradient(grid: Grid1D, source) -> np.ndarray:
    """Centered derivative of ``poisson_solve(source)``."""
    return diff1_central(grid, poisson_solve(grid, source))


def green_constants(grid: Grid1D) -> tuple[float, float]:
    """Measured stability constants of the Green solve on this grid.

    Returns ``(c_value, c_gradient)`` with ``sup|psi| <= c_value * ||z||_1``
    and ``sup|psi'| <= c_gradient * ||z||_1`` for every field ``z``.  The
    constants are exact operator norms, obtained from the unit nodal sources.
    """
    n, h = grid.n, grid.h
    rhs = np.eye(n - 2)
    interior = solve_banded((1, 1), _interior_banded(grid), rhs)
    psi = np.zeros((n, n - 2))
    psi[1:-1] = interior
    grad = np.empty_like(psi)
    grad[1:-1] = (psi[2:] - psi[:-2]) / (2.0 * h)
    grad[0] = (psi[1] - psi[0]) / h
    grad[-1] = (psi[-1] - psi[-2]) / h
    # a unit nodal source has L1 norm h
    return float(np.max(np.abs(psi)) / h), float(np.max(np.abs(grad)) / h)
