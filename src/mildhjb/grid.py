"""Truncated meshes, 1-D finite-difference stencils, and the Dirichlet Green solve.

Grid functions ("fields") are plain float arrays aligned with ``Grid1D.x``
or ``Grid2D.mesh``; the grid object carries the geometry and the discrete
norms.  All stencils close with zero ghost values outside the mesh, the
discrete counterpart of integrable data decaying at infinity.  The flux
``value(m*y)`` is the exception: its ghost value is ``value(0)``, which
``resolvent`` and ``twodim`` put back.  The drift's transport stencil is
in ``drift``, which owns every drift formula.  The Green solve of the
three-point -psi'' with zero end values is a closed form (a double prefix
sum), so its stability constants are exact too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid1D",
    "Grid2D",
    "check_table",
    "diff1_central",
    "diff2",
    "green_constants",
    "poisson_gradient",
    "poisson_solve",
    "tabulate",
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
        if not (0 < self.half_width < np.inf and is_count(self.n, 5)
                and self.n % 2 == 1):
            raise ValueError("need a finite half_width > 0 and an odd integer "
                             f"n >= 5, got {self.half_width!r}, {self.n!r}")

    @cached_property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.n - 1)

    @cached_property
    def x(self) -> np.ndarray:
        # centered construction keeps the mesh exactly antisymmetric
        return self.h * (np.arange(self.n) - (self.n - 1) // 2)

    def norm1(self, values) -> float:
        """Discrete L1 norm, h**dim * sum |v_k|."""
        return self.h**self.dim * float(np.abs(values).sum())

    def integral(self, values) -> float:
        return self.h**self.dim * float(np.asarray(values).sum())

    @cached_property
    def _ramp(self) -> np.ndarray:
        """k/(n - 1) at node k, the linear part of the Green solve."""
        return np.arange(self.n) / (self.n - 1)


class Grid2D(Grid1D):
    """The square [-L, L]^2 with the same ``n`` nodes on both axes."""

    dim = 2

    @cached_property
    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) with X varying along axis 0 and Y along axis 1."""
        return np.meshgrid(self.x, self.x, indexing="ij")


def is_count(value, least: int) -> bool:
    """Whether ``value`` is an integer, not a bool, of at least ``least``."""
    return (not isinstance(value, bool)
            and isinstance(value, (int, np.integer)) and value >= least)


def check_table(name: str, values: np.ndarray, shape: tuple) -> None:
    """Raise ``ValueError`` unless ``values`` has ``shape`` and is finite."""
    if values.shape != shape:
        raise ValueError(f"{name} has shape {values.shape}, expected {shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} contains non-finite entries")


def diff2(grid: Grid1D, values) -> np.ndarray:
    """Three-point second difference with zero ghost values at both ends."""
    v = np.asarray(values, dtype=float)
    out = -2.0 * v
    out[:-1] += v[1:]
    out[1:] += v[:-1]
    out /= grid.h**2
    return out


def diff1_central(grid: Grid1D, values) -> np.ndarray:
    """Centered first difference along the last axis, one-sided at the ends."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2.0 * grid.h)
    out[..., 0] = (v[..., 1] - v[..., 0]) / grid.h
    out[..., -1] = (v[..., -1] - v[..., -2]) / grid.h
    return out


def tabulate(grid: Grid1D, fn, *derivatives) -> list[np.ndarray]:
    """``fn`` and its successive derivatives sampled on the nodes.

    Each entry of ``derivatives`` is the next derivative as a callable, or
    None for the central difference of the table before it.  Samples are
    broadcast to the node array, so a callable may return a constant.
    """
    x = grid.x
    tables = []
    for d in (fn, *derivatives):
        tables.append(np.asarray(d(x), dtype=float) + np.zeros_like(x)
                      if d is not None else diff1_central(grid, tables[-1]))
    return tables


def poisson_solve(grid: Grid1D, source) -> np.ndarray:
    """Solve the three-point -psi'' = source with psi(-L) = psi(L) = 0.

    With S the double prefix sum of the interior source (S_0 = S_1 = 0) and
    N = n - 1, psi_k = h**2 * (k/N * S_N - S_k), exact at the nodes whenever
    psi is a piecewise quadratic of the mesh.  The boundary source values are
    ignored; a ``(..., n)`` stack is solved along its last axis.
    """
    z = np.asarray(source, dtype=float)
    s = np.zeros_like(z)
    s[..., 2:] = z[..., 1:-1].cumsum(axis=-1).cumsum(axis=-1)
    return grid.h**2 * (grid._ramp * s[..., -1:] - s)


def poisson_gradient(grid: Grid1D, source) -> np.ndarray:
    """Centered derivative of ``poisson_solve(source)`` along the last axis."""
    return diff1_central(grid, poisson_solve(grid, source))


def green_constants(grid: Grid1D) -> tuple[float, float]:
    """Exact stability constants of the Green solve on this grid.

    Returns ``(c_value, c_gradient)`` with ``sup|psi| <= c_value * ||z||_1``
    and ``sup|diff1_central(psi)| <= c_gradient * ||z||_1`` for every field
    ``z``.  Both are operator norms, attained by unit nodal sources: at the
    centre node ``psi`` peaks at ``L/2`` times the source's L1 norm, and next
    to either end the one-sided boundary slope is ``(n - 2)/(n - 1)`` times it.
    """
    return 0.5 * grid.half_width, (grid.n - 2) / (grid.n - 1)
