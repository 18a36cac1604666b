"""Drift-free problem on a truncated square (two space dimensions).

The elliptic operator is built from the factor matrix ``a`` through
``b = a a^T``:

    L z = b11 z_xx + 2 b12 z_xy + b22 z_yy,

discretized with 3-point stencils on the axes and the 4-corner centered
stencil for the cross term, all closed by zero ghosts.  The implicit step
solves ``lam*y - L(value(m0*y)) = eta`` with ``Problem2D`` (sparse 9-point
Jacobian) as the operand of ``resolvent.solve_resolvent``, and
``mild_solve_2d`` is ``stepper.mild_solve`` on that operand: one
Newton/Picard/homotopy solver, one residual certificate, one march and one
solution type serve both 1-D and 2-D.  Without drift the resolvent is an L1
contraction with constant exactly ``1/lam``.

The Newton step is an exact block elimination.  ``value'`` is the optimal
control clamped at ``u >= 0``, so where that constraint binds the Jacobian
column is ``lam*e_j``; only the block on the remaining (active) nodes is
LU-factored, and the other entries follow from one sparse matvec.  On a
localized field that block is a few percent of the mesh.

The centered cross stencil is not sign-preserving for strongly anisotropic
``b``; when ``2|b12| > min(b11, b22)`` a warning is issued and comparison
style checks should be skipped.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .conjugate import ConjugateHamiltonian
from .grid import Grid2D
from .resolvent import ResolventConfig, solve_resolvent
from .stepper import MildSolution, TransformedProblem, mild_solve

__all__ = [
    "Grid2D",
    "Problem2D",
    "apply_L",
    "mild_solve_2d",
    "solve_L",
    "solve_resolvent_2d",
]


@dataclass(frozen=True)
class Problem2D:
    """Factor matrix, scalar volatility, data tables, and horizon."""

    grid: Grid2D
    a: np.ndarray
    sigma0: np.ndarray
    initial: np.ndarray
    source: np.ndarray
    horizon: float
    conj: ConjugateHamiltonian

    lam0 = 0.0  # drift-free: the resolvent's contraction shift floor is 0

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        object.__setattr__(self, "a", a)
        if a.shape[0] != 2:
            raise ValueError(f"factor matrix needs 2 rows, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("a contains non-finite entries")
        b = a @ a.T
        eigs = np.linalg.eigvalsh(b)
        if eigs.min() <= 0:
            raise ValueError("a a^T must be positive definite")
        n = self.grid.n
        for name in ("sigma0", "initial", "source"):
            t = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, t)
            if t.shape != (n, n):
                raise ValueError(f"{name} has shape {t.shape}, "
                                 f"expected ({n}, {n})")
        if not np.all(np.isfinite(self.sigma0)):
            raise ValueError("sigma0 contains non-finite entries")
        if float(np.min(np.abs(self.sigma0))) <= 0:
            raise ValueError("sigma0 must be bounded away from zero")
        if 2.0 * abs(b[0, 1]) > min(b[0, 0], b[1, 1]):
            warnings.warn(
                "cross term dominates the axis terms; the centered stencil "
                "is not sign-preserving, skip comparison-principle checks",
                RuntimeWarning, stacklevel=2)

    @cached_property
    def b(self) -> np.ndarray:
        return self.a @ self.a.T

    @cached_property
    def half_sigma_sq(self) -> np.ndarray:
        return 0.5 * self.sigma0**2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.grid.n, self.grid.n)

    @cached_property
    def operator_matrix(self) -> sp.csr_matrix:
        """Sparse 9-point matrix of L acting on row-major flattened fields."""
        n, h = self.grid.n, self.grid.h
        b = self.b
        eye = sp.identity(n, format="csr")
        second = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1],
                          shape=(n, n), format="csr") / h**2
        first = sp.diags([-1.0, 1.0], [-1, 1], shape=(n, n),
                         format="csr") / (2.0 * h)
        lap = (b[0, 0] * sp.kron(second, eye)
               + b[1, 1] * sp.kron(eye, second)
               + 2.0 * b[0, 1] * sp.kron(first, first))
        return lap.tocsr()

    def _apply_matrix(self, z) -> np.ndarray:
        return (self.operator_matrix @ z.ravel()).reshape(self.shape)

    def residual(self, lam, nu, y, eta) -> np.ndarray:
        """lam*y - L(value(m0*y)) - eta, plus nu*(value(m0*y) - L(y))."""
        w = self.conj.value(self.half_sigma_sq * y)
        r = lam * y - self._apply_matrix(w) - eta
        if nu > 0:
            r -= nu * self._apply_matrix(y)
            r += nu * w
        return r

    def newton_step(self, lam, nu, y, r) -> np.ndarray:
        """Solve J(y) delta = -r, factoring only the non-diagonal columns of J.

        ``J = diag(lam + nu*s) - L diag(w)`` with the slope
        ``s = value'(m0*y)*m0`` and the weight ``w = s + nu``.  Where the
        constraint ``u >= 0`` binds (and ``nu = 0``), ``w_j = 0`` and column
        ``j`` of J is diagonal, so only the block on the active set
        ``A = {w != 0}`` needs a sparse LU:

            (diag(lam + nu*s_A) - L[A, A] diag(w_A)) delta_A = -r_A,

        and every other entry follows from one matvec,
        ``delta = (-r + L z) / (lam + nu*s)`` with ``z = w*delta`` on A and 0
        elsewhere.  The elimination is exact; with ``nu > 0`` every column is
        active and this is the full solve.
        """
        m = self.half_sigma_sq
        s = (self.conj.derivative(m * y) * m).ravel()
        w = s + nu
        diag = lam + nu * s
        rhs = -r.ravel()
        active = np.flatnonzero(w)
        if active.size == 0:
            return (rhs / diag).reshape(self.shape)
        lap = self.operator_matrix
        w_a = w[active]
        block = lap[active][:, active]  # a copy; L stores every diagonal
        block.data *= -w_a[block.indices]
        block.setdiag(block.diagonal() + diag[active])
        delta_a = spsolve(block.tocsc(), rhs[active])
        z = np.zeros_like(rhs)
        z[active] = w_a * delta_a
        delta = (rhs + lap @ z) / diag
        delta[active] = delta_a
        return delta.reshape(self.shape)


def apply_L(problem: Problem2D, z) -> np.ndarray:
    """b11 z_xx + 2 b12 z_xy + b22 z_yy with zero ghost values."""
    z = np.asarray(z, dtype=float)
    n, h = problem.grid.n, problem.grid.h
    b = problem.b
    p = np.zeros((n + 2, n + 2))
    p[1:-1, 1:-1] = z
    zxx = (p[2:, 1:-1] - 2.0 * z + p[:-2, 1:-1]) / h**2
    zyy = (p[1:-1, 2:] - 2.0 * z + p[1:-1, :-2]) / h**2
    zxy = (p[2:, 2:] - p[2:, :-2] - p[:-2, 2:] + p[:-2, :-2]) / (4.0 * h**2)
    return b[0, 0] * zxx + b[1, 1] * zyy + 2.0 * b[0, 1] * zxy


def solve_L(problem: Problem2D, z) -> np.ndarray:
    """Solve -L(phi) = z with phi = 0 on the boundary ring."""
    n = problem.grid.n
    z = np.asarray(z, dtype=float)
    interior = np.zeros((n, n), dtype=bool)
    interior[1:-1, 1:-1] = True
    idx = np.flatnonzero(interior.ravel())
    lap = problem.operator_matrix
    system = (-lap[idx][:, idx]).tocsc()
    phi = np.zeros(n * n)
    phi[idx] = spsolve(system, z.ravel()[idx])
    return phi.reshape(n, n)


def solve_resolvent_2d(problem: Problem2D, lam: float, eta,
                       tol_res: float = 1e-10, max_iter: int = 60,
                       y_init=None) -> tuple[np.ndarray, float, int]:
    """Solve lam*y - L(value(m0*y)) = eta on the full node set.

    Returns (y, residual_l1, iterations) from ``resolvent.solve_resolvent``,
    which raises ``ResolventError`` when every strategy exhausts its budget.
    """
    res = solve_resolvent(problem, ResolventConfig(lam, tol_res, max_iter),
                          eta, y_init=y_init)
    return res.y, res.residual, res.iterations


def mild_solve_2d(problem: Problem2D, eps: float,
                  cfg: Optional[ResolventConfig] = None) -> MildSolution:
    """Implicit stepping of y_t - L(value(m0*y)) = source over the horizon.

    The march is ``stepper.mild_solve`` with ``problem`` as the operand, so
    the 2-D run has the same schedule, diagnostics and refinement
    certificate as the 1-D one.
    """
    return mild_solve(TransformedProblem(problem, problem.initial,
                                         problem.source, problem.horizon),
                      eps, cfg=cfg)
