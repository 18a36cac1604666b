"""Drift-free problem on a truncated square (two space dimensions).

The elliptic operator is built from the factor matrix ``a`` through
``b = a a^T``:

    L z = b11 z_xx + 2 b12 z_xy + b22 z_yy,

discretized with 3-point stencils on the axes and the 4-corner centered
stencil for the cross term, all closed by zero ghosts.  ``Problem2D`` is the
operand alone, as ``EllipticOperands`` is in 1-D; the data go into a
``stepper.TransformedProblem``.  The implicit step solves
``lam*y - L(value(m0*y)) = eta`` through ``resolvent.solve_resolvent``
(9-point Jacobian), and ``mild_solve_2d`` is ``stepper.mild_solve``:
one Newton/Picard/continuation solver, one residual certificate, one march
and one solution type serve both 1-D and 2-D.  Without drift the resolvent
is an L1 contraction with constant exactly ``1/lam``.

The Newton step is an exact block elimination.  ``value'`` is the optimal
control clamped at ``u >= 0``, so where that constraint binds the Jacobian
column is ``lam*e_j``; only the block on the remaining (active) nodes is
LU-factored, and the other entries follow from one sparse matvec.  On a
localized field that block is a few percent of the mesh.  In row-major
order the block is banded, at most ``n + 1`` wide on each side, so it is
assembled straight from the nine stencil weights (``Problem2D.stencil``) in
LAPACK band storage, ``(2*kl + ku + 1)*|A|`` doubles, and solved by banded
LU (``gbsv``).  The worst case, every node active at ``n = 141``, takes
68 MB and is no slower than a general sparse LU.  The Green solve
``solve_L`` stays a sparse LU, ordered by symmetric minimum degree.

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
from scipy.linalg.lapack import dgbsv as _gbsv
from scipy.sparse.linalg import spsolve

from .conjugate import ConjugateHamiltonian
from .grid import Grid2D, check_table
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
    """Factor matrix and scalar volatility of the drift-free operator."""

    grid: Grid2D
    a: np.ndarray
    sigma0: np.ndarray
    conj: ConjugateHamiltonian

    lam0 = 0.0  # drift-free: the resolvent's contraction shift floor is 0

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        object.__setattr__(self, "a", a)
        if a.shape[0] != 2:
            raise ValueError(f"factor matrix needs 2 rows, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("a contains non-finite entries")
        b = self.b
        if np.linalg.eigvalsh(b).min() <= 0:
            raise ValueError("a a^T must be positive definite")
        sigma0 = np.asarray(self.sigma0, dtype=float)
        object.__setattr__(self, "sigma0", sigma0)
        check_table("sigma0", sigma0, self.shape)
        if float(np.min(np.abs(sigma0))) <= 0:
            raise ValueError("sigma0 must be bounded away from zero")
        if 2.0 * abs(b[0, 1]) > min(b[0, 0], b[1, 1]):
            # level 3 names the caller of the generated __init__
            warnings.warn(
                "cross term dominates the axis terms; the centered stencil "
                "is not sign-preserving, skip comparison-principle checks",
                RuntimeWarning, stacklevel=3)

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
    def stencil(self) -> np.ndarray:
        """The nine weights of L: ``stencil[1 + di, 1 + dj]`` multiplies the
        neighbour ``(i + di, j + dj)`` of node ``(i, j)``."""
        h = self.grid.h
        b = self.b
        axis_x = b[0, 0] * (1.0 / h**2)
        axis_y = b[1, 1] * (1.0 / h**2)
        centre = b[0, 0] * (-2.0 / h**2) + b[1, 1] * (-2.0 / h**2)
        half = 1.0 / (2.0 * h)
        cross = 2.0 * b[0, 1] * (half * half)
        return np.array([[cross, axis_x, -cross],
                         [axis_y, centre, axis_y],
                         [-cross, axis_x, cross]])

    @cached_property
    def operator_matrix(self) -> sp.csr_matrix:
        """Sparse 9-point matrix of L acting on row-major flattened fields."""
        shift = [sp.eye(self.grid.n, k=d, format="csr") for d in (-1, 0, 1)]
        # a shifted identity has no entry past its edge, so nothing wraps
        lap = sum(w * sp.kron(shift[a], shift[c])
                  for (a, c), w in np.ndenumerate(self.stencil))
        return lap.tocsr()

    def _apply_matrix(self, z) -> np.ndarray:
        return (self.operator_matrix @ z.ravel()).reshape(self.shape)

    def terms(self, y) -> tuple[np.ndarray, None]:
        """``-L(value(m0*y))``, and no B term."""
        w = self.conj.value(self.half_sigma_sq * y)
        return -self._apply_matrix(w), None

    def active_band(self, lam, active, s_a) -> tuple[np.ndarray, int, int]:
        """``lam*I - L[A, A] diag(s_A)`` in LAPACK band storage.

        ``active`` is the sorted active set A of row-major node indices and
        ``s_a`` the slope on it.  Returns ``(ab, kl, ku)``: entry ``(p, q)``
        of the block sits at ``ab[kl + ku + p - q, q]``, and the first ``kl``
        rows are left free for the fill-in of ``gbsv``'s pivoting.
        """
        n = self.grid.n
        di, dj = np.divmod(np.arange(9), 3)  # entry k of the raveled stencil
        i = active // n + (di[:, None] - 1)  # neighbour rows, shape (9, |A|)
        j = active % n + (dj[:, None] - 1)
        # a neighbour off the mesh has no entry; in row-major order j +- 1
        # would otherwise wrap into the next mesh row
        on_mesh = (0 <= i) & (i < n) & (0 <= j) & (j < n)
        position = np.full(n * n, -1)
        position[active] = np.arange(active.size)
        column = np.full(on_mesh.shape, -1)
        column[on_mesh] = position[i[on_mesh] * n + j[on_mesh]]
        k, p = np.nonzero(column >= 0)
        q = column[k, p]
        kl, ku = int(np.max(p - q)), int(np.max(q - p))
        ab = np.zeros((2 * kl + ku + 1, active.size))
        ab[kl + ku + p - q, q] = self.stencil.ravel()[k] * -s_a[q]
        ab[kl + ku] += lam
        return ab, kl, ku

    def newton_step(self, lam, y, r) -> np.ndarray:
        """Solve J(y) delta = -r, factoring only the non-diagonal columns of J.

        ``J = lam*I - L diag(s)`` with the slope ``s = value'(m0*y)*m0``.
        Where the constraint ``u >= 0`` binds, ``s_j = 0`` and column ``j``
        of J is ``lam*e_j``, so only the block on the active set
        ``A = {s != 0}`` needs an LU factorisation:

            (lam*I - L[A, A] diag(s_A)) delta_A = -r_A,

        and every other entry follows from one matvec,
        ``delta = (-r + L z) / lam`` with ``z = s*delta`` on A and 0
        elsewhere.  The elimination is exact.  In row-major order the block
        is banded, at most ``n + 1`` wide on each side, so it is assembled
        from the stencil in band storage (``active_band``) and solved by
        LAPACK ``gbsv`` called directly.  Raises ``np.linalg.LinAlgError``
        on a zero pivot.
        """
        m = self.half_sigma_sq
        s = (self.conj.derivative(m * y) * m).ravel()
        rhs = -r.ravel()
        active = np.flatnonzero(s)
        if active.size == 0:
            return (rhs / lam).reshape(self.shape)
        s_a = s[active]
        ab, kl, ku = self.active_band(lam, active, s_a)
        *_, delta_a, info = _gbsv(kl, ku, ab, rhs[active], 1, 1)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        z = np.zeros_like(rhs)
        z[active] = s_a * delta_a
        delta = (rhs + self.operator_matrix @ z) / lam
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
    # symmetric minimum degree suits the SPD matrix -L
    phi[idx] = spsolve(system, z.ravel()[idx], permc_spec="MMD_AT_PLUS_A")
    return phi.reshape(n, n)


def solve_resolvent_2d(problem: Problem2D, lam: float, eta,
                       cfg: Optional[ResolventConfig] = None,
                       y_init=None) -> tuple[np.ndarray, float, int]:
    """Solve lam*y - L(value(m0*y)) = eta on the full node set.

    Returns (y, residual_l1, iterations) from ``resolvent.solve_resolvent``,
    which raises ``ResolventError`` when every strategy exhausts its budget.
    """
    res = solve_resolvent(problem, lam, eta, cfg, y_init=y_init)
    return res.y, res.residual, res.iterations


def mild_solve_2d(problem: TransformedProblem, eps: float,
                  cfg: Optional[ResolventConfig] = None) -> MildSolution:
    """Implicit stepping of y_t - L(value(m0*y)) = source over the horizon:
    ``stepper.mild_solve`` on a ``TransformedProblem`` of a ``Problem2D``."""
    return mild_solve(problem, eps, cfg=cfg)
