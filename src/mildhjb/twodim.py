"""Drift-free problem on a truncated square (two space dimensions).

The elliptic operator is built from the factor matrix ``a`` through
``b = a a^T``:

    L z = b11 z_xx + 2 b12 z_xy + b22 z_yy,

discretized with 3-point stencils on the axes and the 4-corner centered
stencil for the cross term, all closed by zero ghosts.  As in 1-D,
``PlanarProblem.discretize`` puts the operand ``Problem2D`` and the data
into a ``stepper.TransformedProblem``, which ``stepper.mild_solve``
marches.  The implicit step solves ``lam*y - L(value(m0*y)) = eta`` through
``resolvent.solve_resolvent``: one Newton/Picard/continuation solver, one
residual certificate, one march and one solution type serve both 1-D and
2-D.  Without drift the resolvent is an L1 contraction with constant
exactly ``1/lam``.

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
``solve_L`` is conjugate gradients preconditioned by the axis part of
``-L``, which the sine transform inverts exactly, so its iteration count
depends on the cross term alone, not on the mesh.

The centered cross stencil is not sign-preserving for strongly anisotropic
``b``; when ``2|b12| > min(b11, b22)`` a warning is issued and comparison
style checks should be skipped.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbsv as _gbsv
# unused here, but perfbench/layers.py wraps the name twodim.spsolve
from scipy.sparse.linalg import spsolve  # noqa: F401

from .conjugate import ConjugateHamiltonian, RunningCost
from .grid import Grid2D, check_table
# unused here, but perfbench/layers.py wraps the name twodim.solve_resolvent_2d
from .resolvent import solve_resolvent as solve_resolvent_2d  # noqa: F401
from .stepper import TransformedProblem

__all__ = ["Grid2D", "PlanarProblem", "Problem2D", "solve_L"]


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
        # Fortran order, so that gbsv factors it in place instead of a copy
        ab = np.zeros((2 * kl + ku + 1, active.size), order="F")
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


@dataclass(frozen=True)
class PlanarProblem:
    """Factor matrix, volatility, state costs, running cost and horizon.

    ``sigma0`` and the second partials ``(xx, xy, yy)`` of the running and
    terminal state costs, ``g_parts`` and ``g0_parts``, are callables of
    ``(x, y)``.
    """

    a: np.ndarray
    sigma0: Callable
    g_parts: tuple
    g0_parts: tuple
    cost: RunningCost
    horizon: float

    def discretize(self, grid: Grid2D) -> TransformedProblem:
        """Initial state ``-L g0`` and forcing ``-L g`` on ``grid``, under
        the cost's conjugate (a table on [-50, 50] unless quadratic)."""
        X, Y = grid.mesh

        def sample(f):
            return np.asarray(f(X, Y), dtype=float) + np.zeros_like(X)

        ops = Problem2D(grid, self.a, sample(self.sigma0),
                        ConjugateHamiltonian.for_cost(self.cost))
        b = ops.b

        def l_of(parts):
            pxx, pxy, pyy = map(sample, parts)
            return b[0, 0] * pxx + 2.0 * b[0, 1] * pxy + b[1, 1] * pyy

        return TransformedProblem(ops, -l_of(self.g0_parts),
                                  -l_of(self.g_parts), self.horizon)


_CG_RTOL = 1e-12  # relative residual of the Green solve, in the P^-1 norm
_CG_MARGIN = 10  # iterations allowed beyond the CG bound, for rounding


def _dst1(v) -> np.ndarray:
    """DST-I along the last axis, ``sum_j v_j sin(pi*j*k/(m+1))`` for
    ``j, k = 1..m``, from the real FFT of the odd extension of ``v``."""
    m = v.shape[-1]
    odd = np.zeros(v.shape[:-1] + (2 * m + 2,))
    odd[..., 1:m + 1] = v
    odd[..., m + 2:] = -v[..., ::-1]
    return -0.5 * np.fft.rfft(odd)[..., 1:m + 1].imag


def _dot(a, b) -> float:
    return float(np.einsum("ij,ij->", a, b))


def _cg(apply, precondition, rhs, max_iter) -> tuple[np.ndarray, int]:
    """Preconditioned conjugate gradients from 0; returns (x, iterations).

    The inner products sum in numpy's own loop, not BLAS ``ddot``, whose
    threaded split would make the result depend on the thread count.
    Stops once ``r . precondition(r)`` falls to ``_CG_RTOL**2`` times its
    value at ``r = rhs``; raises ``np.linalg.LinAlgError`` after
    ``max_iter`` iterations.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = precondition(r)
    rs = _dot(r, p)
    stop = _CG_RTOL**2 * rs
    iterations = 0
    while not rs <= stop:  # a NaN never converges
        if iterations == max_iter:
            raise np.linalg.LinAlgError(
                f"Green solve did not converge in {max_iter} iterations")
        q = apply(p)
        alpha = rs / _dot(p, q)
        x += alpha * p
        r -= alpha * q
        s = precondition(r)
        rs, rs_old = _dot(r, s), rs
        p = s + (rs / rs_old) * p
        iterations += 1
    return x, iterations


def solve_L(problem: Problem2D, z) -> np.ndarray:
    """Solve -L(phi) = z with phi = 0 on the boundary ring.

    Conjugate gradients on the interior nodes, where ``-L`` is symmetric
    positive definite, preconditioned by the axis part
    ``P = -(b11 D_xx + b22 D_yy)``, which DST-I diagonalises exactly.  The
    spectrum of ``P^-1 (-L)`` lies in ``[1 - rho, 1 + rho]`` with
    ``rho = |b12|/sqrt(b11*b22)``, so with ``kappa = (1+rho)/(1-rho)`` the
    residual in the ``P^-1`` norm falls at least as
    ``2 sqrt(kappa) q^k`` with ``q = (sqrt(kappa)-1)/(sqrt(kappa)+1)``.  The
    solve stops at the relative residual ``_CG_RTOL`` and raises
    ``np.linalg.LinAlgError`` if that bound, plus ``_CG_MARGIN``
    iterations, is not enough.
    """
    z = np.asarray(z, dtype=float)
    check_table("z", z, problem.shape)
    n, h, b = problem.grid.n, problem.grid.h, problem.b
    m = n - 2
    # -D_xx on the m interior nodes has the sine modes k = 1..m; the DST-I
    # is its own inverse up to the factor 2/(m+1) per axis
    mu = (4.0 / h**2) * np.sin(np.pi * np.arange(1, m + 1) / (2 * m + 2))**2
    weight = (2.0 / (m + 1))**2 / (b[0, 0] * mu[:, None] + b[1, 1] * mu)

    def precondition(r):
        t = _dst1(_dst1(r).T).T * weight
        return _dst1(_dst1(t).T).T

    lap = problem.operator_matrix
    padded = np.zeros(problem.shape)

    def minus_L(p):
        padded[1:-1, 1:-1] = p
        return -(lap @ padded.ravel()).reshape(n, n)[1:-1, 1:-1]

    rho = abs(b[0, 1]) / math.sqrt(b[0, 0] * b[1, 1])
    root = math.sqrt((1.0 + rho) / (1.0 - rho))
    q = (root - 1.0) / (root + 1.0)
    bound = math.log(2.0 * root / _CG_RTOL) / -math.log(q) if q > 0 else 0.0
    phi = np.zeros(problem.shape)
    phi[1:-1, 1:-1], _ = _cg(minus_L, precondition, z[1:-1, 1:-1],
                             math.ceil(bound) + _CG_MARGIN)
    return phi
