"""Drift-free problem on a truncated square (two space dimensions).

The elliptic operator is built from the factor matrix ``a`` through
``b = a a^T``:

    L z = b11 z_xx + 2 b12 z_xy + b22 z_yy,

discretized with 3-point stencils on the axes and the 4-corner centered
stencil for the cross term, all closed by zero ghosts, and applied as one
CSR matvec (``Problem2D.csr``, scipy's compiled kernel) over the slab of
mesh rows the field reaches.  As in 1-D,
``PlanarProblem.discretize`` puts the operand ``Problem2D`` and the data
into a ``stepper.TransformedProblem``, which ``stepper.march`` marches.
The implicit step solves ``lam*y - L(value(m0*y)) = eta`` through
``resolvent.solve_resolvent``: one Newton solver, one residual
certificate, one march loop (``stepper.march``) and one run type
(``stepper.MildSolution``, every step in a file in ``tempfile``'s
directory) serve both 1-D and 2-D; the ``solve-2d`` runner reads the march
step by step and keeps only the final state and the masses.
Without drift the resolvent is an L1 contraction with constant exactly
``1/lam``.

The Newton step (``Problem2D.newton_step``) is an exact block elimination
that factors only the nodes where the control constraint does not bind, a
few percent of the mesh on a localized field.  That block is similar to a
symmetric positive definite band, which banded Cholesky (LAPACK ``pbsv``)
solves; its pattern is kept while the active set repeats.  The worst case,
every node active at ``n = 141``, takes 23 MB.  The Green solve
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

from ._lapack import csr_matvec, dpbsv as _pbsv
from .conjugate import ConjugateHamiltonian, RunningCost
from .grid import Grid2D, check_table
# unused here, but perfbench/layers.py wraps the name twodim.solve_resolvent_2d
from .resolvent import solve_resolvent as solve_resolvent_2d  # noqa: F401
from .stepper import TransformedProblem

__all__ = ["Grid2D", "PlanarProblem", "Problem2D", "solve_L"]

# unused here, but perfbench/layers.py wraps the name twodim.spsolve
spsolve = None


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
        b = self.b  # a 2x2 symmetric b is positive definite iff:
        if not (b[0, 0] > 0 and b[0, 0] * b[1, 1] - b[0, 1]**2 > 0):
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

    def _neighbours(self, nodes) -> tuple[np.ndarray, np.ndarray]:
        """Row-major indices of the neighbours of ``nodes``, shape
        ``(9, len(nodes))`` with row ``k`` for entry ``k`` of the raveled
        stencil, and whether each neighbour is on the mesh."""
        n = self.grid.n
        di, dj = np.divmod(np.arange(9), 3)
        i = nodes // n + (di[:, None] - 1)
        j = nodes % n + (dj[:, None] - 1)
        # a neighbour off the mesh has no entry; in row-major order j +- 1
        # would otherwise wrap into the next mesh row
        return i * n + j, (0 <= i) & (i < n) & (0 <= j) & (j < n)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """L on row-major flattened fields in CSR arrays: row ``i*n + j``
        holds node ``(i, j)``'s on-mesh neighbours of nonzero weight."""
        neighbour, on_mesh = self._neighbours(np.arange(self.grid.n**2))
        weight = self.stencil.ravel()
        keep = (on_mesh & (weight != 0.0)[:, None]).T  # one row per node
        indptr = np.append(0, np.cumsum(keep.sum(axis=1))).astype(np.int32)
        return (indptr, neighbour.T[keep].astype(np.int32),
                np.broadcast_to(weight, keep.shape)[keep])

    def _apply_matrix(self, z) -> np.ndarray:
        """``L z``, shape checked: ``csr_matvec`` checks no bound.  A
        non-finite ``z`` is let through for the line search to reject.
        Only the slab from one mesh row before the first nonzero row of
        ``z`` to one after the last is multiplied: every other row would add
        only +-0.0 terms to +0.0, and stays +0.0, as the full product has it.
        """
        z = np.asarray(z, dtype=float)
        if z.shape != self.shape:
            raise ValueError(f"z has shape {z.shape}, expected {self.shape}")
        out = np.zeros(self.shape)
        rows = np.flatnonzero(z.any(axis=1))  # NaN counts as nonzero
        if rows.size:
            n = self.grid.n
            first, last = max(rows[0] - 1, 0) * n, min(rows[-1] + 2, n) * n
            indptr, indices, data = self.csr
            # indptr's offsets are absolute, so its slice selects the rows
            csr_matvec(last - first, z.size, indptr[first:last + 1], indices,
                       data, z.ravel(), out.ravel()[first:last])
        return out

    def terms(self, y) -> tuple[np.ndarray, None]:
        """``-L(value(m0*y))``, and no B term."""
        w = self.conj.value(self.half_sigma_sq * y)
        return -self._apply_matrix(w), None

    def active_band(self, lam, active, root) -> np.ndarray:
        """The lower band of ``M = lam*I - S L[A, A] S`` with
        ``S = diag(root)``, in LAPACK's symmetric band storage.

        ``active`` is the sorted active set A of row-major node indices and
        ``root`` the square root of the slope on it.  Entry ``(p, q)``,
        ``p >= q``, of M sits at ``ab[p - q, q]``; the band has ``kd + 1``
        rows, ``kd`` the widest reach of the stencil in A.  The pattern
        (``kd``, and each entry's weight, ``(p, q)`` and buffer offset) is
        kept while the active set repeats; only the values are filled in.
        """
        kept = getattr(self, "_pattern", None)
        if kept is None or not np.array_equal(kept[0], active):
            neighbour, on_mesh = self._neighbours(active)
            position = np.full(self.grid.n**2, -1)
            position[active] = np.arange(active.size)
            column = np.full(on_mesh.shape, -1)
            column[on_mesh] = position[neighbour[on_mesh]]
            # L is symmetric, so its lower triangle, q <= p, is all of it
            k, p = np.nonzero((column >= 0)
                              & (column <= np.arange(active.size)))
            q = column[k, p]
            kd = int(np.max(p - q))
            kept = (active.copy(), kd, q * (kd + 1) + p - q,
                    self.stencil.ravel()[k], p, q)
            object.__setattr__(self, "_pattern", kept)
        _, kd, flat, weight, p, q = kept
        # Fortran order, so that pbsv factors it in place instead of a copy
        ab = np.zeros((kd + 1, active.size), order="F")
        ab.T.reshape(-1)[flat] = -(root[p] * weight) * root[q]
        ab[0] += lam
        return ab

    def newton_step(self, lam, y, r) -> np.ndarray:
        """Solve J(y) delta = -r, factoring only the non-diagonal columns of J.

        ``J = lam*I - L diag(s)`` with the slope ``s = value'(m0*y)*m0 >= 0``
        (``value'`` is the optimal control).  Where the constraint ``u >= 0``
        binds, ``s_j = 0`` and column ``j`` of J is ``lam*e_j``, so only the
        block on the active set ``A = {s > 0}`` needs a factorisation:

            (lam*I - L[A, A] diag(s_A)) delta_A = -r_A,

        and every other entry follows from one matvec,
        ``delta = (-r + L z) / lam`` with ``z = s*delta`` on A and 0
        elsewhere.  The elimination is exact.  With ``S = diag(s_A)^(1/2)``
        the block is similar to ``M = lam*I - S L[A, A] S``, symmetric
        positive definite for ``lam > 0`` as ``-L`` is, so ``M v = -S r_A``
        is solved by banded Cholesky (LAPACK ``pbsv``, on ``active_band``)
        and ``delta_A = v / S``.  Raises ``np.linalg.LinAlgError`` when M
        is not positive definite.
        """
        m = self.half_sigma_sq
        s = (self.conj.slope(m * y) * m).ravel()
        rhs = -r.ravel()
        active = np.flatnonzero(s != 0)  # 7x as fast on bools as on floats
        if active.size == 0:
            return (rhs / lam).reshape(self.shape)
        root = np.sqrt(s[active])
        ab = self.active_band(lam, active, root)
        *_, v, info = _pbsv(ab, rhs[active] * root)
        if info > 0:
            raise np.linalg.LinAlgError("active block is not positive definite")
        delta_a = v / root
        z = np.zeros(self.shape)
        z.flat[active] = root * v  # s_A * delta_A
        delta = (rhs + self._apply_matrix(z).ravel()) / lam
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

    padded = np.zeros(problem.shape)

    def minus_L(p):
        padded[1:-1, 1:-1] = p
        return -problem._apply_matrix(padded)[1:-1, 1:-1]

    rho = abs(b[0, 1]) / math.sqrt(b[0, 0] * b[1, 1])
    root = math.sqrt((1.0 + rho) / (1.0 - rho))
    q = (root - 1.0) / (root + 1.0)
    bound = math.log(2.0 * root / _CG_RTOL) / -math.log(q) if q > 0 else 0.0
    phi = np.zeros(problem.shape)
    phi[1:-1, 1:-1], _ = _cg(minus_L, precondition, z[1:-1, 1:-1],
                             math.ceil(bound) + _CG_MARGIN)
    return phi
