"""Implicit elliptic solve behind every time step.

For a shift ``lam`` and right-hand side ``eta`` this module solves the nodal
system

    lam*y - (value(m*y))'' - f*y' + perturbation(y) = eta,       m = sigma^2/2,

with the nonlinear flux ``value`` from the conjugate machinery, monotone
upwinding of the transport term, and zero ghost values.  The primary
algorithm is damped Newton with the tridiagonal-plus-diagonal Jacobian (the
nonlocal part of the perturbation is kept on the residual side only, where it
is harmless because it is bounded).  Two globally convergent fallbacks cover
stalls: a shifted Picard iteration ``y <- R_{lam+delta}(eta + delta*y)`` and
a vanishing-viscosity homotopy that adds ``-nu*y'' + nu*value(m*y)`` and
tracks the solution down ``nu -> 0``.

The 1-D Jacobian is solved by LAPACK ``gtsv`` called directly: for these
bands ``solve_banded`` runs the same routine, so the bits are the same,
without its validation.  The time-independent stencil parts
(``DriftData.upwind``, ``DriftData.two_f1``) are computed once per drift.
``gtsv`` does not check its input, so ``_newton`` rejects a non-finite
starting residual with ``ValueError``.

``solve_resolvent`` works on any operand with ``residual``, ``newton_step``
(the Jacobian solve), ``shape``, ``lam0``, ``grid.norm1``, ``conj`` and
``half_sigma_sq``: ``EllipticOperands`` in 1-D, ``twodim.Problem2D`` in 2-D.

The solved map is an L1 contraction in ``eta`` with constant
``1/(lam - lam0)``, ``lam0 = sup|f'|``; the returned object carries a freshly
recomputed residual as a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgtsv as _gtsv

from .conjugate import ConjugateHamiltonian
from .drift import DriftData, apply_B
from .grid import Grid1D, diff1_upwind, diff2

__all__ = [
    "EllipticOperands",
    "ResolventConfig",
    "ResolventError",
    "ResolventResult",
    "apply_A",
    "solve_resolvent",
]

_NU_LADDER = (1e-2, 1e-4, 1e-6)


class ResolventError(RuntimeError):
    """Iteration budget exhausted; carries the last residual norm."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class EllipticOperands:
    """Frozen coefficients of the elliptic operator on one grid.

    ``half_sigma_sq`` is the multiplier ``sigma^2/2`` inside the flux;
    ``drift`` feeds the transport term and ``perturbation`` (usually the same
    drift object) the nonlocal lower-order term.  Pass ``perturbation=None``
    to run with the perturbation switched off.
    """

    grid: Grid1D
    conj: ConjugateHamiltonian
    half_sigma_sq: np.ndarray
    drift: Optional[DriftData] = None
    perturbation: Optional[DriftData] = None

    def __post_init__(self):
        m = np.asarray(self.half_sigma_sq, dtype=float)
        if m.shape != (self.grid.n,):
            raise ValueError(f"half_sigma_sq has shape {m.shape}, "
                             f"expected ({self.grid.n},)")
        if np.any(m <= 0) or not np.all(np.isfinite(m)):
            raise ValueError(
                "sigma^2/2 must be strictly positive and finite on the grid; "
                "vanishing volatility goes through the regularized sweep")

    @classmethod
    def build(cls, grid, conj, sigma, drift=None, use_perturbation=True):
        """Tabulate sigma (callable or array) and wire the perturbation."""
        sig = np.asarray(sigma(grid.x) if callable(sigma) else sigma,
                         dtype=float) + np.zeros(grid.n)
        return cls(grid, conj, 0.5 * sig * sig, drift,
                   drift if use_perturbation else None)

    @property
    def sigma_sq(self) -> np.ndarray:
        return 2.0 * self.half_sigma_sq

    @property
    def lam0(self) -> float:
        """Contraction shift floor, sup|f'| (0 without drift)."""
        return 0.0 if self.drift is None else self.drift.slope_sup

    @property
    def shape(self) -> tuple[int]:
        return (self.grid.n,)

    def residual(self, lam, nu, y, eta) -> np.ndarray:
        """lam*y + A(y) + B(y) - eta, plus the viscosity terms when nu > 0."""
        r = lam * y + apply_A(self, y) - eta
        if nu > 0:
            r -= nu * diff2(self.grid, y)
            r += nu * self.conj.value(self.half_sigma_sq * y)
        if self.perturbation is not None:
            r += apply_B(self.perturbation, y)
        return r

    def newton_step(self, lam, nu, y, r) -> np.ndarray:
        """Solve J(y) delta = -r with the tridiagonal Jacobian (LAPACK gtsv).

        Raises ``np.linalg.LinAlgError`` on a zero pivot.
        """
        m, h2 = self.half_sigma_sq, self.grid.h**2
        slope = self.conj.derivative(m * y) * m
        c = slope + nu
        diag = lam + 2.0 * c / h2 + nu * slope
        upper = -c[1:] / h2
        lower = -c[:-1] / h2
        if self.drift is not None:
            _, f_diag, f_upper, f_lower = self.drift.upwind
            diag += f_diag
            upper -= f_upper
            lower += f_lower
        if self.perturbation is not None:
            diag -= self.perturbation.two_f1
        *_, delta, info = _gtsv(lower, diag, upper, -r, 1, 1, 1, 1)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        return delta


@dataclass(frozen=True)
class ResolventConfig:
    """Shift and iteration controls for one resolvent solve.

    ``tol_res`` is relative to ``max(1, ||eta||_1)``.  ``nu`` selects the
    regularized system directly (0 is the plain equation).  ``lam`` must
    exceed the drift slope bound for the contraction regime to apply.
    """

    lam: float
    tol_res: float = 1e-10
    max_iter: int = 100
    nu: float = 0.0

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not (math.isfinite(self.tol_res) and self.tol_res > 0):
            raise ValueError(
                f"tol_res must be finite and positive, got {self.tol_res}")
        if (isinstance(self.max_iter, bool)
                or not isinstance(self.max_iter, (int, np.integer))
                or self.max_iter < 0):
            raise ValueError("max_iter must be a non-negative integer, "
                             f"got {self.max_iter!r}")
        if not (math.isfinite(self.nu) and self.nu >= 0):
            raise ValueError(
                f"nu must be finite and non-negative, got {self.nu}")


@dataclass
class ResolventResult:
    y: np.ndarray
    residual: float
    iterations: int
    fallback: str = ""
    out_of_table: bool = False


def apply_A(ops: EllipticOperands, y) -> np.ndarray:
    """-(value(m*y))'' - f*y' with upwinded transport."""
    y = np.asarray(y, dtype=float)
    out = -diff2(ops.grid, ops.conj.value(ops.half_sigma_sq * y))
    if ops.drift is not None:
        drift = ops.drift
        out -= drift.f * diff1_upwind(ops.grid, y, drift.upwind[0])
    return out


def _newton(ops, lam, nu, eta, y0, tol, max_iter):
    """Damped Newton; returns (y, iterations, residual_norm, converged)."""
    grid = ops.grid
    y = y0.copy()
    r = ops.residual(lam, nu, y, eta)
    rnorm = grid.norm1(r)
    if not math.isfinite(rnorm):
        # LAPACK does not check its input; a step from here would be NaN
        raise ValueError("residual is not finite at the starting guess")
    for it in range(max_iter):
        if rnorm <= tol:
            return y, it, rnorm, True
        try:
            delta = ops.newton_step(lam, nu, y, r)
        except np.linalg.LinAlgError:
            return y, it, rnorm, False
        omega = 1.0
        accepted = False
        for _ in range(30):
            y_try = y + omega * delta
            r_try = ops.residual(lam, nu, y_try, eta)
            rnorm_try = grid.norm1(r_try)
            if np.isfinite(rnorm_try) and rnorm_try < rnorm:
                y, r, rnorm = y_try, r_try, rnorm_try
                accepted = True
                break
            omega *= 0.5
        if not accepted:
            return y, it + 1, rnorm, False
    return y, max_iter, rnorm, rnorm <= tol


def solve_resolvent(ops, cfg: ResolventConfig, eta,
                    y_init=None) -> ResolventResult:
    """Solve ``lam*y + A(y) + B(y) = eta`` to the configured L1 residual.

    ``ops`` is any operand object (see the module docstring).  Raises
    ``ValueError`` when the shift does not clear the drift slope bound, and
    ``ResolventError`` when every strategy exhausts its budget.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape != ops.shape:
        raise ValueError(f"eta has shape {eta.shape}, expected {ops.shape}")
    if not np.isfinite(eta).all():
        raise ValueError("eta contains non-finite entries")
    lam0 = ops.lam0
    if cfg.lam <= lam0:
        raise ValueError(
            f"shift lam={cfg.lam:g} must exceed the drift slope bound "
            f"lam0={lam0:g}")
    tol = cfg.tol_res * max(1.0, ops.grid.norm1(eta))
    y0 = np.asarray(y_init, dtype=float).copy() if y_init is not None \
        else eta / cfg.lam

    y, iters, rnorm, ok = _newton(ops, cfg.lam, cfg.nu, eta, y0,
                                  tol, cfg.max_iter)
    fallback = ""
    if not ok:
        y, iters2, rnorm, ok = _picard(ops, cfg, eta, y, tol)
        iters += iters2
        fallback = "picard"
    if not ok:
        y, iters3, rnorm, ok = _homotopy(ops, cfg, eta, y0, tol)
        iters += iters3
        fallback = "homotopy"
    if not ok:
        raise ResolventError("resolvent iteration budget exhausted", rnorm)

    certificate = ops.grid.norm1(ops.residual(cfg.lam, cfg.nu, y, eta))
    out_of_table = not ops.conj.covers(ops.half_sigma_sq * y)
    return ResolventResult(y, certificate, iters, fallback, out_of_table)


def _picard(ops, cfg, eta, y, tol):
    """Shifted fixed point: y <- R_{lam+delta}(eta + delta*y)."""
    # delta = lam - lam0 puts the Picard contraction factor at 1/2
    delta = max(cfg.lam - ops.lam0, 1.0)
    total = 0
    for _ in range(200):
        inner, it, rnorm_in, ok = _newton(
            ops, cfg.lam + delta, cfg.nu, eta + delta * y, y,
            tol * 0.5, cfg.max_iter)
        total += it
        if not ok:
            return y, total, rnorm_in, False
        y = inner
        rnorm = ops.grid.norm1(ops.residual(cfg.lam, cfg.nu, y, eta))
        if rnorm <= tol:
            return y, total, rnorm, True
    return y, total, rnorm, False


def _homotopy(ops, cfg, eta, y0, tol):
    """Warm-start chain down the viscosity ladder, finishing at the target."""
    y = y0.copy()
    total = 0
    rnorm = np.inf
    for nu in _NU_LADDER:
        if cfg.nu and nu <= cfg.nu:
            break
        y, it, rnorm, ok = _newton(ops, cfg.lam, nu, eta, y,
                                   tol, cfg.max_iter)
        total += it
        if not ok:
            return y, total, rnorm, False
    y, it, rnorm, ok = _newton(ops, cfg.lam, cfg.nu, eta, y,
                               tol, cfg.max_iter)
    return y, total + it, rnorm, ok
