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
a continuation in the shift that solves at ``lam + c*delta`` for a fixed
ladder of ``c`` down to 0, each rung starting from the previous rung's end.

The 1-D Jacobian is solved by LAPACK ``gtsv`` called directly: for these
bands ``solve_banded`` runs the same routine, so the bits are the same,
without its validation.  The time-independent stencil parts
(``DriftData.upwind``, ``DriftData.two_f1``) are computed once per drift.
``gtsv`` does not check its input, so ``_newton`` rejects a non-finite
starting residual with ``ValueError``.

``solve_resolvent`` works on any operand with ``terms``, ``newton_step``
(the Jacobian solve), ``shape``, ``lam0``, ``grid.norm1``, ``conj`` and
``half_sigma_sq``: ``EllipticOperands`` in 1-D, ``twodim.Problem2D`` in 2-D.
``terms(y)`` is the one full operator evaluation at ``y``: ``a = A(y)`` and
``b = B(y)`` (``None`` in 2-D and with the perturbation off).  Neither
depends on ``lam`` or ``eta``, so an ``Iterate`` keeps them with ``y`` and
assembles every residual at ``y`` as ``((lam*y + a) - eta) + b``; a warm
start (the previous time step) and each continuation rung reuse them.

Only shifts above ``shift_floor(ops) = 2*lam0``, ``lam0 = sup|f'|``, are
admitted (where the control binds, the Jacobian's diagonal is
``lam - 2f'``), and the march reads the same floor.  The solved map is an
L1 contraction in ``eta`` with constant ``1/(lam - lam0)``; the returned
object carries as its certificate the L1 residual that the converging
strategy computed at the returned ``y``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgtsv as _gtsv

from .conjugate import ConjugateHamiltonian
from .drift import DriftData, apply_B
from .grid import Grid1D, check_table, diff1_upwind, diff2

__all__ = [
    "EllipticOperands",
    "ResolventConfig",
    "ResolventError",
    "ResolventResult",
    "apply_A",
    "shift_floor",
    "solve_resolvent",
]

# multiples of max(lam - lam0, 1) added to the shift, rung by rung
_CONTINUATION = (8.0, 4.0, 2.0, 1.0, 0.5, 0.25, 0.125, 0.0625, 0.0)


class ResolventError(RuntimeError):
    """Iteration budget exhausted; carries the last residual norm."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class EllipticOperands:
    """Frozen coefficients of the elliptic operator on one grid.

    ``half_sigma_sq`` is the multiplier ``sigma^2/2`` inside the flux;
    ``drift`` feeds the transport term and, while ``perturbation`` is on,
    the nonlocal lower-order term.  Without a drift both vanish.
    """

    grid: Grid1D
    conj: ConjugateHamiltonian
    half_sigma_sq: np.ndarray
    drift: Optional[DriftData] = None
    perturbation: bool = True

    def __post_init__(self):
        if not isinstance(self.perturbation, bool):
            raise TypeError("perturbation must be a bool, got "
                            f"{type(self.perturbation).__name__}")
        m = np.asarray(self.half_sigma_sq, dtype=float)
        check_table("half_sigma_sq", m, self.shape)
        if np.any(m <= 0):
            raise ValueError(
                "sigma^2/2 must be strictly positive on the grid; "
                "vanishing volatility goes through the regularized sweep")

    @classmethod
    def build(cls, grid, conj, sigma, drift=None, use_perturbation=True):
        """Tabulate sigma (callable or array) into the flux multiplier."""
        sig = np.asarray(sigma(grid.x) if callable(sigma) else sigma,
                         dtype=float) + np.zeros(grid.n)
        return cls(grid, conj, 0.5 * sig * sig, drift, use_perturbation)

    @property
    def lam0(self) -> float:
        """Contraction shift floor, sup|f'| (0 without drift)."""
        return 0.0 if self.drift is None else self.drift.slope_sup

    @property
    def shape(self) -> tuple[int]:
        return (self.grid.n,)

    def terms(self, y) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """``A(y)`` and ``B(y)``, or ``None`` for B when it is off."""
        b = (apply_B(self.drift, y)
             if self.perturbation and self.drift is not None else None)
        return apply_A(self, y), b

    def newton_step(self, lam, y, r) -> np.ndarray:
        """Solve J(y) delta = -r with the tridiagonal Jacobian (LAPACK gtsv).

        Raises ``np.linalg.LinAlgError`` on a zero pivot.
        """
        m, h2 = self.half_sigma_sq, self.grid.h**2
        slope = self.conj.derivative(m * y) * m
        diag = lam + 2.0 * slope / h2
        upper = -slope[1:] / h2
        lower = -slope[:-1] / h2
        if self.drift is not None:
            _, f_diag, f_upper, f_lower = self.drift.upwind
            diag += f_diag
            upper -= f_upper
            lower += f_lower
            if self.perturbation:
                diag -= self.drift.two_f1
        *_, delta, info = _gtsv(lower, diag, upper, -r, 1, 1, 1, 1)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        return delta


@dataclass(frozen=True)
class ResolventConfig:
    """Iteration controls for resolvent solves.

    ``tol_res`` is relative to ``max(1, ||eta||_1)``.
    """

    tol_res: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        if not (math.isfinite(self.tol_res) and self.tol_res > 0):
            raise ValueError(
                f"tol_res must be finite and positive, got {self.tol_res}")
        if (isinstance(self.max_iter, bool)
                or not isinstance(self.max_iter, (int, np.integer))
                or self.max_iter < 0):
            raise ValueError("max_iter must be a non-negative integer, "
                             f"got {self.max_iter!r}")


@dataclass(frozen=True)
class Iterate:
    """A field ``y`` with its operator terms on one operand.

    The terms (``a = A(y)`` and ``b = B(y)`` or ``None``, see
    ``EllipticOperands.terms``) do not depend on ``lam`` or ``eta``, so one
    evaluation serves every residual at ``y``.  They are valid only for
    ``ops``.
    """

    ops: object
    y: np.ndarray
    a: np.ndarray
    b: Optional[np.ndarray]

    @classmethod
    def evaluate(cls, ops, y) -> "Iterate":
        """One full operator evaluation at ``y``."""
        return cls(ops, y, *ops.terms(y))

    def residual(self, lam, eta) -> np.ndarray:
        """``((lam*y + a) - eta) + b``."""
        r = lam * self.y
        r += self.a
        r -= eta
        if self.b is not None:
            r += self.b
        return r


@dataclass
class ResolventResult:
    """A solve's ``y`` and certificate; ``iterate`` keeps the terms at ``y``."""

    y: np.ndarray
    residual: float
    iterations: int
    fallback: str = ""
    out_of_table: bool = False
    iterate: Optional[Iterate] = field(default=None, repr=False,
                                       compare=False)


def apply_A(ops: EllipticOperands, y) -> np.ndarray:
    """-(value(m*y))'' - f*y' with upwinded transport."""
    y = np.asarray(y, dtype=float)
    out = -diff2(ops.grid, ops.conj.value(ops.half_sigma_sq * y))
    if ops.drift is not None:
        drift = ops.drift
        out -= drift.f * diff1_upwind(ops.grid, y, drift.upwind[0])
    return out


def shift_floor(ops) -> float:
    """``2*lam0``: ``solve_resolvent`` admits only shifts above it."""
    return 2.0 * ops.lam0


def _newton(ops, lam, eta, start: Iterate, tol, max_iter):
    """Damped Newton; returns (iterate, iterations, residual_norm,
    converged), the norm being the returned iterate's."""
    grid = ops.grid
    cur = start
    r = cur.residual(lam, eta)
    rnorm = grid.norm1(r)
    if not math.isfinite(rnorm):
        # LAPACK does not check its input; a step from here would be NaN
        raise ValueError("residual is not finite at the starting guess")
    for it in range(max_iter):
        if rnorm <= tol:
            return cur, it, rnorm, True
        try:
            delta = ops.newton_step(lam, cur.y, r)
        except np.linalg.LinAlgError:
            return cur, it, rnorm, False
        omega = 1.0
        for _ in range(30):
            trial = Iterate.evaluate(ops, cur.y + omega * delta)
            r_try = trial.residual(lam, eta)
            rnorm_try = grid.norm1(r_try)
            if np.isfinite(rnorm_try) and rnorm_try < rnorm:
                cur, r, rnorm = trial, r_try, rnorm_try
                break
            omega *= 0.5
        else:
            return cur, it + 1, rnorm, False
    return cur, max_iter, rnorm, rnorm <= tol


def solve_resolvent(ops, lam: float, eta,
                    cfg: Optional[ResolventConfig] = None, y_init=None,
                    warm: Optional[ResolventResult] = None) -> ResolventResult:
    """Solve ``lam*y + A(y) + B(y) = eta`` to the configured L1 residual.

    ``ops`` is any operand object (see the module docstring), ``lam`` the
    shift (``1/eps`` in the march), and ``cfg`` defaults to
    ``ResolventConfig()``.  The solve starts from ``eta/lam``, from
    ``y_init``, or, in place of ``y_init``, from ``warm``: the result of an
    earlier solve on ``ops``, whose stored terms then give the starting
    residual.  Raises ``ValueError`` when the shift does not clear
    ``shift_floor(ops)`` or a warm start belongs to another operand, and
    ``ResolventError`` when every strategy exhausts its budget.
    """
    eta = np.asarray(eta, dtype=float)
    check_table("eta", eta, ops.shape)
    floor = shift_floor(ops)
    if not lam > floor:
        raise ValueError(
            f"shift lam={lam:g} must exceed twice the drift slope bound, "
            f"2*lam0={floor:g}")
    cfg = cfg or ResolventConfig()
    tol = cfg.tol_res * max(1.0, ops.grid.norm1(eta))
    if warm is not None:
        start = warm.iterate
        if start is None or start.ops is not ops:
            raise ValueError("warm start was not solved on this operand")
    else:
        y0 = np.array(y_init, dtype=float) if y_init is not None \
            else eta / lam
        start = Iterate.evaluate(ops, y0)

    cur, iters, rnorm, ok = _newton(ops, lam, eta, start, tol, cfg.max_iter)
    fallback = ""
    if not ok:
        cur, iters2, rnorm, ok = _picard(ops, lam, eta, cur, tol, cfg.max_iter)
        iters += iters2
        fallback = "picard"
    if not ok:
        cur, iters3, rnorm, ok = _continuation(ops, lam, eta, start, tol,
                                               cfg.max_iter)
        iters += iters3
        fallback = "continuation"
    if not ok:
        raise ResolventError("resolvent iteration budget exhausted", rnorm)

    y = cur.y
    out_of_table = not ops.conj.covers(ops.half_sigma_sq * y)
    return ResolventResult(y, rnorm, iters, fallback, out_of_table, cur)


def _picard(ops, lam, eta, cur: Iterate, tol, max_iter):
    """Shifted fixed point: y <- R_{lam+delta}(eta + delta*y)."""
    # delta = lam - lam0 puts the Picard contraction factor at 1/2
    delta = max(lam - ops.lam0, 1.0)
    total = 0
    for _ in range(200):
        inner, it, rnorm_in, ok = _newton(
            ops, lam + delta, eta + delta * cur.y, cur, tol * 0.5, max_iter)
        total += it
        if not ok:
            return cur, total, rnorm_in, False
        cur = inner
        rnorm = ops.grid.norm1(cur.residual(lam, eta))
        if rnorm <= tol:
            return cur, total, rnorm, True
    return cur, total, rnorm, False


def _continuation(ops, lam, eta, cur: Iterate, tol, max_iter):
    """Newton down the shifts ``lam + c*delta`` (``delta`` as in Picard),
    each rung from the previous rung's iterate, finishing at ``lam``."""
    delta = max(lam - ops.lam0, 1.0)
    total = 0
    for c in _CONTINUATION:
        cur, it, rnorm, ok = _newton(ops, lam + c * delta, eta, cur, tol,
                                     max_iter)
        total += it
        if not ok:
            break
    return cur, total, rnorm, ok
