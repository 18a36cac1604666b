"""Implicit elliptic solve behind every time step.

For a shift ``lam`` and right-hand side ``eta`` this module solves the nodal
system

    lam*y - (value(m*y))'' - f*y' + perturbation(y) = eta,       m = sigma^2/2,

with the nonlinear flux ``value`` from the conjugate machinery, the drift
terms that ``drift`` computes, and zero ghost values, by damped Newton
with the exact Jacobian, which reads the conjugate's ``slope`` (semismooth
where the conjugate has kinks; a table's chord slopes).  A start other than
``eta/lam`` from which Newton stalls is restarted once from ``eta/lam``.

The 1-D Jacobian is the flux's tridiagonal plus ``drift.jacobian``'s
entries on ``delta`` and on ``psi = G*delta``, ``G`` the Green solve.  With
``psi`` a second unknown, the step is banded (order ``2n``, two bands below
and three above) for LAPACK ``gbsv``, which does not check its input:
``_newton`` rejects a non-finite starting residual.

``solve_resolvent`` works on any operand with ``terms``, ``newton_step``
(the Jacobian solve), ``shape``, ``lam0``, ``grid.norm1``, ``conj`` and
``half_sigma_sq``: ``EllipticOperands`` in 1-D, ``twodim.Problem2D`` in 2-D.
``terms(y)`` is the one full operator evaluation at ``y``: ``a = A(y)`` and
``b = B(y)`` (``None`` in 2-D and with the perturbation off).  Neither
depends on ``lam`` or ``eta``, so an ``Iterate`` keeps them with ``y`` and
assembles every residual at ``y`` as ``((lam*y + a) - eta) + b``; a
result given as the start (the previous time step) lends its own.

Only shifts above ``shift_floor(ops) = 2*lam0``, ``lam0 = sup|f'|``, are
admitted (where the control binds, the Jacobian's diagonal is
``lam - 2f'``), and the march reads the same floor.  With the perturbation
off, the solved map is an L1 contraction in ``eta`` with constant
``1/(lam - lam0)``, which acceptance criterion 1 checks; for the full
operator no constant is derived (ROADMAP item 4).  The returned object
carries as its certificate the L1 residual that the converging strategy
computed at the returned ``y``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from ._lapack import dgbsv as _gbsv
from .conjugate import ConjugateHamiltonian
from .drift import DriftData, apply_B
from .grid import Grid1D, check_table, diff2, is_count

__all__ = [
    "EllipticOperands",
    "ResolventConfig",
    "ResolventError",
    "ResolventResult",
    "shift_floor",
    "solve_resolvent",
]


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
        if self.drift is not None and self.drift.grid != self.grid:
            raise ValueError(
                f"drift on {self.drift.grid}, operands on {self.grid}")
        m = np.asarray(self.half_sigma_sq, dtype=float)
        check_table("half_sigma_sq", m, self.shape)
        if np.any(m <= 0):
            raise ValueError(
                "sigma^2/2 must be strictly positive on the grid; "
                "vanishing volatility goes through the regularized sweep")

    @property
    def lam0(self) -> float:
        """Contraction shift floor, sup|f'| (0 without drift)."""
        return 0.0 if self.drift is None else self.drift.slope_sup

    @property
    def shape(self) -> tuple[int]:
        return (self.grid.n,)

    def terms(self, y) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """``A(y) = -(value(m*y))''`` plus ``drift.transport(y)``, and
        ``B(y) = apply_B(drift, y)``, or ``None`` for B when it is off."""
        y = np.asarray(y, dtype=float)
        a = -diff2(self.grid, self.conj.value(self.half_sigma_sq * y))
        if self.drift is None:
            return a, None
        a += self.drift.transport(y)
        return a, apply_B(self.drift, y) if self.perturbation else None

    @cached_property
    def _band(self) -> np.ndarray:
        """The Newton system's ``y``-free entries in band storage: ``(i, j)``
        at ``[5 + i - j, j]``, unknown ``2k`` is ``delta_k``, ``2k + 1`` is
        ``psi_k``.  Row ``psi_k`` is ``-psi'' = delta_k`` inside the mesh and
        ``psi_k = 0`` at the ends, as in ``poisson_solve``; row ``delta_k``
        is ``drift.jacobian``'s, to which ``newton_step`` adds the flux's."""
        n, h = self.grid.n, self.grid.h
        ab = np.zeros((8, 2 * n), order="F")
        ab[5, 1::2] = 2.0 / h**2
        ab[3, 5::2] = ab[7, 1:-4:2] = -1.0 / h**2
        ab[6, 2:-2:2] = -1.0
        if self.drift is None:
            return ab
        for c, (lower, diag, upper) in enumerate(  # c = 0: delta, 1: psi
                self.drift.jacobian(self.perturbation)):
            ab[7 - c, c:-2:2] = lower
            ab[5 - c, c::2] = diag
            ab[3 - c, c + 2::2] = upper
        return ab

    def newton_step(self, lam, y, r) -> np.ndarray:
        """Solve J(y) delta = -r with the exact Jacobian by banded LU,
        LAPACK ``gbsv``, which overwrites ``ab``.

        Raises ``np.linalg.LinAlgError`` on a zero pivot.
        """
        m = self.half_sigma_sq
        slope = self.conj.slope(m * y) * m / self.grid.h**2
        ab = self._band.copy(order="F")
        ab[5, ::2] += lam + 2.0 * slope
        ab[3, 2::2] -= slope[1:]
        ab[7, :-2:2] -= slope[:-1]
        rhs = np.zeros(2 * self.grid.n)
        rhs[::2] = -r
        *_, x, info = _gbsv(2, 3, ab, rhs)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        return x[::2]


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
        if not is_count(self.max_iter, 0):
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
                    cfg: Optional[ResolventConfig] = None,
                    start=None) -> ResolventResult:
    """Solve ``lam*y + A(y) + B(y) = eta`` to the configured L1 residual.

    ``ops`` is any operand object (see the module docstring), ``lam`` the
    shift (``1/eps`` in the march), and ``cfg`` defaults to
    ``ResolventConfig()``.  The solve starts from ``eta/lam`` or from
    ``start``: a field, or the result of an earlier solve on ``ops``, whose
    stored terms then give the starting residual.  A Newton that stalls
    from ``start`` restarts once from ``eta/lam`` (fallback ``"restart"``).
    Raises ``ValueError`` when the shift does not clear ``shift_floor(ops)``
    or a result given as ``start`` belongs to another operand, and
    ``ResolventError`` when Newton stalls from ``eta/lam``.
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
    if isinstance(start, ResolventResult):
        first = start.iterate
        if first is None or first.ops is not ops:
            raise ValueError("warm start was not solved on this operand")
    else:
        first = Iterate.evaluate(ops, eta / lam if start is None
                                 else np.array(start, dtype=float))

    cur, iters, rnorm, ok = _newton(ops, lam, eta, first, tol, cfg.max_iter)
    fallback = ""
    if not ok and start is not None:
        cur, iters2, rnorm, ok = _newton(ops, lam, eta, Iterate.evaluate(
            ops, eta / lam), tol, cfg.max_iter)
        iters += iters2
        fallback = "restart"
    if not ok:
        raise ResolventError("resolvent iteration budget exhausted", rnorm)

    y = cur.y
    out_of_table = not ops.conj.covers(ops.half_sigma_sq * y)
    return ResolventResult(y, rnorm, iters, fallback, out_of_table, cur)
