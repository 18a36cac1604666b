"""Solver path for volatility without a positive lower bound.

The squared volatility is lifted by a regularization weight, the standard
stepper runs at each level of a decreasing ladder, and the sup-in-time L1
gaps between adjacent levels are reported (convergence is exhibited, never
asserted with a rate).  Each level also gets a sup-norm certificate: a
constant barrier M computed from the flux curvature bound and the volatility
derivative norms must dominate every snapshot.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conjugate import ConjugateHamiltonian
from .grid import Grid1D, check_table, green_constants, tabulate
from .resolvent import ResolventConfig
from .stepper import MildSolution, mild_solve, step_lengths, sup_time_gap

__all__ = [
    "BoundReport",
    "DegenerateSweep",
    "VolatilityData",
    "check_linf_bound",
    "solve_degenerate",
    "sup_bound",
]


@dataclass(frozen=True)
class VolatilityData:
    """Volatility with two derivatives tabulated (C_b^2 surrogate)."""

    grid: Grid1D
    sigma: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        for name in ("sigma", "sigma1", "sigma2"):
            check_table(name, getattr(self, name), (self.grid.n,))

    @classmethod
    def from_callables(cls, grid, sigma, sigma1=None, sigma2=None):
        return cls(grid, *tabulate(grid, sigma, sigma1, sigma2))

    @property
    def slope_product_sup(self) -> float:
        """sup |sigma * sigma'|."""
        return float(np.max(np.abs(self.sigma * self.sigma1)))

    @property
    def curvature_product_sup(self) -> float:
        """sup |sigma * sigma'' + (sigma')^2|."""
        return float(np.max(np.abs(self.sigma * self.sigma2
                                   + self.sigma1**2)))


def sup_bound(conj: ConjugateHamiltonian, vol: VolatilityData,
              regularization: float, lam: float, eta_inf: float
              ) -> Optional[float]:
    """Smallest constant barrier M certifying -M <= y <= M for one solve.

    A constant M is a barrier when

        lam*M >= eta_inf + (value(s*M))'' evaluated through the chain rule,

    with s = (sigma^2 + regularization)/2, s' = sigma*sigma' and
    s'' = sigma*sigma'' + (sigma')^2.  Bounding the derivative of the value
    at argument s*M by its slope at 0 plus the Lipschitz constant times the
    argument turns this into a quadratic inequality in M; the smallest root
    is returned, or None when no constant barrier is certifiable at this
    shift (with a drift, the net shift ``check_linf_bound`` derives).
    """
    hxx = conj.derivative_lipschitz
    s_inf = 0.5 * (float(np.max(vol.sigma**2)) + regularization)
    c2 = hxx * (vol.slope_product_sup**2
                + s_inf * vol.curvature_product_sup)
    c1 = float(conj.derivative(0.0)) * vol.curvature_product_sup
    if lam <= c1:
        return None
    if c2 <= 0:
        return eta_inf / (lam - c1)
    disc = (lam - c1) ** 2 - 4.0 * c2 * eta_inf
    if disc < 0:
        return None
    return ((lam - c1) - np.sqrt(disc)) / (2.0 * c2)


@dataclass
class BoundReport:
    """Per-step sup-norm certificates for one ladder level.

    ``lams`` holds the shift each step was solved at: ``1/eps``, and
    ``1/partial_step`` for a shortened last step.
    """

    lams: np.ndarray
    bounds: np.ndarray
    y_inf: np.ndarray
    certified: np.ndarray
    passed: bool
    min_slack: float


def check_linf_bound(sol: MildSolution, vol: VolatilityData,
                     regularization: float) -> BoundReport:
    """Certify every step of a run against its constant barrier, each
    step's ``eta`` formed from the snapshots as ``mild_solve`` forms it.

    A drift adds ``-f*y' + f''*phi_x - 2f'*y``.  Where y_k peaks (or dips)
    the upwinded transport is >= 0, ``-2f'*y >= -2 sup|f'| y_k`` and
    ``|f''*phi_x| <= max|f''| * c_grad * ||y_k||_1`` (``c_grad`` the exact
    Green slope norm): the shift drops by ``2 sup|f'|``, ``eta_inf`` gains
    the last bound."""
    steps = np.array(step_lengths(sol.problem.horizon, sol.eps))[:, None]
    ys = sol.snapshots
    eta_inf = np.abs(sol.problem.source + ys[:-1] / steps).max(axis=1)
    y_inf = np.abs(ys[1:]).max(axis=1)
    lams = shifts = 1.0 / steps[:, 0]
    drift = sol.operands.drift
    if drift is not None:
        shifts = lams - 2.0 * drift.slope_sup
        c = float(np.max(np.abs(drift.f2))) * green_constants(sol.grid)[1]
        eta_inf = eta_inf + c * np.array([sol.grid.norm1(y) for y in ys[1:]])
    bounds = [sup_bound(sol.operands.conj, vol, regularization, lam, e)
              for lam, e in zip(shifts, eta_inf)]
    certified = np.array([m is not None for m in bounds], dtype=bool)
    bounds = np.array([np.inf if m is None else m for m in bounds])
    ok = bool(np.all(certified) and np.all(y_inf <= bounds))
    slack = float(np.min(bounds - y_inf)) if bounds.size else np.inf
    return BoundReport(lams=lams, bounds=bounds, y_inf=y_inf,
                       certified=certified, passed=ok, min_slack=slack)


@dataclass
class DegenerateSweep:
    """Ladder of regularized runs with inter-level gaps and bound checks."""

    levels: list[float]
    solutions: list[MildSolution]
    gaps: list[float]
    bound_reports: list[BoundReport]
    gaps_monotone: bool


def solve_degenerate(problem, grid: Grid1D, eps: float, ladder,
                     cfg: Optional[ResolventConfig] = None) -> DegenerateSweep:
    """Run the stepper at every level of a decreasing ladder of positive
    regularization weights: level ``w`` marches the ``ControlProblem``
    ``problem.discretize(grid, conj, w)``, ``conj`` the cost's conjugate (a
    table on [-50, 50] unless quadratic)."""
    levels = [float(v) for v in ladder]
    if not all(w > 0 for w in levels):
        raise ValueError(f"regularization weights must be positive: {levels}")
    if any(b >= a for a, b in zip(levels, levels[1:])):
        raise ValueError("regularization ladder must be strictly decreasing")
    conj = ConjugateHamiltonian.for_cost(problem.cost)
    vol = problem.volatility_data(grid)
    solutions: list[MildSolution] = []
    reports: list[BoundReport] = []
    for level in levels:
        sol = mild_solve(problem.discretize(grid, conj, level), eps, cfg=cfg)
        solutions.append(sol)
        reports.append(check_linf_bound(sol, vol, level))
    gaps = [sup_time_gap(a, b) for a, b in zip(solutions, solutions[1:])]
    monotone = all(b < a or a == b == 0.0 for a, b in zip(gaps, gaps[1:]))
    if not monotone:
        warnings.warn("inter-level gaps are not monotonically decreasing",
                      RuntimeWarning, stacklevel=2)
    return DegenerateSweep(levels=levels, solutions=solutions, gaps=gaps,
                           bound_reports=reports, gaps_monotone=monotone)
