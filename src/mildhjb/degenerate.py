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
from .drift import DriftData
from .grid import Grid1D, check_table, tabulate
from .resolvent import EllipticOperands, ResolventConfig
from .stepper import MildSolution, TransformedProblem, mild_solve, sup_time_gap

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
    shift.
    """
    hxx = conj.derivative_lipschitz
    s_inf = 0.5 * (float(np.max(vol.sigma**2)) + regularization)
    c2 = hxx * (vol.slope_product_sup**2
                + s_inf * vol.curvature_product_sup)
    c1 = conj.derivative_at_zero * vol.curvature_product_sup
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


def check_linf_bound(sol: MildSolution, conj: ConjugateHamiltonian,
                     vol: VolatilityData, regularization: float
                     ) -> BoundReport:
    """Certify every recorded step of a run against its constant barrier."""
    lams = np.full(len(sol.diagnostics), 1.0 / sol.eps)
    if sol.partial_step:
        lams[-1] = 1.0 / sol.partial_step
    bounds, y_inf, certified = [], [], []
    for lam, d in zip(lams, sol.diagnostics):
        m = sup_bound(conj, vol, regularization, lam, d.eta_inf)
        certified.append(m is not None)
        bounds.append(np.inf if m is None else m)
        y_inf.append(d.y_inf)
    bounds = np.asarray(bounds)
    y_inf = np.asarray(y_inf)
    certified = np.asarray(certified, dtype=bool)
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


def solve_degenerate(grid: Grid1D, conj: ConjugateHamiltonian,
                     vol: VolatilityData, initial, source, horizon: float,
                     eps: float, ladder,
                     drift: Optional[DriftData] = None,
                     cfg: Optional[ResolventConfig] = None) -> DegenerateSweep:
    """Run the stepper at every regularization level of a decreasing ladder."""
    levels = [float(v) for v in ladder]
    if any(b >= a for a, b in zip(levels, levels[1:])):
        raise ValueError("regularization ladder must be strictly decreasing")
    solutions: list[MildSolution] = []
    reports: list[BoundReport] = []
    for level in levels:
        ops = EllipticOperands(
            grid=grid, conj=conj,
            half_sigma_sq=0.5 * (vol.sigma**2 + level),
            drift=drift)
        problem = TransformedProblem(ops, np.asarray(initial, dtype=float),
                                     np.asarray(source, dtype=float), horizon)
        sol = mild_solve(problem, eps, cfg=cfg)
        solutions.append(sol)
        reports.append(check_linf_bound(sol, conj, vol, level))
    gaps = [sup_time_gap(a, b) for a, b in zip(solutions, solutions[1:])]
    monotone = all(b < a or a == b == 0.0 for a, b in zip(gaps, gaps[1:]))
    if not monotone:
        warnings.warn("inter-level gaps are not monotonically decreasing",
                      RuntimeWarning, stacklevel=2)
    return DegenerateSweep(levels=levels, solutions=solutions, gaps=gaps,
                           bound_reports=reports, gaps_monotone=monotone)
