"""Running control cost and its Legendre machinery.

The cost ``h`` acts on controls ``u >= 0`` only; everything here works with
the extended cost that is ``+inf`` for ``u < 0``.  The conjugate

    value(p) = sup_{u >= 0} (p*u - h(u))

is convex and nondecreasing, its derivative is the maximizing control (the
resolvent of the cost subgradient plus the normal cone at 0, hence clamped
at 0), and the potential is the antiderivative of the conjugate vanishing
at 0.  ``ConjugateHamiltonian.for_cost`` is the one way from a cost to its
conjugate: the closed form for ``h(u) = a1*u^2 + a2``, otherwise a table of
a bracketed numeric maximization that treats an array of arguments together,
one cost evaluation per iteration for all of them.  The table's potential
is the end-corrected trapezoid of its value and derivative samples, exact
for piecewise cubics, so no quadrature is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ConjugateHamiltonian",
    "CostValidationError",
    "NonConvexCostError",
    "RunningCost",
]


_PROBE_MAX = 10.0  # the bound and convexity are sampled on [0, _PROBE_MAX]


class CostValidationError(ValueError):
    """The supplied cost violates convexity or the quadratic lower bound."""


class NonConvexCostError(RuntimeError):
    """The maximizer bracket was not unimodal; the cost cannot be convex."""


@dataclass(frozen=True)
class RunningCost:
    """Convex control cost with quadratic coercivity.

    Without ``h`` the cost is the closed form ``alpha1*u^2 + alpha2``; with
    it, ``alpha1 > 0`` and ``alpha2 >= 0`` certify the lower bound
    ``h(u) >= alpha1*u^2 + alpha2``, which is checked by sampling at
    construction together with midpoint convexity.

    ``h`` is called once on a whole array of controls, of any shape, and
    should return an array of the same shape.  When it raises ``TypeError``
    or ``ValueError`` (as code written for floats does on an array) or
    returns another shape, it is called on each control as a float instead.
    """

    alpha1: float
    alpha2: float = 0.0
    h: Optional[Callable[[np.ndarray | float], np.ndarray | float]] = None

    def __post_init__(self):
        if not 0 < self.alpha1 < np.inf:
            raise CostValidationError(
                f"alpha1 must be positive and finite, got {self.alpha1}")
        if not 0 <= self.alpha2 < np.inf:
            raise CostValidationError(
                f"alpha2 must be nonnegative and finite, got {self.alpha2}")
        if self.h is not None:
            self._validate_samples()

    @classmethod
    def quadratic(cls, alpha1: float = 1.0, alpha2: float = 0.0) -> "RunningCost":
        return cls(alpha1=alpha1, alpha2=alpha2)

    @classmethod
    def from_callable(cls, h, alpha1, alpha2=0.0) -> "RunningCost":
        return cls(alpha1=alpha1, alpha2=alpha2, h=h)

    def evaluate(self, u):
        """Cost of a control; only defined for u >= 0."""
        u = np.asarray(u, dtype=float)
        if (u < 0).any():
            raise ValueError("running cost is only defined for u >= 0")
        if self.h is None:
            return self.alpha1 * u * u + self.alpha2
        try:
            vals = np.asarray(self.h(u), dtype=float)
            if vals.shape != u.shape:
                raise TypeError
        except (TypeError, ValueError):
            vals = np.array([float(self.h(float(v))) for v in u.ravel()]
                            ).reshape(u.shape)
        return float(vals) if u.ndim == 0 else vals

    def _validate_samples(self, tol: float = 1e-9):
        u = np.linspace(0.0, _PROBE_MAX, 201)
        vals = self.evaluate(u)
        if not np.all(np.isfinite(vals)):
            raise CostValidationError("cost is not finite on the probe grid")
        lower = self.alpha1 * u * u + self.alpha2
        scale = 1.0 + np.abs(vals)
        if np.any(vals < lower - tol * scale):
            k = int(np.argmax(lower - vals))
            raise CostValidationError(
                f"coercivity bound fails at u={u[k]:g}: h={vals[k]:g} < "
                f"{lower[k]:g}")
        mid = 0.5 * (vals[:-2] + vals[2:])
        if np.any(vals[1:-1] > mid + tol * scale[1:-1]):
            k = 1 + int(np.argmax(vals[1:-1] - mid))
            raise CostValidationError(f"midpoint convexity fails near u={u[k]:g}")


_SCAN = 65     # coarse samples per node before the golden section search
_BLOCK = 256   # nodes scanned together by ``_maximize``; bounds the scan array


def _maximize(cost: RunningCost, p):
    """Smallest maximizer of p*u - h(u) over u >= 0, its value, and a tie flag.

    Elementwise over an array ``p``: every node runs the same coarse scan,
    golden section search, Newton polish and tie bisection, and leaves each
    iterative stage at its own iteration; only the nodes still iterating
    are evaluated.  The scan, of ``_SCAN`` samples a node, runs on blocks of
    at most ``_BLOCK`` nodes, once to bracket the maximizer and once more to
    find ties; every other stage runs on all nodes together.
    """
    p = np.asarray(p, dtype=float)
    shape, p = p.shape, p.ravel()

    def gain(pk, u):
        return pk * u - cost.evaluate(u)

    # coercivity confines any maximizer to [0, top]
    h0 = float(cost.evaluate(0.0))
    top = (np.abs(p) + abs(h0)) / cost.alpha1 + 1.0
    blocks = [slice(i, i + _BLOCK) for i in range(0, p.size, _BLOCK)]

    def scan(block):
        u_scan = np.linspace(0.0, top[block], _SCAN, axis=-1)
        return u_scan, gain(p[block, None], u_scan)

    best, step = np.empty_like(p), np.empty_like(p)
    for block in blocks:
        u_scan, g_scan = scan(block)
        scale = 1e-10 * (1.0 + np.max(np.abs(g_scan), axis=-1,
                                      keepdims=True))
        rises = g_scan[:, 1:] > g_scan[:, :-1] + scale
        falls = g_scan[:, 1:] < g_scan[:, :-1] - scale
        if np.any(rises & np.logical_or.accumulate(falls, axis=-1)):
            raise NonConvexCostError(
                "gain p*u - h(u) is not unimodal; cost appears non-convex")
        best[block] = u_scan[np.arange(len(u_scan)),
                             np.argmax(g_scan, axis=-1)]
        step[block] = u_scan[:, 1] - u_scan[:, 0]

    # golden section search on the scan cell pair around the best sample
    a, b = best - step, best + step
    a, b = np.where(a > 0.0, a, 0.0), np.where(b < top, b, top)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    gc, gd = gain(p, c), gain(p, d)
    u_star = np.empty_like(p)
    k, pk = np.arange(p.size), p
    for _ in range(80):
        done = b - a < 1e-14 * (1.0 + a + b)  # a, b >= 0
        if done.any():
            u_star[k[done]] = 0.5 * (a[done] + b[done])
            k, pk, a, b, c, d, gc, gd = (
                v[~done] for v in (k, pk, a, b, c, d, gc, gd))
            if not k.size:
                break
        left = gc > gd
        a, b = np.where(left, a, c), np.where(left, d, b)
        cut = invphi * (b - a)
        x = np.where(left, b - cut, a + cut)
        gx = gain(pk, x)
        c, d, gc, gd = (np.where(left, x, d), np.where(left, c, x),
                        np.where(left, gx, gd), np.where(left, gc, gx))
    u_star[k] = 0.5 * (a + b)

    # Newton polish of interior maximizers from central differences
    k = np.nonzero(u_star > 0)[0]
    eps = 1e-6 * (1.0 + u_star[k])
    for _ in range(4):
        u = u_star[k]
        inside = ~((u - eps < 0.0) | (u + eps > top[k]))
        k, eps, u = k[inside], eps[inside], u[inside]
        if not k.size:
            break
        gp, gm, g0 = gain(p[k], np.stack([u + eps, u - eps, u]))
        g1 = (gp - gm) / (2 * eps)
        # float_power is libm's pow, which can round eps**2 unlike eps*eps
        g2 = (gp - 2 * g0 + gm) / np.float_power(eps, 2)
        concave = np.isfinite(g2) & (g2 < -1e-30)
        k, eps, u, g0 = k[concave], eps[concave], u[concave], g0[concave]
        u_new = u - g1[concave] / g2[concave]
        u_new = np.where(0.0 > u_new, 0.0, u_new)
        u_new = np.where(top[k] < u_new, top[k], u_new)
        better = ~(gain(p[k], u_new) < g0)
        k, eps = k[better], eps[better]
        u_star[k] = u_new[better]

    g_star = gain(p, u_star)
    g_zero = p * 0.0 - h0
    at_zero = g_zero >= g_star
    # ties: bisect the rising edge to the smallest u attaining the maximum
    level = g_star - 1e-11 * (1.0 + np.abs(g_star))
    tie = np.empty(p.size, dtype=bool)
    a, b = np.empty_like(p), np.empty_like(p)  # the rising edge's scan cell
    for block in blocks:
        u_scan, g_scan = scan(block)
        eligible = g_scan >= level[block, None]
        tie[block] = ~at_zero[block] & (np.sum(eligible, axis=-1) > 2)
        first = np.argmax(eligible, axis=-1)
        rows = np.arange(len(u_scan))
        a[block] = np.where(first > 0, u_scan[rows, first - 1], 0.0)
        b[block] = u_scan[rows, first]
    k = np.nonzero(tie)[0]
    if k.size:
        a, b = a[k], np.where(u_star[k] < b[k], u_star[k], b[k])
        for _ in range(80):
            mid = 0.5 * (a + b)
            up = gain(p[k], mid) >= level[k]
            a, b = np.where(up, a, mid), np.where(up, mid, b)
        u_star[k] = b
    u_star = np.where(at_zero, 0.0, u_star)
    g_star = np.where(at_zero, g_zero, g_star)
    return u_star.reshape(shape), g_star.reshape(shape), tie.reshape(shape)


class ConjugateHamiltonian:
    """Packaged conjugate for the solver: value, derivative, potential.

    All evaluators are vectorized.  ``slope``, Newton's Jacobian, is the
    derivative of ``value`` as evaluated: ``derivative`` in closed form.
    ``derivative_lipschitz`` bounds the slope of the derivative (the second
    derivative of the value, finite by the quadratic coercivity of the cost).
    """

    def __init__(self, value_fn, derivative_fn, potential_fn,
                 derivative_lipschitz, p_range=None, ties_detected=False,
                 slope_fn=None):
        self._value = value_fn
        self._derivative = derivative_fn
        self._slope = slope_fn or derivative_fn
        self._potential = potential_fn
        self.derivative_lipschitz = float(derivative_lipschitz)
        self.p_range = p_range
        self.ties_detected = bool(ties_detected)

    def value(self, p):
        return self._value(np.asarray(p, dtype=float))

    def derivative(self, p):
        return self._derivative(np.asarray(p, dtype=float))

    def slope(self, p):
        return self._slope(np.asarray(p, dtype=float))

    def potential(self, r):
        return self._potential(np.asarray(r, dtype=float))

    def covers(self, p) -> bool:
        """True when every argument lies inside the tabulated range."""
        if self.p_range is None:
            return True
        p = np.asarray(p, dtype=float)
        return bool(np.all((p >= self.p_range[0]) & (p <= self.p_range[1])))

    @classmethod
    def quadratic(cls, alpha1: float = 1.0, alpha2: float = 0.0):
        a1, a2 = float(alpha1), float(alpha2)

        def value(p):
            return np.maximum(p, 0.0) ** 2 / (4.0 * a1) - a2

        def derivative(p):
            return np.maximum(p, 0.0) / (2.0 * a1)

        def pot(r):
            return np.maximum(r, 0.0) ** 3 / (12.0 * a1) - a2 * r

        return cls(value, derivative, pot,
                   derivative_lipschitz=1.0 / (2.0 * a1))

    @classmethod
    def tabulate(cls, cost: RunningCost, p_min: float, p_max: float,
                 nodes: int = 4097):
        """Tabulate a callable cost's conjugate on [p_min, p_max].

        Linear interpolation between nodes; beyond the table the derivative
        is extrapolated as a constant (it is globally Lipschitz), so the
        value continues linearly and the potential quadratically.  ``slope``
        is the chord slope of the value's cell (``derivative`` at the ends
        beyond the table), clamped at 0 against rounding.  The
        potential at the nodes sums the end-corrected trapezoid
        ``step/2*(v_k + v_{k+1}) + step^2/12*(d_k - d_{k+1})`` over the value
        and derivative samples, exact where the conjugate is a cubic.
        """
        if not p_min < p_max:
            raise ValueError("need p_min < p_max")
        if int(nodes) < 2:
            raise ValueError(f"need at least 2 nodes, got {nodes}")
        grid = np.linspace(float(p_min), float(p_max), int(nodes))
        ders, vals, ties = _maximize(cost, grid)
        step = np.diff(grid)
        pots = np.concatenate(([0.0], np.cumsum(
            0.5 * (vals[1:] + vals[:-1]) * step
            + step * step / 12.0 * (ders[:-1] - ders[1:]))))
        lip = float(np.max(np.abs(np.diff(ders) / step)))
        slopes = np.r_[ders[0], np.maximum(np.diff(vals) / step, 0), ders[-1]]

        def continued(r, table, below, above):
            # the table inside, below(r - p_min) and above(r - p_max) beyond
            core = np.interp(r, grid, table)
            core = np.where(r < grid[0], below(r - grid[0]), core)
            return np.where(r > grid[-1], above(r - grid[-1]), core)

        def value(p):
            return continued(p, vals, lambda d: vals[0] + ders[0] * d,
                             lambda d: vals[-1] + ders[-1] * d)

        def derivative(p):
            return np.interp(p, grid, ders)

        def slope(p):  # np.interp reads cell k for grid[k] <= p < grid[k+1]
            return slopes[np.searchsorted(grid, p, side="right")]

        def pot(r):
            return continued(
                r, pots,
                lambda d: pots[0] + vals[0] * d + 0.5 * ders[0] * d * d,
                lambda d: pots[-1] + vals[-1] * d + 0.5 * ders[-1] * d * d)

        # anchored so that the potential vanishes at 0, also off the table
        pots -= pot(0.0)
        return cls(value, derivative, pot,
                   derivative_lipschitz=lip,
                   p_range=(float(p_min), float(p_max)),
                   ties_detected=bool(ties.any()), slope_fn=slope)

    @classmethod
    def for_cost(cls, cost: RunningCost, p_min: float = -50.0,
                 p_max: float = 50.0, nodes: int = 4097):
        """Closed form for a cost without ``h``, otherwise the ``tabulate``
        table, whose potential is the end-corrected trapezoid."""
        if cost.h is None:
            return cls.quadratic(cost.alpha1, cost.alpha2)
        return cls.tabulate(cost, p_min, p_max, nodes)
