"""The 10,800-input coverage set of the 1-D resolvent solver, and a
720-input 2-D set.

Run as ``python tests/resolvent_coverage.py`` (about 25 s); without a
``test_`` prefix it is not part of the test suite.  It solves the desk
problem on ``Grid1D(10, 201)`` with the closed-form quadratic conjugate and
with ``kinked_table(50, 4097)``, at lam/sup f' in ``RATIOS``.  For each cost
and shift, ``default_rng(1)`` is drawn ``DRAWS`` times for
``eta = a*initial + amp*exp(-((x - c)/w)^2)``, which is solved at
``tol_res = 1e-12`` from three starts: the default, ``s*initial`` and an
N(0, 30) draw.  It prints the count of each exit, the Newton iterations of
the Newton exits, and every input that did not exit through Newton.

The 2-D set solves ``Problem2D`` on ``Grid2D(6, 41)`` with the benchmark's
planar factor matrix and ``sigma0``, under the quadratic conjugate and the
tabulated conjugate of ``h = u^2 + 0.25*u``, at the shifts ``SHIFTS_2D``.
For each cost and shift, ``default_rng(2)`` is drawn ``DRAWS_2D`` times for
``eta = a*initial + amp*exp(-((x - c1)^2 + (y - c2)^2)/w^2)``, solved the
same way from the default start, ``s*initial`` and an N(0, 30) draw.  It
prints the same report for this set after the 1-D one.

It exits 1 if any input of either set ended in ``ResolventError``, else 0.
The expected report, 1-D then 2-D::

    newton: 10799
    restart: 1
    newton iterations: 112620
    kinked ratio=2.01 draw=255 start=normal: restart, 39 iterations
    2-D set:
    newton: 720
    newton iterations: 3392
"""

import collections
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conftest import desk_problem  # noqa: E402
from mildhjb.conjugate import ConjugateHamiltonian, RunningCost  # noqa: E402
from mildhjb.expressions import parse_expression  # noqa: E402
from mildhjb.grid import Grid1D, Grid2D  # noqa: E402
from mildhjb.resolvent import (ResolventConfig, ResolventError,  # noqa: E402
                               solve_resolvent)
from mildhjb.twodim import Problem2D  # noqa: E402
from test_resolvent import kinked_table  # noqa: E402

RATIOS = (2.01, 2.02, 2.05, 2.1, 2.2, 2.5)
DRAWS = 300
SHIFTS_2D = (5.0, 50.0, 500.0)
DRAWS_2D = 40


def inputs():
    """``(label, ops, lam, eta, y_init)`` for every input of the set."""
    g = Grid1D(10.0, 201)
    for name, conj in (("quadratic", ConjugateHamiltonian.quadratic()),
                       ("kinked", kinked_table(50.0, 4097))):
        problem = desk_problem().discretize(g, conj=conj)
        ops = problem.operands
        for ratio in RATIOS:
            rng = np.random.default_rng(1)
            for draw in range(DRAWS):
                a, c = rng.uniform(-4.0, 4.0, 2)
                w = rng.uniform(0.3, 2.0)
                amp = rng.uniform(-6.0, 6.0)
                s = rng.uniform(-3.0, 3.0)
                noise = rng.normal(0.0, 30.0, g.n)
                eta = (a * problem.initial
                       + amp * np.exp(-((g.x - c) / w) ** 2))
                for start, y_init in (("default", None),
                                      ("scaled", s * problem.initial),
                                      ("normal", noise)):
                    yield (f"{name} ratio={ratio} draw={draw} start={start}",
                           ops, ratio * ops.lam0, eta, y_init)


def inputs_2d():
    """``(label, ops, lam, eta, y_init)`` for every input of the 2-D set."""
    g = Grid2D(6.0, 41)
    X, Y = g.mesh
    sigma0 = np.sqrt(2.0) + 0.1 * np.sin(X) * np.cos(Y)
    tabulated = RunningCost.from_callable(
        parse_expression("u^2 + 0.25*u", ("u",)), alpha1=1.0)
    for name, cost in (("quadratic", RunningCost.quadratic(1.0)),
                       ("tabulated", tabulated)):
        ops = Problem2D(g, [[1.0, 0.3], [0.0, 1.0]], sigma0,
                        ConjugateHamiltonian.for_cost(cost))
        initial = -ops._apply_matrix(np.exp(-(X**2 + Y**2)))
        for lam in SHIFTS_2D:
            rng = np.random.default_rng(2)
            for draw in range(DRAWS_2D):
                a = rng.uniform(-4.0, 4.0)
                c1, c2 = rng.uniform(-3.0, 3.0, 2)
                w = rng.uniform(0.3, 2.0)
                amp = rng.uniform(-6.0, 6.0)
                s = rng.uniform(-3.0, 3.0)
                noise = rng.normal(0.0, 30.0, ops.shape)
                eta = (a * initial
                       + amp * np.exp(-((X - c1)**2 + (Y - c2)**2) / w**2))
                for start, y_init in (("default", None),
                                      ("scaled", s * initial),
                                      ("normal", noise)):
                    yield (f"2d {name} lam={lam:g} draw={draw} "
                           f"start={start}", ops, lam, eta, y_init)


def report(inputs) -> int:
    """Solve every input; print the exits, the Newton exits' iterations and
    every input that did not exit through Newton.  Returns the count of
    ``ResolventError`` exits."""
    cfg = ResolventConfig(tol_res=1e-12)
    exits, newton_iterations, others = collections.Counter(), 0, []
    for label, ops, lam, eta, y_init in inputs:
        try:
            res = solve_resolvent(ops, lam, eta, cfg, y_init=y_init)
        except ResolventError as exc:
            exits["ResolventError"] += 1
            others.append(f"{label}: ResolventError: {exc}")
            continue
        exit_ = res.fallback or "newton"
        exits[exit_] += 1
        if exit_ == "newton":
            newton_iterations += res.iterations
        else:
            others.append(f"{label}: {exit_}, {res.iterations} iterations")
    for exit_, count in sorted(exits.items()):
        print(f"{exit_}: {count}")
    print(f"newton iterations: {newton_iterations}")
    print("\n".join(others))
    return exits["ResolventError"]


def main() -> int:
    errors = report(inputs())
    print("2-D set:")
    errors += report(inputs_2d())
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
