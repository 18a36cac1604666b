"""The 10,800-input coverage set of the 1-D resolvent solver.

Run as ``python tests/resolvent_coverage.py`` (about 30 s); without a
``test_`` prefix it is not part of the test suite.  It solves the desk
problem on ``Grid1D(10, 201)`` with the closed-form quadratic conjugate and
with ``kinked_table(50, 4097)``, at lam/sup f' in ``RATIOS``.  For each cost
and shift, ``default_rng(1)`` is drawn ``DRAWS`` times for
``eta = a*initial + amp*exp(-((x - c)/w)^2)``, which is solved at
``tol_res = 1e-12`` from three starts: the default, ``s*initial`` and an
N(0, 30) draw.  It prints the count of each exit, the Newton iterations of
the Newton exits, and every input that did not exit through Newton.
"""

import collections
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conftest import desk_problem  # noqa: E402
from mildhjb.conjugate import ConjugateHamiltonian  # noqa: E402
from mildhjb.grid import Grid1D  # noqa: E402
from mildhjb.resolvent import (ResolventConfig, ResolventError,  # noqa: E402
                               solve_resolvent)
from test_resolvent import kinked_table  # noqa: E402

RATIOS = (2.01, 2.02, 2.05, 2.1, 2.2, 2.5)
DRAWS = 300


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


def main():
    cfg = ResolventConfig(tol_res=1e-12)
    exits, newton_iterations, others = collections.Counter(), 0, []
    for label, ops, lam, eta, y_init in inputs():
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


if __name__ == "__main__":
    main()
