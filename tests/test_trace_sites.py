"""The benchmark's tracer wraps module-level names of mildhjb by name.

A refactor that renames or drops one of them breaks every traced benchmark
run, so installing the tracer is checked here, in a fresh interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

from test_cli import SOLVE_2D

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_every_site():
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import layers; layers.install()")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"),
         str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


TRACED_MARCH = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
import layers
from mildhjb import stepper
from mildhjb.conjugate import ConjugateHamiltonian
from mildhjb.drift import DriftData
from mildhjb.grid import Grid1D
from mildhjb.resolvent import EllipticOperands

tracer = layers.install()
evaluations = [0]
terms = EllipticOperands.terms


def counted(self, *args):
    evaluations[0] += 1
    return terms(self, *args)


EllipticOperands.terms = counted
grid = Grid1D(5.0, 41)
drift = DriftData.from_callables(grid, np.tanh)
ops = EllipticOperands(grid, ConjugateHamiltonian.quadratic(), np.ones(grid.n),
                       drift=drift)
y0 = (4.0 * grid.x**2 - 2.0) * np.exp(-grid.x**2)
problem = stepper.TransformedProblem(ops, y0, np.zeros(grid.n), 0.1)
stepper.mild_solve(problem, 0.025)
print(json.dumps({"evaluations": evaluations[0],
                  "calls": tracer.summary()["calls"]}))
"""


def test_traced_march_calls_the_perturbation_per_residual():
    # the trace times the perturbation and its Green solve through these
    # names; a full operator evaluation (every residual is assembled from
    # one) that bypassed them would read as free
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_MARCH, str(ROOT / "src"),
         str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    calls, evaluations = record["calls"], record["evaluations"]
    assert evaluations > 0
    assert calls["stepper.step"] == calls["resolvent.solve"] == 4
    assert calls["drift.apply_B"] >= evaluations
    assert calls["grid.green"] >= evaluations


TRACED_2D = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import layers

tracer = layers.install()
from mildhjb import cli

assert cli.run("solve-2d", sys.argv[3], out_dir=sys.argv[4], quiet=True) == 0
print(json.dumps(tracer.summary()["calls"]))
"""


def test_traced_2d_names_are_the_generic_functions():
    # the trace wraps these aliases as the 2-D march and resolvent; a
    # forwarder behind either name would fork the 2-D path from the 1-D one
    from mildhjb import cli, resolvent, stepper, twodim
    assert cli.mild_solve_2d is stepper.march
    assert twodim.solve_resolvent_2d is resolvent.solve_resolvent


def test_traced_2d_run_reaches_the_2d_sites(tmp_path):
    # the trace times the 2-D march and its Green solve through the names
    # cli.mild_solve_2d and cli.solve_L
    config = tmp_path / "planar.cfg"
    config.write_text(SOLVE_2D)
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_2D, str(ROOT / "src"),
         str(ROOT / "perfbench"), str(config), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.splitlines()[-1])
    assert calls["twodim.mild_solve"] == calls["twodim.solve_L"] == 1
