import contextlib
import os
import pickle
import signal
import tempfile

import numpy as np
import pytest

from mildhjb.conjugate import ConjugateHamiltonian, RunningCost
from mildhjb.drift import DriftData
from mildhjb.grid import Grid1D
from mildhjb.problem import ControlProblem
from mildhjb.resolvent import EllipticOperands
from mildhjb.stepper import MildSolution, TransformedProblem
from mildhjb.value import FeedbackPolicy


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process, running or unreaped: a
    worker that outlives its call would outlive a CLI run too."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError here if the block still runs after ``seconds``."""
    def timeout(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def linear_conjugate() -> ConjugateHamiltonian:
    """Identity conjugate; turns the flux into plain diffusion."""
    return ConjugateHamiltonian(lambda p: p + 0.0,
                                lambda p: np.ones_like(p),
                                lambda r: 0.5 * r * r,
                                derivative_lipschitz=0.0)


def zero_conjugate() -> ConjugateHamiltonian:
    """Vanishing conjugate; switches the nonlinear flux off."""
    return ConjugateHamiltonian(lambda p: np.zeros_like(p),
                                lambda p: np.zeros_like(p),
                                lambda r: np.zeros_like(r),
                                derivative_lipschitz=0.0)


def constant_policy(grid: Grid1D, horizon: float,
                    level: float) -> FeedbackPolicy:
    """Feedback table holding one constant control everywhere."""
    times = np.array([0.0, horizon])
    u = np.full((2, grid.n), float(level))
    return FeedbackPolicy(grid, times, u)


def first_step_states(march, policy):
    """Every path's state at the first step after t = 0, in path order, as
    ``policy`` sees it while ``march(spy)`` runs it behind a spy; the
    march must run in this process."""
    calls = []

    def spy(t, x):
        calls.append((t, np.array(x, dtype=float)))
        return policy(t, x)

    march(spy)
    first = min(t for t, _ in calls if t > 0)
    return np.concatenate([x for t, x in calls if t == first])


def trap(policy, states, path):
    """``policy``, but raising ArithmeticError on the state that ``path``
    alone holds at the first step after t = 0."""
    value = states[path]
    assert np.count_nonzero(states == value) == 1

    def trapped(t, x):
        if np.any(x == value):
            raise ArithmeticError(f"path {path} reached {value!r}")
        return policy(t, x)

    return trapped


def tanh_drift(grid: Grid1D, scale: float = 1.0) -> DriftData:
    return DriftData.from_callables(
        grid,
        lambda x: scale * np.tanh(x),
        lambda x: scale / np.cosh(x) ** 2,
        lambda x: -2.0 * scale * np.tanh(x) / np.cosh(x) ** 2)


def desk_problem(horizon: float = 0.5) -> ControlProblem:
    """Reference smooth problem: tanh drift, wavy volatility, Gaussian costs."""
    return ControlProblem(
        f=np.tanh,
        f_x=lambda x: 1.0 / np.cosh(x) ** 2,
        f_xx=lambda x: -2.0 * np.tanh(x) / np.cosh(x) ** 2,
        sigma=lambda x: np.sqrt(2.0) + 0.1 * np.sin(x),
        sigma_x=lambda x: 0.1 * np.cos(x),
        sigma_xx=lambda x: -0.1 * np.sin(x),
        g=lambda x: np.exp(-x * x),
        g_xx=lambda x: (4.0 * x * x - 2.0) * np.exp(-x * x),
        g0=lambda x: np.exp(-x * x),
        g0_xx=lambda x: (4.0 * x * x - 2.0) * np.exp(-x * x),
        cost=RunningCost.quadratic(1.0, 0.0),
        horizon=horizon)


def elliptic_operands(grid: Grid1D, conj: ConjugateHamiltonian, sigma,
                      drift: DriftData | None = None,
                      use_perturbation: bool = True) -> EllipticOperands:
    """The operand for ``sigma`` (a callable or an array) on ``grid``."""
    sig = np.asarray(sigma(grid.x) if callable(sigma) else sigma,
                     dtype=float) + np.zeros(grid.n)
    return EllipticOperands(grid, conj, 0.5 * sig * sig, drift,
                            use_perturbation)


def heat_problem(grid: Grid1D, width: float = 0.5,
                 horizon: float = 0.25) -> TransformedProblem:
    """Identity conjugate, unit multiplier, no drift: plain diffusion."""
    ops = elliptic_operands(grid, linear_conjugate(), np.sqrt(2.0))
    y0 = np.exp(-grid.x**2 / (2.0 * width**2)) / np.sqrt(2 * np.pi * width**2)
    return TransformedProblem(ops, y0, np.zeros(grid.n), horizon)


def stored_run(problem: TransformedProblem, eps: float, states,
               diagnostics=()) -> MildSolution:
    """The run of ``problem`` at ``eps`` that holds ``states`` (one per time
    of its schedule) and ``diagnostics``, written to an unlinked temporary
    file as ``mild_solve`` writes a run."""
    with tempfile.TemporaryFile() as file:
        file.write(np.ascontiguousarray(states, dtype=float))
        pickle.dump(list(diagnostics), file, protocol=5)
        file.flush()
        return MildSolution(eps, problem, file)


def heat_exact(grid: Grid1D, width: float, t: float) -> np.ndarray:
    s2 = width**2 + 2.0 * t
    return np.exp(-grid.x**2 / (2.0 * s2)) / np.sqrt(2 * np.pi * s2)


@pytest.fixture
def grid201() -> Grid1D:
    return Grid1D(10.0, 201)
