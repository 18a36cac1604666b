"""Mild-solution solver and feedback synthesis for volatility-controlled
diffusions.

The pipeline: conjugate the running control cost, transform the backward
dynamic-programming problem into a forward nonlinear parabolic equation on
integrable data, march it with implicit resolvent steps, reconstruct the
value function through the Green solve, read the optimal feedback off the
conjugate derivative, and validate the controller by Monte Carlo against
constant-control baselines.
"""

from .conjugate import (ConjugateHamiltonian, CostValidationError,
                        NonConvexCostError, RunningCost, conjugate,
                        conjugate_derivative, potential)
from .degenerate import (DegenerateSweep, VolatilityData, check_linf_bound,
                         solve_degenerate, sup_bound)
from .drift import DriftData, apply_B
from .grid import (Grid1D, Grid2D, diff1_central, diff1_upwind, diff2,
                   green_constants, poisson_gradient, poisson_solve)
from .montecarlo import (ComparisonReport, McReport, SimConfig,
                         SimulationError, compare_policies, simulate_cost)
from .problem import ControlProblem
from .resolvent import (EllipticOperands, ResolventConfig, ResolventError,
                        ResolventResult, apply_A, solve_resolvent)
from .stepper import (EnergyReport, MildSolution, RefineResult,
                      TransformedProblem, energy_report, mild_solve,
                      refine_until, step, sup_time_gap)
from .twodim import Problem2D, solve_L
from .value import (FeedbackPolicy, ValueFunction, interpolate_policy,
                    reconstruct_value, synthesize_feedback)

__version__ = "0.1.0"
