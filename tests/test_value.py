import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_policy, desk_problem, elliptic_operands
from mildhjb.conjugate import ConjugateHamiltonian, RunningCost
from mildhjb.grid import Grid1D, diff1_central, diff2
from mildhjb.stepper import TransformedProblem, mild_solve
from mildhjb.value import (FeedbackPolicy, ValueFunction, interpolate_policy,
                           reconstruct_value, synthesize_feedback)


def desk_value(horizon=0.2, eps=0.01, n=201):
    grid = Grid1D(10.0, n)
    problem = desk_problem(horizon=horizon).discretize(grid)
    sol = mild_solve(problem, eps)
    return problem, sol, reconstruct_value(sol, horizon=horizon)


def test_zero_snapshots_give_zero_value():
    grid = Grid1D(10.0, 201)
    ops = elliptic_operands(grid, ConjugateHamiltonian.quadratic(),
                                 np.sqrt(2.0))
    problem = TransformedProblem(ops, np.zeros(grid.n), np.zeros(grid.n), 0.1)
    vf = reconstruct_value(mild_solve(problem, 0.01))
    assert np.max(np.abs(vf.phi)) == 0.0
    assert np.max(np.abs(vf.phi_x)) == 0.0


def test_terminal_value_recovers_terminal_cost():
    # zero-step run: value at the horizon is the Green solve of -g0''
    grid = Grid1D(10.0, 401)
    control = desk_problem(horizon=0.004)
    problem = control.discretize(grid)
    sol = mild_solve(problem, eps=0.01)
    vf = reconstruct_value(sol, horizon=control.horizon)
    inner = slice(40, 361)
    g0 = np.exp(-grid.x**2)
    gap = np.max(np.abs(vf.phi[-1][inner] - g0[inner]))
    assert gap <= 1e-3


def test_curvature_consistency():
    _, sol, vf = desk_value()
    for phi, curv in zip(vf.phi, vf.curvature):
        np.testing.assert_allclose(diff2(vf.grid, phi)[1:-1], curv[1:-1],
                                   atol=1e-9)
    np.testing.assert_allclose(vf.curvature[-1], -sol.snapshots[0],
                               atol=1e-14)


def test_value_slope_is_the_centered_difference_of_the_value():
    _, sol, vf = desk_value()
    assert vf.phi.shape == vf.phi_x.shape == sol.snapshots.shape
    np.testing.assert_array_equal(vf.phi_x, diff1_central(vf.grid, vf.phi))


def test_value_times_reverse_snapshot_times():
    _, sol, vf = desk_value(horizon=0.2, eps=0.01)
    np.testing.assert_allclose(vf.times, 0.2 - sol.times[::-1], atol=1e-14)
    assert vf.times[0] == pytest.approx(0.0)
    assert vf.times[-1] == pytest.approx(0.2)


def test_convex_value_switches_control_off():
    grid = Grid1D(5.0, 101)
    ops = elliptic_operands(grid, ConjugateHamiltonian.quadratic(),
                                 np.sqrt(2.0))
    times = np.array([0.0, 1.0])
    curvature = np.tile(np.exp(-grid.x**2), (2, 1))  # phi_xx >= 0
    vf = ValueFunction(grid, 1.0, times, np.zeros((2, grid.n)),
                       np.zeros((2, grid.n)), curvature)
    policy = synthesize_feedback(vf, ops)
    assert np.max(policy.u) == 0.0


def test_feedback_matches_brute_force_argmin():
    grid = Grid1D(5.0, 101)
    ops = elliptic_operands(grid, ConjugateHamiltonian.quadratic(),
                                 np.sqrt(2.0))
    times = np.array([0.0, 1.0])
    curvature = np.full((2, grid.n), -4.0)  # phi_xx = -4, sigma^2 = 2
    vf = ValueFunction(grid, 1.0, times, np.zeros((2, grid.n)),
                       np.zeros((2, grid.n)), curvature)
    policy = synthesize_feedback(vf, ops)
    us = np.linspace(0.0, 10.0, 100001)
    brute = us[np.argmin(-4.0 * us + us**2)]
    assert brute == pytest.approx(2.0, abs=1e-4)
    np.testing.assert_allclose(policy.u, 2.0, atol=1e-12)


def test_feedback_scale_covariance():
    # scaling the cost by c rescales the control through the conjugate
    grid = Grid1D(5.0, 101)
    times = np.array([0.0, 1.0])
    curvature = np.full((2, grid.n), -4.0)
    vf = ValueFunction(grid, 1.0, times, np.zeros((2, grid.n)),
                       np.zeros((2, grid.n)), curvature)
    for scale in (0.5, 2.0, 3.0):
        ops = elliptic_operands(
            grid, ConjugateHamiltonian.quadratic(alpha1=scale), np.sqrt(2.0))
        policy = synthesize_feedback(vf, ops)
        us = np.linspace(0.0, 10.0, 200001)
        brute = us[np.argmin(-4.0 * us + scale * us**2)]
        np.testing.assert_allclose(policy.u, brute, atol=1e-4)


def test_argmin_certificate_on_desk_problem():
    problem, _, vf = desk_value()
    ops = problem.operands
    policy = synthesize_feedback(vf, ops)
    rng = np.random.default_rng(17)
    us = np.linspace(0.0, 8.0, 10001)
    for _ in range(40):
        i = rng.integers(0, len(vf.times))
        k = rng.integers(0, vf.grid.n)
        q = ops.half_sigma_sq[k] * vf.curvature[i, k]
        cost = RunningCost.quadratic(1.0, 0.0)
        values = q * us + cost.evaluate(us)
        best = float(np.min(values))
        star = q * policy.u[i, k] + float(cost.evaluate(policy.u[i, k]))
        assert star <= best + 1e-8


def test_policy_nonnegative_everywhere():
    problem, _, vf = desk_value()
    policy = synthesize_feedback(vf, problem.operands)
    assert np.min(policy.u) >= 0.0
    with pytest.raises(ValueError):
        FeedbackPolicy(vf.grid, 1.0, np.array([0.0, 1.0]),
                       np.full((2, vf.grid.n), -0.1))


def test_interpolation_exact_at_nodes():
    problem, _, vf = desk_value()
    policy = synthesize_feedback(vf, problem.operands)
    for i in (0, len(vf.times) // 2, len(vf.times) - 1):
        t = float(vf.times[i])
        vals = interpolate_policy(policy, t, vf.grid.x)
        np.testing.assert_array_equal(vals, policy.u[i])


def test_interpolation_between_equal_values_is_exact():
    grid = Grid1D(2.0, 41)
    policy = constant_policy(grid, 1.0, 0.7)
    assert interpolate_policy(policy, 0.37, 0.123) == 0.7
    assert interpolate_policy(policy, 0.0, -5.0) == 0.7  # clamped in space


def test_interpolation_linear_slice_exact():
    grid = Grid1D(2.0, 41)
    table = np.tile(2.0 * grid.x + 5.0, (2, 1))
    policy = FeedbackPolicy(grid, 1.0, np.array([0.0, 1.0]), table)
    xs = np.array([-1.03, 0.011, 1.77])
    np.testing.assert_allclose(interpolate_policy(policy, 0.5, xs),
                               2.0 * xs + 5.0, atol=1e-12)


def test_constant_extrapolation_outside_domain():
    grid = Grid1D(2.0, 41)
    table = np.tile(np.abs(grid.x), (2, 1))
    policy = FeedbackPolicy(grid, 1.0, np.array([0.0, 1.0]), table)
    assert interpolate_policy(policy, 0.5, 10.0) == pytest.approx(2.0)
    assert interpolate_policy(policy, 2.0, 0.0) == pytest.approx(0.0)
    assert interpolate_policy(policy, -1.0, 0.0) == pytest.approx(0.0)


def two_interp_reference(policy, t, x):
    """The bilinear lookup by two np.interp binary searches."""
    times, table, xs = policy.times, policy.u, policy.grid.x
    i = int(np.searchsorted(times, float(t), side="right")) - 1
    i = min(max(i, 0), len(times) - 2)
    dt = times[i + 1] - times[i]
    wt = 0.0 if dt == 0 else min(max((float(t) - times[i]) / dt, 0.0), 1.0)
    lo = np.interp(x, xs, table[i])
    hi = np.interp(x, xs, table[i + 1])
    return lo + wt * (hi - lo)


@st.composite
def lookup_cases(draw):
    grid = Grid1D(draw(st.sampled_from([0.5, 2.0, 10.0])),
                  draw(st.sampled_from([5, 7, 41, 201])))
    rows = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.uniform(0.0, 10.0, (rows, grid.n))
    # runs of equal values (zero slopes), signed zeros, and a repeated row
    u[:, rng.random(grid.n) < draw(st.floats(0.0, 0.5))] = 1.5
    u[rng.random(u.shape) < draw(st.floats(0.0, 0.3))] = draw(
        st.sampled_from([0.0, -0.0]))
    if draw(st.booleans()):
        u[1] = u[0]
    times = np.sort(draw(st.lists(st.integers(0, 100), min_size=rows,
                                  max_size=rows, unique=True))) / 100.0
    node = st.builds(lambda k, ulps: np.nextafter(grid.x[k], ulps * np.inf)
                     if ulps else grid.x[k],
                     st.integers(0, grid.n - 1), st.sampled_from([-1, 0, 1]))
    point = st.one_of(
        node, node,
        st.floats(-1.5 * grid.half_width, 1.5 * grid.half_width),
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0,
                         grid.half_width, -grid.half_width,
                         1.1 * grid.half_width, -5.0 * grid.half_width]))
    points = draw(st.lists(point, min_size=1, max_size=30))
    shape = draw(st.sampled_from(["scalar", "0-d", "1-d", "2-d"]))
    if shape == "scalar":
        x = points[0]
    elif shape == "0-d":
        x = np.array(points[0])
    elif shape == "1-d":
        x = np.array(points)
    else:
        x = np.array(points[:len(points) // 2 * 2]).reshape(2, -1)
    t = draw(st.one_of(st.floats(-0.5, 1.5), st.sampled_from(list(times))))
    return FeedbackPolicy(grid, 1.0, times, u), t, x


@settings(max_examples=300, deadline=None)
@given(case=lookup_cases())
def test_direct_index_lookup_equals_two_interp_reference_bitwise(case):
    policy, t, x = case
    got = interpolate_policy(policy, t, x)
    want = two_interp_reference(policy, t, x)
    assert np.shape(got) == np.shape(want)
    assert isinstance(got, np.ndarray) == isinstance(want, np.ndarray)
    np.testing.assert_array_equal(np.asarray(got, dtype=float).view(np.int64),
                                  np.asarray(want, dtype=float).view(np.int64))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_table_follows_np_interp(bad):
    # np.interp retries a NaN from the left node at the right node: next to
    # an infinite node it returns inf where the direct cell arithmetic,
    # -inf * d + inf, gives NaN
    grid = Grid1D(2.0, 41)
    u = np.tile(np.abs(grid.x), (2, 1))
    u[1, 20] = bad
    policy = FeedbackPolicy(grid, 1.0, np.array([0.0, 1.0]), u)
    x = np.linspace(-2.5, 2.5, 203)
    with np.errstate(all="ignore"):
        got = interpolate_policy(policy, 0.5, x)
        want = two_interp_reference(policy, 0.5, x)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_value_continuity_improves_with_smaller_steps():
    def max_consecutive_gap(eps):
        _, _, vf = desk_value(horizon=0.2, eps=eps)
        gaps = []
        for a, b in zip(vf.phi, vf.phi[1:]):
            gaps.append(np.max(np.abs(a - b)))
        return max(gaps)

    assert max_consecutive_gap(0.005) < max_consecutive_gap(0.02)


def test_value_sup_norm_proxy_is_finite():
    _, _, vf = desk_value()
    sup_phi, sup_slope = vf.sup_norms()
    assert np.isfinite(sup_phi) and np.isfinite(sup_slope)
    assert sup_phi > 0 and sup_slope > 0
