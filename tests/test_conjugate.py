import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mildhjb import conjugate
from mildhjb.conjugate import (ConjugateHamiltonian, CostValidationError,
                               NonConvexCostError, RunningCost, _maximize)
from mildhjb.expressions import parse_expression

QUAD = RunningCost.quadratic(1.0, 0.0)
CONJ = ConjugateHamiltonian.for_cost(QUAD)

trapezoid = getattr(np, "trapezoid", None) or np.trapz


def brute_sup(cost, p, top=10.0, step=1e-5):
    u = np.arange(0.0, top + step, step)
    gains = p * u - cost.evaluate(u)
    k = int(np.argmax(gains))
    return float(gains[k]), float(u[k])


def test_conjugate_matches_brute_force():
    value, arg = brute_sup(QUAD, 2.0)
    assert value == pytest.approx(1.0, abs=1e-8)
    assert arg == pytest.approx(1.0, abs=1e-4)
    assert float(CONJ.value(2.0)) == pytest.approx(1.0, abs=1e-12)
    assert float(CONJ.derivative(2.0)) == pytest.approx(1.0, abs=1e-12)


def test_conjugate_negative_and_zero_argument():
    assert CONJ.value(-3.0) == 0.0
    assert CONJ.value(0.0) == 0.0
    assert CONJ.derivative(-5.0) == 0.0


def test_derivative_consistent_with_finite_difference():
    step = 1e-6
    fd = (CONJ.value(2.0 + step) - CONJ.value(2.0 - step)) / (2 * step)
    assert fd == pytest.approx(1.0, abs=1e-4)


def test_potential_values():
    # quadrature oracle for the closed form: integral of p^2/4 from 0 to 2
    ps = np.linspace(0.0, 2.0, 20001)
    oracle = float(trapezoid(ps**2 / 4.0, ps))
    assert oracle == pytest.approx(2.0 / 3.0, abs=1e-8)
    assert float(CONJ.potential(2.0)) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert CONJ.potential(0.0) == 0.0
    assert CONJ.potential(-1.0) == 0.0


def test_callable_backend_matches_closed_form():
    cost = RunningCost.from_callable(lambda u: u * u, alpha1=1.0)
    for p in (-2.0, 0.0, 0.7, 2.0, 5.0):
        u_star, value, _ = _maximize(cost, p)
        assert value == pytest.approx(CONJ.value(p), abs=1e-9)
        assert u_star == pytest.approx(CONJ.derivative(p), abs=1e-6)
    table = ConjugateHamiltonian.for_cost(cost, -4.0, 4.0, nodes=4097)
    assert 2.0 in np.linspace(-4.0, 4.0, 4097)
    assert float(table.potential(2.0)) == pytest.approx(2.0 / 3.0, abs=1e-8)


@settings(max_examples=200, deadline=None)
@given(p=st.floats(-40.0, 40.0), u=st.floats(0.0, 20.0))
def test_fenchel_young_inequality(p, u):
    assert p * u <= CONJ.value(p) + float(QUAD.evaluate(u)) + 1e-9


@settings(max_examples=100, deadline=None)
@given(p=st.floats(-40.0, 40.0))
def test_fenchel_young_equality_at_maximizer(p):
    u = float(CONJ.derivative(p))
    gap = CONJ.value(p) + float(QUAD.evaluate(u)) - p * u
    assert abs(gap) <= 1e-8


@settings(max_examples=100, deadline=None)
@given(p1=st.floats(-30.0, 30.0), p2=st.floats(-30.0, 30.0))
def test_monotonicity(p1, p2):
    lo, hi = min(p1, p2), max(p1, p2)
    assert CONJ.value(lo) <= CONJ.value(hi) + 1e-12
    assert CONJ.derivative(lo) <= CONJ.derivative(hi) + 1e-12


def test_growth_cap():
    cost = RunningCost.quadratic(0.7, 0.3)
    conj = ConjugateHamiltonian.for_cost(cost)
    h0 = float(cost.evaluate(0.0))
    for p in np.linspace(-20, 20, 81):
        assert conj.value(p) <= p**2 / (4 * 0.7) + abs(0.3) + abs(h0) + 1e-12


def test_scaling_inequality_for_quadratic():
    # doubling the argument scales the potential by a measured constant c2;
    # the conjugate then satisfies value(v)*v <= (c2 - 1) * potential(v)
    vs = np.linspace(0.05, 8.0, 160)
    ratios = [CONJ.potential(2 * v) / CONJ.potential(v) for v in vs]
    c2 = max(ratios)
    assert c2 == pytest.approx(8.0, rel=1e-9)
    for v in vs:
        assert CONJ.value(v) * v <= (c2 - 1.0) * CONJ.potential(v) + 1e-9


def test_cost_validation_rejects_bad_parameters():
    with pytest.raises(CostValidationError):
        RunningCost.quadratic(0.0)
    with pytest.raises(CostValidationError):
        RunningCost.quadratic(1.0, -0.5)
    with pytest.raises(CostValidationError):
        RunningCost.from_callable(lambda u: np.sin(3 * u), alpha1=1.0)
    with pytest.raises(CostValidationError):
        # violates the coercivity certificate
        RunningCost.from_callable(lambda u: 0.1 * u * u, alpha1=1.0)
    with pytest.raises(CostValidationError, match="not finite"):
        RunningCost.from_callable(
            lambda u: np.where(u > 3.0, np.inf, u * u), alpha1=1.0)
    with pytest.raises(CostValidationError, match="midpoint convexity"):
        # above 0.5*u^2 everywhere, but not convex
        RunningCost.from_callable(lambda u: u * u + 2.0 + np.sin(3.0 * u),
                                  alpha1=0.5)


@pytest.mark.parametrize("alpha1, alpha2", [(np.inf, 0.0), (1.0, np.nan),
                                            (1.0, np.inf)],
                         ids=["alpha1-inf", "alpha2-nan", "alpha2-inf"])
def test_cost_sizes_must_be_finite(alpha1, alpha2):
    # a nan alpha2 once failed only in the march, and an infinite alpha1
    # gave the feedback 0 everywhere
    with pytest.raises(CostValidationError, match="finite, got"):
        RunningCost.quadratic(alpha1, alpha2)


@pytest.mark.parametrize("nodes", [0, 1, 2.5, 3.0, True])
def test_table_needs_two_nodes(nodes):
    # one node once failed inside numpy on an empty reduction, and 2.5
    # nodes once built 2
    with pytest.raises(ValueError, match="need at least 2 nodes"):
        ConjugateHamiltonian.tabulate(QUAD, -1.0, 1.0, nodes=nodes)


@pytest.mark.parametrize("p_max", [-1.0, -2.0])
def test_table_range_must_be_increasing(p_max):
    with pytest.raises(ValueError, match="need p_min < p_max"):
        ConjugateHamiltonian.tabulate(QUAD, -1.0, p_max, 65)


def test_cost_never_evaluated_on_negative_controls():
    with pytest.raises(ValueError):
        QUAD.evaluate(-0.5)


def test_nonconvex_cost_detected_in_bracket(monkeypatch):
    # convex on the validation probe window, a dip further out
    monkeypatch.setattr(conjugate, "_PROBE_MAX", 2.0)
    dipped = RunningCost.from_callable(
        lambda u: u * u - 6.0 * np.exp(-4.0 * (u - 6.0) ** 2), alpha1=0.75)
    with pytest.raises(NonConvexCostError):
        _maximize(dipped, 4.0)


def piecewise_flat_cost():
    # slope 2 on [1, 2]: every u there maximizes the gain at p = 2
    def h(u):
        u = np.asarray(u, dtype=float)
        return np.where(u < 1, u * u,
                        np.where(u <= 2, 2 * u - 1, u * u - 2 * u + 3))

    return RunningCost.from_callable(h, alpha1=0.5)


def test_smallest_maximizer_on_flat_segment():
    cost = piecewise_flat_cost()
    u, _, _ = _maximize(cost, 2.0)
    assert u == pytest.approx(1.0, abs=1e-3)


def test_tabulated_backend_flags_ties():
    table = ConjugateHamiltonian.tabulate(piecewise_flat_cost(), -3.0, 3.0,
                                          nodes=7)
    assert table.ties_detected


def test_tabulated_backend_accuracy_and_extrapolation():
    cost = RunningCost.from_callable(lambda u: u * u, alpha1=1.0)
    table = ConjugateHamiltonian.tabulate(cost, -4.0, 4.0, nodes=4097)
    ps = np.linspace(-3.5, 3.5, 57)
    np.testing.assert_allclose(table.value(ps), np.maximum(ps, 0) ** 2 / 4,
                               atol=5e-6)
    np.testing.assert_allclose(table.derivative(ps), np.maximum(ps, 0) / 2,
                               atol=5e-6)
    np.testing.assert_allclose(table.potential(ps),
                               np.maximum(ps, 0) ** 3 / 12, atol=5e-6)
    assert float(table.potential(0.0)) == 0.0
    assert table.derivative_lipschitz == pytest.approx(0.5, abs=1e-3)
    # beyond the table: derivative frozen, value linear, potential quadratic
    assert float(table.derivative(6.0)) == pytest.approx(2.0, abs=1e-5)
    assert float(table.value(6.0)) == pytest.approx(4.0 + 2.0 * 2.0, abs=1e-4)
    assert not table.covers(6.0)
    assert table.covers(np.array([-4.0, 0.0, 4.0]))


def test_potential_is_antiderivative_of_value():
    cost = RunningCost.from_callable(lambda u: u * u + 0.5, alpha1=1.0,
                                     alpha2=0.5)
    table = ConjugateHamiltonian.tabulate(cost, -3.0, 3.0, nodes=4097)
    rs = np.linspace(-2.5, 2.5, 11)
    for r in rs:
        grid = np.linspace(0.0, r, 4001)
        oracle = float(trapezoid(table.value(grid), grid))
        assert float(table.potential(r)) == pytest.approx(oracle, abs=1e-6)


def test_quadratic_conjugate_with_offset():
    conj = ConjugateHamiltonian.for_cost(RunningCost.quadratic(2.0, 0.5))
    # sup of p*u - 2u^2 - 0.5 at u = p/4
    assert conj.value(4.0) == pytest.approx(16.0 / 8.0 - 0.5)
    assert conj.value(-1.0) == pytest.approx(-0.5)
    assert conj.derivative(4.0) == pytest.approx(1.0)


def test_tabulated_derivative_is_nonnegative_with_linear_growth_cap():
    cost = RunningCost.from_callable(lambda u: u * u + 0.25 * u, alpha1=1.0)
    table = ConjugateHamiltonian.tabulate(cost, -6.0, 6.0, nodes=513)
    ps = np.linspace(-6.0, 6.0, 513)
    ders = table.derivative(ps)
    assert np.all(ders >= 0.0)
    assert np.all(np.diff(ders) >= -1e-12)
    cap = float(np.max(ders / (np.abs(ps) + 1.0)))
    assert np.isfinite(cap)
    assert np.all(ders <= cap * (np.abs(ps) + 1.0) + 1e-12)


def simulate_cost():
    # the expression cost of the simulate benchmark workload
    return RunningCost.from_callable(parse_expression("u^2 + 0.25*u", ("u",)),
                                     alpha1=1.0)


def test_table_nodes_equal_pointwise_conjugate_exactly():
    cost = simulate_cost()
    table = ConjugateHamiltonian.for_cost(cost)
    nodes = np.linspace(-50.0, 50.0, 4097)[::64]
    values = table.value(nodes)
    derivatives = table.derivative(nodes)
    for p, value, derivative in zip(nodes, values, derivatives):
        u_star, g_star, _ = _maximize(cost, p)
        assert value == g_star
        assert derivative == u_star
    u_star, g_star, _ = _maximize(cost, nodes)
    np.testing.assert_array_equal(g_star, values)
    np.testing.assert_array_equal(u_star, derivatives)


def test_table_keeps_smallest_maximizer_at_tie_nodes():
    cost = piecewise_flat_cost()
    grid = np.linspace(-3.0, 3.0, 7)
    assert 2.0 in grid
    table = ConjugateHamiltonian.tabulate(cost, -3.0, 3.0, nodes=7)
    assert table.ties_detected
    for p, value, derivative in zip(grid, table.value(grid),
                                    table.derivative(grid)):
        u_star, g_star, _ = _maximize(cost, p)
        assert value == g_star
        assert derivative == u_star
    assert float(table.derivative(2.0)) == pytest.approx(1.0, abs=1e-3)


def test_scalar_only_cost_tabulates_like_its_array_twin():
    scalar = RunningCost.from_callable(lambda u: u * u + max(u - 1.0, 0.0),
                                       alpha1=1.0)
    array = RunningCost.from_callable(
        lambda u: u * u + np.maximum(u - 1.0, 0.0), alpha1=1.0)
    ps = np.linspace(-4.0, 6.0, 301)
    a = ConjugateHamiltonian.tabulate(scalar, -4.0, 6.0, nodes=301)
    b = ConjugateHamiltonian.tabulate(array, -4.0, 6.0, nodes=301)
    np.testing.assert_array_equal(a.value(ps), b.value(ps))
    np.testing.assert_array_equal(a.derivative(ps), b.derivative(ps))
    np.testing.assert_array_equal(a.potential(ps), b.potential(ps))
    assert a.derivative_lipschitz == b.derivative_lipschitz


def test_cost_evaluates_arrays_of_any_shape():
    scalar = RunningCost.from_callable(lambda u: u * u + max(u - 1.0, 0.0),
                                       alpha1=1.0)
    u = np.linspace(0.0, 3.0, 12).reshape(3, 4)
    vals = scalar.evaluate(u)
    assert vals.shape == (3, 4)
    np.testing.assert_array_equal(vals, u * u + np.maximum(u - 1.0, 0.0))
    assert isinstance(scalar.evaluate(2.0), float)


def test_cost_whose_array_call_changes_the_shape_is_evaluated_pointwise():
    # np.mean runs on an array but returns one number for all of it
    cost = RunningCost.from_callable(lambda u: np.mean(u * u), alpha1=1.0)
    u = np.linspace(0.0, 3.0, 12).reshape(3, 4)
    np.testing.assert_array_equal(cost.evaluate(u), u * u)


def test_nonconvex_cost_detected_when_tabulating(monkeypatch):
    monkeypatch.setattr(conjugate, "_PROBE_MAX", 2.0)
    dipped = RunningCost.from_callable(
        lambda u: u * u - 6.0 * np.exp(-4.0 * (u - 6.0) ** 2), alpha1=0.75)
    with pytest.raises(NonConvexCostError):
        ConjugateHamiltonian.tabulate(dipped, 0.0, 6.0, nodes=65)


def test_tabulate_is_a_classmethod_with_a_node_count():
    # the benchmark's per-layer tracer wraps it and reads ``nodes``
    assert isinstance(inspect.getattr_static(ConjugateHamiltonian, "tabulate"),
                      classmethod)
    assert "nodes" in inspect.signature(ConjugateHamiltonian.tabulate).parameters


@pytest.mark.parametrize("p_min, p_max", [(0.5, 3.0), (-3.0, -0.5)])
def test_potential_vanishes_at_zero_off_the_table(p_min, p_max):
    # the conjugate of u^2 + 0.25*u is max(p - 0.25, 0)^2/4.  Left of a table
    # at 0.5 the value continues as 1/64 + (p - 0.5)/8, whose integral from
    # 0 to 0.5 is -1/128; on [-3, -0.5] the value and derivative are 0
    cost = RunningCost.from_callable(lambda u: u * u + 0.25 * u, alpha1=1.0)
    table = ConjugateHamiltonian.tabulate(cost, p_min, p_max, nodes=257)
    assert abs(float(table.potential(0.0))) <= 1e-15
    for r in (p_min, 0.5 * (p_min + p_max), p_max):
        oracle = (-0.0078125 + ((r - 0.25) ** 3 - 0.25 ** 3) / 12.0
                  if p_min > 0 else 0.0)
        assert float(table.potential(r)) == pytest.approx(oracle, abs=1e-12)


def kinked_cost():
    # a kink at u = 1: every p in [2, 3] has the maximizer 1
    return RunningCost.from_callable(
        lambda u: u * u + np.maximum(u - 1.0, 0.0), alpha1=1.0)


@settings(max_examples=40, deadline=None)
@given(cost=st.sampled_from([simulate_cost, kinked_cost, piecewise_flat_cost]),
       nodes=st.lists(st.one_of(st.floats(-50.0, 50.0),
                                st.sampled_from([0.0, 0.25, 2.0, 2.5, 3.0])),
                      min_size=1, max_size=700),
       cuts=st.lists(st.integers(1, 700), max_size=4))
def test_maximize_of_a_split_is_the_split_of_maximize(cost, nodes, cuts):
    # each node takes its own path through scan, search, polish and tie
    # bisection, so which nodes share a call, or a scan block, moves no bit
    cost, p = cost(), np.array(nodes)
    edges = sorted({0, p.size, *(c for c in cuts if c < p.size)})
    parts = [_maximize(cost, p[i:j]) for i, j in zip(edges, edges[1:])]
    for whole, split in zip(_maximize(cost, p), zip(*parts)):
        assert whole.tobytes() == np.concatenate(split).tobytes()
