import math
import re

import numpy as np
import pytest

from conftest import (desk_problem, elliptic_operands, linear_conjugate,
                      tanh_drift, zero_conjugate)
from mildhjb.conjugate import ConjugateHamiltonian, RunningCost
from mildhjb.drift import DriftData
from mildhjb.grid import Grid1D, poisson_gradient
from mildhjb.resolvent import (EllipticOperands, Iterate, ResolventConfig,
                               ResolventError, ResolventResult, _newton,
                               solve_resolvent)
from mildhjb.stepper import mild_solve


def wavy_sigma(x):
    return np.sqrt(2.0) + 0.1 * np.sin(x)


def quad_ops(grid, drift=None, use_perturbation=True):
    return elliptic_operands(grid, ConjugateHamiltonian.quadratic(),
                             wavy_sigma, drift=drift,
                             use_perturbation=use_perturbation)


def test_apply_A_zero_field():
    g = Grid1D(5.0, 101)
    ops = quad_ops(g, drift=tanh_drift(g))
    np.testing.assert_array_equal(ops.terms(np.zeros(g.n))[0], 0.0)


def test_apply_A_linear_conjugate_on_quadratic():
    # identity flux, unit multiplier: A(y) = -y'' = -2 on the interior
    g = Grid1D(2.0, 41)
    ops = elliptic_operands(g, linear_conjugate(), np.sqrt(2.0))
    out = ops.terms(g.x**2)[0]
    np.testing.assert_allclose(out[1:-1], -2.0, atol=1e-10)


def test_apply_A_pure_transport():
    g = Grid1D(2.0, 41)
    drift = tanh_drift(g)
    drift = drift.__class__(g, np.ones(g.n), np.zeros(g.n), np.zeros(g.n))
    ops = elliptic_operands(g, zero_conjugate(), 1.0,
                            drift=drift, use_perturbation=False)
    out = ops.terms(g.x.copy())[0]
    np.testing.assert_allclose(out[1:-1], -1.0, atol=1e-12)


def test_zero_rhs_zero_solution():
    g = Grid1D(10.0, 201)
    ops = quad_ops(g, drift=tanh_drift(g))
    res = solve_resolvent(ops, 3.0, np.zeros(g.n))
    assert g.norm1(res.y) <= 1e-12
    assert res.residual <= 1e-10


def test_linear_case_matches_direct_solve():
    g = Grid1D(10.0, 201)
    ops = elliptic_operands(g, linear_conjugate(), np.sqrt(2.0))
    rng = np.random.default_rng(0)
    eta = rng.standard_normal(g.n)
    lam = 3.0
    res = solve_resolvent(ops, lam, eta)
    h2 = g.h**2
    system = (lam + 2.0 / h2) * np.eye(g.n)
    system -= np.diag(np.full(g.n - 1, 1.0 / h2), 1)
    system -= np.diag(np.full(g.n - 1, 1.0 / h2), -1)
    np.testing.assert_allclose(res.y, np.linalg.solve(system, eta),
                               atol=1e-10)


def oracle_fixed_point(grid, conj, m, drift, lam, eta, include_perturbation,
                       tol=1e-13):
    """Independent scalar-loop solve of the nodal system by fixed point."""
    n, h = grid.n, grid.h
    laplace = np.zeros((n - 2, n - 2))
    for i in range(n - 2):
        laplace[i, i] = 2.0 / h**2
        if i > 0:
            laplace[i, i - 1] = -1.0 / h**2
        if i + 1 < n - 2:
            laplace[i, i + 1] = -1.0 / h**2

    def green_gradient(y):
        psi = np.zeros(n)
        psi[1:-1] = np.linalg.solve(laplace, y[1:-1])
        out = np.zeros(n)
        for k in range(1, n - 1):
            out[k] = (psi[k + 1] - psi[k - 1]) / (2 * h)
        out[0] = (psi[1] - psi[0]) / h
        out[-1] = (psi[-1] - psi[-2]) / h
        return out

    def operator(y):
        w = conj.value(m * y)
        out = np.empty(n)
        for k in range(n):
            w_left = w[k - 1] if k > 0 else 0.0
            w_right = w[k + 1] if k + 1 < n else 0.0
            out[k] = lam * y[k] - (w_left - 2 * w[k] + w_right) / h**2
            if drift is not None:
                if drift.f[k] >= 0:
                    ahead = y[k + 1] if k + 1 < n else 0.0
                    slope = (ahead - y[k]) / h
                else:
                    behind = y[k - 1] if k > 0 else 0.0
                    slope = (y[k] - behind) / h
                out[k] -= drift.f[k] * slope
        if include_perturbation and drift is not None:
            out += drift.f2 * green_gradient(y) - 2.0 * drift.f1 * y
        return out

    y = np.zeros(n)
    for _ in range(5000):
        residual = operator(y) - eta
        if np.max(np.abs(residual)) <= tol:
            return y
        y = y - residual / lam
    raise AssertionError("oracle failed to converge")


def test_small_instance_matches_fixed_point_oracle():
    g = Grid1D(2.0, 9)
    drift = tanh_drift(g, scale=0.3)
    ops = elliptic_operands(g, ConjugateHamiltonian.quadratic(),
                            np.sqrt(2.0), drift=drift)
    rng = np.random.default_rng(77)
    lam = 20.0
    for _ in range(5):
        eta = rng.uniform(-1.0, 1.0, g.n)
        res = solve_resolvent(ops, lam, eta)
        oracle = oracle_fixed_point(g, ops.conj, ops.half_sigma_sq, drift,
                                    lam, eta, include_perturbation=True)
        assert np.max(np.abs(res.y - oracle)) <= 1e-9


def test_l1_contraction():
    g = Grid1D(10.0, 201)
    drift = tanh_drift(g)
    ops = quad_ops(g, drift=drift, use_perturbation=False)
    lam = 2.0 * drift.slope_sup + 1.0
    cfg = ResolventConfig()
    bound = 1.0 / (lam - drift.slope_sup)
    rng = np.random.default_rng(123)
    for _ in range(8):
        eta1 = rng.standard_normal(g.n)
        eta2 = eta1 + 0.5 * rng.standard_normal(g.n)
        y1 = solve_resolvent(ops, lam, eta1, cfg).y
        y2 = solve_resolvent(ops, lam, eta2, cfg).y
        ratio = g.norm1(y1 - y2) / g.norm1(eta1 - eta2)
        assert ratio <= bound * (1 + 1e-6) + 10 * cfg.tol_res


def test_order_preservation_without_drift():
    g = Grid1D(8.0, 161)
    ops = quad_ops(g)
    cfg = ResolventConfig()
    rng = np.random.default_rng(21)
    for _ in range(5):
        eta_low = rng.standard_normal(g.n)
        eta_high = eta_low + rng.uniform(0.0, 1.0, g.n)
        y_low = solve_resolvent(ops, 5.0, eta_low, cfg).y
        y_high = solve_resolvent(ops, 5.0, eta_high, cfg).y
        assert np.min(y_high - y_low) >= -10 * cfg.tol_res


def test_residual_certificate():
    g = Grid1D(10.0, 201)
    ops = quad_ops(g, drift=tanh_drift(g))
    rng = np.random.default_rng(31)
    eta = rng.standard_normal(g.n)
    res = solve_resolvent(ops, 3.0, eta)
    assert res.residual <= 1e-10 * max(1.0, g.norm1(eta))


def test_shift_below_drift_bound_rejected():
    g = Grid1D(10.0, 201)
    drift = tanh_drift(g)
    ops = quad_ops(g, drift=drift)
    with pytest.raises(ValueError, match="slope bound"):
        solve_resolvent(ops, 0.5 * drift.slope_sup, np.zeros(g.n))


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
def test_shift_rejected_before_any_iteration(lam, monkeypatch):
    # without drift the floor is 0, so only the floor check stands between
    # these shifts and the solve
    def evaluate(*args):
        raise AssertionError("the operator was evaluated")

    monkeypatch.setattr(Iterate, "evaluate", evaluate)
    g = Grid1D(10.0, 101)
    with pytest.raises(ValueError, match="must exceed"):
        solve_resolvent(quad_ops(g), lam, np.exp(-g.x**2))


def test_perturbation_is_a_switch_not_a_second_drift():
    # a perturbation drift with no transport drift had a shift floor of 0
    # while its bound was 3.99, so admitted solves failed after every
    # fallback; the perturbation now reads the operand's one drift
    g = Grid1D(10.0, 201)
    conj, m = ConjugateHamiltonian.quadratic(), np.ones(g.n)
    with pytest.raises(TypeError, match="perturbation must be a bool"):
        EllipticOperands(g, conj, m, drift=None, perturbation=tanh_drift(g))
    ops = EllipticOperands(g, conj, m, drift=None)
    eta = np.exp(-g.x**2)
    assert ops.terms(eta)[1] is None
    for lam in (0.05, 0.2, 0.5, 1.0):
        res = solve_resolvent(ops, lam, eta)
        assert res.residual <= 1e-10 * max(1.0, g.norm1(eta))


def test_drift_from_another_grid_is_rejected():
    # such operands once marched a mixed operator without an error
    g, other = Grid1D(5.0, 41), Grid1D(10.0, 41)
    drift = DriftData.from_callables(other, np.tanh)
    message = re.escape(f"drift on {other}, operands on {g}")
    with pytest.raises(ValueError, match=message):
        EllipticOperands(g, ConjugateHamiltonian.quadratic(), np.ones(g.n),
                         drift=drift)


def test_budget_exhaustion_raises():
    g = Grid1D(10.0, 201)
    ops = quad_ops(g, drift=tanh_drift(g))
    eta = np.exp(-g.x**2)
    with pytest.raises(ResolventError):
        solve_resolvent(ops, 3.0, eta, ResolventConfig(max_iter=0))


def test_budget_exhaustion_raises_in_2d():
    from mildhjb.twodim import Grid2D, Problem2D
    g = Grid2D(3.0, 11)
    X, Y = g.mesh
    prob = Problem2D(g, np.eye(2), np.full((g.n, g.n), np.sqrt(2.0)),
                     ConjugateHamiltonian.quadratic())
    with pytest.raises(ResolventError):
        solve_resolvent(prob, 3.0, np.exp(-X**2 - Y**2),
                        ResolventConfig(max_iter=0))


def test_out_of_table_flagged():
    cost = RunningCost.from_callable(lambda u: u * u, alpha1=1.0)
    tiny = ConjugateHamiltonian.tabulate(cost, -0.05, 0.05, nodes=257)
    g = Grid1D(10.0, 201)
    ops = elliptic_operands(g, tiny, wavy_sigma)
    res = solve_resolvent(ops, 5.0, np.exp(-g.x**2) * 4.0)
    assert res.out_of_table


def test_vanishing_volatility_rejected():
    g = Grid1D(5.0, 101)
    with pytest.raises(ValueError, match="regularized sweep"):
        elliptic_operands(g, ConjugateHamiltonian.quadratic(),
                          lambda x: x * np.exp(-x**2))


def test_newton_solves_near_the_shift_floor_without_fallback():
    # 0.05 above the floor, from a zero start: Newton needs no restart
    g = Grid1D(10.0, 201)
    drift = tanh_drift(g)
    ops = quad_ops(g, drift=drift, use_perturbation=False)
    lam = 2.0 * drift.slope_sup + 0.05
    eta = 3.0 * np.exp(-g.x**2)
    res = solve_resolvent(ops, lam, eta, y_init=np.zeros(g.n))
    assert res.fallback == ""
    assert res.residual <= ResolventConfig().tol_res * max(1.0, g.norm1(eta))


def kinked_table(half_width, nodes):
    # piecewise-flat cost slope puts a kink in the tabulated derivative
    def h(u):
        u = np.asarray(u, dtype=float)
        return np.where(u < 1, u * u,
                        np.where(u <= 2, 2 * u - 1, u * u - 2 * u + 3))

    cost = RunningCost.from_callable(h, alpha1=0.5)
    return ConjugateHamiltonian.tabulate(cost, -half_width, half_width,
                                         nodes=nodes)


def abs_kink_conjugate():
    """The conjugate of ``u^2 + 0.5*|u - 1|``, tabulated by ``for_cost``."""
    cost = RunningCost.from_callable(lambda u: u * u + 0.5 * np.abs(u - 1.0),
                                     alpha1=1.0)
    return ConjugateHamiltonian.for_cost(cost)


def near_floor_sweep(draws, seed=1):
    """Desk-problem inputs at lam/sup|f'| = 2.01 and 2.02 for the quadratic,
    kinked and ``abs_kink_conjugate`` costs; yields ``(ops, lam, eta)``
    with ``eta = a*initial + amp*exp(-((x-c)/w)^2)`` drawn ``draws`` times
    per cost and shift."""
    g = Grid1D(10.0, 201)
    rng = np.random.default_rng(seed)
    for conj in (ConjugateHamiltonian.quadratic(), kinked_table(50.0, 4097),
                 abs_kink_conjugate()):
        problem = desk_problem().discretize(g, conj=conj)
        ops = problem.operands
        for ratio in (2.01, 2.02):
            for _ in range(draws):
                a, c = rng.uniform(-4.0, 4.0, 2)
                w = rng.uniform(0.3, 2.0)
                amp = rng.uniform(-6.0, 6.0)
                eta = (a * problem.initial
                       + amp * np.exp(-((g.x - c) / w) ** 2))
                yield ops, ratio * ops.lam0, eta


def kinked_desk_solve(ratio, a, c, w, amp, table=None):
    """The desk problem with the kinked conjugate at lam = ratio*sup|f'|,
    from the default start, for eta = a*initial + amp*exp(-((x-c)/w)^2);
    returns (ops, lam, eta, result)."""
    g = Grid1D(10.0, 201)
    if table is None:
        table = kinked_table(50.0, 4097)
    problem = desk_problem().discretize(g, conj=table)
    ops = problem.operands
    lam = ratio * ops.lam0
    eta = a * problem.initial + amp * np.exp(-((g.x - c) / w) ** 2)
    return ops, lam, eta, solve_resolvent(ops, lam, eta)


def test_kinked_conjugate_table_still_solved():
    table = kinked_table(30.0, 2049)
    g = Grid1D(10.0, 201)
    drift = tanh_drift(g)
    ops = elliptic_operands(g, table, np.sqrt(2.0), drift=drift)
    rng = np.random.default_rng(3)
    eta = 5.0 * np.exp(-g.x**2) + rng.standard_normal(g.n)
    res = solve_resolvent(ops, 2.2, eta)
    assert res.residual <= 1e-10 * max(1.0, g.norm1(eta))


def test_offset_cost_keeps_the_solver_stable():
    # alpha2 > 0 shifts the flux by a constant; truncation absorbs it
    g = Grid1D(10.0, 201)
    drift = tanh_drift(g)
    ops = elliptic_operands(g, ConjugateHamiltonian.quadratic(1.0, 0.5),
                            wavy_sigma, drift=drift)
    eta = 2.0 * np.exp(-g.x**2)
    res = solve_resolvent(ops, 5.0, eta)
    assert res.residual <= 1e-10 * max(1.0, g.norm1(eta))
    assert np.all(np.isfinite(res.y))


@pytest.mark.parametrize("field, value", [
    ("tol_res", -1.0),
    ("tol_res", 0.0),
    ("tol_res", math.nan),
    ("tol_res", math.inf),
    ("max_iter", -1),
    ("max_iter", 2.5),
    ("max_iter", True),
])
def test_config_rejects_invalid_fields(field, value):
    with pytest.raises(ValueError, match=field):
        ResolventConfig(**{field: value})


def test_config_accepts_a_zero_iteration_budget():
    assert ResolventConfig(max_iter=0).max_iter == 0


def banded_jacobian(ops, lam, y):
    """``T``, the tridiagonal flux-plus-upwind part of the 1-D Newton
    Jacobian, in ``solve_banded``'s (1, 1) layout."""
    grid, m = ops.grid, ops.half_sigma_sq
    h, h2 = grid.h, grid.h**2
    slope = ops.conj.slope(m * y) * m
    diag = lam + 2.0 * slope / h2
    upper = -slope[1:] / h2
    lower = -slope[:-1] / h2
    if ops.drift is not None:
        f = ops.drift.f
        diag = diag + np.abs(f) / h
        upper = upper - np.maximum(f[:-1], 0.0) / h
        lower = lower + np.minimum(f[1:], 0.0) / h
    ab = np.zeros((3, grid.n))
    ab[0, 1:] = upper
    ab[1] = diag
    ab[2, :-1] = lower
    return ab


def exact_jacobian(ops, lam, y):
    """The dense 1-D Newton Jacobian: ``T`` plus, with the perturbation on,
    ``diag(f'')*P - 2*diag(f')``, where column j of P is the slope that
    ``poisson_gradient`` makes of the unit source at node j."""
    ab = banded_jacobian(ops, lam, y)
    jac = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
    if ops.perturbation and ops.drift is not None:
        grid = ops.grid
        p = np.column_stack([poisson_gradient(grid, e)
                             for e in np.eye(grid.n)])
        jac += ops.drift.f2[:, None] * p - np.diag(2.0 * ops.drift.f1)
    return jac


@pytest.mark.parametrize("with_drift, with_perturbation, table", [
    (False, False, False),
    (True, False, False),
    (True, True, False),
    (True, True, True),
], ids=["False-False", "True-False", "True-True", "True-True-table"])
def test_newton_step_solves_the_exact_jacobian(with_drift,
                                               with_perturbation, table):
    g = Grid1D(10.0, 101)
    drift = tanh_drift(g) if with_drift else None
    conj = (kinked_table(50.0, 4097) if table
            else ConjugateHamiltonian.quadratic())
    ops = elliptic_operands(g, conj, wavy_sigma, drift=drift,
                            use_perturbation=with_perturbation)
    rng = np.random.default_rng(5)
    y = rng.standard_normal(g.n)  # both signs: some slopes clamp at 0
    r = Iterate.evaluate(ops, y).residual(8.0, rng.standard_normal(g.n))
    step = ops.newton_step(8.0, y, r)
    dense = np.linalg.solve(exact_jacobian(ops, 8.0, y), -r)
    assert np.max(np.abs(step - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_zero_pivot_raises_and_newton_gives_up():
    g = Grid1D(5.0, 21)
    # a vanishing flux and no shift leave the zero matrix
    ops = elliptic_operands(g, zero_conjugate(), 1.0)
    eta = np.exp(-g.x**2)
    with pytest.raises(np.linalg.LinAlgError):
        ops.newton_step(0.0, np.zeros(g.n), -eta)
    _, iters, rnorm, ok = _newton(ops, 0.0, eta,
                                  Iterate.evaluate(ops, np.zeros(g.n)),
                                  1e-10, 10)
    assert not ok and iters == 0
    assert rnorm == g.norm1(eta)


def test_non_finite_residual_is_a_value_error():
    # the flux overflows at the starting guess; LAPACK would return NaN
    g = Grid1D(10.0, 101)
    ops = quad_ops(g, drift=tanh_drift(g))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="not finite"):
        solve_resolvent(ops, 3.0, np.exp(-g.x**2),
                        y_init=np.full(g.n, 1e200))
    # a warm start is checked the same way
    with np.errstate(over="ignore", invalid="ignore"):
        blown = Iterate.evaluate(ops, np.full(g.n, 1e200))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="not finite"):
        solve_resolvent(ops, 3.0, np.exp(-g.x**2),
                        warm=ResolventResult(blown.y, 0.0, 0, iterate=blown))


def coverage_inputs(*labels):
    """The inputs of ``resolvent_coverage.inputs()`` with these labels, as
    ``(ops, lam, eta, y_init)`` in the order given."""
    import resolvent_coverage
    found = {label: rest for label, *rest in resolvent_coverage.inputs()
             if label in labels}
    return [found[label] for label in labels]


@pytest.mark.parametrize("exit_", ["newton", "restart"])
def test_certificate_is_the_residual_at_the_returned_y(exit_):
    if exit_ == "newton":
        g = Grid1D(10.0, 101)
        ops = quad_ops(g, drift=tanh_drift(g))
        eta = np.exp(-g.x**2)
        lam = 2.5
        res = solve_resolvent(ops, lam, eta, y_init=eta / lam)
    else:
        # Newton stalls from this wild start at the kinked cost, but not
        # from eta/lam: the coverage set's one restart exit
        [(ops, lam, eta, y_init)] = coverage_inputs(
            "kinked ratio=2.01 draw=255 start=normal")
        res = solve_resolvent(ops, lam, eta, ResolventConfig(tol_res=1e-12),
                              y_init=y_init)
    assert res.fallback == ("" if exit_ == "newton" else exit_)
    residual = Iterate.evaluate(ops, res.y).residual(lam, eta)
    assert res.residual == ops.grid.norm1(residual)


def test_exact_newton_solves_where_the_old_jacobian_stalled():
    # without f''*grad(green .) in the Jacobian, Newton and Picard both
    # stalled here and only a continuation in the shift, 281 iterations
    # long, solved it
    ops, _, eta, res = kinked_desk_solve(
        2.01, -2.5726197705191423, 2.5980526328675886, 1.3017609528846403,
        4.5663163002398122)
    assert res.fallback == ""
    assert res.iterations <= 40
    assert res.residual <= ResolventConfig().tol_res * max(
        1.0, ops.grid.norm1(eta))


def test_former_resolvent_errors_are_solved():
    # with the table's derivative samples as its Jacobian, Newton and the
    # Picard fallback both stalled on these two inputs
    cfg = ResolventConfig(tol_res=1e-12)
    for ops, lam, eta, y_init in coverage_inputs(
            *(f"kinked ratio=2.01 draw={d} start=normal" for d in (157, 224))):
        res = solve_resolvent(ops, lam, eta, cfg, y_init=y_init)
        assert res.residual <= cfg.tol_res * max(1.0, ops.grid.norm1(eta))


def test_newton_step_is_the_derivative_of_the_tabulated_residual():
    # 4.8e-3 off while the Jacobian read the table's derivative samples,
    # which the value, interpolated separately, does not have as its slope
    g = Grid1D(10.0, 201)
    problem = desk_problem().discretize(g, conj=kinked_table(50.0, 4097))
    ops, eta = problem.operands, problem.initial
    lam = 2.5 * ops.lam0
    y = np.random.default_rng(4).standard_normal(g.n)
    r = Iterate.evaluate(ops, y).residual(lam, eta)
    delta = ops.newton_step(lam, y, r)
    t = 1e-6
    plus, minus = (Iterate.evaluate(ops, y + s * delta).residual(lam, eta)
                   for s in (t, -t))
    assert np.max(np.abs((plus - minus) / (2 * t) + r)) <= 1e-6 * np.max(
        np.abs(r))


def test_near_floor_sweep_needs_no_fallback():
    exits = [solve_resolvent(ops, lam, eta).fallback
             for ops, lam, eta in near_floor_sweep(60)]
    assert exits.count("") == len(exits) == 360


def test_desk_march_newton_iterations():
    # 200 with the Jacobian that dropped f''*grad(green .)
    sol = mild_solve(desk_problem().discretize(Grid1D(10.0, 201)), 1e-2)
    assert sum(d.iterations for d in sol.diagnostics) <= 130


def test_kinked_desk_march_newton_iterations():
    # 245 while the Jacobian read the table's derivative samples
    problem = desk_problem().discretize(Grid1D(10.0, 201),
                                        conj=kinked_table(50.0, 4097))
    sol = mild_solve(problem, 1e-2)
    assert sum(d.iterations for d in sol.diagnostics) <= 110


def test_shift_at_most_twice_the_slope_bound_rejected_up_front():
    g = Grid1D(10.0, 201)
    problem = desk_problem().discretize(g, conj=kinked_table(50.0, 4097))
    ops = problem.operands
    with pytest.raises(ValueError, match="twice the drift slope bound"):
        solve_resolvent(ops, 1.5 * ops.lam0, problem.initial)


def test_warm_start_must_match_the_operand_and_nu():
    g = Grid1D(10.0, 101)
    ops = quad_ops(g, drift=tanh_drift(g))
    eta = np.exp(-g.x**2)
    prev = solve_resolvent(ops, 3.0, eta)
    warm = solve_resolvent(ops, 4.0, eta, warm=prev)
    cold = solve_resolvent(ops, 4.0, eta, y_init=prev.y)
    assert warm.y.tobytes() == cold.y.tobytes()
    assert (warm.residual, warm.iterations) == (cold.residual, cold.iterations)
    other = quad_ops(g, drift=tanh_drift(g))
    with pytest.raises(ValueError, match="warm start"):
        solve_resolvent(other, 4.0, eta, warm=prev)
