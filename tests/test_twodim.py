import numpy as np
import pytest

from mildhjb.conjugate import ConjugateHamiltonian
from mildhjb.grid import Grid1D
from mildhjb.resolvent import (EllipticOperands, ResolventConfig,
                               solve_resolvent)
from mildhjb.stepper import TransformedProblem, mild_solve
from mildhjb.twodim import (Grid2D, Problem2D, apply_L, mild_solve_2d,
                            solve_L, solve_resolvent_2d)

CONJ = ConjugateHamiltonian.quadratic()


def make_problem(grid, a, sigma0=np.sqrt(2.0), initial=None, source=None,
                 horizon=0.1, conj=CONJ):
    n = grid.n
    initial = initial if initial is not None else np.zeros((n, n))
    source = source if source is not None else np.zeros((n, n))
    return Problem2D(grid, np.asarray(a, dtype=float),
                     np.full((n, n), sigma0), initial, source, horizon, conj)


def test_identity_diffusion_on_radial_quadratic():
    g = Grid2D(3.0, 31)
    prob = make_problem(g, np.eye(2))
    X, Y = g.mesh
    lz = apply_L(prob, X**2 + Y**2)
    np.testing.assert_allclose(lz[1:-1, 1:-1], 4.0, atol=1e-10)


@pytest.mark.filterwarnings("ignore:cross term")
def test_cross_term_on_product():
    g = Grid2D(3.0, 31)
    a = np.array([[np.sqrt(2.0), 0.0], [1.0 / np.sqrt(2.0), np.sqrt(1.5)]])
    prob = make_problem(g, a)
    assert prob.b == pytest.approx(np.array([[2.0, 1.0], [1.0, 2.0]]))
    X, Y = g.mesh
    lz = apply_L(prob, X * Y)
    np.testing.assert_allclose(lz[1:-1, 1:-1], 2.0, atol=1e-10)


def test_constant_annihilated():
    g = Grid2D(3.0, 31)
    prob = make_problem(g, np.eye(2))
    lz = apply_L(prob, np.ones((g.n, g.n)))
    np.testing.assert_allclose(lz[1:-1, 1:-1], 0.0, atol=1e-12)


def test_matrix_and_stencil_agree():
    g = Grid2D(3.0, 31)
    a = np.array([[1.2, 0.3], [0.0, 1.0]])
    prob = make_problem(g, a)
    rng = np.random.default_rng(6)
    z = rng.standard_normal((g.n, g.n))
    via_matrix = (prob.operator_matrix @ z.ravel()).reshape(g.n, g.n)
    np.testing.assert_allclose(via_matrix, apply_L(prob, z), atol=1e-11)


def test_factor_matrix_validation():
    g = Grid2D(3.0, 31)
    with pytest.raises(ValueError, match="positive definite"):
        make_problem(g, np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="2 rows"):
        make_problem(g, np.array([[1.0, 0.0]]))


@pytest.mark.parametrize("field, bad", [
    ("sigma0", np.nan), ("sigma0", np.inf), ("a", np.nan), ("a", np.inf),
])
def test_non_finite_coefficients_rejected(field, bad):
    g = Grid2D(3.0, 11)
    sigma0 = np.full((g.n, g.n), np.sqrt(2.0))
    a = np.eye(2)
    (sigma0 if field == "sigma0" else a)[0, 0] = bad
    with pytest.raises(ValueError, match=f"{field} contains non-finite"):
        Problem2D(g, a, sigma0, np.zeros((g.n, g.n)), np.zeros((g.n, g.n)),
                  0.1, CONJ)


def test_strong_anisotropy_warns():
    g = Grid2D(3.0, 31)
    a = np.array([[1.0, 0.9], [0.9, 1.0]])  # b12 close to b11, b22
    b = a @ a.T
    assert 2 * abs(b[0, 1]) > min(b[0, 0], b[1, 1])
    with pytest.warns(RuntimeWarning, match="cross term"):
        make_problem(g, a)


def test_linear_conjugate_matches_direct_sparse_solve():
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve

    g = Grid2D(6.0, 41)
    prob = make_problem(g, np.eye(2), conj=ConjugateHamiltonian.linear())
    rng = np.random.default_rng(8)
    eta = rng.standard_normal((g.n, g.n))
    lam = 50.0
    y, _, _ = solve_resolvent_2d(prob, lam, eta)
    system = lam * sp.identity(g.n * g.n, format="csr") - prob.operator_matrix
    direct = spsolve(system.tocsc(), eta.ravel()).reshape(g.n, g.n)
    assert np.max(np.abs(y - direct)) <= 1e-8


def test_rotational_symmetry_preserved():
    g = Grid2D(6.0, 41)
    X, Y = g.mesh
    y0 = np.exp(-(X**2 + Y**2))
    prob = make_problem(g, np.eye(2), initial=y0, horizon=0.01)
    sol = mild_solve_2d(prob, 0.01)
    final = sol.final
    np.testing.assert_allclose(final, final.T, atol=1e-8)
    np.testing.assert_allclose(final, final[::-1, :], atol=1e-8)


def test_zero_data_zero_solution():
    g = Grid2D(6.0, 21)
    prob = make_problem(g, np.eye(2), horizon=0.05)
    sol = mild_solve_2d(prob, 0.01)
    assert float(np.max(np.abs(sol.snapshots))) == 0.0


def test_resolvent_contraction_is_one_over_lambda():
    g = Grid2D(6.0, 41)
    a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # b = diag(2, 1)
    prob = make_problem(g, a)
    lam = 25.0
    rng = np.random.default_rng(15)
    for _ in range(5):
        e1 = rng.standard_normal((g.n, g.n))
        e2 = e1 + 0.5 * rng.standard_normal((g.n, g.n))
        y1, _, _ = solve_resolvent_2d(prob, lam, e1)
        y2, _, _ = solve_resolvent_2d(prob, lam, e2)
        ratio = g.norm1(y1 - y2) / g.norm1(e1 - e2)
        assert ratio <= 1.0 / lam + 1e-9


@pytest.mark.parametrize("horizon", [5e-5, 0.005, 0.025, 0.5])
def test_step_times_match_the_1d_schedule(horizon):
    g1 = Grid1D(5.0, 21)
    ops = EllipticOperands.build(g1, CONJ, np.sqrt(2.0))
    sol1 = mild_solve(TransformedProblem(ops, np.zeros(g1.n), np.zeros(g1.n),
                                         horizon), 0.01)
    sol2 = mild_solve_2d(make_problem(Grid2D(3.0, 11), np.eye(2),
                                      horizon=horizon), 0.01)
    np.testing.assert_array_equal(sol2.times, sol1.times)


def test_viscosity_homotopy_reaches_the_plain_equation():
    from mildhjb.resolvent import _homotopy
    g = Grid2D(6.0, 31)
    X, Y = g.mesh
    prob = make_problem(g, np.array([[1.2, 0.0], [0.3, 1.0]]))
    eta = 4.0 * np.exp(-(X**2 + Y**2))
    direct = solve_resolvent(prob, ResolventConfig(lam=10.0), eta)
    gaps = []
    for nu in (1e-2, 1e-4):
        reg = solve_resolvent(prob, ResolventConfig(lam=10.0, nu=nu), eta)
        assert reg.iterations <= 10  # Newton with the exact Jacobian
        gaps.append(g.norm1(reg.y - direct.y))
    assert gaps[0] > gaps[1]
    cfg = ResolventConfig(lam=10.0)
    tol = cfg.tol_res * max(1.0, g.norm1(eta))
    start = 50.0 * np.sin(X) * np.cos(Y)  # deliberately terrible guess
    y, _, rnorm, ok = _homotopy(prob, cfg, eta, start, tol)
    assert ok and rnorm <= tol
    np.testing.assert_allclose(y, direct.y, atol=1e-7)


def test_mass_conserved_without_source():
    g = Grid2D(6.0, 41)
    X, Y = g.mesh
    y0 = np.exp(-(X**2 + Y**2)) * (1.0 - X**2)
    prob = make_problem(g, np.eye(2), initial=y0, horizon=0.1)
    sol = mild_solve_2d(prob, 0.01)
    drift = abs(sol.masses[-1] - sol.masses[0])
    assert drift <= 1e-8 * abs(sol.masses[0])


@pytest.mark.filterwarnings("ignore:cross term")
def test_value_reconstruction_round_trip():
    g = Grid2D(6.0, 41)
    X, Y = g.mesh
    y = np.exp(-(X**2 + Y**2)) * X
    a = np.array([[np.sqrt(2.0), 0.0], [0.5, 1.0]])
    prob = make_problem(g, a)
    phi = solve_L(prob, y)
    assert np.max(np.abs(phi[0, :])) == 0.0
    assert np.max(np.abs(phi[:, -1])) == 0.0
    back = apply_L(prob, phi)
    np.testing.assert_allclose(back[1:-1, 1:-1], -y[1:-1, 1:-1], atol=1e-9)


def test_nonlinear_march_matches_explicit_oracle():
    # forward-Euler march with the closed-form flux, an independent route
    g = Grid2D(6.0, 31)
    X, Y = g.mesh
    a = np.array([[1.2, 0.0], [0.3, 1.0]])
    y0 = np.exp(-(X**2 + Y**2)) * (2.0 - X - Y)
    source = 0.5 * np.exp(-(X**2 + Y**2))
    prob = Problem2D(g, a, np.full((g.n, g.n), np.sqrt(2.0)), y0, source,
                     0.02, CONJ)
    m0 = prob.half_sigma_sq
    y = y0.copy()
    dt = 2e-5
    for _ in range(1000):
        y = y + dt * (apply_L(prob, np.maximum(m0 * y, 0.0) ** 2 / 4.0)
                      + source)
    gap_coarse = g.norm1(mild_solve_2d(prob, 1e-3).final - y)
    gap_fine = g.norm1(mild_solve_2d(prob, 5e-4).final - y)
    assert gap_coarse <= 2e-3          # frozen from the oracle run
    assert gap_fine <= 0.6 * gap_coarse


def full_jacobian_step(prob, lam, nu, y, r):
    # the assembled 9-point Jacobian lam*I - L S + nu*(S - L), solved whole
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve

    m = prob.half_sigma_sq
    slope = sp.diags((prob.conj.derivative(m * y) * m).ravel())
    lap = prob.operator_matrix
    jac = (lam * sp.identity(lap.shape[0]) - lap @ slope
           + nu * (slope - lap))
    return spsolve(jac.tocsc(), -r.ravel()).reshape(y.shape)


def spy_on_spsolve(monkeypatch):
    import mildhjb.twodim as twodim

    shapes = []

    def spy(matrix, rhs):
        shapes.append(matrix.shape)
        return real(matrix, rhs)

    real = twodim.spsolve
    monkeypatch.setattr(twodim, "spsolve", spy)
    return shapes


def tabulated_expression_conjugate():
    from mildhjb.conjugate import RunningCost
    from mildhjb.expressions import parse_expression

    cost = RunningCost.from_callable(
        parse_expression("u^2 + 0.25*u", ("u",)), alpha1=1.0)
    return ConjugateHamiltonian.tabulate(cost, -20.0, 20.0, nodes=513)


@pytest.mark.parametrize("conj, nu", [
    (CONJ, 0.0), (CONJ, 1e-2), (tabulated_expression_conjugate(), 0.0),
], ids=["quadratic", "quadratic-viscous", "tabulated-expression"])
def test_newton_step_solves_only_the_active_block(monkeypatch, conj, nu):
    g = Grid2D(3.0, 15)
    X, Y = g.mesh
    prob = make_problem(g, np.array([[1.2, 0.0], [0.3, 1.0]]), conj=conj)
    rng = np.random.default_rng(21)
    y = 3.0 * np.sin(2.0 * X) * np.cos(Y) + 0.1  # both signs
    r = rng.standard_normal(y.shape)
    lam = 40.0
    expected = full_jacobian_step(prob, lam, nu, y, r)
    active = np.count_nonzero(
        conj.derivative(prob.half_sigma_sq * y) * prob.half_sigma_sq + nu)
    assert active == g.n * g.n if nu > 0 else 0 < active < g.n * g.n
    shapes = spy_on_spsolve(monkeypatch)
    delta = prob.newton_step(lam, nu, y, r)
    assert shapes == [(active, active)]
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(delta - expected)) <= 1e-12 * scale


def test_newton_step_without_active_columns_is_diagonal(monkeypatch):
    g = Grid2D(3.0, 15)
    X, Y = g.mesh
    prob = make_problem(g, np.eye(2))
    y = -np.exp(-(X**2 + Y**2))
    r = np.random.default_rng(22).standard_normal(y.shape)
    shapes = spy_on_spsolve(monkeypatch)
    delta = prob.newton_step(40.0, 0.0, y, r)
    assert shapes == []
    np.testing.assert_array_equal(delta, -r / 40.0)
