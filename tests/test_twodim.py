import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import elliptic_operands, linear_conjugate
from mildhjb.conjugate import ConjugateHamiltonian, RunningCost
from mildhjb.grid import Grid1D
from mildhjb.resolvent import Iterate, solve_resolvent
from mildhjb.stepper import TransformedProblem, energy_report, mild_solve
import mildhjb.twodim as twodim
from mildhjb._lapack import csr_matvec
from mildhjb.twodim import Grid2D, PlanarProblem, Problem2D, solve_L
from mildhjb.value import reconstruct_value, start_value

CONJ = ConjugateHamiltonian.quadratic()


def apply_L(problem, z):
    """b11 z_xx + 2 b12 z_xy + b22 z_yy with zero ghost values: the
    slicing oracle for ``operator_matrix``."""
    z = np.asarray(z, dtype=float)
    n, h = problem.grid.n, problem.grid.h
    b = problem.b
    p = np.zeros((n + 2, n + 2))
    p[1:-1, 1:-1] = z
    zxx = (p[2:, 1:-1] - 2.0 * z + p[:-2, 1:-1]) / h**2
    zyy = (p[1:-1, 2:] - 2.0 * z + p[1:-1, :-2]) / h**2
    zxy = (p[2:, 2:] - p[2:, :-2] - p[:-2, 2:] + p[:-2, :-2]) / (4.0 * h**2)
    return b[0, 0] * zxx + b[1, 1] * zyy + 2.0 * b[0, 1] * zxy


def operator_matrix(problem) -> sp.csr_matrix:
    """The 9-point matrix of L on row-major flattened fields, assembled by
    scipy.sparse from the stencil: the oracle for ``Problem2D.csr``."""
    shift = [sp.eye(problem.grid.n, k=d, format="csr") for d in (-1, 0, 1)]
    # a shifted identity has no entry past its edge, so nothing wraps
    lap = sum(w * sp.kron(shift[a], shift[c])
              for (a, c), w in np.ndenumerate(problem.stencil))
    return lap.tocsr()


def make_problem(grid, a, sigma0=np.sqrt(2.0), conj=CONJ):
    n = grid.n
    return Problem2D(grid, np.asarray(a, dtype=float),
                     np.full((n, n), sigma0), conj)


def march(ops, horizon, initial=None, source=None):
    """The data (initial, source, horizon) on a 2-D operand; zero if None."""
    zeros = np.zeros(ops.shape)
    return TransformedProblem(ops, zeros if initial is None else initial,
                              zeros if source is None else source, horizon)


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
    via_matrix = (operator_matrix(prob) @ z.ravel()).reshape(g.n, g.n)
    np.testing.assert_allclose(via_matrix, apply_L(prob, z), atol=1e-11)


@pytest.mark.filterwarnings("ignore:cross term")
@pytest.mark.parametrize("L, n, a", [
    (6.0, 141, [[1.0, 0.3], [0.0, 1.0]]),  # perfbench's planar
    (3.0, 15, [[1.0, 0.0], [0.0, 1.0]]),  # b12 = 0: the cross weights drop
    (3.0, 11, [[1.2, 0.0], [0.3, 1.0]]),
    (3.0, 5, [[1.0, 0.3], [0.0, 1.0]]),  # the smallest mesh
    (2.0, 7, [[2.0, 1.0], [0.5, 1.0]]),  # cross term dominates
], ids=["planar", "no-cross", "n11", "n5", "anisotropic"])
def test_csr_arrays_equal_the_kron_build(L, n, a):
    prob = make_problem(Grid2D(L, n), a)
    expected = operator_matrix(prob)
    for got, want in zip(prob.csr, (expected.indptr, expected.indices,
                                    expected.data)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    z = np.random.default_rng(9).standard_normal(prob.shape)
    assert np.array_equal(prob.terms(z)[0].ravel(), -(
        expected @ prob.conj.value(prob.half_sigma_sq * z).ravel()))


@pytest.mark.parametrize("n", [14, 16])
def test_operator_apply_checks_the_shape(n):
    # the CSR kernel reads the field without a bound: one of (n-1, n-1)
    # would be read past its end, one of (n+1, n+1) only in part
    prob = make_problem(Grid2D(3.0, 15), np.eye(2))
    with pytest.raises(ValueError, match="shape"):
        prob._apply_matrix(np.zeros((n, n)))


def test_operator_apply_lets_a_non_finite_field_through():
    # the Newton line search rejects a trial step by its residual, as in
    # 1-D, so an overflowed trial field must reach it instead of raising
    prob = make_problem(Grid2D(3.0, 15), np.eye(2))
    z = np.zeros(prob.shape)
    z[7, 7] = np.inf
    assert not np.isfinite(prob._apply_matrix(z)).all()


@st.composite
def slab_cases(draw):
    """A problem with or without a cross term, and a field that is zero
    outside some mesh rows, a single node, or everywhere, with -0.0 and
    non-finite entries sprinkled in."""
    n = draw(st.sampled_from([5, 13]))
    a = [[1.2, 0.0], [0.3, 1.0]] if draw(st.booleans()) else np.eye(2)
    prob = make_problem(Grid2D(3.0, n), a)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = np.zeros((n, n))
    kind = draw(st.sampled_from(["rows", "node", "zeros"]))
    if kind == "rows":
        rows = rng.random(n) < draw(st.floats(0.0, 1.0))
        rows[0] |= draw(st.booleans())
        rows[-1] |= draw(st.booleans())
        z[rows] = rng.standard_normal((rows.sum(), n))
        z[rng.random((n, n)) < draw(st.floats(0.0, 0.5))] = 0.0
    elif kind == "node":
        z[tuple(rng.integers(0, n, 2))] = rng.standard_normal()
    for special in (-0.0, np.nan, np.inf, -np.inf):
        if draw(st.booleans()):
            z[rng.random((n, n)) < draw(st.floats(0.0, 0.1))] = special
    return prob, z


@settings(max_examples=300, deadline=None)
@given(case=slab_cases())
def test_slab_product_has_the_bits_of_the_full_product(case):
    prob, z = case
    full = np.zeros(z.size)
    csr_matvec(z.size, z.size, *prob.csr, z.ravel(), full)
    np.testing.assert_array_equal(prob._apply_matrix(z).ravel().view(np.int64),
                                  full.view(np.int64))


def test_factor_matrix_validation():
    g = Grid2D(3.0, 31)
    with pytest.raises(ValueError, match="positive definite"):
        make_problem(g, np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="2 rows"):
        make_problem(g, np.array([[1.0, 0.0]]))


@pytest.mark.parametrize("a, accepted", [
    ([[1.0, 0.3], [0.0, 1.0]], True),  # the planar benchmark's factor
    ([[1.2, 0.0], [0.3, 1.0]], True),
    ([[1.0, 0.5, 0.2], [-0.3, 1.0, 0.0]], True),
    ([[1.0, 2.0], [2.0, 4.0]], False),  # rank one: det(a a^T) is 0
    ([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]], False),
    ([[0.0, 0.0], [0.0, 1.0]], False),  # b11 = 0
    ([[0.1, 0.3], [0.1, 0.3]], False),
])
def test_positive_definiteness_of_a_a_transpose(a, accepted):
    # the closed-form 2x2 test; eigvalsh would load numpy.linalg's LAPACK
    g = Grid2D(3.0, 11)
    if accepted:
        make_problem(g, np.array(a))
    else:
        with pytest.raises(ValueError, match="a a\\^T must be positive"):
            make_problem(g, np.array(a))


def test_vanishing_volatility_rejected():
    g = Grid2D(3.0, 11)
    sigma0 = np.full((g.n, g.n), np.sqrt(2.0))
    sigma0[3, 4] = 0.0
    with pytest.raises(ValueError, match="sigma0 must be bounded away"):
        Problem2D(g, np.eye(2), sigma0, CONJ)


@pytest.mark.parametrize("field, bad", [
    ("sigma0", np.nan), ("sigma0", np.inf), ("a", np.nan), ("a", np.inf),
])
def test_non_finite_coefficients_rejected(field, bad):
    g = Grid2D(3.0, 11)
    sigma0 = np.full((g.n, g.n), np.sqrt(2.0))
    a = np.eye(2)
    (sigma0 if field == "sigma0" else a)[0, 0] = bad
    with pytest.raises(ValueError, match=f"{field} contains non-finite"):
        Problem2D(g, a, sigma0, CONJ)


def test_strong_anisotropy_warns():
    g = Grid2D(3.0, 31)
    a = np.array([[1.0, 0.9], [0.9, 1.0]])  # b12 close to b11, b22
    b = a @ a.T
    assert 2 * abs(b[0, 1]) > min(b[0, 0], b[1, 1])
    with pytest.warns(RuntimeWarning, match="cross term"):
        make_problem(g, a)


def test_anisotropy_warning_names_the_caller():
    # the warning must point at the line that built the operand, not at the
    # dataclass-generated __init__
    g = Grid2D(3.0, 11)
    with pytest.warns(RuntimeWarning, match="cross term") as record:
        Problem2D(g, [[1.0, 0.9], [0.9, 1.0]], np.ones((g.n, g.n)), CONJ)
    assert record[0].filename == __file__


def gauss_parts(x, y):
    e = np.exp(-x**2 - y**2)
    return (4.0 * x**2 - 2.0) * e, 4.0 * x * y * e, (4.0 * y**2 - 2.0) * e


def test_planar_problem_discretizes_as_the_inline_assembly():
    # the operand and the data -L g0, -L g, assembled as the solve-2d runner
    # once did it inline; parts returning a scalar are broadcast
    grid = Grid2D(6.0, 21)
    a = np.array([[1.0, 0.3], [0.0, 1.0]])
    planar = PlanarProblem(
        a=a, sigma0=lambda x, y: np.sqrt(2.0) + 0.1 * np.sin(x) * np.cos(y),
        g_parts=tuple(lambda x, y, k=k: gauss_parts(x, y)[k]
                      for k in range(3)),
        g0_parts=(lambda x, y: 1.0, lambda x, y: 0.0, lambda x, y: 1.0),
        cost=RunningCost.from_callable(lambda u: u * u + 0.25 * u, 1.0),
        horizon=0.5)
    problem = planar.discretize(grid)

    X, Y = grid.mesh
    sigma0 = (np.asarray(planar.sigma0(X, Y), dtype=float)
              + np.zeros_like(X))
    b = a @ a.T

    def l_of(parts):
        pxx, pxy, pyy = (np.asarray(p(X, Y), dtype=float) + np.zeros_like(X)
                         for p in parts)
        return b[0, 0] * pxx + 2.0 * b[0, 1] * pxy + b[1, 1] * pyy

    ops = problem.operands
    assert isinstance(ops, Problem2D) and ops.grid == grid
    np.testing.assert_array_equal(ops.a, a)
    np.testing.assert_array_equal(ops.sigma0, sigma0)
    assert ops.conj.p_range == (-50.0, 50.0)
    np.testing.assert_array_equal(problem.initial, -l_of(planar.g0_parts))
    np.testing.assert_array_equal(problem.source, -l_of(planar.g_parts))
    assert problem.horizon == 0.5


def test_a_constant_in_the_cost_leaves_the_march():
    # with zero ghosts, alpha2 = 0.3 moved the final state by 0.593: the
    # flux outside the mesh is value(0) = -alpha2, not 0
    parts = tuple(lambda x, y, k=k: gauss_parts(x, y)[k] for k in range(3))

    def final(alpha2):
        planar = PlanarProblem(
            a=np.array([[1.0, 0.3], [0.0, 1.0]]),
            sigma0=lambda x, y: np.sqrt(2.0), g_parts=parts, g0_parts=parts,
            cost=RunningCost.quadratic(1.0, alpha2), horizon=0.1)
        return mild_solve(planar.discretize(Grid2D(6.0, 41)), 0.01).final

    assert np.max(np.abs(final(0.3) - final(0.0))) <= 1e-12


@pytest.mark.parametrize("pipeline",
                         [reconstruct_value, start_value, energy_report])
def test_1d_value_pipeline_rejects_a_2d_run(pipeline):
    # its Green solve and slopes act along the last axis only, so a 2-D run
    # would get a wrong value or an unrelated broadcast error
    grid = Grid2D(6.0, 21)
    X, Y = grid.mesh
    initial = np.exp(-X**2 - Y**2)
    sol = mild_solve(march(make_problem(grid, np.eye(2)), 0.1, initial), 0.05)
    with pytest.raises(ValueError, match="1-D only; use twodim.solve_L"):
        pipeline(sol)


def test_linear_conjugate_matches_direct_sparse_solve():
    from scipy.sparse.linalg import spsolve

    g = Grid2D(6.0, 41)
    prob = make_problem(g, np.eye(2), conj=linear_conjugate())
    rng = np.random.default_rng(8)
    eta = rng.standard_normal((g.n, g.n))
    lam = 50.0
    y = solve_resolvent(prob, lam, eta).y
    system = lam * sp.identity(g.n * g.n, format="csr") - operator_matrix(prob)
    direct = spsolve(system.tocsc(), eta.ravel()).reshape(g.n, g.n)
    assert np.max(np.abs(y - direct)) <= 1e-8


def test_rotational_symmetry_preserved():
    g = Grid2D(6.0, 41)
    X, Y = g.mesh
    y0 = np.exp(-(X**2 + Y**2))
    prob = make_problem(g, np.eye(2))
    sol = mild_solve(march(prob, 0.01, initial=y0), 0.01)
    final = sol.final
    np.testing.assert_allclose(final, final.T, atol=1e-8)
    np.testing.assert_allclose(final, final[::-1, :], atol=1e-8)


def test_zero_data_zero_solution():
    g = Grid2D(6.0, 21)
    prob = make_problem(g, np.eye(2))
    sol = mild_solve(march(prob, 0.05), 0.01)
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
        y1 = solve_resolvent(prob, lam, e1).y
        y2 = solve_resolvent(prob, lam, e2).y
        ratio = g.norm1(y1 - y2) / g.norm1(e1 - e2)
        assert ratio <= 1.0 / lam + 1e-9


@pytest.mark.parametrize("horizon", [5e-5, 0.005, 0.025, 0.5])
def test_step_times_match_the_1d_schedule(horizon):
    g1 = Grid1D(5.0, 21)
    ops = elliptic_operands(g1, CONJ, np.sqrt(2.0))
    sol1 = mild_solve(TransformedProblem(ops, np.zeros(g1.n), np.zeros(g1.n),
                                         horizon), 0.01)
    sol2 = mild_solve(march(make_problem(Grid2D(3.0, 11), np.eye(2)),
                            horizon), 0.01)
    np.testing.assert_array_equal(sol2.times, sol1.times)


def test_certificate_is_the_residual_at_the_returned_y():
    g = Grid2D(6.0, 31)
    X, Y = g.mesh
    prob = make_problem(g, np.array([[1.2, 0.0], [0.3, 1.0]]))
    eta = 4.0 * np.exp(-(X**2 + Y**2))
    res = solve_resolvent(prob, 10.0, eta)
    residual = Iterate.evaluate(prob, res.y).residual(10.0, eta)
    assert res.residual == g.norm1(residual)


def test_mass_conserved_without_source():
    g = Grid2D(6.0, 41)
    X, Y = g.mesh
    y0 = np.exp(-(X**2 + Y**2)) * (1.0 - X**2)
    prob = make_problem(g, np.eye(2))
    sol = mild_solve(march(prob, 0.1, initial=y0), 0.01)
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
    assert np.all(phi[ring(g.n)] == 0.0)
    back = apply_L(prob, phi)
    np.testing.assert_allclose(back[1:-1, 1:-1], -y[1:-1, 1:-1], atol=1e-9)


def test_nonlinear_march_matches_explicit_oracle():
    # forward-Euler march with the closed-form flux, an independent route
    g = Grid2D(6.0, 31)
    X, Y = g.mesh
    a = np.array([[1.2, 0.0], [0.3, 1.0]])
    y0 = np.exp(-(X**2 + Y**2)) * (2.0 - X - Y)
    source = 0.5 * np.exp(-(X**2 + Y**2))
    prob = make_problem(g, a)
    m0 = prob.half_sigma_sq
    y = y0.copy()
    dt = 2e-5
    for _ in range(1000):
        y = y + dt * (apply_L(prob, np.maximum(m0 * y, 0.0) ** 2 / 4.0)
                      + source)
    problem = march(prob, 0.02, initial=y0, source=source)
    gap_coarse = g.norm1(mild_solve(problem, 1e-3).final - y)
    gap_fine = g.norm1(mild_solve(problem, 5e-4).final - y)
    assert gap_coarse <= 2e-3          # frozen from the oracle run
    assert gap_fine <= 0.6 * gap_coarse


def full_jacobian_step(prob, lam, y, r):
    # the assembled 9-point Jacobian lam*I - L S, solved whole
    from scipy.sparse.linalg import spsolve

    m = prob.half_sigma_sq
    slope = sp.diags((prob.conj.slope(m * y) * m).ravel())
    lap = operator_matrix(prob)
    jac = lam * sp.identity(lap.shape[0]) - lap @ slope
    return spsolve(jac.tocsc(), -r.ravel()).reshape(y.shape)


def spy_on_pbsv(monkeypatch):
    orders = []

    def spy(ab, *args, **kwargs):
        orders.append(ab.shape[1])
        return real(ab, *args, **kwargs)

    real = twodim._pbsv
    monkeypatch.setattr(twodim, "_pbsv", spy)
    return orders


def tabulated_expression_conjugate():
    from mildhjb.conjugate import RunningCost
    from mildhjb.expressions import parse_expression

    cost = RunningCost.from_callable(
        parse_expression("u^2 + 0.25*u", ("u",)), alpha1=1.0)
    return ConjugateHamiltonian.tabulate(cost, -20.0, 20.0, nodes=513)


@pytest.mark.parametrize("conj", [
    CONJ, tabulated_expression_conjugate(),
], ids=["quadratic", "tabulated-expression"])
def test_newton_step_solves_only_the_active_block(monkeypatch, conj):
    g = Grid2D(3.0, 15)
    X, Y = g.mesh
    prob = make_problem(g, np.array([[1.2, 0.0], [0.3, 1.0]]), conj=conj)
    rng = np.random.default_rng(21)
    y = 3.0 * np.sin(2.0 * X) * np.cos(Y) + 0.1  # both signs
    r = rng.standard_normal(y.shape)
    lam = 40.0
    expected = full_jacobian_step(prob, lam, y, r)
    active = np.count_nonzero(
        conj.derivative(prob.half_sigma_sq * y) * prob.half_sigma_sq)
    assert 0 < active < g.n * g.n
    orders = spy_on_pbsv(monkeypatch)
    delta = prob.newton_step(lam, y, r)
    assert orders == [active]
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(delta - expected)) <= 1e-12 * scale


def test_newton_step_without_active_columns_is_diagonal(monkeypatch):
    g = Grid2D(3.0, 15)
    X, Y = g.mesh
    prob = make_problem(g, np.eye(2))
    y = -np.exp(-(X**2 + Y**2))
    r = np.random.default_rng(22).standard_normal(y.shape)
    orders = spy_on_pbsv(monkeypatch)
    delta = prob.newton_step(40.0, y, r)
    assert orders == []
    np.testing.assert_array_equal(delta, -r / 40.0)


def lower_band_to_dense(ab):
    size = ab.shape[1]
    dense = np.zeros((size, size))
    for d in range(ab.shape[0]):  # d = p - q
        q = np.arange(size - d)
        dense[q + d, q] = ab[d, q]
    return dense


def ring(n):
    mask = np.ones((n, n), dtype=bool)
    mask[1:-1, 1:-1] = False
    return mask


@pytest.mark.parametrize("nodes", [
    ring,
    lambda n: np.random.default_rng(23).random((n, n)) < 0.5,
    lambda n: np.ones((n, n), dtype=bool),
], ids=["boundary-ring", "random-half", "all"])
def test_active_band_equals_the_sparse_block(nodes):
    # every set touches i = 0, i = n-1, j = 0 and j = n-1, where a j +- 1
    # neighbour would wrap into the next mesh row
    g = Grid2D(3.0, 15)
    prob = make_problem(g, np.array([[1.2, 0.0], [0.3, 1.0]]))
    assert prob.b[0, 1] != 0.0
    active = np.flatnonzero(nodes(g.n))
    root = np.sqrt(np.random.default_rng(24).uniform(0.5, 2.0, active.size))
    lam = 40.0
    scale = sp.diags(root)
    block = (lam * sp.identity(active.size)
             - scale @ operator_matrix(prob)[active][:, active] @ scale)
    ab = prob.active_band(lam, active, root)
    assert ab.shape[0] - 1 <= g.n + 1
    assert np.array_equal(lower_band_to_dense(ab), sp.tril(block).toarray())


def test_active_band_pattern_is_kept_only_while_the_set_repeats():
    # A, then B of the same size, then A again: each band equals one built
    # on a fresh operand, so a kept pattern never outlives its set
    g = Grid2D(3.0, 15)
    a = np.array([[1.2, 0.0], [0.3, 1.0]])
    prob = make_problem(g, a)
    rng = np.random.default_rng(30)
    set_a = np.flatnonzero(rng.random(g.n**2) < 0.5)
    set_b = np.sort(rng.choice(g.n**2, set_a.size, replace=False))
    assert not np.array_equal(set_a, set_b)
    for active in (set_a, set_b, set_a):
        root = np.sqrt(rng.uniform(0.5, 2.0, active.size))
        ab = prob.active_band(40.0, active, root)
        fresh = make_problem(g, a).active_band(40.0, active, root)
        assert ab.shape == fresh.shape
        assert np.array_equal(ab.view(np.int64), fresh.view(np.int64))


def test_singular_active_block_raises():
    # one active node and lam - L_jj*s_j == 0: the 1x1 block is singular
    g = Grid2D(3.0, 15)
    prob = make_problem(g, np.eye(2))
    y = -np.ones(prob.shape)
    y[7, 7] = 1.0
    m = prob.half_sigma_sq
    s = (prob.conj.derivative(m * y) * m).ravel()
    k = np.ravel_multi_index((7, 7), prob.shape)
    assert np.flatnonzero(s).tolist() == [k]
    lam = operator_matrix(prob)[k, k] * s[k]
    r = np.random.default_rng(25).standard_normal(y.shape)
    with pytest.raises(np.linalg.LinAlgError):
        prob.newton_step(lam, y, r)


def test_active_band_is_factored_in_place_with_the_same_bits():
    # a Fortran-order band reaches pbsv without the copy f2py makes of a
    # C-order one, and the copy changes no bit of the solution
    g = Grid2D(3.0, 15)
    prob = make_problem(g, np.array([[1.2, 0.0], [0.3, 1.0]]))
    active = np.flatnonzero(np.random.default_rng(26).random(g.n**2) < 0.5)
    root = np.sqrt(np.random.default_rng(27).uniform(0.5, 2.0, active.size))
    rhs = np.random.default_rng(28).standard_normal(active.size)
    ab = prob.active_band(40.0, active, root)
    assert ab.flags.f_contiguous
    copied = np.ascontiguousarray(ab)
    factor, x, info = twodim._pbsv(ab, rhs.copy())
    assert info == 0 and np.shares_memory(factor, ab)
    *_, x_copied, info_copied = twodim._pbsv(copied, rhs.copy())
    assert info_copied == 0
    assert np.array_equal(x, x_copied)


def sparse_green(prob, z):
    # the oracle: -L restricted to the interior, solved by sparse LU
    from scipy.sparse.linalg import spsolve

    n = prob.grid.n
    inner = np.zeros((n, n), dtype=bool)
    inner[1:-1, 1:-1] = True
    idx = np.flatnonzero(inner)
    system = -operator_matrix(prob)[idx][:, idx]
    phi = np.zeros(n * n)
    phi[idx] = spsolve(system.tocsc(), z.ravel()[idx])
    return phi.reshape(n, n)


def spy_on_cg(monkeypatch):
    calls = []  # (iterations, cap) per Green solve

    def spy(apply, precondition, rhs, max_iter):
        x, iterations = real(apply, precondition, rhs, max_iter)
        calls.append((iterations, max_iter))
        return x, iterations

    real = twodim._cg
    monkeypatch.setattr(twodim, "_cg", spy)
    return calls


def green_source(g):
    X, Y = g.mesh
    return np.exp(-(X**2 + Y**2)) * (1.0 + X - 0.5 * Y)


PLANAR_A = [[1.0, 0.3], [0.0, 1.0]]
ROUND_TRIP_A = [[np.sqrt(2.0), 0.0], [0.5, 1.0]]


@pytest.mark.filterwarnings("ignore:cross term")
@pytest.mark.parametrize("a", [PLANAR_A, ROUND_TRIP_A],
                         ids=["planar", "round-trip"])
def test_green_solve_matches_sparse_lu(a):
    g = Grid2D(6.0, 141)
    prob = make_problem(g, a)
    assert prob.b[0, 1] != 0.0
    z = green_source(g)
    expected = sparse_green(prob, z)
    phi = solve_L(prob, z)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(phi - expected)) <= 1e-12 * scale


def test_green_solve_without_cross_term_takes_one_iteration(monkeypatch):
    # the axis part is then -L itself, and DST-I inverts it exactly
    g = Grid2D(6.0, 141)
    prob = make_problem(g, [[1.0, 0.0], [0.0, 1.5]])
    assert prob.b[0, 1] == 0.0
    calls = spy_on_cg(monkeypatch)
    z = green_source(g)
    phi = solve_L(prob, z)
    assert [it for it, _ in calls] == [1]
    expected = sparse_green(prob, z)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(phi - expected)) <= 1e-12 * scale


def test_green_solve_raises_at_its_iteration_cap(monkeypatch):
    g = Grid2D(6.0, 31)
    prob = make_problem(g, PLANAR_A)
    z = green_source(g)
    calls = spy_on_cg(monkeypatch)
    solve_L(prob, z)
    (needed, cap), = calls
    assert 1 < needed <= cap
    # a cap one short of what the solve needs must raise, not return
    monkeypatch.setattr(twodim, "_CG_MARGIN",
                        twodim._CG_MARGIN - (cap - needed) - 1)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        solve_L(prob, z)


@pytest.mark.parametrize("z, message", [
    (np.ones((13, 13)), "z has shape"),
    (np.where(np.eye(11) > 0, np.nan, 1.0), "z contains non-finite"),
], ids=["wrong-shape", "nan"])
def test_green_solve_rejects_a_bad_source(z, message):
    prob = make_problem(Grid2D(3.0, 11), np.eye(2))
    with pytest.raises(ValueError, match=message):
        solve_L(prob, z)


_SOLVE_L_HASH = """
import hashlib, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from mildhjb.twodim import Grid2D, Problem2D, solve_L
from mildhjb.conjugate import ConjugateHamiltonian
g = Grid2D(6.0, 121)
X, Y = g.mesh
prob = Problem2D(g, np.array([[1.0, 0.3], [0.0, 1.0]]),
                 np.sqrt(2.0) + 0.1 * np.sin(X) * np.cos(Y),
                 ConjugateHamiltonian.quadratic())
phi = solve_L(prob, np.exp(-X**2 - Y**2) * (1.0 + X))
print(hashlib.sha256(phi.tobytes()).hexdigest())
"""


def test_green_solve_bytes_do_not_depend_on_the_blas_thread_count():
    # 14,161 interior nodes, past the size where a BLAS dot goes threaded
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _SOLVE_L_HASH, str(src)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]
