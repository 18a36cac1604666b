import numpy as np
import pytest

from conftest import tanh_drift
from mildhjb.drift import DriftData, apply_B
from mildhjb.grid import Grid1D, green_constants, poisson_solve


def linear_drift(g):
    return DriftData.from_callables(g, lambda x: 2.0 * x - 1.0,
                                    lambda x: 2.0 + 0.0 * x,
                                    lambda x: 0.0 * x)


def wind(g, f):
    """A drift of values ``f`` with zero derivatives: the transport alone."""
    return DriftData(g, np.asarray(f, dtype=float), np.zeros(g.n),
                     np.zeros(g.n))


def test_linear_drift_kills_nonlocal_term():
    g = Grid1D(5.0, 101)
    drift = linear_drift(g)
    rng = np.random.default_rng(2)
    y = rng.standard_normal(g.n)
    np.testing.assert_allclose(apply_B(drift, y), -4.0 * y, atol=1e-13)


def test_zero_field_maps_to_zero():
    g = Grid1D(5.0, 101)
    drift = tanh_drift(g)
    np.testing.assert_array_equal(apply_B(drift, np.zeros(g.n)), 0.0)


def test_l1_bound_on_bump():
    g = Grid1D(10.0, 201)
    drift = tanh_drift(g)
    y = np.exp(-g.x**2)
    _, c_grad = green_constants(g)
    constant = g.norm1(drift.f2) * c_grad + 2.0 * drift.slope_sup
    assert g.norm1(apply_B(drift, y)) <= constant * g.norm1(y) + 1e-12
    assert drift.perturbation_bound() == pytest.approx(constant)


def test_l1_bound_random_fields():
    g = Grid1D(10.0, 201)
    drift = tanh_drift(g)
    bound = drift.perturbation_bound()
    rng = np.random.default_rng(11)
    for _ in range(10):
        y = rng.standard_normal(g.n)
        assert g.norm1(apply_B(drift, y)) <= bound * g.norm1(y) + 1e-12


def test_linearity():
    g = Grid1D(6.0, 121)
    drift = tanh_drift(g)
    rng = np.random.default_rng(4)
    y1, y2 = rng.standard_normal((2, g.n))
    lhs = apply_B(drift, 1.5 * y1 - 0.25 * y2)
    rhs = 1.5 * apply_B(drift, y1) - 0.25 * apply_B(drift, y2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_fd_fallback_close_to_analytic():
    g = Grid1D(8.0, 401)
    analytic = tanh_drift(g)
    sampled = DriftData.from_callables(g, np.tanh)
    np.testing.assert_allclose(sampled.f1, analytic.f1, atol=2e-3)
    np.testing.assert_allclose(sampled.f2[1:-1], analytic.f2[1:-1], atol=5e-3)


def test_rejects_bad_tables():
    g = Grid1D(5.0, 101)
    with pytest.raises(ValueError):
        DriftData(g, np.zeros(g.n), np.zeros(g.n - 1), np.zeros(g.n))
    bad = np.zeros(g.n)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        DriftData(g, bad, np.zeros(g.n), np.zeros(g.n))


def test_bound_constant_stable_under_refinement():
    bounds = []
    for n in (101, 201, 401):
        g = Grid1D(10.0, n)
        bounds.append(tanh_drift(g).perturbation_bound())
    spread = max(bounds) / min(bounds)
    assert spread <= 1.05


def test_transport_constant_and_linear():
    g = Grid1D(2.0, 41)
    drift = wind(g, np.ones(g.n))
    assert np.max(np.abs(drift.transport(np.full(g.n, 3.0))[1:-1])) == 0.0
    out = drift.transport(g.x.copy())
    np.testing.assert_allclose(out[:-1], -1.0, atol=1e-12)


def test_transport_direction_switch():
    g = Grid1D(2.0, 41)
    y = g.x**2
    out = wind(g, np.where(g.x > 0, 1.0, -1.0)).transport(y)
    k = 30  # x > 0, forward difference
    assert out[k] == pytest.approx(-(y[k + 1] - y[k]) / g.h)
    k = 10  # x < 0, backward difference
    assert out[k] == pytest.approx((y[k] - y[k - 1]) / g.h)


def tridiagonal(lower, diag, upper, v):
    """Row k: ``lower[k-1]*v[k-1] + diag[k]*v[k] + upper[k]*v[k+1]``."""
    out = diag * v
    out[1:] += lower * v[:-1]
    out[:-1] += upper * v[1:]
    return out


@pytest.mark.parametrize("perturbation", [True, False])
@pytest.mark.parametrize("make", [tanh_drift, linear_drift],
                         ids=["tanh", "linear"])
def test_jacobian_is_the_derivative_of_the_drift_terms(make, perturbation):
    # the drift's terms are linear in y, so its Newton entries applied to
    # delta and psi = green(delta) give the terms themselves, whatever the
    # stencil
    g = Grid1D(5.0, 101)
    drift = make(g)
    on_delta, on_psi = drift.jacobian(perturbation)
    rng = np.random.default_rng(6)
    for delta in rng.standard_normal((5, g.n)):
        got = (tridiagonal(*on_delta, delta)
               + tridiagonal(*on_psi, poisson_solve(g, delta)))
        want = drift.transport(delta)
        if perturbation:
            want += apply_B(drift, delta)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
