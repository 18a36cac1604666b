import numpy as np
import pytest

from mildhjb.config import parse_config

DESK = """
mode = solve

[problem]
f = tanh(x)
sigma = 2^0.5 + 0.1*sin(x)
g = exp(-x^2)
g0 = exp(-x^2)
T = 0.5

[cost]
kind = quadratic
alpha1 = 1.0
alpha2 = 0.0

[grid]
L = 10
n = 201

[solver]
eps = 0.01

[output]
dir = artifacts
seed = 42
"""


def test_valid_config_parses():
    cfg, errors = parse_config(DESK)
    assert errors == []
    assert cfg.mode == "solve"
    assert cfg.problem.horizon == 0.5
    assert cfg.L == 10.0 and cfg.n == 201
    assert cfg.eps == 0.01
    assert cfg.seed == 42 and cfg.out_dir == "artifacts"
    assert cfg.cost.kind == "quadratic"
    assert float(cfg.problem.f(0.5)) == pytest.approx(np.tanh(0.5))
    assert float(cfg.problem.g_xx(1.0)) == pytest.approx(2.0 * np.exp(-1.0))


def test_missing_cost_block_is_one_named_error():
    text = DESK.replace("[cost]\nkind = quadratic\nalpha1 = 1.0\nalpha2 = 0.0\n",
                        "")
    cfg, errors = parse_config(text)
    assert cfg is None
    fields = {e.field for e in errors}
    assert fields == {"[cost] kind", "[cost] alpha1"}


def test_every_error_is_reported_not_fail_fast():
    text = """
mode = solve

[problem]
f = tanh(q)
sigma = 2^0.5
g = exp(-x^2
g0 = exp(-x^2)
T = -1

[cost]
kind = quadratic
alpha1 = 0

[grid]
L = 10
n = 200

[solver]
eps = nope
"""
    cfg, errors = parse_config(text)
    assert cfg is None
    fields = [e.field for e in errors]
    assert "[problem] f" in fields       # unknown identifier q
    assert "[problem] g" in fields       # unbalanced paren
    assert "[problem] T" in fields       # not positive
    assert "[cost] alpha1" in fields     # zero
    assert "[grid] n" in fields          # even
    assert "[solver] eps" in fields      # not a number
    assert len(errors) >= 6


def test_error_lines_point_to_the_source():
    text = "mode = solve\n\n[problem]\nf = sin(\n"
    _, errors = parse_config(text)
    f_errors = [e for e in errors if e.field == "[problem] f"]
    assert f_errors and f_errors[0].line == 4


def test_duplicate_key_rejected():
    text = DESK + "\n[grid]\nL = 3\n"
    # second [grid] section reuses the existing table; duplicate L collides
    _, errors = parse_config(text)
    assert any("duplicate" in e.message for e in errors)


def test_unknown_mode_rejected():
    _, errors = parse_config(DESK.replace("mode = solve", "mode = dance"))
    assert any(e.field == "mode" for e in errors)


def test_mode_override_wins():
    cfg, errors = parse_config(DESK, mode_override="value")
    assert errors == []
    assert cfg.mode == "value"


def test_abs_blocks_required_derivative():
    text = DESK.replace("g0 = exp(-x^2)", "g0 = abs(x)")
    cfg, errors = parse_config(text)
    assert cfg is None
    assert any(e.field == "[problem] g0" and "abs" in e.message
               for e in errors)


def test_degenerate_mode_requires_sigma_derivatives():
    text = DESK.replace("mode = solve", "mode = sweep-degenerate") \
               .replace("sigma = 2^0.5 + 0.1*sin(x)", "sigma = abs(x)")
    cfg, errors = parse_config(text)
    assert cfg is None
    assert any(e.field == "[problem] sigma" for e in errors)


def test_simulate_requires_sim_block():
    text = DESK.replace("mode = solve", "mode = simulate")
    cfg, errors = parse_config(text)
    assert cfg is None
    assert any(e.field == "[sim] paths" for e in errors)


def test_expression_cost_backend():
    text = DESK.replace("kind = quadratic", "kind = expression\nh = u^2 + u")
    cfg, errors = parse_config(text)
    assert errors == []
    assert cfg.cost.kind == "callable"
    assert float(cfg.cost.evaluate(2.0)) == pytest.approx(6.0)


def test_presets_expand():
    text = DESK.replace("f = tanh(x)", "f = zero") \
               .replace("g = exp(-x^2)", "g = gauss")
    cfg, errors = parse_config(text)
    assert errors == []
    assert float(cfg.problem.f(3.0)) == 0.0
    assert float(cfg.problem.g(1.0)) == pytest.approx(np.exp(-1.0))


SIMULATE = DESK.replace("mode = solve", "mode = simulate") + """
[sim]
paths = 100
"""

TWOD = """
mode = solve-2d

[2d]
L = 6
n = 41
a = 1 1 0 ; 0 0 1
sigma0 = 2^0.5 + 0*x + 0*y
g = exp(-x^2 - y^2)
g0 = exp(-x^2 - y^2)
T = 0.05

[cost]
kind = quadratic
alpha1 = 1.0

[solver]
eps = 0.01
"""


def test_twod_config():
    cfg, errors = parse_config(TWOD)
    assert errors == []
    assert cfg.a_matrix.shape == (2, 3)
    assert cfg.g0_2d_parts is not None
    pxx, pxy, pyy = cfg.g0_2d_parts
    # cross partial of exp(-x^2-y^2) is 4xy exp(-x^2-y^2)
    assert float(pxy(0.5, 0.5)) == pytest.approx(4 * 0.25 * np.exp(-0.5))


@pytest.mark.parametrize("text, old, new, field", [
    (DESK, "T = 0.5", "T = inf", "[problem] T"),
    (DESK, "eps = 0.01", "eps = 0.01\ntol_res = inf", "[solver] tol_res"),
    (SIMULATE, "paths = 100", "paths = 100\nx0 = nan", "[sim] x0"),
    (DESK, "L = 10", "L = 1e999", "[grid] L"),
    (SIMULATE, "paths = 100", "paths = 100\nbaselines = 0 inf",
     "[sim] baselines"),
    (TWOD, "a = 1 1 0 ; 0 0 1", "a = inf 0 ; 0 1", "[2d] a"),
], ids=["T", "tol_res", "x0", "L", "baselines", "a"])
def test_non_finite_numbers_rejected(text, old, new, field):
    assert parse_config(text)[1] == []
    bad = text.replace(old, new)
    cfg, errors = parse_config(bad)
    assert cfg is None
    line = bad.splitlines().index(new.split("\n")[-1]) + 1
    assert [(e.field, e.line) for e in errors] == [(field, line)]
    assert "finite" in errors[0].message


@pytest.mark.parametrize("x0, ok", [
    ("-10", True), ("10", True), ("10.5", False), ("-12", False)])
def test_start_point_must_lie_on_the_mesh(x0, ok):
    # the value is read at x0; off [-L, L] it would read the boundary value
    text = SIMULATE.replace("paths = 100", f"paths = 100\nx0 = {x0}")
    cfg, errors = parse_config(text)
    if ok:
        assert errors == [] and cfg.x0 == float(x0)
    else:
        line = text.splitlines().index(f"x0 = {x0}") + 1
        assert cfg is None
        assert [(e.field, e.line) for e in errors] == [("[sim] x0", line)]


def test_sim_dt_defaults_to_a_thousandth_of_the_horizon():
    cfg, errors = parse_config(SIMULATE)
    assert errors == []
    assert cfg.dt == cfg.problem.horizon / 1000.0
    assert "dt" not in cfg.raw["sim"]  # the echo writes only what was set


@pytest.mark.parametrize("seed, ok", [
    ("0", True), ("18446744073709551615", True),
    ("-1", False), ("18446744073709551616", False)])
def test_seed_is_one_philox_key_word(seed, ok):
    # a seed is one 64-bit word of the Monte Carlo stream key
    cfg, errors = parse_config(DESK.replace("seed = 42", f"seed = {seed}"))
    if ok:
        assert errors == [] and cfg.seed == int(seed)
    else:
        assert cfg is None
        assert [e.field for e in errors] == ["[output] seed"]
        assert "out of range" in errors[0].message


def test_echo_round_trips():
    cfg, _ = parse_config(DESK)
    text = cfg.echo()
    cfg2, errors = parse_config(text)
    assert errors == []
    assert cfg2.echo() == text
    assert cfg2.problem.horizon == cfg.problem.horizon
    assert cfg2.seed == cfg.seed
