import numpy as np
import pytest

from mildhjb.config import MODES, parse_config
from mildhjb.grid import Grid1D, Grid2D

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
    assert cfg.grid == Grid1D(10.0, 201)
    assert cfg.eps == 0.01
    assert cfg.seed == 42 and cfg.out_dir == "artifacts"
    assert cfg.cost.h is None
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
    assert cfg.cost.h is not None
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
    assert cfg.grid == Grid2D(6.0, 41)
    assert cfg.problem.a.shape == (2, 3)
    assert cfg.problem.horizon == 0.05
    pxx, pxy, pyy = cfg.problem.g0_parts
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


def test_overflowing_expression_literal_rejected():
    # 1e999 reads as inf, which would reach the march as non-finite data
    bad = DESK.replace("g0 = exp(-x^2)", "g0 = 1e999*exp(-x^2)")
    cfg, errors = parse_config(bad)
    assert cfg is None
    line = bad.splitlines().index("g0 = 1e999*exp(-x^2)") + 1
    assert [(e.field, e.line, e.message) for e in errors] == [
        ("[problem] g0", line, "bad number '1e999' (column 1)")]


def test_unknown_sections_and_keys_are_errors():
    # a misspelt key or section would otherwise leave its default in force
    # and drop out of the manifest echo
    text = ("seeed = 3\n" + DESK).replace(
        "eps = 0.01", "eps = 0.01\ntol_ress = 1e-14\nmax_itr = 3").replace(
        "[output]\ndir = artifacts\n", "[outptu]\n")
    cfg, errors = parse_config(text)
    assert cfg is None
    lines = text.splitlines()
    assert [(e.field, e.line) for e in errors] == [
        ("seeed", 1),
        ("[solver] tol_ress", lines.index("tol_ress = 1e-14") + 1),
        ("[solver] max_itr", lines.index("max_itr = 3") + 1),
        ("section", lines.index("[outptu]") + 1)]
    assert "unknown section [outptu]" in errors[-1].message


def test_keys_another_mode_reads_are_accepted():
    text = DESK.replace("eps = 0.01", "eps = 0.01\nrefine_tol = 1e-3") + \
        "\n[sim]\npaths = 100\n\n[2d]\nT = 1\n"
    cfg, errors = parse_config(text)
    assert errors == []
    assert "sim" not in cfg.raw and "refine_tol" not in cfg.raw["solver"]


DEGENERATE = DESK.replace("mode = solve", "mode = sweep-degenerate") + """
[degenerate]
ladder = 1e-1 1e-2
"""


@pytest.mark.parametrize("text, old, new, field", [
    (SIMULATE, "paths = 100", "paths = 100\nbaselines = -1 0.5",
     "[sim] baselines"),
    (DEGENERATE, "ladder = 1e-1 1e-2", "ladder = 1e-1 1e-2 0",
     "[degenerate] ladder"),
    (DEGENERATE, "ladder = 1e-1 1e-2", "ladder = 1e-1 -1",
     "[degenerate] ladder"),
], ids=["negative-baseline", "zero-weight", "negative-weight"])
def test_list_entries_out_of_range_rejected(text, old, new, field):
    # a constant control below 0 runs as u = 0 under its own label, and a
    # weight <= 0 lifts nothing
    assert parse_config(text)[1] == []
    bad = text.replace(old, new)
    cfg, errors = parse_config(bad)
    assert cfg is None
    line = bad.splitlines().index(new.split("\n")[-1]) + 1
    assert [(e.field, e.line) for e in errors] == [(field, line)]


TABLE = """
mode = conjugate-table

[cost]
kind = quadratic
alpha1 = 1.0

[conjugate]
p_min = -5
p_max = 5
"""


@pytest.mark.parametrize("text, old, new, entry, field", [
    (DEGENERATE, "ladder = 1e-1 1e-2", "ladder = 1e-2 1e-1",
     "ladder = 1e-2 1e-1", "[degenerate] ladder"),
    (TABLE, "p_min = -5\np_max = 5", "p_min = 0\np_max = 0", "p_min = 0",
     "[conjugate] p_min"),
    (TABLE, "p_min = -5\np_max = 5", "p_min = 6\np_max = 8", "p_min = 6",
     "[conjugate] p_min"),
    (TABLE, "p_max = 5", "p_max = -1", "p_max = -1", "[conjugate] p_max"),
], ids=["increasing-ladder", "empty-range", "range-above-0", "range-below-0"])
def test_cross_entry_errors_name_their_line(text, old, new, entry, field):
    # the table's potential vanishes at 0, so its range must contain 0
    assert parse_config(text)[1] == []
    bad = text.replace(old, new)
    cfg, errors = parse_config(bad)
    assert cfg is None
    line = bad.splitlines().index(entry) + 1
    assert [(e.field, e.line) for e in errors] == [(field, line)]


@pytest.mark.parametrize("p_min, p_max", [("0", "5"), ("-5", "0")])
def test_conjugate_range_may_end_at_zero(p_min, p_max):
    cfg, errors = parse_config(TABLE.replace("p_min = -5", f"p_min = {p_min}")
                               .replace("p_max = 5", f"p_max = {p_max}"))
    assert errors == []
    assert (cfg.p_min, cfg.p_max) == (float(p_min), float(p_max))


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


# Configs that break each validation path once, and the full error list
# each one yields: line, field, message, in order.  A change that moves
# these on purpose regenerates them with ``error_list`` and says so.
BROKEN = {
    **{f"bare-{mode}": f"mode = {mode}\n" for mode in MODES},
    "no-mode": DESK.replace("mode = solve\n", ""),
    "unknown-mode": DESK.replace("mode = solve", "mode = dance")
                        .replace("seed = 42", "seed = -1"),
    "not-a-number": DESK.replace("eps = 0.01", "eps = nope"),
    "not-an-integer": DESK.replace("n = 201", "n = 201.0"),
    "out-of-range": DESK.replace("T = 0.5", "T = -1")
                        .replace("n = 201", "n = 200"),
    "bad-expression": DESK.replace("f = tanh(x)", "f = tanh(q)")
                          .replace("g = exp(-x^2)", "g = exp(-x^2"),
    "no-derivative": DESK.replace("f = tanh(x)", "f = 2^x")
                         .replace("g0 = exp(-x^2)", "g0 = abs(x)"),
    "no-sigma-derivative": DEGENERATE.replace("sigma = 2^0.5 + 0.1*sin(x)",
                                              "sigma = abs(x)"),
    "no-planar-derivative": TWOD.replace("g0 = exp(-x^2 - y^2)",
                                         "g0 = abs(x*y)"),
    "bad-cost-kind": DESK.replace("kind = quadratic", "kind = cubic"),
    "expression-cost-without-h": DESK.replace("kind = quadratic",
                                              "kind = expression"),
    # the h was dropped: a quadratic cost ran, and the manifest left h out
    "quadratic-cost-with-h": DESK.replace("kind = quadratic",
                                          "kind = quadratic\nh = u^2 + 5*u"),
    "cost-below-its-bound": DESK.replace("kind = quadratic",
                                         "kind = expression\nh = u^2 + 1")
                                .replace("alpha2 = 0.0", "alpha2 = 2"),
    "bad-list-entry": SIMULATE.replace("paths = 100",
                                       "paths = 100\nbaselines = 0 x"),
    "list-entry-out-of-range": SIMULATE.replace(
        "paths = 100", "paths = 100\nbaselines = 0 -1"),
    "empty-list": SIMULATE.replace("paths = 100",
                                   "paths = 100\nbaselines = ,"),
    "increasing-ladder": DEGENERATE.replace("ladder = 1e-1 1e-2",
                                            "ladder = 1e-2 1e-1"),
    "bad-sim-keys": SIMULATE.replace(
        "paths = 100", "paths = 1\ndt = 0\nx0 = 11\ndump_paths = yes"),
    "bad-matrix-entry": TWOD.replace("a = 1 1 0 ; 0 0 1", "a = 1 x ; 0 1"),
    "bad-matrix-shape": TWOD.replace("a = 1 1 0 ; 0 0 1", "a = 1 1 0 ; 0 1"),
    "bad-conjugate-range": TABLE.replace("p_min = -5", "p_min = 6")
                                .replace("p_max = 5", "p_max = 4\nnodes = 1"),
    "bad-solver-keys": DESK.replace(
        "eps = 0.01", "eps = 0\ntol_res = -1\nmax_iter = 0\n"
        "refine_tol = x\nrefine_levels = 0").replace("mode = solve",
                                                     "mode = sweep-eps"),
    "bad-seed": DESK.replace("seed = 42", "seed = -1"),
    "unknown-section-and-key": ("seeed = 3\n" + DESK).replace(
        "eps = 0.01", "eps = 0.01\ntol_ress = 1e-14").replace(
        "[output]", "[outptu]"),
    "duplicate-key": DESK + "\n[grid]\nL = 3\n",
    "syntax": "mode = solve\nnonsense\n = 3\n[\n[problem]\nT = 1\nT = 2\n",
}

PINNED_ERRORS = {
    "bare-solve": [
        (0, "[cost] alpha1", "required for mode solve"),
        (0, "[cost] kind", "required for mode solve"),
        (0, "[grid] L", "required for mode solve"),
        (0, "[grid] n", "required for mode solve"),
        (0, "[problem] T", "required for mode solve"),
        (0, "[problem] g", "required for mode solve"),
        (0, "[problem] g0", "required for mode solve"),
        (0, "[problem] sigma", "required for mode solve"),
        (0, "[solver] eps", "required for mode solve"),
    ],
    "bare-value": [
        (0, "[cost] alpha1", "required for mode value"),
        (0, "[cost] kind", "required for mode value"),
        (0, "[grid] L", "required for mode value"),
        (0, "[grid] n", "required for mode value"),
        (0, "[problem] T", "required for mode value"),
        (0, "[problem] g", "required for mode value"),
        (0, "[problem] g0", "required for mode value"),
        (0, "[problem] sigma", "required for mode value"),
        (0, "[solver] eps", "required for mode value"),
    ],
    "bare-policy": [
        (0, "[cost] alpha1", "required for mode policy"),
        (0, "[cost] kind", "required for mode policy"),
        (0, "[grid] L", "required for mode policy"),
        (0, "[grid] n", "required for mode policy"),
        (0, "[problem] T", "required for mode policy"),
        (0, "[problem] g", "required for mode policy"),
        (0, "[problem] g0", "required for mode policy"),
        (0, "[problem] sigma", "required for mode policy"),
        (0, "[solver] eps", "required for mode policy"),
    ],
    "bare-simulate": [
        (0, "[cost] alpha1", "required for mode simulate"),
        (0, "[cost] kind", "required for mode simulate"),
        (0, "[grid] L", "required for mode simulate"),
        (0, "[grid] n", "required for mode simulate"),
        (0, "[problem] T", "required for mode simulate"),
        (0, "[problem] g", "required for mode simulate"),
        (0, "[problem] g0", "required for mode simulate"),
        (0, "[problem] sigma", "required for mode simulate"),
        (0, "[sim] paths", "required for mode simulate"),
        (0, "[solver] eps", "required for mode simulate"),
    ],
    "bare-sweep-eps": [
        (0, "[cost] alpha1", "required for mode sweep-eps"),
        (0, "[cost] kind", "required for mode sweep-eps"),
        (0, "[grid] L", "required for mode sweep-eps"),
        (0, "[grid] n", "required for mode sweep-eps"),
        (0, "[problem] T", "required for mode sweep-eps"),
        (0, "[problem] g", "required for mode sweep-eps"),
        (0, "[problem] g0", "required for mode sweep-eps"),
        (0, "[problem] sigma", "required for mode sweep-eps"),
        (0, "[solver] eps", "required for mode sweep-eps"),
        (0, "[solver] refine_tol", "required for mode sweep-eps"),
    ],
    "bare-sweep-degenerate": [
        (0, "[cost] alpha1", "required for mode sweep-degenerate"),
        (0, "[cost] kind", "required for mode sweep-degenerate"),
        (0, "[grid] L", "required for mode sweep-degenerate"),
        (0, "[grid] n", "required for mode sweep-degenerate"),
        (0, "[problem] T", "required for mode sweep-degenerate"),
        (0, "[problem] g", "required for mode sweep-degenerate"),
        (0, "[problem] g0", "required for mode sweep-degenerate"),
        (0, "[problem] sigma", "required for mode sweep-degenerate"),
        (0, "[solver] eps", "required for mode sweep-degenerate"),
    ],
    "bare-solve-2d": [
        (0, "[2d] L", "required for mode solve-2d"),
        (0, "[2d] T", "required for mode solve-2d"),
        (0, "[2d] a", "required for mode solve-2d"),
        (0, "[2d] g", "required for mode solve-2d"),
        (0, "[2d] g0", "required for mode solve-2d"),
        (0, "[2d] n", "required for mode solve-2d"),
        (0, "[2d] sigma0", "required for mode solve-2d"),
        (0, "[cost] alpha1", "required for mode solve-2d"),
        (0, "[cost] kind", "required for mode solve-2d"),
        (0, "[solver] eps", "required for mode solve-2d"),
    ],
    "bare-conjugate-table": [
        (0, "[cost] alpha1", "required for mode conjugate-table"),
        (0, "[cost] kind", "required for mode conjugate-table"),
    ],
    "no-mode": [
        (0, "mode", "missing (set in the file or pass a subcommand)"),
    ],
    "unknown-mode": [
        (2, "mode",
         "unknown mode 'dance'; expected one of solve, value, policy, "
         "simulate, sweep-eps, sweep-degenerate, solve-2d, conjugate-table"),
        (25, "[output] seed", "out of range (0 <= seed <= 2**64 - 1): -1"),
    ],
    "not-a-number": [
        (21, "[solver] eps", "not a finite number: 'nope'"),
    ],
    "not-an-integer": [
        (18, "[grid] n", "not an integer: '201.0'"),
    ],
    "out-of-range": [
        (9, "[problem] T", "out of range (T > 0): -1"),
        (18, "[grid] n", "out of range (odd n >= 5): 200"),
    ],
    "bad-expression": [
        (5, "[problem] f", "unknown identifier 'q' (column 6)"),
        (7, "[problem] g", "expected ')', found 'end of input' (column 9)"),
    ],
    "no-derivative": [
        (5, "[problem] f",
         "power with a variable exponent has no supported derivative"),
        (5, "[problem] f",
         "power with a variable exponent has no supported derivative"),
        (8, "[problem] g0",
         "abs(...) has no derivative; rewrite the expression without abs "
         "where a derivative is required"),
    ],
    "no-sigma-derivative": [
        (6, "[problem] sigma",
         "abs(...) has no derivative; rewrite the expression without abs "
         "where a derivative is required"),
        (6, "[problem] sigma",
         "abs(...) has no derivative; rewrite the expression without abs "
         "where a derivative is required"),
    ],
    "no-planar-derivative": [
        (10, "[2d] g0",
         "abs(...) has no derivative; rewrite the expression without abs "
         "where a derivative is required"),
        (10, "[2d] g0",
         "abs(...) has no derivative; rewrite the expression without abs "
         "where a derivative is required"),
    ],
    "bad-cost-kind": [
        (12, "[cost] kind",
         "expected 'quadratic' or 'expression', got 'cubic'"),
    ],
    "expression-cost-without-h": [
        (0, "[cost] h", "required for mode solve"),
    ],
    "quadratic-cost-with-h": [
        (13, "[cost] h", "a quadratic cost takes no h; set kind = expression"),
    ],
    "cost-below-its-bound": [
        (12, "[cost] h", "coercivity bound fails at u=2.6: h=7.76 < 8.76"),
    ],
    "bad-list-entry": [
        (29, "[sim] baselines", "entries must be finite numbers: '0 x'"),
    ],
    "list-entry-out-of-range": [
        (29, "[sim] baselines", "entries must be nonnegative: '0 -1'"),
    ],
    "empty-list": [
        (29, "[sim] baselines", "empty list (constant control levels)"),
    ],
    "increasing-ladder": [
        (28, "[degenerate] ladder", "must be strictly decreasing"),
    ],
    "bad-sim-keys": [
        (28, "[sim] paths", "out of range (>= 2): 1"),
        (29, "[sim] dt", "out of range (dt > 0): 0"),
        (30, "[sim] x0", "out of range (|x0| <= L): 11"),
        (31, "[sim] dump_paths", "expected 'true' or 'false', got 'yes'"),
    ],
    "bad-matrix-entry": [
        (7, "[2d] a", "matrix entries must be finite numbers: '1 x ; 0 1'"),
    ],
    "bad-matrix-shape": [
        (7, "[2d] a", "need 2 rows of equal length, ';'-separated"),
    ],
    "bad-conjugate-range": [
        (9, "[conjugate] p_min", "out of range (p_min <= 0): 6"),
        (11, "[conjugate] nodes", "out of range (>= 2): 1"),
    ],
    "bad-solver-keys": [
        (21, "[solver] eps", "out of range (eps > 0): 0"),
        (22, "[solver] tol_res", "out of range (tol > 0): -1"),
        (23, "[solver] max_iter", "out of range (> 0): 0"),
        (24, "[solver] refine_tol", "not a finite number: 'x'"),
        (25, "[solver] refine_levels", "out of range (>= 1): 0"),
    ],
    "bad-seed": [
        (25, "[output] seed", "out of range (0 <= seed <= 2**64 - 1): -1"),
    ],
    "unknown-section-and-key": [
        (1, "seeed", "unknown key; expected one of mode"),
        (23, "[solver] tol_ress",
         "unknown key; expected one of eps, tol_res, max_iter, refine_tol, "
         "refine_levels"),
        (25, "section",
         "unknown section [outptu]; expected one of problem, cost, grid, "
         "solver, sim, degenerate, conjugate, 2d, output"),
    ],
    "duplicate-key": [
        (28, "L", "duplicate key"),
    ],
    "syntax": [
        (0, "[cost] alpha1", "required for mode solve"),
        (0, "[cost] kind", "required for mode solve"),
        (0, "[grid] L", "required for mode solve"),
        (0, "[grid] n", "required for mode solve"),
        (0, "[problem] g", "required for mode solve"),
        (0, "[problem] g0", "required for mode solve"),
        (0, "[problem] sigma", "required for mode solve"),
        (0, "[solver] eps", "required for mode solve"),
        (2, "syntax", "expected 'key = value', got 'nonsense'"),
        (3, "syntax", "empty key"),
        (4, "section", "malformed section header '['"),
        (7, "T", "duplicate key"),
    ],
}


def error_list(text):
    cfg, errors = parse_config(text)
    assert cfg is None
    return [(e.line, e.field, e.message) for e in errors]


@pytest.mark.parametrize("name", list(BROKEN))
def test_error_lists_are_pinned(name):
    got = error_list(BROKEN[name])
    assert got == PINNED_ERRORS[name], f"new errors: {name!r}: {got!r},"
