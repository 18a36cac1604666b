import numpy as np
import pytest

from mildhjb import cli
from mildhjb.cli import main, run

SOLVE = """
mode = solve

[problem]
f = tanh(x)
sigma = 2^0.5 + 0.1*sin(x)
g = exp(-x^2)
g0 = exp(-x^2)
T = {T}

[cost]
kind = quadratic
alpha1 = 1.0

[grid]
L = 10
n = 101

[solver]
eps = 0.02

[output]
dir = out
seed = 5
"""

SIMULATE = """
mode = simulate

[problem]
f = tanh(x)
sigma = 2^0.5 + 0.1*sin(x)
g = exp(-x^2)
g0 = exp(-x^2)
T = 0.2

[cost]
kind = quadratic
alpha1 = 1.0

[grid]
L = 10
n = 101

[solver]
eps = 0.02

[sim]
paths = 300
dt = 0.004
x0 = 0.0
baselines = 0 0.5

[output]
dir = out
seed = 9
"""

DEGENERATE = """
mode = sweep-degenerate

[problem]
sigma = x*exp(-x^2)
g = exp(-x^2)
g0 = exp(-x^2)
T = 0.05

[cost]
kind = quadratic
alpha1 = 1.0

[grid]
L = 8
n = 81

[solver]
eps = 0.025

[degenerate]
ladder = 1e-1 1e-2 1e-3
"""

SOLVE_2D = """
mode = solve-2d

[2d]
L = 6
n = 21
a = 1 1 0 ; 0 0 1
sigma0 = 2^0.5 + 0*x + 0*y
g = exp(-x^2 - y^2)
g0 = exp(-x^2 - y^2)
T = 0.02

[cost]
kind = quadratic
alpha1 = 1.0

[solver]
eps = 0.01
"""

TABLE = """
mode = conjugate-table

[cost]
kind = quadratic
alpha1 = 1.0
alpha2 = 0.0

[conjugate]
p_min = -5
p_max = 5
nodes = 201
"""

TABLE_EXPR = """
mode = conjugate-table

[cost]
kind = expression
h = u^2 + 0.25*u
alpha1 = 1.0

[conjugate]
p_min = -10
p_max = 10
nodes = 41
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_table(path):
    rows = [line.split(",") for line in path.read_text().splitlines()
            if line and not line.startswith("#")]
    header, data = rows[0], rows[1:]
    return header, data


def test_conjugate_table_matches_closed_forms(tmp_path):
    cfg = write(tmp_path, "c.cfg", TABLE)
    out = tmp_path / "out"
    assert main(["conjugate-table", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    _, data = read_table(out / "reports" / "conjugate_table.csv")
    for row in data:
        p, value, derivative, pot = map(float, row)
        assert value == pytest.approx(max(p, 0.0) ** 2 / 4.0, abs=1e-10)
        assert derivative == pytest.approx(max(p, 0.0) / 2.0, abs=1e-10)
        assert pot == pytest.approx(max(p, 0.0) ** 3 / 12.0, abs=1e-10)


def test_expression_conjugate_table_matches_closed_forms(tmp_path):
    # the conjugate of u^2 + 0.25*u is max(p - 0.25, 0)^2/4, read off one
    # table whose potential needs no quadrature
    cfg = write(tmp_path, "c.cfg", TABLE_EXPR)
    out = tmp_path / "out"
    assert main(["conjugate-table", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    _, data = read_table(out / "reports" / "conjugate_table.csv")
    assert len(data) == 41
    for row in data:
        p, value, derivative, pot = map(float, row)
        q = max(p - 0.25, 0.0)
        assert value == pytest.approx(q * q / 4.0, abs=1e-12)
        assert derivative == pytest.approx(q / 2.0, abs=2e-8)
        assert pot == pytest.approx(q ** 3 / 12.0, abs=1e-9)


def test_solve_with_short_horizon_emits_single_snapshot(tmp_path):
    # below eps/100 the horizon is dropped as a negligible remainder
    cfg = write(tmp_path, "s.cfg", SOLVE.format(T=1e-4))
    out = tmp_path / "out"
    assert run("solve", str(cfg), out_dir=str(out), quiet=True) == 0
    _, data = read_table(out / "fields" / "y.csv")
    times = {row[0] for row in data}
    assert times == {"0.0"}
    xs = np.array([float(r[1]) for r in data])
    ys = np.array([float(r[2]) for r in data])
    expected = (4.0 * xs**2 - 2.0) * np.exp(-xs**2) * (-1.0)
    np.testing.assert_allclose(ys, expected, atol=1e-12)


def test_simulate_is_byte_deterministic(tmp_path):
    cfg = write(tmp_path, "m.cfg", SIMULATE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("simulate", str(cfg), out_dir=str(out1), quiet=True) == 0
    assert run("simulate", str(cfg), out_dir=str(out2), quiet=True) == 0
    f1 = out1 / "reports" / "mc_comparison.csv"
    f2 = out2 / "reports" / "mc_comparison.csv"
    assert f1.read_bytes() == f2.read_bytes()


def artifacts(out):
    """Every file but the manifest, by path relative to out."""
    return {path.relative_to(out): path.read_bytes()
            for path in sorted(out.rglob("*"))
            if path.is_file() and path.name != "manifest.txt"}


def in_mode(mode):
    return SOLVE.format(T=0.1).replace("mode = solve", f"mode = {mode}")


@pytest.mark.parametrize("mode, text, tops", [
    ("solve", SOLVE.format(T=0.1), {"fields", "reports"}),
    ("value", in_mode("value"), {"fields"}),
    ("policy", in_mode("policy"), {"policy.csv", "policy.txt"}),
    ("simulate", SIMULATE, {"policy.csv", "policy.txt", "reports"}),
    ("sweep-eps", in_mode("sweep-eps").replace(
        "eps = 0.02", "eps = 0.02\nrefine_tol = 1e-3\nrefine_levels = 2"),
     {"fields", "reports"}),
    ("sweep-degenerate", DEGENERATE, {"reports"}),
    ("solve-2d", SOLVE_2D, {"fields", "reports"}),
    ("conjugate-table", TABLE, {"reports"}),
    ("conjugate-table", TABLE_EXPR, {"reports"}),
], ids=["solve", "value", "policy", "simulate", "sweep-eps",
        "sweep-degenerate", "solve-2d", "conjugate-table",
        "conjugate-table-expression"])
def test_manifest_round_trip_reproduces_artifacts(tmp_path, mode, text, tops):
    cfg = write(tmp_path, "s.cfg", text)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(mode, str(cfg), out_dir=str(out1), quiet=True) == 0
    assert run(mode, str(out1 / "manifest.txt"), out_dir=str(out2),
               quiet=True) == 0
    first = artifacts(out1)
    assert {path.parts[0] for path in first} == tops
    assert artifacts(out2) == first


def test_seed_override_lands_in_manifest(tmp_path):
    cfg = write(tmp_path, "m.cfg", SIMULATE)
    out = tmp_path / "out"
    assert run("simulate", str(cfg), out_dir=str(out), seed=123,
               quiet=True) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "seed = 123" in manifest


@pytest.mark.parametrize("mode", ["solve", "simulate"])
@pytest.mark.parametrize("seed", ["-3", "18446744073709551616"])
def test_out_of_range_seed_override_is_a_validation_error(tmp_path, capsys,
                                                          mode, seed):
    # the manifest echoes the seed, so it must pass the config's own rule
    cfg = write(tmp_path, "m.cfg", SIMULATE)
    out = tmp_path / "out"
    assert main([mode, "--config", str(cfg), "--out", str(out),
                 "--seed", seed, "--quiet"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_validation_failure_exit_code_and_messages(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", SOLVE.format(T=0.1).replace(
        "alpha1 = 1.0", "alpha1 = -2"))
    assert run("solve", str(cfg), quiet=True) == 2
    err = capsys.readouterr().err
    assert "config validation failed" in err
    assert "[cost] alpha1" in err


def test_non_finite_tolerance_is_a_validation_error(tmp_path, capsys):
    # tol_res = inf would accept any iterate as converged
    cfg = write(tmp_path, "inf.cfg", SOLVE.format(T=0.1).replace(
        "eps = 0.02", "eps = 0.02\ntol_res = inf"))
    assert run("solve", str(cfg), out_dir=str(tmp_path / "o"),
               quiet=True) == 2
    assert "[solver] tol_res" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert run("solve", str(tmp_path / "nope.cfg")) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_solver_failure_returns_structured_error(tmp_path, capsys):
    # step size above the drift cap trips the stepper precondition
    cfg = write(tmp_path, "s.cfg", SOLVE.format(T=2.0).replace(
        "eps = 0.02", "eps = 0.7"))
    assert run("solve", str(cfg), out_dir=str(tmp_path / "o"),
               quiet=True) == 1
    err = capsys.readouterr().err
    assert "solve run failed" in err
    assert "need eps <" in err


@pytest.mark.parametrize("mode, text, key", [
    ("sweep-degenerate", DEGENERATE, "tol_res = 1e-300"),
    ("solve-2d", SOLVE_2D, "max_iter = 1"),
], ids=["sweep-degenerate", "solve-2d"])
def test_solver_keys_reach_the_solver(tmp_path, capsys, mode, text, key):
    # an unreachable tolerance or a one-iteration budget must fail the run
    cfg = write(tmp_path, "k.cfg",
                text.replace("[solver]", f"[solver]\n{key}"))
    assert run(mode, str(cfg), out_dir=str(tmp_path / "o"), quiet=True) == 1
    assert "type: ResolventError" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("sigma0", [
    "2^0.5 + 0.1*x^0.5 + 0*y",  # NaN where x < 0
    "exp(30*x^2) + 0*y",        # overflows to inf
], ids=["nan", "inf"])
def test_solve_2d_rejects_non_finite_sigma0(tmp_path, capsys, sigma0):
    cfg = write(tmp_path, "s.cfg", SOLVE_2D.replace(
        "sigma0 = 2^0.5 + 0*x + 0*y", f"sigma0 = {sigma0}"))
    assert run("solve-2d", str(cfg), out_dir=str(tmp_path / "o"),
               quiet=True) == 1
    err = capsys.readouterr().err
    assert "type: ValueError" in err
    assert "sigma0 contains non-finite entries" in err


def test_value_mode_reports_inner_window(tmp_path):
    cfg = write(tmp_path, "v.cfg", SOLVE.format(T=0.1).replace(
        "mode = solve", "mode = value"))
    out = tmp_path / "out"
    assert run("value", str(cfg), out_dir=str(out), quiet=True) == 0
    _, data = read_table(out / "fields" / "value.csv")
    xs = np.array(sorted({float(r[1]) for r in data}))
    assert xs.min() >= -8.0 and xs.max() <= 8.0


def test_policy_files(tmp_path):
    cfg = write(tmp_path, "p.cfg", SOLVE.format(T=0.1).replace(
        "mode = solve", "mode = policy"))
    out = tmp_path / "out"
    assert run("policy", str(cfg), out_dir=str(out), quiet=True) == 0
    header, data = read_table(out / "policy.csv")
    assert header == ["t", "x", "u"]
    assert all(float(r[2]) >= 0.0 for r in data)
    compact = (out / "policy.txt").read_text().splitlines()
    assert compact[0].startswith("# feedback control table")
    assert any(line.startswith("# nodes = 101") for line in compact)


def test_sweep_eps_gap_series(tmp_path):
    cfg = write(tmp_path, "w.cfg", SOLVE.format(T=0.1).replace(
        "mode = solve", "mode = sweep-eps").replace(
        "eps = 0.02", "eps = 0.02\nrefine_tol = 1e-3\nrefine_levels = 4"))
    out = tmp_path / "out"
    assert run("sweep-eps", str(cfg), out_dir=str(out), quiet=True) == 0
    _, data = read_table(out / "reports" / "eps_sweep.csv")
    gaps = [float(r[2]) for r in data]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_sweep_degenerate_report(tmp_path):
    cfg = write(tmp_path, "d.cfg", DEGENERATE)
    out = tmp_path / "out"
    assert run("sweep-degenerate", str(cfg), out_dir=str(out), quiet=True) == 0
    _, data = read_table(out / "reports" / "degenerate_sweep.csv")
    assert len(data) == 3
    assert all(r[4] == "True" for r in data)
    gaps = [float(r[1]) for r in data[1:]]
    assert gaps[1] < gaps[0]


def test_solve_2d_artifacts(tmp_path):
    cfg = write(tmp_path, "t.cfg", SOLVE_2D)
    out = tmp_path / "out"
    assert run("solve-2d", str(cfg), out_dir=str(out), quiet=True) == 0
    header, data = read_table(out / "fields" / "y2d_final.csv")
    assert header == ["i", "j", "x", "y", "value"]
    assert len(data) == 21 * 21
    _, mass = read_table(out / "reports" / "mass.csv")
    masses = [float(r[1]) for r in mass]
    size = sum(abs(float(r[4])) for r in data) * (12.0 / 20.0) ** 2
    assert abs(masses[-1] - masses[0]) <= 1e-8 * max(1.0, size)


def test_simulate_optional_path_dump(tmp_path):
    cfg = write(tmp_path, "m.cfg", SIMULATE.replace(
        "baselines = 0 0.5", "baselines = 0 0.5\ndump_paths = true"))
    out = tmp_path / "out"
    assert run("simulate", str(cfg), out_dir=str(out), quiet=True) == 0
    _, data = read_table(out / "reports" / "path_costs.csv")
    assert len(data) == 3 * 300
    labels = {r[0] for r in data}
    assert labels == {"feedback", "constant 0", "constant 0.5"}


@pytest.mark.parametrize("x0", [0.0, 0.1])
def test_simulate_summary_reports_the_pde_value_at_x0(tmp_path, x0):
    # phi(0, x0) from the same reconstruction that value mode writes
    text = SIMULATE.replace("x0 = 0.0", f"x0 = {x0}")
    cfg = write(tmp_path, "m.cfg", text)
    assert run("simulate", str(cfg), out_dir=str(tmp_path / "sim"),
               quiet=True) == 0
    assert run("value", str(cfg), out_dir=str(tmp_path / "val"),
               quiet=True) == 0
    lines = (tmp_path / "sim" / "reports" / "summary.txt").read_text()
    summary = dict(line.split(" = ") for line in lines.splitlines())
    assert list(summary)[:2] == ["feedback_mean", "pde_value_at_x0"]
    _, data = read_table(tmp_path / "val" / "fields" / "value.csv")
    phi0 = {float(r[1]): float(r[2]) for r in data if float(r[0]) == 0.0}
    if x0 in phi0:
        assert summary["pde_value_at_x0"] == repr(phi0[x0])
    else:
        expected = 0.5 * (phi0[0.0] + phi0[0.2])
        assert float(summary["pde_value_at_x0"]) == pytest.approx(
            expected, rel=1e-12)


def test_start_point_off_the_mesh_is_a_validation_error(tmp_path, capsys):
    # off [-L, L] the value at x0 would be the boundary value 0, not phi
    text = SIMULATE.replace("x0 = 0.0", "x0 = 12.0")
    cfg = write(tmp_path, "m.cfg", text)
    out = tmp_path / "out"
    assert run("simulate", str(cfg), out_dir=str(out), quiet=True) == 2
    line = text.splitlines().index("x0 = 12.0") + 1
    assert f"line {line}: [sim] x0" in capsys.readouterr().err
    assert not out.exists()


def test_solve_2d_value_slice_recovers_terminal_cost(tmp_path):
    # a horizon shorter than one step is marched as one step of length T,
    # which moves y = -L(g0) only slightly; the reconstructed value must
    # then reproduce g0 away from the truncation boundary
    cfg = write(tmp_path, "t.cfg", """
mode = solve-2d

[2d]
L = 6
n = 41
a = 1 0 ; 0 1
sigma0 = 2^0.5 + 0*x + 0*y
g = exp(-x^2 - y^2)
g0 = exp(-x^2 - y^2)
T = 0.004

[cost]
kind = quadratic
alpha1 = 1.0

[solver]
eps = 0.01
""")
    out = tmp_path / "out"
    assert run("solve-2d", str(cfg), out_dir=str(out), quiet=True) == 0
    _, data = read_table(out / "fields" / "value2d_final.csv")
    worst = 0.0
    for row in data:
        x, y, value = float(row[2]), float(row[3]), float(row[4])
        worst = max(worst, abs(value - np.exp(-x * x - y * y)))
    assert worst <= 2e-2


# signed zeros, the smallest subnormal, huge and integer-valued floats
AWKWARD = np.array([[-0.0, 5e-324, 1e300, 2.0],
                    [3.0, -1e300, 0.1, -7.0],
                    [1e16, 0.0, -5e-324, 123456789.0],
                    [-2.5, 1e-300, 4.0, -0.0]])


def _reference_csv(header, rows):
    lines = ["# table", ",".join(header)]
    lines += [",".join(map(cli._cell, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def test_streamed_field_tables_match_per_row_reference(tmp_path):
    times, xs = np.array([0.0, 0.5, 1.0, 3.0]), AWKWARD[0]
    path = tmp_path / "fields.csv"
    cli._write_csv(path, "table", ["t", "x", "y"],
                   cli._field_rows(times, xs, AWKWARD))
    assert path.read_bytes() == _reference_csv(
        ["t", "x", "y"],
        [(t, x, v) for t, table in zip(times, AWKWARD)
         for x, v in zip(xs, table)])
    header = ["i", "j", "x", "y", "value"]
    for inner in (slice(None), slice(1, 3)):
        cli._write_csv(path, "table", header,
                       cli._mesh_rows(AWKWARD[1], AWKWARD, inner))
        nodes = list(enumerate(AWKWARD[1]))[inner]
        assert path.read_bytes() == _reference_csv(
            header, [(i, j, x, y, AWKWARD[i, j])
                     for i, x in nodes for j, y in nodes])


def loaded_by_cli_import(module, *argv):
    """Whether a fresh ``import mildhjb.cli``, followed by ``main(argv)``
    when ``argv`` is given, loads ``module``."""
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\nsys.path.insert(0, sys.argv[1])\nimport mildhjb.cli\n"
            "if sys.argv[3:] and mildhjb.cli.main(sys.argv[3:]):\n"
            "    sys.exit('run failed')\n"
            "print(sys.argv[2] in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(src), module,
                           *argv], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_cli_import_leaves_out_scipy_integrate():
    # no mode integrates by quadrature; importing scipy.integrate would cost
    # most of the package's import time
    assert not loaded_by_cli_import("scipy.integrate")


def test_expression_conjugate_table_leaves_out_scipy_integrate(tmp_path):
    # the table's potential comes from its own samples, not from quadrature
    cfg = write(tmp_path, "c.cfg", TABLE_EXPR)
    assert not loaded_by_cli_import(
        "scipy.integrate", "conjugate-table", "--config", str(cfg),
        "--out", str(tmp_path / "out"), "--quiet")


def test_cli_import_leaves_out_scipy_fft():
    # the 2-D Green solve transforms with numpy.fft; scipy.fft would add
    # about 0.1 s to the set-up of every run
    assert not loaded_by_cli_import("scipy.fft")


@pytest.mark.parametrize("module",
                         ["scipy.linalg", "scipy.sparse", "numpy.f2py"])
def test_cli_import_leaves_out_scipy_python_layers(module):
    # the LAPACK and CSR kernels are loaded from their extension files;
    # scipy.linalg and scipy.sparse, through numpy.f2py, would add about
    # 0.35 s to the set-up of every run
    assert not loaded_by_cli_import(module)


def test_solve_2d_run_leaves_out_scipy_sparse(tmp_path):
    # the 9-point operator is applied by the CSR kernel alone, so the run
    # does not pay the import that set-up avoids
    cfg = write(tmp_path, "p.cfg", SOLVE_2D)
    assert not loaded_by_cli_import(
        "scipy.sparse", "solve-2d", "--config", str(cfg),
        "--out", str(tmp_path / "out"), "--quiet")
