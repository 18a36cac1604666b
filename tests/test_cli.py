import errno
import io
import os
import re
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import conftest
from artifact_bytes import output_hashes
from conftest import deadline
from mildhjb import _fork, _lapack, cli, montecarlo, stepper
from mildhjb.cli import main, run
from mildhjb.grid import Grid1D

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

# the benchmark's planar config at n = 41 and T = 0.1: a cross term, a flux
# on mesh rows 17-23 only, and an active set kept in most Newton iterations
PLANAR = """
mode = solve-2d

[2d]
L = 6
n = 41
a = 1 0.3 ; 0 1
sigma0 = 2^0.5 + 0.1*sin(x)*cos(y)
g = exp(-x^2 - y^2)
g0 = exp(-x^2 - y^2)
T = 0.1

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


def with_expression_cost(text):
    """``text`` with the tabulated cost u^2 + 0.25*u."""
    return text.replace("kind = quadratic",
                        "kind = expression\nh = u^2 + 0.25*u")


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


SWEEP_EPS = in_mode("sweep-eps").replace(
    "eps = 0.02", "eps = 0.02\nrefine_tol = 1e-3\nrefine_levels = 2")
GAPS = r"\d\.\d{3}e[-+]\d\d"


@pytest.mark.parametrize("mode, text, line", [
    ("solve", SOLVE.format(T=0.1), r"solved 5 steps; artifacts in \S+"),
    ("value", in_mode("value"),
     r"value reconstructed; sup\|phi\| = \S+, sup\|phi_x\| = \S+"),
    ("policy", in_mode("policy"), r"policy table written; max control = \S+"),
    ("simulate", SIMULATE,
     r"feedback \S+ vs best baseline \S+ \(constant 0(\.5)?\)"),
    ("sweep-eps", SWEEP_EPS, rf"gaps: {GAPS}(, {GAPS})*"),
    ("sweep-degenerate", DEGENERATE, rf"ladder gaps: {GAPS}, {GAPS}"),
    ("solve-2d", SOLVE_2D, r"2-D run complete; mass drift \S+"),
    ("conjugate-table", TABLE, r"conjugate table with 201 rows written"),
], ids=["solve", "value", "policy", "simulate", "sweep-eps",
        "sweep-degenerate", "solve-2d", "conjugate-table"])
def test_each_mode_prints_one_summary_line(tmp_path, capsys, mode, text,
                                           line):
    cfg = write(tmp_path, "s.cfg", text)
    assert run(mode, str(cfg), out_dir=str(tmp_path / "out")) == 0
    assert re.fullmatch(line + "\n", capsys.readouterr().out)


def test_the_module_runs_as_a_program(tmp_path):
    cfg = write(tmp_path, "t.cfg", TABLE)
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(
        Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "mildhjb.cli", "conjugate-table", "--config",
         str(cfg), "--out", str(out), "--quiet"],
        capture_output=True, text=True, timeout=120, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert (out / "reports" / "conjugate_table.csv").is_file()


# Every mode on this module's configs, and the SHA-256 of each artifact it
# writes (of manifest.txt without its "#" lines, which hold versions and
# timing).  A change that moves these bytes on purpose regenerates them
# with ``artifact_hashes`` and says so.
PINNED_RUNS = {
    "solve": ("solve", SOLVE.format(T=0.1)),
    "value": ("value", in_mode("value")),
    "policy": ("policy", in_mode("policy")),
    "simulate": ("simulate", SIMULATE),
    "simulate-dump": ("simulate", SIMULATE.replace(
        "baselines = 0 0.5", "baselines = 0 0.5\ndump_paths = true")),
    "sweep-eps": ("sweep-eps", in_mode("sweep-eps").replace(
        "eps = 0.02", "eps = 0.02\nrefine_tol = 1e-3\nrefine_levels = 2")),
    "sweep-degenerate": ("sweep-degenerate", DEGENERATE),
    "solve-2d": ("solve-2d", SOLVE_2D),
    "solve-2d-cross": ("solve-2d", PLANAR),
    "conjugate-table": ("conjugate-table", TABLE),
    "conjugate-table-expression": ("conjugate-table", TABLE_EXPR),
    # a tabulated conjugate, and a horizon that leaves a shortened last step
    # of 0.01 (6 steps of 0.02, 2 steps of 0.025)
    "solve-expression": ("solve", with_expression_cost(SOLVE.format(T=0.13))),
    "value-expression": ("value", with_expression_cost(
        SOLVE.format(T=0.13).replace("mode = solve", "mode = value"))),
    "sweep-degenerate-expression": ("sweep-degenerate", with_expression_cost(
        DEGENERATE.replace("T = 0.05", "T = 0.06"))),
    # the feedback of a tabulated conjugate, after a shortened last step
    "policy-expression": ("policy", with_expression_cost(
        SOLVE.format(T=0.13).replace("mode = solve", "mode = policy"))),
    # a drift's barrier, a tabulated conjugate and a shortened last step
    # (2 steps of 0.025, 1 of 0.01)
    "sweep-degenerate-drift": ("sweep-degenerate", with_expression_cost(
        DEGENERATE.replace("T = 0.05", "T = 0.06").replace(
            "sigma = x*exp(-x^2)", "f = tanh(x)\nsigma = 2*x*exp(-x^2)"))),
}

PINNED_HASHES = {
    "solve": {
        "fields/y.csv":
            "6a520deceac8dda5830b48dc0e9d0b449b69e6068686f3ca273309b13115c765",
        "manifest.txt":
            "a06e014df9f01026d7a0c3746e688065a46fc6b0ea2a75878a37a15bd0b05c5d",
        "reports/energy.csv":
            "98eedf5c7da2d98c73e87e840fcac224fadd91ab2db65e2458189ee8f101d20f",
        "reports/summary.txt":
            "1a92c1383da500eb8f595ce950c55be1b1a728fbfe0fd57c453a0a9af198622a",
    },
    "value": {
        "fields/value.csv":
            "3957d4cf6e6411e4c452916b68024400396e1d080004c8c03d741c0d7237720d",
        "fields/value_slope.csv":
            "9a5b309a81ef47931d726a97453624604f6133e653819de6d08568f8930e7d05",
        "manifest.txt":
            "45d1f0141cf9697e0544ce60e482e320eaa2e5f86ce85ed6e5d6ecda9666bea3",
    },
    "policy": {
        "manifest.txt":
            "36bac0f8b84c5dd5dad0dc3e7760d999e3605b1f0f9fbe2b2faaef4d654ea885",
        "policy.csv":
            "5072a7848b181227058cd0382030cb3abfe7732cf15780bce9196cf7ad2b5c82",
        "policy.txt":
            "40ebcb969da0d8dea84ccea40b4112645d525e660ad9ac18939cc0dceeabd754",
    },
    "simulate": {
        "manifest.txt":
            "ed9432940643f2da7949e57c2fd28b7132325cff3af6708a2ea362f2e617b34a",
        "policy.csv":
            "bf09b82b4d145b07444e6d967d312d84e49a27e4dcac0e825e71c384723bb8e5",
        "policy.txt":
            "13551af8353e6506ab9de6e4dd73a919b95ac11f2bdd5fe9d3a0a3611d459cdf",
        "reports/mc_comparison.csv":
            "ed8b51e6a86c13a9aef3b5adc28035b5c586fc3d16546c35a652c6eb6c54f370",
        "reports/summary.txt":
            "b55c348db30cba8e43b3558c590e54557dc89f954a1322918e945074bbeb69a4",
    },
    "simulate-dump": {
        "manifest.txt":
            "76560b30bd83d231739dc4af867178db2426667dccec45f6c83f0ea0fe878f8c",
        "policy.csv":
            "bf09b82b4d145b07444e6d967d312d84e49a27e4dcac0e825e71c384723bb8e5",
        "policy.txt":
            "13551af8353e6506ab9de6e4dd73a919b95ac11f2bdd5fe9d3a0a3611d459cdf",
        "reports/mc_comparison.csv":
            "ed8b51e6a86c13a9aef3b5adc28035b5c586fc3d16546c35a652c6eb6c54f370",
        "reports/path_costs.csv":
            "8b8b19bd732e791ec5aa14a4852c7d37d6a20d77012558e669238de4329d370f",
        "reports/summary.txt":
            "b55c348db30cba8e43b3558c590e54557dc89f954a1322918e945074bbeb69a4",
    },
    "sweep-eps": {
        "fields/y_finest.csv":
            "10188deeb95237bad57066169c828cbe9547bafbe1fb5121e2d83975101b4736",
        "manifest.txt":
            "ede70f8fa84e94b01b3ec7e3a80a7dc1ee13d360f7a99ff7bc5f20e2c856dab1",
        "reports/eps_sweep.csv":
            "98ec4abc49edf477cfd39810cf277c2bc2499d9c0633be2e68d2bf686d9b0439",
        "reports/summary.txt":
            "398d68a4172affa47847b42894a177c73666cb449b6da9b83115ffcb5d82829b",
    },
    "sweep-degenerate": {
        "manifest.txt":
            "6223117b62759fce464fdb6c85319f7d76e715cd94e97a16c92d08fdad1d4421",
        "reports/degenerate_sweep.csv":
            "67452c8d0fae78dca673c4b39bb34bc15aee45924f1b7492966916c5013d84f0",
        "reports/summary.txt":
            "63af9656ade6ee05b3f6682fdcbdf10eac593c472c2d338ef38604a0bdcff4ac",
    },
    "solve-2d": {
        "fields/value2d_final.csv":
            "40cd1e2ac99bb8879152b9ec1a237931c6d7e8fdba196ecc6dad732f5912267f",
        "fields/y2d_final.csv":
            "8c1e23decfe37a9a02735f859df5308f2797fb1cc12bb6c161ddee2846559ccc",
        "fields/y2d_initial.csv":
            "c03fa0f0a813e6794aae9b04eb9fbe6ce51f6fcc36e020863cbec876c7454651",
        "manifest.txt":
            "e475bf7263c4845e2a2e34c7301f42f4586ac41463d34d3061bb5ee724437435",
        "reports/mass.csv":
            "89b9c1978779307a951b33a4d77a7c0010f0942ca48c663ae2e87ca97bea1793",
    },
    "solve-2d-cross": {
        "fields/value2d_final.csv":
            "998935aa34977b9ac7115ab1e9e2547f513a8d836d952fadd0dc2f09c5ed7729",
        "fields/y2d_final.csv":
            "5ec9e721e093bfe318ab58223bf1a246fe3348e2d628b99d565fab339a2c6254",
        "fields/y2d_initial.csv":
            "b2aca40c6ea604f753e616dd34b9e2042cc1ad76898fd05236ee52baa6e624b3",
        "manifest.txt":
            "f12763a8e76e4786da3a7ece3268280af444ac71789b335cb44e5e55d3e9dd24",
        "reports/mass.csv":
            "0d35533126acd4f67c46b4c428e58d40ed66e7c056f5447a3ea29a8cb2db77e0",
    },
    "conjugate-table": {
        "manifest.txt":
            "7daf6ab3ead226e1fa9550768a21777de0b550287e30b1e7179d27c712885ce3",
        "reports/conjugate_table.csv":
            "b383f5b08f857e3c15f49ec2388369e11431c245c5d2e37e75eaf94531bd4bbb",
    },
    "conjugate-table-expression": {
        "manifest.txt":
            "8e8d6f2ff3d24be5ee389ed5adfbbc5f1b15a8da3c83a92ed918252744d89c77",
        "reports/conjugate_table.csv":
            "e5bcabfa30a3d635971a603074052d29893918e2665ab384c9f05b12124f7471",
    },
    "solve-expression": {
        "fields/y.csv":
            "e06e2185809936535774c0cb26352c3c0a4a97dd1e876dcaa8fad5eac13e6ff0",
        "manifest.txt":
            "996bf54ca1ed436818a8c8eb6284af53b14c0c43a675f800c0513407e547b2a4",
        "reports/energy.csv":
            "7d256355321db1bc7ed6117ddfd552a5ee2f49228689ffffe2b02084b49f2c87",
        "reports/summary.txt":
            "aec2becd1c1956c23c30efea2da08d3fa47b945a881045195618abe7fe39bd4f",
    },
    "value-expression": {
        "fields/value.csv":
            "47520613d656f1b4d638ee70bf02354fb0c3404cd6914a4d8c3f0da682d3d0af",
        "fields/value_slope.csv":
            "5a8dc56aed0f476d18759d8962fdb9796705fe8d0a8b5e5d169c03f171906ca4",
        "manifest.txt":
            "c3244109469af84d8f6904ed0ef60d8a4df422c41e9b0fc5ae974c3d0287382a",
    },
    "sweep-degenerate-expression": {
        "manifest.txt":
            "041671ff58d99d6bf34e27d594038d73cb0c6c1d3a80fa3566701f56f86aee06",
        "reports/degenerate_sweep.csv":
            "69e808d3e39d049184beef762d800bc9317fab2739cd5f88d7407cad40d6dfef",
        "reports/summary.txt":
            "63af9656ade6ee05b3f6682fdcbdf10eac593c472c2d338ef38604a0bdcff4ac",
    },
    "policy-expression": {
        "manifest.txt":
            "b09c5cb903839a3fa80f31fab4414c93307045c0754cd83387782c8698047214",
        "policy.csv":
            "1c33e8e1b25242af79be8c56535d6d7b1747aa21dec59f392244466ad60f8efb",
        "policy.txt":
            "5aeca0a5b2eb8a7fdb7417113f2d1ff347809edbdf7736f490f45fdf1100b5b5",
    },
    "sweep-degenerate-drift": {
        "manifest.txt":
            "a1f088aa1c0dbb2bd81765a8def86d2948e91632165a484feacbcaa95d778028",
        "reports/degenerate_sweep.csv":
            "a7765a2c7765767e2a8f54aad9a23447becab8f40fc530d7faa9f735dc9f335b",
        "reports/summary.txt":
            "63af9656ade6ee05b3f6682fdcbdf10eac593c472c2d338ef38604a0bdcff4ac",
    },
}


def artifact_hashes(tmp_path, name):
    mode, text = PINNED_RUNS[name]
    out = tmp_path / "out"
    assert run(mode, str(write(tmp_path, "p.cfg", text)), out_dir=str(out),
               quiet=True) == 0
    return output_hashes(out)


@pytest.mark.parametrize("name", list(PINNED_RUNS))
def test_artifact_bytes_are_pinned(tmp_path, name):
    got = artifact_hashes(tmp_path, name)
    assert got == PINNED_HASHES[name], f"new hashes: {name!r}: {got!r},"


def test_simulate_reads_the_start_value_without_the_value_table(
        tmp_path, monkeypatch):
    # pde_value_at_x0 is one Green solve of the last state, bit for bit the
    # first row of the whole reconstruction
    def whole_table(sol):
        raise AssertionError("simulate reconstructed every snapshot")

    monkeypatch.setattr(cli, "reconstruct_value", whole_table)
    assert artifact_hashes(tmp_path, "simulate") == PINNED_HASHES["simulate"]


def test_manifest_names_the_lapack_that_served_the_run(tmp_path):
    # a "#" line, so the pinned hashes and artifact_bytes.py leave it out
    cfg = write(tmp_path, "s.cfg", SOLVE.format(T=0.04))
    out = tmp_path / "out"
    assert run("solve", str(cfg), out_dir=str(out), quiet=True) == 0
    lines = (out / "manifest.txt").read_text().splitlines()
    assert f"# lapack: {_lapack.lapack}" in lines
    assert _lapack.lapack.startswith(("numpy.libs/libscipy_openblas64_",
                                      "scipy _flapack (fallback)"))


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


def test_overflowing_expression_literal_is_a_validation_error(tmp_path,
                                                              capsys):
    cfg = write(tmp_path, "big.cfg", SOLVE.format(T=0.1).replace(
        "g0 = exp(-x^2)", "g0 = 1e999*exp(-x^2)"))
    assert run("solve", str(cfg), out_dir=str(tmp_path / "o"),
               quiet=True) == 2
    assert "[problem] g0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("g0", [
    "(" * 400 + "exp(-x^2)" + ")" * 400,
    "exp(" * 300 + "-x^2" + ")" * 300,
    "1e308*10*exp(-x^2)",
    "10^400*exp(-x^2)",
    "exp(-x^2)/(1-1)",
], ids=["parentheses", "calls", "product", "power", "zero-divisor"])
def test_deep_or_non_finite_expression_is_a_validation_error(tmp_path,
                                                             capsys, g0):
    # each used to escape as a RecursionError, fail later on a non-finite
    # field, or (the zero divisor) write y = -0.0 and exit 0
    text = SOLVE.format(T=0.1).replace("g0 = exp(-x^2)", f"g0 = {g0}")
    line = text.splitlines().index(f"g0 = {g0}") + 1
    cfg = write(tmp_path, "bad.cfg", text)
    assert run("solve", str(cfg), out_dir=str(tmp_path / "o"),
               quiet=True) == 2
    assert f"line {line}: [problem] g0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


def test_simulate_error_in_a_worker_share_is_structured(tmp_path, capsys,
                                                      monkeypatch):
    cfg = str(write(tmp_path, "s.cfg", SIMULATE))
    compare = cli.compare_policies
    calls = []

    def capture(*args, **kwargs):
        calls.append(args)
        return compare(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_workers", lambda paths, states: 1)
    monkeypatch.setattr(cli, "compare_policies", capture)
    assert run("simulate", cfg, out_dir=str(tmp_path / "a"), quiet=True) == 0
    problem, feedback, baselines, sim = calls[0]
    states = conftest.first_step_states(
        lambda policy: compare(problem, policy, baselines, sim), feedback)
    path = sim.n_paths - 1  # in the second of two shares
    trapped = conftest.trap(feedback, states, path)
    monkeypatch.setattr(cli, "compare_policies",
                        lambda problem, feedback, *args, **kwargs: compare(
                            problem, trapped, *args, **kwargs))
    monkeypatch.setattr(montecarlo, "_workers", lambda paths, states: 2)
    capsys.readouterr()
    assert run("simulate", cfg, out_dir=str(tmp_path / "b"), quiet=True) == 1
    err = capsys.readouterr().err
    assert "error: simulate run failed" in err
    assert "type: ArithmeticError" in err
    assert f"detail: path {path} reached {states[path]!r}" in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


@pytest.mark.parametrize("mode, text", [
    ("solve", SOLVE.format(T=0.0001)),
    ("sweep-eps", SOLVE.format(T=0.0001).replace(
        "eps = 0.02", "eps = 0.02\nrefine_tol = 1e-3")),
    ("solve-2d", SOLVE_2D.replace("T = 0.02", "T = 0.00005")),
], ids=["solve", "sweep-eps", "solve-2d"])
def test_a_horizon_that_takes_no_step_is_a_validation_error(
        tmp_path, capsys, mode, text):
    # at most eps/100 the horizon is dropped: solve once wrote the initial
    # state alone and sweep-eps failed only after marching
    cfg = write(tmp_path, "e.cfg", text)
    line = next(i for i, row in enumerate(text.splitlines(), start=1)
                if row.startswith("eps = "))
    out = tmp_path / "o"
    assert run(mode, str(cfg), out_dir=str(out), quiet=True) == 2
    assert f"line {line}: [solver] eps: takes no step" in capsys.readouterr().err
    assert not out.exists()


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


def test_solve_2d_memory_does_not_grow_with_the_steps(tmp_path):
    # the runner keeps the final state and one mass per step; a stored
    # table would add 30 snapshots of 41^2 * 8 = 13,448 B from 10 to 40 steps
    peaks = []
    tracemalloc.start()
    try:
        for horizon in ("0.1", "0.4"):
            cfg = write(tmp_path, "t.cfg", SOLVE_2D.replace(
                "n = 21", "n = 41").replace("T = 0.02", f"T = {horizon}"))
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert run("solve-2d", str(cfg), out_dir=str(tmp_path / horizon),
                       quiet=True) == 0
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 41 * 41 * 8


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
    # phi(0, x0) bit for bit as the first row value mode writes
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


def test_simulate_value_meets_the_sampled_cost_of_a_cost_that_levels_off(
        tmp_path):
    # g = 1 + exp(-x^2) adds T = 0.2 to every policy's cost; without the far
    # field the value dropped it and sat 17 standard errors below
    text = SIMULATE.replace("f = tanh(x)\n", "").replace(
        "g = exp(-x^2)\n", "g = 1 + exp(-x^2)\n", 1)
    cfg = write(tmp_path, "m.cfg", text)
    assert run("simulate", str(cfg), out_dir=str(tmp_path / "sim"),
               quiet=True) == 0
    lines = (tmp_path / "sim" / "reports" / "summary.txt").read_text()
    summary = dict(line.split(" = ") for line in lines.splitlines())
    _, data = read_table(tmp_path / "sim" / "reports" / "mc_comparison.csv")
    feedback = {r[0]: r for r in data}["feedback"]
    mean, stderr = float(feedback[1]), float(feedback[2])
    assert abs(float(summary["pde_value_at_x0"]) - mean) <= 3.0 * stderr


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


@pytest.mark.parametrize("snapshots", [4, 7], ids=["even", "odd"])
@pytest.mark.parametrize("worker", ["formats", "dies"])
@pytest.mark.parametrize("source", ["array", "stored"])
def test_split_field_table_is_the_serial_bytes(tmp_path, monkeypatch,
                                               source, worker, snapshots):
    if source == "array":
        table = np.concatenate((AWKWARD, -AWKWARD))[:snapshots]
        times, xs = np.linspace(0.0, 3.0, snapshots), AWKWARD[0]
    else:  # a run in a file, which the worker reads through its descriptor
        problem = conftest.heat_problem(Grid1D(1.0, 5),
                                        horizon=0.25 * (snapshots - 1))
        with open(tmp_path / "run.bin", "w+b") as out:
            table = stepper.mild_solve(problem, 0.25, out=out)
        times, xs = table.times, table.grid.x
    size = len(times) * len(xs)

    def written(name):
        path = tmp_path / name
        cli._write_csv(path, "table", ["t", "x", "y"],
                       cli._field_rows(times, xs, table))
        return path.read_bytes()

    monkeypatch.setattr(_fork, "cores", lambda: 1)
    serial = written("serial.csv")
    forks, statuses = [], []
    forked, waitpid = _fork.forked, os.waitpid

    def counted(*tasks):
        forks.append(len(tasks))
        return forked(*tasks)

    def reaped(pid, options):
        statuses.append(waitpid(pid, options)[1])
        return pid, statuses[-1]

    monkeypatch.setattr(_fork, "forked", counted)
    monkeypatch.setattr(_fork.os, "waitpid", reaped)
    monkeypatch.setattr(_fork, "cores", lambda: 2)
    monkeypatch.setattr(cli, "_MIN_SPLIT", size + 1)
    assert written("below.csv") == serial and sum(forks) == 0
    monkeypatch.setattr(cli, "_MIN_SPLIT", size)
    if worker == "dies":
        caller, joined = os.getpid(), cli._joined_rows

        def dying(blocks):  # a generator: this runs where it is iterated
            if os.getpid() != caller:
                os._exit(3)
            yield from joined(blocks)

        monkeypatch.setattr(cli, "_joined_rows", dying)
    assert written("split.csv") == serial and sum(forks) == 1
    assert [os.waitstatus_to_exitcode(s) for s in statuses] == \
        [3 if worker == "dies" else 0]


SWEEP_EPS = SOLVE.format(T=0.1).replace(
    "mode = solve", "mode = sweep-eps").replace(
    "eps = 0.02", "eps = 0.02\nrefine_tol = {tol}\nrefine_levels = 3")


@pytest.mark.parametrize("case", ["success", "early-convergence",
                                  "coarse-error", "dead-worker"])
def test_sweep_eps_leaves_no_child(tmp_path, monkeypatch, capsys, case):
    tol = 1.0 if case == "early-convergence" else 1e-9
    cfg = str(write(tmp_path, "w.cfg", SWEEP_EPS.format(tol=tol)))
    fds = sorted(os.listdir("/proc/self/fd"))  # each level's file is closed
    monkeypatch.setattr(_fork, "cores", lambda: 1)
    assert run("sweep-eps", cfg, out_dir=str(tmp_path / "serial"),
               quiet=True) == 0
    caller, march = os.getpid(), stepper.mild_solve

    def patched(problem, eps, *args, **kwargs):
        if os.getpid() != caller:
            if case == "dead-worker":
                os._exit(3)
            if case == "early-convergence":
                time.sleep(60)  # a worker not killed outlives the deadline
        elif case == "coarse-error" and eps < 0.02:
            raise ArithmeticError("coarse level")
        return march(problem, eps, *args, **kwargs)

    monkeypatch.setattr(stepper, "mild_solve", patched)
    monkeypatch.setattr(_fork, "cores", lambda: 2)
    monkeypatch.setattr(cli, "_MIN_SPLIT", 1)  # the writer forks too
    capsys.readouterr()
    with deadline(30):
        rc = run("sweep-eps", cfg, out_dir=str(tmp_path / "out"), quiet=True)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds
    if case == "coarse-error":
        assert rc == 1
        assert "type: ArithmeticError" in capsys.readouterr().err
        return
    assert rc == 0
    for name in ("fields/y_finest.csv", "reports/eps_sweep.csv",
                 "reports/summary.txt"):
        assert (tmp_path / "out" / name).read_bytes() == \
            (tmp_path / "serial" / name).read_bytes()


@pytest.mark.parametrize("mode", ["solve", "value", "policy", "simulate",
                                  "sweep-eps", "sweep-degenerate"])
def test_no_descriptor_outlives_a_run(tmp_path, monkeypatch, mode):
    # every marching mode reads its runs from files, each through its own
    # descriptor, and closes them all before it returns
    text = {"simulate": SIMULATE, "sweep-eps": SWEEP_EPS.format(tol=1e-9),
            "sweep-degenerate": DEGENERATE}.get(mode, SOLVE.format(T=0.1))
    opened, init = [], stepper.MildSolution.__init__

    def recorded(sol, *args):
        init(sol, *args)
        opened.append(weakref.ref(sol))

    monkeypatch.setattr(stepper.MildSolution, "__init__", recorded)
    cfg = str(write(tmp_path, "run.cfg", text))
    fds = sorted(os.listdir("/proc/self/fd"))
    assert run(mode, cfg, out_dir=str(tmp_path / "out"), quiet=True) == 0
    assert opened and all(ref() is None for ref in opened)
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_write_error_kills_the_table_worker(tmp_path, monkeypatch, capsys):
    cfg = str(write(tmp_path, "w.cfg", SWEEP_EPS.format(tol=1e-9)))
    caller, joined = os.getpid(), cli._joined_rows

    def stalled(blocks):
        if os.getpid() != caller:
            time.sleep(60)  # a worker not killed outlives the deadline
            os._exit(0)
        return joined(blocks)

    class Full(io.StringIO):
        def write(self, text):
            if text.count("\n") > 1:  # the first block of a field table
                raise OSError(errno.ENOSPC, "No space left on device")
            return super().write(text)

    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: Full(),
                        raising=False)
    monkeypatch.setattr(cli, "_joined_rows", stalled)
    monkeypatch.setattr(_fork, "cores", lambda: 2)
    monkeypatch.setattr(cli, "_MIN_SPLIT", 1)
    with deadline(30):
        assert run("sweep-eps", cfg, out_dir=str(tmp_path / "out"),
                   quiet=True) == 1
    assert "type: OSError" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failed_fork_falls_back_to_serial(tmp_path, monkeypatch):
    # at the process limit os.fork raises; each caller does the worker's
    # task itself, bit for bit
    problem = conftest.desk_problem(horizon=0.1)
    sim = montecarlo.SimConfig(n_paths=90, dt=1e-2, seed=41)
    refine = problem.discretize(Grid1D(10.0, 41))
    table = np.concatenate((AWKWARD, -AWKWARD))
    times, xs = np.linspace(0.0, 3.0, len(table)), AWKWARD[0]
    cfg = str(write(tmp_path, "w.cfg", SWEEP_EPS.format(tol=1e-9)))

    def outputs(name):
        comparison = montecarlo.compare_policies(problem, 0.5, [0.0, 1.0],
                                                 sim, keep_samples=True)
        result = stepper.refine_until(refine, 1e-12, 0.02, max_levels=2)
        path = tmp_path / f"{name}.csv"
        cli._write_csv(path, "table", ["t", "x", "y"],
                       cli._field_rows(times, xs, table))
        assert run("sweep-eps", cfg, out_dir=str(tmp_path / name),
                   quiet=True) == 0
        return ([row.samples for row in comparison.rows()], result.gaps,
                result.solution.snapshots, path.read_bytes(),
                (tmp_path / name / "fields/y_finest.csv").read_bytes())

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(montecarlo, "_workers", lambda paths, states: 1)
    monkeypatch.setattr(_fork, "cores", lambda: 1)
    serial = outputs("serial")
    monkeypatch.setattr(montecarlo, "_workers", lambda paths, states: 3)
    monkeypatch.setattr(_fork, "cores", lambda: 2)
    monkeypatch.setattr(cli, "_MIN_SPLIT", 1)
    monkeypatch.setattr(_fork.os, "fork", no_fork)
    unforked = outputs("unforked")
    for a, b in zip(serial, unforked, strict=True):
        np.testing.assert_array_equal(a, b)


def loaded_by_cli_import(module, *argv):
    """Whether a fresh ``import mildhjb.cli``, followed by ``main(argv)``
    when ``argv`` is given, loads ``module``."""
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


def test_cli_import_leaves_out_numpy_random():
    # numpy.random maps about 6 MB resident; only the Monte Carlo needs it
    assert not loaded_by_cli_import("numpy.random")


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


@pytest.mark.parametrize("module", ["scipy", "scipy.linalg",
                                    "scipy.sparse", "numpy.f2py"])
def test_cli_import_leaves_out_scipy_python_layers(module):
    # the LAPACK and CSR kernels and the version string are loaded from
    # their files; scipy itself costs about 25 ms of set-up, and scipy.linalg
    # and scipy.sparse, through numpy.f2py, would add about 0.35 s
    assert not loaded_by_cli_import(module)


@pytest.mark.parametrize("module", ["multiprocessing", "concurrent.futures"])
def test_cli_import_leaves_out_process_pools(module):
    # the Monte Carlo forks its workers through os alone, so set-up pays
    # for no pool module
    assert not loaded_by_cli_import(module)


def test_solve_2d_run_leaves_out_scipy_sparse(tmp_path):
    # the 9-point operator is applied by the CSR kernel alone, so the run
    # does not pay the import that set-up avoids
    cfg = write(tmp_path, "p.cfg", SOLVE_2D)
    assert not loaded_by_cli_import(
        "scipy.sparse", "solve-2d", "--config", str(cfg),
        "--out", str(tmp_path / "out"), "--quiet")
