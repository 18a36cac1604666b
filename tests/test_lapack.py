import ctypes
import os
import subprocess
import sys
from functools import partial
from importlib import machinery
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy
import scipy.linalg.lapack as lapack
from scipy.sparse import _sparsetools

from mildhjb import _lapack
from mildhjb.twodim import Grid2D
from test_cli import SOLVE, SOLVE_2D, write
from test_twodim import make_problem


def one_d_band(seed):
    # the order-2n band of the 1-D Newton step: kl = 2, ku = 3, kl free rows,
    # solved by gbsv
    rng = np.random.default_rng(seed)
    ab = np.zeros((2 * 2 + 3 + 1, 40), order="F")
    ab[2:] = rng.standard_normal((6, 40))
    ab[2 + 3] += 8.0
    return "dgbsv", ab, rng.standard_normal(40), \
        lambda gbsv, ab, rhs: gbsv(2, 3, ab, rhs)


def two_d_block(seed):
    # an active block of the 2-D Newton step, as active_band builds it,
    # solved by pbsv
    rng = np.random.default_rng(seed)
    prob = make_problem(Grid2D(3.0, 15), [[1.2, 0.0], [0.3, 1.0]])
    active = np.flatnonzero(rng.random(15 * 15) < 0.5)
    root = np.sqrt(rng.uniform(0.5, 2.0, active.size))
    ab = prob.active_band(40.0, active, root)
    return "dpbsv", ab, rng.standard_normal(active.size), \
        lambda pbsv, ab, rhs: pbsv(ab, rhs)


def lower_band(flapack):
    """``flapack``'s solves with the bindings' signature: ``dpbsv`` reads
    the lower band (overwriting makes no bit differ)."""
    return SimpleNamespace(dgbsv=flapack.dgbsv,
                           dpbsv=partial(flapack.dpbsv, lower=1))


def same_solution(module, reference, system):
    name, ab, rhs, solve = system
    *_, x, info = solve(getattr(module, name), ab.copy(order="F"), rhs.copy())
    *_, x_ref, info_ref = solve(getattr(reference, name),
                                ab.copy(order="F"), rhs.copy())
    return info == info_ref == 0 and np.array_equal(x, x_ref)


@pytest.mark.parametrize("system", [one_d_band, two_d_block],
                         ids=["1d-band", "2d-active-block"])
@pytest.mark.parametrize("seed", range(3))
def test_loaded_gbsv_has_the_bits_of_scipy_linalg(system, seed):
    # the 1-D band through gbsv, the 2-D block through pbsv
    assert same_solution(_lapack, lower_band(lapack), system(seed))


def csr_product(matvec, seed):
    rng = np.random.default_rng(seed)
    indptr = np.array([0, 2, 3, 5], dtype=np.int32)
    indices = np.array([0, 2, 1, 0, 1], dtype=np.int32)
    data, x = rng.standard_normal(5), rng.standard_normal(3)
    out = np.zeros(3)
    matvec(3, 3, indptr, indices, data, x, out)
    return out


def test_loader_falls_back_to_the_public_import(monkeypatch, tmp_path):
    # scipy's file layout is private; with no file where the loader looks,
    # the package import serves the same routines and version
    monkeypatch.setattr(_lapack, "_SCIPY", tmp_path)
    flapack = _lapack._load("linalg._flapack")
    sparsetools = _lapack._load("sparse._sparsetools")
    assert flapack is lapack._flapack and sparsetools is _sparsetools
    version = _lapack._load("version", machinery.SOURCE_SUFFIXES)
    assert version is scipy.version
    assert _lapack.version == version.version == scipy.__version__
    for system in (one_d_band(5), two_d_block(5)):
        assert same_solution(lower_band(flapack), _lapack, system)
    assert np.array_equal(csr_product(sparsetools.csr_matvec, 6),
                          csr_product(_lapack.csr_matvec, 6))


@pytest.mark.parametrize("missing", ["library", "symbols"])
def test_fallback_serves_flapack_with_the_bits_of_numpys_openblas(
        monkeypatch, tmp_path, missing):
    # no OpenBLAS in numpy.libs, or one without the ILP64 symbols: scipy's
    # _flapack serves both solves, set as the bindings are, to the bits of
    # the bound kernels
    if missing == "library":
        monkeypatch.setattr(_lapack, "_NUMPY_LIBS", tmp_path)
    else:
        monkeypatch.setattr(_lapack.ctypes, "CDLL", lambda path: object())
    name, dgbsv, dpbsv = _lapack._kernels()
    assert name == "scipy _flapack (fallback)"
    f2py_routine = type(lapack.dgbsv)
    assert isinstance(dgbsv.func, f2py_routine)
    assert isinstance(dpbsv.func, f2py_routine)
    in_place = {"overwrite_ab": 1, "overwrite_b": 1}
    assert dgbsv.keywords == in_place and not dgbsv.args
    assert dpbsv.keywords == {"lower": 1, **in_place} and not dpbsv.args
    fallback = SimpleNamespace(dgbsv=dgbsv, dpbsv=dpbsv)
    for seed in range(3):
        for system in (one_d_band(seed), two_d_block(seed)):
            assert same_solution(fallback, _lapack, system)


def c_stdio_flushed(capfd):
    # OpenBLAS's XERBLA prints with C stdio, which buffers a captured stream
    ctypes.CDLL(None).fflush(None)
    return capfd.readouterr()


N = 6
GBSV_BAD = {
    "band-one-row-short": (2, 3, np.zeros((7, N)), np.ones(N)),
    "rhs-too-long": (2, 3, np.zeros((8, N)), np.ones(N + 1)),
    "rhs-too-short": (2, 3, np.zeros((8, N)), np.ones(N - 1)),
    "rhs-a-column": (2, 3, np.zeros((8, N)), np.ones((N, 1))),
    "band-float32": (2, 3, np.zeros((8, N), np.float32), np.ones(N)),
    "rhs-int": (2, 3, np.zeros((8, N)), np.ones(N, np.int64)),
    "band-big-endian": (2, 3, np.zeros((8, N), ">f8"), np.ones(N)),
    "band-a-list": (2, 3, np.zeros((8, N)).tolist(), np.ones(N)),
    "kl-negative": (-1, 3, np.zeros((2, N)), np.ones(N)),
    "empty": (2, 3, np.zeros((8, 0)), np.ones(0)),
}
PBSV_BAD = {
    "band-no-rows": (np.zeros((0, N)), np.ones(N)),
    "band-1d": (np.zeros(N), np.ones(N)),
    "rhs-too-short": (np.ones((2, N)), np.ones(N - 1)),
    "band-int": (np.ones((2, N), np.int64), np.ones(N)),
    "rhs-float32": (np.ones((2, N)), np.ones(N, np.float32)),
    "empty": (np.zeros((2, 0)), np.ones(0)),
}


@pytest.mark.parametrize("args", GBSV_BAD.values(), ids=GBSV_BAD)
def test_gbsv_rejects_a_bad_operand_before_lapack(capfd, args):
    with pytest.raises(ValueError, match="float64 band"):
        _lapack.dgbsv(*args)
    assert c_stdio_flushed(capfd) == ("", "")


@pytest.mark.parametrize("args", PBSV_BAD.values(), ids=PBSV_BAD)
def test_pbsv_rejects_a_bad_operand_before_lapack(capfd, args):
    with pytest.raises(ValueError, match="float64 band"):
        _lapack.dpbsv(*args)
    assert c_stdio_flushed(capfd) == ("", "")


def rejecting_kernel(info_at):
    def kernel(*args):
        args[info_at].value = -4
    return kernel


@pytest.mark.parametrize("binding, info_at, args", [
    (_lapack._dgbsv, 9, (2, 3, np.ones((8, N)), np.ones(N))),
    (_lapack._dpbsv, 8, (np.ones((2, N)), np.ones(N))),
], ids=["gbsv", "pbsv"])
def test_negative_info_raises(binding, info_at, args):
    with pytest.raises(ValueError, match="argument 4"):
        binding(rejecting_kernel(info_at), *args)


def test_bindings_copy_what_lapack_may_not_overwrite():
    # a C-order band, a read-only band and a strided right-hand side are
    # solved on Fortran copies, with the bits of the in-place solve
    _, ab, rhs, solve = one_d_band(7)
    *_, x, info = solve(_lapack.dgbsv, ab.copy(order="F"), rhs.copy())
    frozen = ab.copy(order="F")
    frozen.flags.writeable = False
    for band, b, in_place in ((np.ascontiguousarray(ab), rhs.copy(), True),
                              (frozen, np.repeat(rhs, 2)[::2], False)):
        lub, _, x_copy, info_copy = _lapack.dgbsv(2, 3, band, b)
        assert info_copy == info == 0 and np.array_equal(x_copy, x)
        assert not np.shares_memory(lub, band)
        assert np.shares_memory(x_copy, b) == in_place


PROC_MAPS = """
import sys
from pathlib import Path
from mildhjb import cli
for mode, cfg in zip(("solve", "solve-2d"), sys.argv[1:3]):
    assert cli.run(mode, cfg, out_dir=str(Path(cfg).with_suffix("")),
                   quiet=True) == 0
maps = Path("/proc/self/maps").read_text().splitlines()
print("\\n".join(sorted({line.split()[-1] for line in maps
                         if "openblas" in line.split()[-1].lower()})))
"""


@pytest.mark.skipif(not Path("/proc/self/maps").exists(),
                    reason="needs /proc/self/maps")
def test_a_run_maps_one_openblas(tmp_path):
    # numpy maps its OpenBLAS on import; scipy's _flapack would map another
    cfgs = [write(tmp_path, "s.cfg", SOLVE.format(T=0.04)),
            write(tmp_path, "p.cfg", SOLVE_2D)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(_lapack.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", PROC_MAPS, *map(str, cfgs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.split()) == 1, done.stdout
