from importlib import machinery

import numpy as np
import pytest
import scipy
import scipy.linalg.lapack as lapack
from scipy.sparse import _sparsetools

from mildhjb import _lapack
from mildhjb.twodim import Grid2D
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
        lambda pbsv, ab, rhs: pbsv(ab, rhs, lower=1)


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
    assert same_solution(_lapack, lapack, system(seed))


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
        assert same_solution(flapack, _lapack, system)
    assert np.array_equal(csr_product(sparsetools.csr_matvec, 6),
                          csr_product(_lapack.csr_matvec, 6))
