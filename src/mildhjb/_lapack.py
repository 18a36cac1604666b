"""LAPACK ``dgbsv`` (band LU) and ``dpbsv`` (band Cholesky), scipy's
``csr_matvec`` and scipy's version string (see README, "Install and test").

The solves are bound by ``ctypes`` to the ILP64 OpenBLAS that numpy bundles
in ``numpy.libs`` and has mapped, so scipy's own OpenBLAS is never mapped;
scipy's ``_flapack`` serves them where numpy has none, and ``lapack`` names
the source.  A binding takes f2py's arguments less the options that every
caller sets (``dpbsv`` reads the lower band, both overwrite a Fortran-order
writeable operand, copying any other) and returns f2py's tuple (``piv``
1-based).  LAPACK checks no input and OpenBLAS's XERBLA only prints, so a
bad dtype or shape, an empty system and ``info < 0`` raise ``ValueError``.
``csr_matvec`` (``_sparsetools`` maps no BLAS) and the version are loaded
from their files, keeping scipy's package and ``numpy.f2py`` out of the
process; that layout is private to scipy, so a missing file falls back to
the public import."""

import ctypes
from ctypes import POINTER, c_char_p, c_double, c_int64, c_size_t
from functools import lru_cache, partial
from importlib import import_module, machinery, util
from pathlib import Path

import numpy as np

_SCIPY = Path(util.find_spec("scipy").origin).parent
_NUMPY_LIBS = Path(np.__file__).parents[1] / "numpy.libs"
# LAPACK only reads these; building them on every call would cost 0.5 us
_ints = lru_cache(maxsize=64)(lambda *values: tuple(map(c_int64, values)))


def _load(name, suffixes=machinery.EXTENSION_SUFFIXES):
    stem = _SCIPY.joinpath(*name.split("."))
    for path in (Path(f"{stem}{s}") for s in suffixes):
        if path.is_file():
            spec = util.spec_from_file_location(f"scipy.{name}", path)
            module = util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    return import_module(f"scipy.{name}")


def _operands(ab, b, rows):
    """``ab`` and ``b``, or Fortran copies where LAPACK cannot overwrite
    them, once the band is ``(rows, n)`` and ``b`` is ``(n,)`` with n > 0."""
    if not (isinstance(ab, np.ndarray) and isinstance(b, np.ndarray)
            and ab.dtype == b.dtype == np.float64 and b.ndim == 1
            and rows > 0 and b.size > 0 and ab.shape == (rows, b.size)):
        got = [(np.shape(a), getattr(a, "dtype", type(a))) for a in (ab, b)]
        raise ValueError(f"need a float64 band of {rows} rows and n > 0 "
                         f"columns and n values, got {got}")
    fa, fb = ab.flags, b.flags  # behaved: aligned and writeable
    return (ab if fa.f_contiguous and fa.behaved else ab.copy(order="F"),
            b if fb.f_contiguous and fb.behaved else b.copy())


def _info(info):
    if info.value < 0:
        raise ValueError(f"LAPACK rejected argument {-info.value}")
    return info.value


def _dgbsv(kernel, kl, ku, ab, b):
    rows = 2 * kl + ku + 1 if min(kl, ku) >= 0 else 0
    ab, b = _operands(ab, b, rows)
    n, kl_, ku_, one, ldab = _ints(b.size, kl, ku, 1, rows)
    piv, info = (c_int64 * b.size)(), c_int64()
    kernel(n, kl_, ku_, one, c_double.from_buffer(ab.T), ldab, piv,
           c_double.from_buffer(b), n, info)
    return ab, piv, b, _info(info)


def _dpbsv(kernel, ab, b):
    rows = ab.shape[0] if getattr(ab, "ndim", 0) == 2 else 0
    ab, b = _operands(ab, b, rows)
    n, kd, one, ldab = _ints(b.size, rows - 1, 1, rows)
    info = c_int64()
    kernel(b"L", n, kd, one, c_double.from_buffer(ab.T), ldab,
           c_double.from_buffer(b), n, info, 1)  # 1: len(UPLO)
    return ab, b, _info(info)


def _kernels():
    """``(lapack, dgbsv, dpbsv)``: numpy's OpenBLAS, else ``_flapack``."""
    for path in sorted(_NUMPY_LIBS.glob("libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(str(path))
            gbsv, pbsv = lib.scipy_dgbsv_64_, lib.scipy_dpbsv_64_
        except (OSError, AttributeError):
            continue
        i, v = POINTER(c_int64), POINTER(c_double)
        gbsv.argtypes = [i, i, i, i, v, i, i, v, i, i]
        pbsv.argtypes = [c_char_p, i, i, i, v, i, v, i, i, c_size_t]
        gbsv.restype = pbsv.restype = None
        return (f"numpy.libs/{path.name}", partial(_dgbsv, gbsv),
                partial(_dpbsv, pbsv))
    flapack = _load("linalg._flapack")
    return ("scipy _flapack (fallback)",
            partial(flapack.dgbsv, overwrite_ab=1, overwrite_b=1),
            partial(flapack.dpbsv, lower=1, overwrite_ab=1, overwrite_b=1))


lapack, dgbsv, dpbsv = _kernels()
csr_matvec = _load("sparse._sparsetools").csr_matvec
# scipy.__version__ is this same string
version = _load("version", machinery.SOURCE_SUFFIXES).version
