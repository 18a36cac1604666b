"""scipy's compiled ``dgbsv`` (band LU), ``dpbsv`` (band Cholesky) and
``csr_matvec``, and its version string, loaded from their files so that
scipy's package (and the ``linalg``, ``sparse`` and ``numpy.f2py`` it would
bring) stays out of the process.  The layout is private to scipy, so a
missing file falls back to the public import.  No kernel checks its input."""

from importlib import import_module, machinery, util
from pathlib import Path

_SCIPY = Path(util.find_spec("scipy").origin).parent


def _load(name, suffixes=machinery.EXTENSION_SUFFIXES):
    stem = _SCIPY.joinpath(*name.split("."))
    for path in (Path(f"{stem}{s}") for s in suffixes):
        if path.is_file():
            spec = util.spec_from_file_location(f"scipy.{name}", path)
            module = util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    return import_module(f"scipy.{name}")


_flapack = _load("linalg._flapack")
dgbsv, dpbsv = _flapack.dgbsv, _flapack.dpbsv
csr_matvec = _load("sparse._sparsetools").csr_matvec
# scipy.__version__ is this same string
version = _load("version", machinery.SOURCE_SUFFIXES).version
