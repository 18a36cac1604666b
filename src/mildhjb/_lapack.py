"""scipy's compiled ``dgbsv`` and ``csr_matvec``, loaded from their extension
files so that scipy's ``linalg`` and ``sparse`` packages (and the
``numpy.f2py`` they import) stay out of the process.  The layout is private
to scipy, so a missing file falls back to the public import.  Neither kernel
checks its input."""

from importlib import import_module, machinery, util
from pathlib import Path

_SCIPY = Path(util.find_spec("scipy").origin).parent


def _extension(name):
    stem = _SCIPY.joinpath(*name.split("."))
    for path in (Path(f"{stem}{s}") for s in machinery.EXTENSION_SUFFIXES):
        if path.is_file():
            spec = util.spec_from_file_location(f"scipy.{name}", path)
            module = util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    return import_module(f"scipy.{name}")


dgbsv = _extension("linalg._flapack").dgbsv
csr_matvec = _extension("sparse._sparsetools").csr_matvec
