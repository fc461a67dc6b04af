"""scipy's LAPACK extension ``_flapack`` (?stebz, ?syevr, ?gtsv), loaded
by file location without running ``scipy/__init__`` or the some 300
modules of ``scipy.linalg``.  The callers replay scipy 1.17's argument
sequences, so their results are bitwise those of its wrappers, and ask
for eigenvalues only.  Every call refuses an input holding an inf or a
NaN, as scipy's check_finite does."""

from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np
from numpy.linalg import LinAlgError


def _load(linalg_dir):
    """The ``_flapack`` extension module of `linalg_dir`."""
    path = Path(linalg_dir, "_flapack" + EXTENSION_SUFFIXES[0])
    if not path.is_file():
        raise ImportError(f"scipy's LAPACK extension is missing: no {path}")
    spec = spec_from_file_location("scipy.linalg._flapack", path)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


flapack = _load(Path(find_spec("scipy").submodule_search_locations[0],
                     "linalg"))


def _finite(*arrays) -> None:
    """scipy's check_finite: refuse an input holding an inf or a NaN."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _gtsv(dl, d, du, b) -> np.ndarray:
    """solve_banded((1, 1), ...) of the system with diagonals dl, d, du."""
    _finite(dl, d, du, b)
    x, info = flapack.dgtsv(dl, d, du, b)[3:]
    if info:
        raise (LinAlgError("singular matrix") if info > 0 else
               ValueError(f"illegal value in argument {-info} of dgtsv"))
    return x
