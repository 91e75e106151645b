"""What a run's bits depend on besides its inputs: python, numpy, its BLAS and the BLAS kernel.

numpy's bundled OpenBLAS is a DYNAMIC_ARCH build. It picks a kernel for the
CPU when it loads (``OPENBLAS_CORETYPE`` selects another), and each kernel
accumulates a matrix product in its own order. So a digest of full-precision
results reproduces on the kernel it was taken on; a run directory records
the kernel, and a pinned digest's assertion names it.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform

import numpy as np

#: The BLAS and OpenMP thread-count variables.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: numpy's bundled OpenBLAS, in the wheel's ``numpy.libs`` directory, and its kernel query.
_OPENBLAS = "libscipy_openblas64_*.so"
_CORENAME = "scipy_openblas_get_corename64_"


def blas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS runs on (``SkylakeX``, ``Haswell``, ...) or ``unknown``.

    The library is already loaded, so opening it again returns the same
    instance and the kernel it chose.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, _OPENBLAS))):
        try:
            corename = getattr(ctypes.CDLL(path), _CORENAME)
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode("ascii")
    return "unknown"


def blas_record() -> dict:
    """numpy's BLAS library and version, as numpy's build records them, and its runtime kernel."""
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 has no dict form
        blas = {}
    return {"name": blas.get("name"), "version": blas.get("version"), "kernel": blas_kernel()}


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def machine_record() -> dict:
    """This process's python and numpy versions, BLAS, and thread variables (None when unset)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
