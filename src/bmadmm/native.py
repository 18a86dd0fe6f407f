"""Compiled kernels: C sources shipped in the package, built on first use
with the installed gcc and loaded with ctypes.  There are three
libraries: polar3.c, the closed-form d = 3 projection of ``manifold``;
step.c, the row work of both solvers: of ``solver.step`` and, at d = 1,
of each ``rgd.rgd_solve`` iteration; and spmm.c, the CSR product of
``sparse.spmm``.  ``kernel(name)`` is the one accessor of all three, and
``views`` hands their functions the arrays they take.

A library is built once per cache, into ``$XDG_CACHE_HOME/bmadmm``, else
``~/.cache/bmadmm``: a directory of the user's own, never a shared one
such as /tmp, where another user could plant a library.  Its file is
named by a SHA-256 of the source, the flags and the machine type, and is
compiled under a temporary name in the same directory and then renamed
into place, so concurrent builds are safe and a warm cache runs no
compiler.  Any failure (no compiler, a compile error, an unwritable
cache, a load error) is logged once per library, at INFO, and leaves
that library unavailable for the rest of the process; its callers then
take their numpy path, or scipy's CSR product.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import importlib.resources
import logging
import os
import platform
import subprocess
import tempfile

import numpy as np

logger = logging.getLogger(__name__)

COMPILER = "gcc"
# -O3, because gcc 12 vectorizes the elementwise loops only there: at
# n = 200, r = 20 the step library's update_point took 15.4 us at -O2 and
# 9.2 us at -O3, and its finish 11.3 and 6.8 us (best of 30 timings on a
# 2-vCPU Xeon guest).  No -ffast-math: it lets gcc drop the kernels' NaN and infinity
# tests and reorder sums.  -ffp-contract=off: no fused multiply-add, so
# that the step library repeats numpy's bits on every machine type.  No
# -march=native: a cache may be shared between hosts.
FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
LIBS = ("-lm",)
BUILD_TIMEOUT_S = 120


def cache_dir():
    """Where built libraries are kept.  As the XDG rules say, an unset,
    empty or relative ``XDG_CACHE_HOME`` counts as unset."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "bmadmm")


def library_path(name):
    """The cache path of the library built from the package's ``name``.c,
    and that source."""
    source = importlib.resources.files(__package__).joinpath(name + ".c").read_bytes()
    key = hashlib.sha256(
        b"\0".join([source, " ".join(FLAGS + LIBS).encode(), platform.machine().encode()])
    ).hexdigest()
    return os.path.join(cache_dir(), f"{name}-{key[:16]}.so"), source


def load(name):
    """The library built from ``name``.c, compiled first unless the cache
    holds it.

    Raises
    ------
    OSError
        If the compiler is missing, the cache cannot be written or the
        library cannot be loaded.
    subprocess.SubprocessError
        If the compile fails or times out.
    """
    path, source = library_path(name)
    if not os.path.isfile(path):
        os.makedirs(os.path.dirname(path), mode=0o700, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f".{name}-", suffix=".so", dir=os.path.dirname(path))
        os.close(fd)
        try:
            subprocess.run(
                [COMPILER, *FLAGS, "-o", tmp, "-x", "c", "-", *LIBS],
                input=source,
                capture_output=True,
                check=True,
                timeout=BUILD_TIMEOUT_S,
            )
            os.replace(tmp, path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
    return ctypes.CDLL(path)


# The functions of each library, as name: (restype, argtypes).  A pointer
# argument takes a ``ctypes.c_double.from_buffer`` view of an array (or
# None, for NULL), a cheaper conversion than ``ndarray.ctypes.data``.
_DOUBLES = ctypes.POINTER(ctypes.c_double)
_SIZE = ctypes.c_ssize_t
PROTOTYPES = {
    # polar3(g, b, q, r) writes the polar factors of the C-contiguous (q, 3, r)
    # stack at address g to b and returns the largest entry of |B B^T - I|,
    # or -1 where the stack needs the eigendecomposition
    "polar3": {"polar3": (ctypes.c_double, (ctypes.c_void_p, ctypes.c_void_p, _SIZE, _SIZE))},
    # the row work of solver.step and rgd.rgd_solve; see step.c
    "step": {
        "update_point": (
            ctypes.c_double,
            (_DOUBLES,) * 4 + (_SIZE,) * 3 + (ctypes.c_double,) * 4,
        ),
        "finish": (None, (_DOUBLES,) * 6 + (_SIZE, ctypes.c_double, _DOUBLES)),
        "trial_point": (ctypes.c_int, (_DOUBLES,) * 3 + (_SIZE,) * 2 + (ctypes.c_double,) * 3),
        "tangent_step": (None, (_DOUBLES,) * 7 + (_SIZE,) * 2),
    },
    # spmm(row_ptr, col_idx, values, x, y, n, r) writes the product of the
    # CSR matrix at the first three addresses with the (n, r) array x to y;
    # see spmm.c
    "spmm": {"spmm": (None, (ctypes.c_void_p,) * 3 + (_DOUBLES,) * 2 + (_SIZE,) * 2)},
}
_FLOAT = np.dtype(np.float64)


def views(shape, *arrays):
    """``ctypes.c_double.from_buffer`` views of ``arrays`` for a kernel that
    takes them as C-contiguous float64 arrays of ``shape``, None passed
    through as NULL.  None unless every array is a writable C-contiguous
    float64 array of that shape: from_buffer refuses a read-only or
    non-contiguous one."""
    out = []
    for array in arrays:
        if array is None:
            out.append(None)
        elif isinstance(array, np.ndarray) and array.shape == shape and array.dtype == _FLOAT:
            try:
                out.append(ctypes.c_double.from_buffer(array))
            except TypeError:
                return None
        else:
            return None
    return out


@functools.cache
def kernel(name):
    """The library built from ``name``.c, with the prototypes of its
    ``PROTOTYPES`` functions set; None when it cannot be built or loaded.
    Decided once per process and library."""
    try:
        library = load(name)
        for function, (restype, argtypes) in PROTOTYPES[name].items():
            entry = getattr(library, function)
            entry.restype, entry.argtypes = restype, argtypes
    except (OSError, subprocess.SubprocessError, AttributeError) as exc:
        detail = exc
        if isinstance(exc, subprocess.CalledProcessError):
            detail = exc.stderr.decode(errors="replace").strip()
        logger.info("the C %s kernel is unavailable, its callers fall back: %s", name, detail)
        return None
    return library
