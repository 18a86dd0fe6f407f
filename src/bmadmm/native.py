"""Compiled kernels: C sources shipped in the package, built on first use
with the installed gcc and loaded with ctypes.  There are three
libraries: polar3.c, the closed-form d = 3 projection of ``manifold``;
step.c, the row work of both solvers: of ``solver.step``, of its
Anderson memory and, at d = 1, of each ``rgd.rgd_solve`` iteration; and
spmm.c, the CSR product of ``sparse.spmm``.  ``kernel(name)`` is the one
accessor of all three, and ``views`` hands their functions the arrays
they take.

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

The step library also holds ``solver.solve``'s Anderson memory, which
calls BLAS and LAPACK by address.  ``blas_step`` hands it out with
numpy's own ``cblas_dgemm`` and ``cblas_dgemv`` bound in, resolved
through the handle of numpy's ``_multiarray_umath`` extension (its
ILP64 OpenBLAS names them ``BLAS_SYMBOLS``), and the ``dposv`` that
``scipy.linalg.lapack.dposv`` wraps, from the wrapper's ``_cpointer``.
Binding them is not enough to trust them, so ``bind`` then makes one
call of each shape the memory makes and compares it with numpy's or
scipy's, bit for bit (``blas_mismatches``).  A missing extension, symbol
or pointer, or any bit that differs, refuses the binding: logged once per
library, at INFO, after which ``blas_step`` is None and the solver keeps
its numpy memory.
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
from scipy.linalg import lapack

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
        # the Anderson memory of solver.solve and its BLAS calls; the
        # memory functions take the address of a struct anderson
        "bind_blas": (None, (ctypes.c_void_p,) * 3),
        "gram_products": (None, (ctypes.c_void_p, _SIZE, _SIZE, _SIZE, _SIZE, ctypes.c_void_p)),
        "combine": (None, (ctypes.c_void_p,) * 2 + (_SIZE,) * 2 + (ctypes.c_void_p,)),
        "solve_spd": (ctypes.c_int, (ctypes.c_void_p, _SIZE, _SIZE) + (ctypes.c_void_p,) * 3),
        "anderson_update": (None, (ctypes.c_void_p,) + (_DOUBLES,) * 4),
        "anderson_commit": (None, (ctypes.c_void_p,)),
        "anderson_extrapolate": (_SIZE, (ctypes.c_void_p,)),
        "finish_update": (None, (_DOUBLES,) * 5 + (ctypes.c_double, _DOUBLES, ctypes.c_void_p)),
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


# numpy's CBLAS routines, as its ILP64 OpenBLAS names them
BLAS_SYMBOLS = ("scipy_cblas_dgemm64_", "scipy_cblas_dgemv64_")
# the address in a capsule, such as the _cpointer of an f2py wrapper; a
# prototype of its own, so that ctypes.pythonapi's stays as it is
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def blas_addresses():
    """The addresses of numpy's own ``cblas_dgemm`` and ``cblas_dgemv``,
    resolved through the handle of its ``_multiarray_umath`` extension, and
    of the ``dposv`` that ``scipy.linalg.lapack.dposv`` wraps.

    Raises
    ------
    ImportError, OSError, AttributeError, ValueError
        Where an extension, a symbol or the wrapper's pointer is missing.
    """
    from numpy._core import _multiarray_umath

    numpy_blas = ctypes.CDLL(_multiarray_umath.__file__)
    return (
        *(ctypes.cast(getattr(numpy_blas, name), ctypes.c_void_p).value for name in BLAS_SYMBOLS),
        _capsule_pointer(lapack.dposv._cpointer, None),
    )


def blas_mismatches(library):
    """The calls of ``library``'s BLAS entry points (bound by ``bind_blas``)
    whose bits differ from numpy's or scipy's on the same inputs: one call
    of each shape that the Anderson memory makes.  Empty where all agree."""
    rng = np.random.default_rng(0)
    depth, size = 4, 1_320
    F = rng.standard_normal((depth + 2, size))
    gram = rng.random((depth, depth))
    gram += gram.T + 2.0 * depth * np.eye(depth)  # diagonally dominant: positive definite
    rhs, w = rng.standard_normal(depth), rng.standard_normal(depth + 1)
    cases = {}
    for m, j, fresh in ((1, 0, depth), (3, 1, depth + 1)):
        out = np.empty((m, 2))
        library.gram_products(F.ctypes.data, m, size, j, fresh - j, out.ctypes.data)
        cases[f"gram, m = {m}"] = out, F[:m] @ F[j : fresh + 1 : fresh - j].T
    out = np.empty(size)
    library.combine(w.ctypes.data, F.ctypes.data, depth + 1, size, out.ctypes.data)
    cases["combination"] = out, np.dot(w.tolist(), F[: depth + 1])
    m, factor, out = depth - 1, np.empty((depth - 1) ** 2), np.empty(depth - 1)
    info = library.solve_spd(
        gram.ctypes.data, depth, m, rhs.ctypes.data, factor.ctypes.data, out.ctypes.data
    )
    _, coef, reference = lapack.dposv(gram[:m, :m], rhs[:m])
    cases["dposv"] = np.append(out, info), np.append(coef, reference)
    return [name for name, (got, want) in cases.items() if got.tobytes() != want.tobytes()]


def blas_step():
    """The step library, ``kernel("step")``, with numpy's BLAS and scipy's
    ``dposv`` bound into it (``blas_addresses``); None where that library
    is not loaded or the binding was refused.  See ``bind``."""
    library = kernel("step")
    return library if library is not None and bind(library) else None


@functools.cache
def bind(library):
    """Bind ``blas_addresses`` into ``library`` and check one call of each
    shape against numpy and scipy, bit for bit (``blas_mismatches``).  A
    missing symbol or a mismatch refuses the binding: logged once per
    library, at INFO, and False.  Decided once per process and library."""
    try:
        library.bind_blas(*blas_addresses())
        mismatches = blas_mismatches(library)
    except (ImportError, OSError, AttributeError, ValueError) as exc:
        mismatches = [str(exc)]
    if mismatches:
        logger.info(
            "the compiled Anderson memory is unavailable, the numpy memory runs: %s",
            "; ".join(mismatches),
        )
    return not mismatches
