"""Compiled kernels: C sources shipped in the package, built on first use
with the installed gcc and loaded with ctypes.

A library is built once per cache, into ``$XDG_CACHE_HOME/bmadmm``, else
``~/.cache/bmadmm``: a directory of the user's own, never a shared one
such as /tmp, where another user could plant a library.  Its file is
named by a SHA-256 of the source, the flags and the machine type, and is
compiled under a temporary name in the same directory and then renamed
into place, so concurrent builds are safe and a warm cache runs no
compiler.  Any failure (no compiler, a compile error, an unwritable
cache, a load error) is logged once, at INFO, and leaves the kernel
unavailable for the rest of the process; its callers then take their
numpy path.
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

logger = logging.getLogger(__name__)

COMPILER = "gcc"
# No -ffast-math: it lets gcc drop the kernels' NaN and infinity tests.  No
# -march=native: a cache may be shared between hosts.
FLAGS = ("-O2", "-shared", "-fPIC")
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


@functools.cache
def polar3_kernel():
    """``polar3(g, b, q, r)`` of polar3.c, which writes the polar factors
    of the C-contiguous float64 (q, 3, r) stack at address g to b and
    returns the largest entry of |B B^T - I|, or -1 where the stack needs
    the eigendecomposition; None when the kernel cannot be built or
    loaded.  Decided once per process."""
    try:
        kernel = load("polar3").polar3
    except (OSError, subprocess.SubprocessError, AttributeError) as exc:
        detail = exc
        if isinstance(exc, subprocess.CalledProcessError):
            detail = exc.stderr.decode(errors="replace").strip()
        logger.info("the C polar kernel is unavailable, d = 3 projections use numpy: %s", detail)
        return None
    kernel.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t]
    kernel.restype = ctypes.c_double
    return kernel
