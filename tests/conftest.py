import functools
import os

import pytest

from bmadmm import native

LIBRARIES = tuple(native.PROTOTYPES)


@pytest.fixture(params=["c", "numpy"])
def kernel_path(request, monkeypatch):
    """Runs a test on each implementation of the compiled kernels: with
    every library loaded (skipped where one cannot be built) and on the
    numpy path, with them all unloaded."""
    if request.param == "numpy":
        monkeypatch.setattr(native, "kernel", lambda name: None)
    elif any(native.kernel(name) is None for name in LIBRARIES):
        pytest.skip("a C kernel is unavailable")
    return request.param


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A kernel loader that has decided nothing yet, building into an empty
    cache under tmp_path; returns that cache directory.  The process's own
    loader, and what it decided, come back after the test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(native, "kernel", functools.cache(native.kernel.__wrapped__))
    return tmp_path / "xdg" / "bmadmm"


@pytest.fixture
def loaded():
    """``loaded(name)`` is the library ``native.kernel(name)``; it skips
    the test where the library cannot be built."""

    def get(name):
        library = native.kernel(name)
        if library is None:
            pytest.skip(f"the C {name} kernel is unavailable")
        return library

    return get


@pytest.fixture(params=["no compiler", "compile error", "unwritable cache", "load error"])
def failed_build(request, fresh_loader, monkeypatch, tmp_path):
    """A fresh loader (``fresh_loader``) on which every library fails in
    one of the four ways the loader survives; returns that failure."""
    failure = request.param
    if failure == "no compiler":
        monkeypatch.setattr(native, "COMPILER", str(tmp_path / "no-such-compiler"))
    elif failure == "compile error":
        real = native.library_path
        monkeypatch.setattr(native, "library_path", lambda name: (real(name)[0], b"not C\n"))
    elif failure == "unwritable cache":
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    else:
        os.makedirs(fresh_loader)
        for name in LIBRARIES:
            with open(native.library_path(name)[0], "wb") as fh:
                fh.write(b"not a library")
    return failure
