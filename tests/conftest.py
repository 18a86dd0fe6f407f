import functools

import pytest

from bmadmm import native


@pytest.fixture(params=["c", "numpy"])
def polar_path(request, monkeypatch):
    """Runs a test on each implementation of the d = 3 closed form: the
    compiled kernel (skipped where it cannot be built) and the numpy path,
    with the kernel unloaded."""
    if request.param == "numpy":
        monkeypatch.setattr(native, "polar3_kernel", lambda: None)
    elif native.polar3_kernel() is None:
        pytest.skip("the C polar kernel is unavailable")
    return request.param


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A kernel loader that has decided nothing yet, building into an empty
    cache under tmp_path; returns that cache directory.  The process's own
    loader, and what it decided, come back after the test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(
        native, "polar3_kernel", functools.cache(native.polar3_kernel.__wrapped__)
    )
    return tmp_path / "xdg" / "bmadmm"
