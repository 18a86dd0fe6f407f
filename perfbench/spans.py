"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, operation id).  Spans are opened by
the benchmark around its own calls into the library (``Tracer.span``) and
by wrappers that replace library functions for the duration of a traced
pass (``Tracer.patched``).  Every bmadmm module binds names such as
``spmm`` or ``project`` at import time, so a wrapper must be installed in
the namespace of the module that *calls* the function; patching only the
defining module would record nothing.

Counts (flops, probe iterations, ...) are kept at the same boundaries as
the spans, in ``Tracer.counts``.  Nothing here runs unless a traced pass
installs it, so untraced passes execute the unmodified library.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

ROOT = -1


class Tracer:
    """Spans of one traced pass, stored as parallel compact arrays."""

    def __init__(self):
        self.names = []
        self._codes = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.counts = {}
        self.op_id = -1
        self._stack = [ROOT]

    def code(self, name):
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self, code):
        idx = len(self.start)
        self.name.append(code)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx, failed):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.failed[idx] = 1

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(self.code(name))
        try:
            yield
        except BaseException:
            self._close(idx, True)
            raise
        self._close(idx, False)

    def wrap(self, fn, name, on_return=None):
        """Return ``fn`` recording a span per call.  ``name`` is a string or
        a function of the call's positional arguments; ``on_return(tracer,
        args, result)`` records counts after a successful call."""
        fixed = None if callable(name) else self.code(name)

        def traced(*args, **kwargs):
            idx = self._open(fixed if fixed is not None else self.code(name(args)))
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, True)
                raise
            self._close(idx, False)
            if on_return is not None:
                on_return(self, args, out)
            return out

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Install wrappers for ``(module, attribute, name, on_return)``
        targets and restore the original functions on exit."""
        saved = []
        try:
            for module, attr, name, on_return in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, on_return))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- analysis ------------------------------------------------------

    def arrays(self):
        """Copies of the span columns as numpy arrays."""
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "failed": np.array(self.failed, dtype=np.int8),
        }


def self_times(parent, duration):
    """Span duration minus the time covered by its direct child spans.

    Children of one span never overlap (the program is single threaded),
    so summing direct children gives the covered time.
    """
    parent = np.asarray(parent)
    duration = np.asarray(duration, dtype=np.float64)
    has_parent = parent >= 0
    child_time = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=duration.size
    )
    return duration - child_time


def inside(parent, mask):
    """True for spans with a strict ancestor where ``mask`` holds.

    Parents are opened before their children, so parent indices are lower
    and one pass per nesting level settles every flag.
    """
    parent = np.asarray(parent)
    mask = np.asarray(mask, dtype=bool)
    has_parent = parent >= 0
    safe = np.where(has_parent, parent, 0)
    flag = np.zeros(mask.size, dtype=bool)
    while True:
        updated = has_parent & (mask[safe] | flag[safe])
        if np.array_equal(updated, flag):
            return flag
        flag = updated
