"""Samples the host's speed while the benchmark's operations run.

On a shared host the benchmark process runs up to 2x slower for tens of
seconds at a time, with identical iteration counts, so wall times of the
same code spread by a quarter or more between runs.  A ``SpeedProbe``
times a fixed reference kernel every ``period`` seconds from a SIGALRM
handler, in the middle of whatever the solver is doing, and keeps the
total.  Wall time divided by the mean kernel time over the same interval
is time in *reference kernels*: a host slowdown stretches both, and their
ratio holds still while a slower library raises it.

The kernel is a miniature of the solver's own mix: sparse-times-dense
products through scipy (Python dispatch plus a small CSR kernel) and
batched 3x3 linear algebra through numpy.  It is built here from fixed
data and calls nothing in bmadmm, so no change to the library changes it.
Of the kernels tried (a pure-Python loop, a memory stream, a dense
product, and each half of this one), this pair tracked the slowdowns of
the spmm-heavy, the projection-heavy and the probe-heavy workload best;
the solver still slows a little more than the kernel does.

The handler does not touch the library's state, so the operations it
interrupts compute bit for bit what they compute without it; the
benchmark's tests check that.
"""

from __future__ import annotations

import signal
import time

import numpy as np
import scipy.sparse

PERIOD = 0.025  # seconds between samples; a sample takes about 2 ms of them
KERNEL_SIZE = 600  # rows of the kernel's sparse matrix
KERNEL_DENSITY = 0.01
KERNEL_COLUMNS = 30
KERNEL_BLOCKS = 50  # 3x3 blocks of the kernel's batched linear algebra
KERNEL_ROUNDS = 5
# The kernel's time between the solver's operations on the 2-vCPU host the
# benchmark was built on; set-up times are reported at this host speed.
REFERENCE_KERNEL_S = 0.002


class SpeedProbe:
    """Times the reference kernel every ``period`` seconds while active.

    ``busy`` is the total kernel time so far and ``samples`` the number of
    kernel runs; callers read both before and after an interval and take
    differences.  Use as a context manager; only the main thread may
    enter it (signal handlers run there).
    """

    def __init__(self, period=PERIOD):
        self.period = period
        rng = np.random.default_rng(0)
        self._matrix = scipy.sparse.random(
            KERNEL_SIZE, KERNEL_SIZE, density=KERNEL_DENSITY, random_state=rng, format="csr"
        )
        self._dense = rng.standard_normal((KERNEL_SIZE, KERNEL_COLUMNS))
        self._blocks = rng.standard_normal((KERNEL_BLOCKS, 3, 3))
        self.busy = 0.0
        self.samples = 0
        self._running = False
        self._previous = None
        for _ in range(3):  # first calls load scipy's dispatch code
            self.kernel()

    def kernel(self):
        """The reference work; returns its wall time in seconds, less any
        sample the timer took inside it."""
        busy = self.busy
        started = time.perf_counter()
        for _ in range(KERNEL_ROUNDS):
            self._matrix @ self._dense
            np.linalg.svd(self._blocks)
            self._blocks @ self._blocks
            np.einsum("bij,bkj->bik", self._blocks, self._blocks)
        return time.perf_counter() - started - (self.busy - busy)

    def _sample(self, signum, frame):
        if self._running:  # a signal that arrived during a sample
            return
        self._running = True
        try:
            self.busy += self.kernel()
            self.samples += 1
        finally:
            self._running = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
