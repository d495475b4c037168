"""Fixed reference kernels that measure how fast the shared host runs.

The benchmark's host is shared, and its speed drifts: the same allocation
took a median of 16 ms in one 25 s window and 30 ms six minutes later, and
whole runs moved by a third from one to the next.  No statistic inside a
30 s run removes drift that slow.  So a timed run runs one of these kernels
every INTERVAL_S seconds, interleaved with the program's work, and scales
each operation's time by nominal / measured kernel time.  The end-to-end
times then read as on a host where the kernel takes its nominal time.
Scaled this way, the allocation's 25 s window medians spread 4 %
(interquartile range over median) where the raw ones spread 34 %.

The kernels never touch emff, so a change to the program cannot move them.
Each one resembles the work of the operations it is paired with, because
contention on this host slows interpreter-bound and array-bound code by
different factors.
"""

import signal
import statistics
import time

import numpy as np
import scipy.optimize

#: Wall-clock seconds between kernel runs in a timed run.
INTERVAL_S = 0.4

#: Fewest kernel runs a scale factor is taken over.
WINDOW = 9

_ALARM = {signal.SIGALRM}

_STACK = np.random.default_rng(0).normal(size=(1440, 3, 3))
_EYE = np.eye(3)


def _batch_kernel():
    """Array work on 1 440 stacked 3 x 3 matrices, as in the scan's dual batches."""
    for _ in range(6):
        m = np.einsum("nij,nkj->nik", _STACK, _STACK) + _EYE
        np.linalg.inv(m)
        np.linalg.eigvalsh(m)


def _scipy_kernel():
    """BFGS on the 6-D Rosenbrock function: interpreter-bound small-array work,
    as in one allocation or one oracle restart."""
    scipy.optimize.minimize(scipy.optimize.rosen, np.full(6, 1.3), method="BFGS")


class Probe:
    """A kernel and its nominal time: its time on the 2-core development
    container, rounded."""

    def __init__(self, kernel, nominal_s):
        self.kernel = kernel
        self.nominal_s = nominal_s

    def sample(self, reps):
        """Wall times of `reps` back-to-back runs of the kernel."""
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        return times

    def scale(self, samples):
        """Factor taking a time measured between `samples` to nominal host speed."""
        return self.nominal_s / statistics.median(samples)


class Sampler:
    """Runs a probe's kernel every INTERVAL_S seconds from a SIGALRM handler.

    Python runs the handler in the main thread, between two bytecodes of
    whatever code is running, so the kernel interleaves with the program's
    work and never runs beside it.  That holds while the timed code runs in
    the main thread, as every operation does with EMFF_THREADS=1.  `call`
    times one operation without the kernel runs inside it.
    """

    def __init__(self, probe):
        self.probe = probe
        self.times = []
        self.busy = 0.0  # seconds spent in the handler

    def _run(self, *_):
        start = time.perf_counter()
        self.probe.kernel()
        self.times.append(time.perf_counter() - start)
        self.busy += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._run)
        for _ in range(WINDOW):  # a full window before the first operation
            self._run()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def call(self, fn, arg):
        """fn(arg), its wall time less the kernel runs inside it, and the
        factor to nominal speed: over the kernel runs inside the call, or
        the latest WINDOW runs if fewer fell inside."""
        signal.pthread_sigmask(signal.SIG_BLOCK, _ALARM)
        first, busy, start = len(self.times), self.busy, time.perf_counter()
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _ALARM)
        out = fn(arg)
        signal.pthread_sigmask(signal.SIG_BLOCK, _ALARM)
        elapsed = time.perf_counter() - start - (self.busy - busy)
        window = self.times[min(first, len(self.times) - WINDOW):]
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _ALARM)
        return out, elapsed, self.probe.nominal_s / statistics.median(window)


PROBES = {
    "batch": Probe(_batch_kernel, 0.012),
    "scipy": Probe(_scipy_kernel, 0.020),
}
