"""Host-speed calibration, so that timings from a shared machine compare.

On a shared two-core host the speed of the same single-threaded code
drifts by up to 2x over tens of seconds (other tenants), so raw wall times
of one operation spread by +-25% between runs.  While a block runs, a
SIGALRM handler times one short calibration kernel every 20 ms.  The
kernel times k_i track the host's current speed, and the block's time at
the reference speed is

    sum_i dt_i * REF / k_i  =  (wall - kernel time) * REF * mean(1 / k_i)

No single kernel tracks every workload: a small-array NumPy stencil
over-corrects the 2-D solves, a pure-Python loop under-corrects the 1-D
ones.  Operations therefore rotate through three kernels (1-D stencil,
2-D stencil, Python loop) and average their corrections.  On a shared
2-vCPU host, eight repeats each of a 1-D and a 2-D solve stayed within
+-1.5% rescaled while their raw times moved by up to 50%.  Set-up samples
only the Python loop, the one kernel that runs before NumPy is imported.

The kernels run about 1% of the time and are subtracted.  REF values are
fixed constants (each kernel's typical time on a 2.1 GHz x86-64 core), so
rescaled times read as seconds and change only when the measured code
does.
"""

import functools
import signal
from time import perf_counter

INTERVAL_S = 0.02


@functools.cache
def _arrays():
    import numpy as np
    return (np, np.linspace(0.0, 1.0, 201) ** 2,
            np.outer(np.linspace(0.0, 1.0, 61), np.linspace(0.0, 1.0, 31)) ** 2)


def _python_loop():
    x = 0
    for i in range(1500):
        x += i * i % 7


def _stencil_1d():
    np, v, _ = _arrays()
    for _ in range(40):
        w = (v[2:] - 2.0 * v[1:-1] + v[:-2]) * 3.0
        float(np.abs(w).max())


def _stencil_2d():
    np, _, v = _arrays()
    for _ in range(10):
        c = v[1:-1, 1:-1]
        w = (v[2:, 1:-1] - 2.0 * c + v[:-2, 1:-1]) * 3.0 \
            + (v[1:-1, 2:] - 2.0 * c + v[1:-1, :-2])
        float(np.abs(w).max())


# (kernel, its time in seconds at the reference speed)
PYTHON = ((_python_loop, 1.0e-4),)
MIXED = ((_stencil_1d, 2.5e-4), (_stencil_2d, 2.5e-4), (_python_loop, 1.0e-4))


class Sampler:
    """Samples the host speed while a ``with`` block runs."""

    def __init__(self, kernels):
        self.kernels = kernels
        self.samples = [[] for _ in kernels]
        self.busy_s = 0.0    # kernel time from the timer, inside the block
        self.total_s = 0.0   # all kernel time, entry and exit runs included
        self._next = 0

    def _run(self):
        j = self._next % len(self.kernels)
        self._next += 1
        t0 = perf_counter()
        self.kernels[j][0]()
        k = perf_counter() - t0
        self.samples[j].append(k)
        self.total_s += k
        return k

    def _tick(self, signum, frame):
        self.busy_s += self._run()

    def __enter__(self):
        for _ in self.kernels:
            self._run()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        for _ in self.kernels:
            self._run()
        return False

    def factor(self):
        """Reference speed over the block's speed, averaged over the kernels."""
        per = [ref * sum(1.0 / k for k in ks) / len(ks)
               for (_, ref), ks in zip(self.kernels, self.samples)]
        return sum(per) / len(per)

    def normalise(self, wall_s):
        """(wall time less the timer's kernel runs, the same at reference speed)."""
        raw = wall_s - self.busy_s
        return raw, raw * self.factor()
