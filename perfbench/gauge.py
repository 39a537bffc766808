"""Times measured at a fixed machine speed.

The benchmark runs on a few vCPUs of a shared host whose speed changes by a
third within seconds and from minute to minute, as other tenants load it:
the same 20-trial ``search_pp2`` block took 27 ms in one five-second window
and 50 ms in another of the same minute. CPU time equals wall time
throughout, so the process is not descheduled; each instruction is slower.

A ``Gauge`` therefore runs a fixed reference kernel (plain Python arithmetic
and small numpy arrays, like divlab's own inner loops, and no divlab code)
between the consecutive parts of a verdict. Each part's time is scaled by
``NOMINAL_S`` over the mean of the kernel's times just before and just after
it: the result is the time the part would have taken at the speed at which
the kernel takes ``NOMINAL_S``. On the reference machine (see BASELINE.md),
over twelve five-second windows of one minute, a block's median time ranged
over 27-50 ms while its ratio to the kernel's time stayed within 6.3-7.0.

The kernel is benchmark code, so a change to divlab never changes it; the
gauge's own time is left out of every measured time.
"""

from __future__ import annotations

import math
import time

import numpy as np

# the kernel's time at the reference speed: its median over 1,000 runs on
# the reference machine
NOMINAL_S = 0.0026
KERNEL_REPS = 20


def kernel() -> float:
    """A fixed mix of small-array numpy calls and a scalar bisection."""
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(KERNEL_REPS):
        x = rng.random(6) + 0.1
        p = x / x.sum()
        acc += float(np.dot(np.sort(x), np.cumsum(p)))
        lo, hi = -1.0, 2.0
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            if sum(pi * max(0.0, xi - mid) ** 2 for pi, xi in zip(p.tolist(), x.tolist())) > 0.05:
                lo = mid
            else:
                hi = mid
        acc += math.exp(-lo * lo)
    return acc


def kernel_s() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Gauge:
    """Times the consecutive parts of one verdict, raw and at the reference speed.

    ``start`` opens the first part, each ``split`` closes the open part and
    opens the next, and ``stop`` closes the last. A part's label names it
    in ``parts``: a list of ``(label, raw_s, scale)``, where ``raw_s * scale``
    is the part's time at the reference speed.
    """

    def __init__(self):
        self.parts: list = []
        self._ref = self._t0 = 0.0
        self._label = None

    def start(self, label=None) -> None:
        self._ref = kernel_s()
        self._label = label
        self._t0 = time.perf_counter()

    def split(self, label=None) -> None:
        raw = time.perf_counter() - self._t0
        ref = kernel_s()
        self.parts.append((self._label, raw, 2.0 * NOMINAL_S / (self._ref + ref)))
        self._ref = ref
        self._label = label
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        self.split()

    @property
    def raw_s(self) -> float:
        return sum(raw for _, raw, _ in self.parts)

    @property
    def scaled_s(self) -> float:
        return sum(raw * scale for _, raw, scale in self.parts)
