"""Machine-speed probe: timings scaled to a fixed reference speed.

On a shared machine the CPU speed drifts by tens of percent over seconds
and minutes, for every program alike, so raw wall times of the same code
spread more between runs than the changes the benchmark has to see.  The
probe measures that speed while the workload runs and scales each timing
to a nominal speed.

A `Pacer` arms an interval timer (SIGALRM, every PERIOD_S seconds).  The
handler runs in the main thread between two bytecodes of whatever is
running and times `reference()`, a fixed chunk of the kind of work acring
does (split-step updates of a small ring state with numpy, a Python loop
that formats numbers), about 1 ms.  Work of this kind slows down and speeds
up with the machine in step with acring's own solver and CLI; memory-bound
work (large array copies) does not, and makes a poor reference.  The
paced time of an interval is its wall time minus the probe's own time
inside it, times REF_NOMINAL_S times the mean of 1/(reference time) over
the samples taken during the interval (or, for a short interval, the
MIN_SAMPLES samples nearest to it): the time the interval would take on a
machine where the reference chunk takes REF_NOMINAL_S.  The samples are
evenly spaced in time, so the mean of their speeds weighs each stretch of
the interval by its length; when the speed switches within a call, the
reciprocal of the mean reference time would not.  A change in the program moves its
own time and not the reference, so it shows in full.

The reference binds numpy.fft's functions at import, so a tracer that
wraps numpy.fft later neither counts nor slows the probe.
"""

from __future__ import annotations

import math
import signal
import time
from bisect import bisect_left
from statistics import fmean

import numpy as np
from numpy.fft import fft as _fft, ifft as _ifft

PERIOD_S = 0.05
REF_NOMINAL_S = 8e-4  # about the reference time on a 2-vCPU sandbox at its typical speed
MIN_SAMPLES = 6
EDGE_SAMPLES = 4  # samples taken when the probe starts and stops, so every interval has neighbours

_G = 256
_PHI = 2.0 * math.pi * np.arange(_G) / _G
_SEED = (np.exp(1j * _PHI) + 0.1 * np.cos(3.0 * _PHI)) / math.sqrt(2.0 * math.pi)
_HALF_KINETIC = np.exp(-5e-4 * (np.fft.fftfreq(_G, 1.0 / _G) - 0.3) ** 2)


def reference() -> float:
    """Twelve split-step updates of one 256-point ring state, then a Python loop that formats floats."""
    psi = _SEED.copy()
    norm2 = 1.0
    for _ in range(12):
        spec = _fft(psi)
        spec *= _HALF_KINETIC
        psi = _ifft(spec)
        dens = psi.real**2 + psi.imag**2
        expo = 12.0 * dens
        expo -= expo.mean()
        psi *= np.exp(-1e-3 * expo)
        spec = _fft(psi)
        spec *= _HALF_KINETIC
        spec2 = spec.real**2 + spec.imag**2
        norm2 = float(spec2.sum()) / _G
        psi = _ifft(spec)
        psi *= 1.0 / math.sqrt(norm2)
    acc = 0.0
    parts = []
    for i in range(500):
        acc += math.sqrt(i * 0.37 + 1.0)
        if i % 8 == 0:
            parts.append("%.12g" % acc)
    return norm2 + len(",".join(parts))


class Pacer:
    """Context manager: samples the reference while armed; `paced(t0, t1)` scales an interval."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.starts: list[float] = []  # sorted: samples are taken in time order
        self.durations: list[float] = []
        self.speeds: list[float] = []  # 1 / duration
        self.probe_s = 0.0

    def _sample(self, *_):
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self.speeds.append(1.0 / (t1 - t0))
        self.probe_s += t1 - t0

    def __enter__(self) -> "Pacer":
        t0 = time.perf_counter()
        reference()  # first call plans the transforms; not a sample
        self.probe_s += time.perf_counter() - t0
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_SAMPLES):
            self._sample()

    def window(self, t0: float, t1: float) -> tuple[int, int, int, int]:
        """(lo, hi) samples inside [t0, t1]; (a, b) the samples that give its speed."""
        lo, hi = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        a, b = lo, hi
        if b - a < MIN_SAMPLES:
            mid = bisect_left(self.starts, 0.5 * (t0 + t1))
            a = max(0, min(a, mid - MIN_SAMPLES // 2))
            b = min(len(self.starts), max(b, a + MIN_SAMPLES))
            a = max(0, b - MIN_SAMPLES)
        return lo, hi, a, b

    def paced(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would take at the nominal speed, the probe's own time left out."""
        lo, hi, a, b = self.window(t0, t1)
        own = t1 - t0 - sum(self.durations[lo:hi])
        return own * REF_NOMINAL_S * fmean(self.speeds[a:b])

    def raw(self, t0: float, t1: float) -> float:
        """Wall seconds of [t0, t1] with the probe's own time left out."""
        lo, hi, _, _ = self.window(t0, t1)
        return t1 - t0 - sum(self.durations[lo:hi])

    def reference_ms(self) -> float:
        return 1e3 * fmean(self.durations)
