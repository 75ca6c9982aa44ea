"""The speed of the host, sampled while the program runs.

On a shared host the same pure-Python work can take anywhere from 1x
to 2x its quiet time.  On the 2-core shared VM this benchmark was
built on, a fixed kernel ran in either about 130 or about 220 us,
switching between the two within tens of milliseconds, and whole
passes of a workload drifted from 0.9 to 1.9 s within a minute, so a
run of fixed length could land wholly in a slow phase.  The slowdown
hits the program and any other interpreted code alike.  So the
benchmark times a small fixed kernel (standard library only, independent
of the program) right before and after each call into the program and,
from a ``SIGALRM`` interval timer, every ``INTERVAL_S`` during it; the
time the kernel takes inside a call is taken out of that call's time.
A call's time is then rescaled to the reference host speed:

    normalised = net call time * REFERENCE_S / mean kernel time

over the kernel samples around and inside the call, leaving out any
that took over three times their median.  The mean, not the
median, weights the two speeds by the share of time the host spent in
each.  A change of the program moves the call time and not the
kernel's, so it shows in full.  ``REFERENCE_S`` is the kernel's time in
the fast phase of that host, so normalised times read close to what it
gives when it is quiet.  On that host, passes whose raw time ranged
over 1.6x kept their normalised time within 6%.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time

#: Time of one warm :func:`kernel` call in the fast phase of the reference host.
REFERENCE_S = 0.00013
INTERVAL_S = 0.01


class _Jet:
    __slots__ = ("v", "d", "dd")

    def __init__(self, v: float, d: float, dd: float) -> None:
        self.v, self.d, self.dd = v, d, dd

    def mul(self, o: "_Jet") -> "_Jet":
        return _Jet(self.v * o.v, self.v * o.d + self.d * o.v,
                    self.v * o.dd + 2.0 * self.d * o.d + self.dd * o.v)

    def add(self, o: "_Jet") -> "_Jet":
        return _Jet(self.v + o.v, self.d + o.d, self.dd + o.dd)


def kernel() -> float:
    """Fixed interpreted work of the kinds the program does: small
    objects and float arithmetic, math calls, number formatting, dicts."""
    acc, seen, text = _Jet(0.0, 0.0, 0.0), {}, 0
    x = _Jet(1.0, 0.5, 0.25)
    for i in range(60):
        t = i * 0.013
        acc = acc.add(x.mul(_Jet(math.sin(t), math.cos(t), -math.sin(t))))
        s = f"{acc.v:.17g},{acc.d:.17g}"
        seen[i & 15] = len(s)
        text += len(s)
    return acc.dd + text + sum(seen.values())


def sample() -> float:
    """Seconds one warm kernel call takes now, with the collector held off.

    The kernel runs once untimed first, so that the sample measures the
    host's speed and not how much of the cache the program left to it.
    """
    enabled = gc.isenabled()
    gc.disable()
    kernel()
    t0 = time.perf_counter()
    kernel()
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


class HostSpeed:
    """Times calls into the program and rescales them to the reference host."""

    def __init__(self) -> None:
        self._inside: list[float] = []
        self._stolen = 0.0
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self._inside.append(sample())
        self._stolen += time.perf_counter() - t0
        self._busy = False

    def call(self, fn):
        """Run ``fn()``; return (result or None, error or None, raw s, normalised s).

        Raw time is the call's wall time minus the kernel runs inside it.
        """
        around = [sample()]
        self._inside, self._stolen = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        result = error = None
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as err:  # reported by the caller as a failed operation
            error = err
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        raw = max(t1 - t0 - self._stolen, 0.0)
        around.append(sample())
        samples = around + self._inside
        # A sample that the host preempted can read many times too slow,
        # and with the few samples of a short call one such sample would
        # set the mean; the two speeds of the host lie well within 3x.
        cap = 3.0 * statistics.median(samples)
        speed = statistics.fmean(s for s in samples if s <= cap)
        return result, error, raw, raw * REFERENCE_S / speed
