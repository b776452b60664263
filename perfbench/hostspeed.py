"""Host speed probe, and qflo calls timed with it.

On a shared host, other tenants' load slows this process by up to 1.7x for
seconds to minutes at a time, with no CPU time stolen (the process's CPU time
equals its wall time), so no repeat of a call escapes a long slow spell.  Each
qflo call is therefore bracketed by a probe: a fixed kernel timed right before
and right after it.  The kernel's data fit in the core's own caches and it
runs between calls, so qflo's work cannot speed it up or slow it down; its
time follows only the host.  A call's wall time times REFERENCE_S / (its
probe time) is the time the call takes at the host speed where the kernel
takes REFERENCE_S: seconds at a fixed reference speed, whatever the load.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 1e-3   # about the kernel's time on an idle 2-core x86-64 host

_M = (np.arange(256).reshape(16, 16) % 7 + 1j * (np.arange(256).reshape(16, 16) % 5)) / 16


def _kernel():
    x = 0
    for i in range(20000):   # the interpreter's own loop, as in qflo's Python code
        x += i & 7
    for _ in range(50):      # small dense products, as in qflo's numpy code
        _M @ _M


def probe() -> float:
    """Seconds the kernel takes now: the median of five runs."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed(calls: list, fn, *args):
    """``fn(*args)``, appending (wall seconds, mean of the probes before and
    after) to ``calls``, also when it raises."""
    before = probe()
    t0 = time.perf_counter()
    try:
        return fn(*args)
    finally:
        seconds = time.perf_counter() - t0
        calls.append((seconds, (before + probe()) / 2))


def scaled(seconds: float, probe_s: float) -> float:
    """A time taken while the probe read ``probe_s``, at the reference speed."""
    return seconds * REFERENCE_S / probe_s
