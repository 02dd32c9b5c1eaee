"""Correct the benchmark's wall times for the host's own changes of speed.

On a shared host the same op can take 1.6 times longer from one second to
the next.  A fixed pure-Python loop, timed back to back on the 2-vCPU Xeon
VM the benchmark was sized on, takes either about 250 or about 400
microseconds, and the share of time spent in the slow state drifts over
minutes.  A median over one run cannot remove that drift, so the
end-to-end times are corrected for it.

While an op runs, a SIGALRM timer interrupts it every `INTERVAL_S` seconds
and times one run of `kernel` in the benchmark's own process.  The kernel
does the same work every time and shares no code or data with the program,
so its duration tracks only the host.  An op's corrected time is its wall
time, minus the time spent in the kernel, times the op's mean host speed
`mean(REFERENCE_S / d_i)` over its kernel samples `d_i`.  It reads as the
seconds the op would take on a host where the kernel takes `REFERENCE_S`,
the fast state of the sizing host.  On that host, 21 km-4k ops on one
input, in three processes over two minutes, took 3.4-5.2 s of wall time
(per-process medians 4.22-4.93 s); corrected, the medians were
2.74-2.77 s and the coefficient of variation fell from 12% to 2.3%.  The
program slows down with the kernel: scaling by speed**0.5 instead left
a 6% coefficient of variation.  A sample longer than
`OUTLIER` times `REFERENCE_S` was cut by a thread switch or a preemption,
not slowed by the host, and is left out.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

INTERVAL_S = 0.02
REFERENCE_S = 250e-6
OUTLIER = 3.0


def kernel() -> float:
    acc = 0.0
    xs = [0.5, 1.5, 2.5, 3.5]
    for i in range(3000):
        acc += xs[i & 3] * 1.0001 + (i % 7)
    return acc


def time_kernel() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


@contextmanager
def sampling():
    """Times the kernel on a timer while the caller's code runs; yields the
    list that collects the kernel times."""
    window = []

    def handler(signum, frame):
        window.append(time_kernel())

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield window
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def speed(window: list) -> float:
    """Mean host speed over a window, relative to the reference host."""
    kept = [d for d in window if d < OUTLIER * REFERENCE_S]
    if not kept:
        raise ValueError("no host-speed sample fell inside the timed window")
    return statistics.fmean(REFERENCE_S / d for d in kept)


def corrected(wall: float, window: list) -> float:
    """Seconds of `wall` spent outside the kernel, at the reference speed."""
    return (wall - sum(window)) * speed(window)
