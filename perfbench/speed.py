"""Scaling measured times to a fixed reference speed.

On a shared virtual machine the same pass can run up to twice as slowly for
tens of seconds while a neighbour is busy, and a median over the passes of a
run cannot remove a slowdown that lasts the whole run.  So every pass
measures the speed it is getting: a timer signal every INTERVAL_S runs a
fixed pure-Python reference loop, made of the operations cellspec spends its
time on (tuple building and comparison, set lookups, Fraction arithmetic),
twice, and records how long the second run took.  The first run warms the
caches, so that the timed run measures the processor's speed and not the
cache footprint of the code being measured.

A time measured over an interval is scaled by the mean over the probes in
that interval of REFERENCE_S / probe duration, after the probes' own time is
taken out.  The result is in seconds at the reference speed: on a quiet
machine of the reference kind it equals the wall time, and on a shared one
it stays put while the wall time swings.  The factor and the raw wall time
are reported next to every scaled figure.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
# The warm reference loop's duration at full speed on a 2-vCPU Intel Xeon
# virtual machine under CPython 3.11.7.  Fixed: it defines the unit.
REFERENCE_S = 1.6e-4


def reference_work():
    seen = set()
    for a in range(12):
        for b in range(12):
            seen.add((a * b % 7, a + b, a ^ b))
    best = None
    for p in itertools.permutations(range(5)):
        t = tuple(x * 3 % 5 for x in p)
        if best is None or t < best:
            best = t
    x = Fraction(7, 3)
    acc = Fraction(0)
    for c in (3, -5, 7, 1, -2, 4, 6, -1, 2, 3, -3, 5):
        acc = acc * x + c
    return len(seen), best, acc


class SpeedProbe:
    """Samples the speed of this process from a timer signal.  Each sample
    is (start on the monotonic clock, duration of the timed loop, duration
    of the whole probe)."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []

    def sample(self, *_signal_args) -> None:
        start = time.monotonic()
        reference_work()
        timed = time.monotonic()
        reference_work()
        end = time.monotonic()
        self.samples.append((start, end - timed, end - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def between(self, t0: float, t1: float) -> dict:
        """Probe time and speed factor over the samples started in [t0, t1).
        There is at least one wherever a sample() call was made."""
        inside = [(d, whole) for s, d, whole in self.samples if t0 <= s < t1]
        return {
            "probe_s": sum(whole for _, whole in inside),
            "factor": statistics.fmean(REFERENCE_S / d for d, _ in inside),
        }
