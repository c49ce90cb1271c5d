"""Host-speed normalisation of measured times.

The benchmark runs on shared virtual machines whose speed drifts: the
same op can take 30 ms in one second and 60 ms a few seconds later, in
spells that last from seconds to minutes, and CPU time drifts with wall
time. A fixed pure-Python reference loop, which touches no lamp code,
slows down in step. So the benchmark runs the reference before and after
every op and scales the op's wall time by REF_NS over the mean of those
two reference times. Times then read as milliseconds of a host on which
the reference loop takes REF_NS. On a 2-vCPU Xeon VM with CPython 3.11.7,
over 4 minutes of ``lib_binary`` ops, this cut the coefficient of
variation of 36-second medians from 0.14 to 0.006.

A change to lamp moves the op time and not the reference, so the scaled
time moves with it; the raw wall times are kept in the run's report.
"""

from __future__ import annotations

import time

REF_NS = 2_500_000  # near the reference loop's time in quiet spells of the host above


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def mix(self) -> int:
        return self.a ^ self.b


def reference() -> int:
    """Fixed interpreter work of the kinds lamp does: objects, method
    calls, int logic, string formatting, dict updates."""
    acc = 0
    for pair in [_Pair(i, i * 7) for i in range(3000)]:
        acc = (acc + pair.mix()) & 0xFFFFFFFF
    counts: dict = {}
    for j, ch in enumerate("".join(format(x & 3, "b") for x in range(3000))):
        counts[ch] = counts.get(ch, 0) + j
    return acc + len(counts)


def sample() -> int:
    """Wall time of one reference loop, in ns."""
    t0 = time.perf_counter_ns()
    reference()
    return time.perf_counter_ns() - t0


def scale(before: int, after: int) -> float:
    """The scale of work done between two reference samples."""
    return 2 * REF_NS / (before + after)


def scales(samples: list[int]) -> list[float]:
    """Scales of the ops between consecutive samples: one fewer than samples."""
    return [scale(a, b) for a, b in zip(samples, samples[1:])]


def timed(fn):
    """(fn(), wall ns, scale) of one call, bracketed by reference samples."""
    before = sample()
    t0 = time.perf_counter_ns()
    result = fn()
    ns = time.perf_counter_ns() - t0
    return result, ns, scale(before, sample())
