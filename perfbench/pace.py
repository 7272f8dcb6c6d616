"""The host's pace, measured next to every timed operation.

The CPU speed of a shared host can drop by a third or more for tens of
seconds at a time, longer than a run, so raw times of the same code differ
from run to run by more than any useful bound.  The benchmark therefore times
a fixed reference computation from its own code between the timed
operations, at least every 0.1 s (the median of three runs), and once every
0.1 s while an operation runs in a child process (a single run), and reports
each time at the reference pace:

    reported = raw * REFERENCE_SECONDS / mean(references from before to after it)

The samples taken during a child's run take the CPU from it for a moment;
that time is not counted as the child's.

The reference does the kind of work the package does (closures of subgroups
over a multiplication table, and hashing, counting and sorting frozensets of
small integers), so a slow phase of the host stretches it and the package
alike; it imports nothing from the package, so a change to the program cannot
move it.  An operation inside this process can be sampled only before and
after, which tracks the host well for operations of up to about a second;
those of the blow-up queries take tens of milliseconds.

REFERENCE_SECONDS is the reference's typical time on the 2-vCPU Xeon
(2.1 GHz) host the benchmark was tuned on; there, reported times read as
wall-clock times in a typical phase.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter, thread_time

import generate

REFERENCE_SECONDS = 0.006

_TABLE = generate.GROUPS["D4xC2"]()


def _reference_work() -> None:
    generate.abelian_subgroup_shapes(_TABLE)
    sets = [frozenset((i % 13, i % 7, i * 31 % 17)) for i in range(2500)]
    counts: dict = {}
    for s in sets:
        counts[s] = counts.get(s, 0) + 1
    sorted(sets, key=sorted)


def reference(runs: int = 3) -> float:
    """Seconds the reference computation takes now: the median of `runs` runs.

    It is the CPU time of this thread, so that a sample taken while a child
    process shares the CPU measures the host's pace and not the sharing.
    """
    times = []
    for _ in range(runs):
        t0 = thread_time()
        _reference_work()
        times.append(thread_time() - t0)
    return statistics.median(times)


def at_pace(seconds: float, references: list[float]) -> float:
    """A raw time rescaled by the mean of the reference times measured over it."""
    return seconds * REFERENCE_SECONDS * len(references) / sum(references)


class Pacer:
    """Rescales a sequence of raw times to the reference pace.

    A reference is measured at the start, then after the first time added
    once INTERVAL seconds have passed since the last one, and on `flush`;
    while an operation runs in a child process, `sample` adds one every
    INTERVAL.  Every time is rescaled by the mean of the references from the
    one before it to the one after it.
    """

    INTERVAL = 0.1

    def __init__(self):
        self.references = [reference()]
        self.paced: list[float] = []
        self._pending: list[float] = []
        self._window = self.references[-1:]
        self._since = perf_counter()

    def sample(self) -> float:
        """Measure the reference once while a child runs; returns the wall
        seconds that took, which the caller does not count as the child's."""
        t0 = perf_counter()
        self.references.append(reference(runs=1))
        self._window.append(self.references[-1])
        return perf_counter() - t0

    def add(self, seconds: float) -> None:
        self._pending.append(seconds)
        if perf_counter() - self._since >= self.INTERVAL:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        self.references.append(reference())
        self._window.append(self.references[-1])
        self._since = perf_counter()
        self.paced += [at_pace(s, self._window) for s in self._pending]
        self._pending = []
        self._window = self.references[-1:]


def pin_to_one_cpu() -> int:
    """Keep this process, and every child it starts, on one CPU, so that the
    reference and the operation it paces run on the same one."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
