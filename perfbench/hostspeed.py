"""Host-speed normalization of the benchmark's timings.

The benchmark runs on a shared host whose speed drifts in phases of a few
seconds to minutes: the same pass over the same FASTQ takes anywhere from
0.7x to 1.4x its median time, with CPU time equal to wall time (the
process is not descheduled; it runs slower).  No median inside a 30 s run removes
a phase that lasts as long as the run.  Two short fixed reference loops
slow down with the host, so a :class:`NominalClock` times them every
:data:`PROBE_INTERVAL` seconds or so during a measurement and converts the
measurement's time stamps into seconds at the host speed at which the
loops take their :data:`NOMINAL_SECONDS`.

The loops do the two kinds of work the program's time goes to: pure
interpreter work (integer arithmetic and dict stores, like mapping and
SAM output) and a Python loop of small NumPy bit operations on 128-lane
word arrays (like the engine's lockstep row scan).  Their mean tracks the
program's pass times better than either alone (``README.md`` has the
figures).  They live here, apart from the program, so no change to the
program can change the reference.  Only the time the process spends on
the CPU slows with the host: between two probes the clock stretches the
measured time by the probes' slowness in proportion to the process's CPU
time over that stretch, so a batch pass (on the CPU throughout) is
rescaled in full and the service's linger waits and idle polls are not.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import List, Tuple

import numpy as np

#: Seconds of each reference loop at the reference host speed (a two-vCPU
#: Xeon VM at 2.1 GHz in its usual phase).  Normalized timings read as
#: seconds on a host that runs the loops in these times.
NOMINAL_SECONDS = {"interpreter": 0.004, "bit_rows": 0.004}
#: Iterations of one loop run, and runs of each loop per probe.
PROBE_LOOPS = 25_000
PROBE_ROWS = 500
PROBE_REPEATS = 3
#: Longest stretch of a measurement between two probes, in seconds: the
#: host changes speed within seconds, so one probe before and one after a
#: 5 s pass leave most of the change unseen.
PROBE_INTERVAL = 0.5


def _interpreter() -> float:
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(PROBE_LOOPS):
        total += i * i
        table[i & 1023] = total
    return time.perf_counter() - start


def _random_words(count: int) -> np.ndarray:
    # The standard library's generator: importing numpy.random would add
    # megabytes to the measured process's peak_rss_mb.
    draw = random.Random(0)
    return np.array([draw.getrandbits(64) for _ in range(count)], dtype=np.uint64)


#: Four pattern masks and a start row of 4 words x 128 lanes each.
_WORDS = _random_words(5 * 4 * 128).reshape(5, 4, 128)


def _bit_rows() -> float:
    start = time.perf_counter()
    one, top = np.uint64(1), np.uint64(63)
    row = _WORDS[4].copy()
    for i in range(PROBE_ROWS):
        shifted = (row << one) | (row >> top)
        row = ((row << one) | _WORDS[i & 3]) & shifted
    return time.perf_counter() - start


_LOOPS = {"interpreter": _interpreter, "bit_rows": _bit_rows}


def slowness() -> float:
    """How much slower than nominal the host runs now: the mean over the
    reference loops of the median of :data:`PROBE_REPEATS` runs over its
    nominal seconds (the median, so one interrupted run does not count)."""
    runs = {name: [] for name in _LOOPS}
    for _ in range(PROBE_REPEATS):
        for name, loop in _LOOPS.items():
            runs[name].append(loop())
    return statistics.mean(
        statistics.median(seconds) / NOMINAL_SECONDS[name] for name, seconds in runs.items()
    )


class NominalClock:
    """Converts ``time.perf_counter`` stamps into seconds at nominal speed.

    A measurement calls :meth:`probe` before it starts and after it ends,
    and :meth:`maybe_probe` wherever the program is paused (the probe runs
    on the measuring thread and needs the CPU to itself).  Between two
    probes the host is taken to run at the mean of their slowness, which
    stretches the CPU-time share of that stretch; time spent inside probes
    counts for nothing.  Stamps must fall between the first and the last
    probe.
    """

    def __init__(self, interval: float = PROBE_INTERVAL) -> None:
        self.interval = interval
        #: (start, end, slowness, CPU seconds at start, CPU seconds at end)
        #: of every probe (see :func:`slowness`); CPU seconds are the
        #: process's, over all threads.
        self.marks: List[Tuple[float, float, float, float, float]] = []

    def probe(self) -> None:
        start, cpu_start = time.perf_counter(), time.process_time()
        factor = slowness()
        self.marks.append((start, time.perf_counter(), factor, cpu_start, time.process_time()))

    def maybe_probe(self) -> None:
        if time.perf_counter() - self.marks[-1][1] >= self.interval:
            self.probe()

    def nominal(self, stamp: float) -> float:
        """Nominal seconds from the end of the first probe to ``stamp``."""
        return self._elapsed(stamp, weighted=True)

    def measured(self, stamp: float) -> float:
        """Seconds as measured from the end of the first probe to
        ``stamp``, leaving out the time spent in probes."""
        return self._elapsed(stamp, weighted=False)

    def readings(self) -> List[float]:
        """The slowness every probe read, in order."""
        return [mark[2] for mark in self.marks]

    def _elapsed(self, stamp: float, weighted: bool) -> float:
        total = 0.0
        for (_, end, before, _, cpu_end), (start, _, after, cpu_start, _) in zip(
            self.marks, self.marks[1:]
        ):
            speed = 1.0
            if weighted and start > end:
                on_cpu = min(1.0, (cpu_start - cpu_end) / (start - end))
                speed = 1.0 - on_cpu + on_cpu * 2.0 / (before + after)
            if stamp <= start:
                if stamp < end:
                    raise ValueError("stamp falls inside a probe or before the first")
                return total + (stamp - end) * speed
            total += (start - end) * speed
        raise ValueError("stamp after the last probe")
