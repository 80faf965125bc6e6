"""Host-speed probe, so that times are reported at one reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by up to
a factor of two over seconds to minutes, in CPU time as much as in wall time
(the other hardware threads of the core are busy or not). A run that happens to
fall in a slow phase would read as a regression of the program. So the workload
process runs a fixed kernel of its own before the first operation, after the
last, and every PROBE_EVERY_S in between (see Sampler). The kernel has two
parts, interpreter work and random reads from a table larger than the core's
caches, and a probe reads the geometric mean of their times: on this
benchmark's evaluate and search workloads that tracks the program's speed more
closely than either part alone. Each stretch of an operation between two probes
is scaled by NOMINAL_S over the mean of those probes, so times read as they
would on a host where the probe reads NOMINAL_S.

The kernel is the benchmark's own code; nothing the program under test does
changes what it measures, except the host's speed. Standard library only; the
table is built on the first probe, after the package import that set-up time
measures.
"""

from __future__ import annotations

import math
import signal
import time

NOMINAL_S = 0.003          # probe seconds at the reference speed (near its median on a 2.1 GHz 2-vCPU VM)
PROBE_EVERY_S = 0.25       # timer interval between probes
TABLE_LEN = 1 << 18        # about 9 MB of int objects, counted in the process's peak RSS
INTERP_ROUNDS = 12
READS = 12_000
_XS = [float(i) for i in range(400)]
_table: list[int] | None = None


def _interp() -> float:
    d: dict[int, float] = {}
    acc = 0.0
    for _ in range(INTERP_ROUNDS):
        for i, x in enumerate(_XS):
            k = i % 53
            d[k] = d.get(k, 0.0) + x * 1.0001
            acc += abs(x - d[k]) if i & 1 else min(x, acc)
    return acc


def _reads(table: list[int]) -> int:
    n = len(table)
    total = 0
    for j in range(READS):
        total += table[(j * 7919) % n]
    return total


def _best_of_two(fn, *args) -> float:
    """The faster of two timed calls, so that a single preemption does not read
    as a slow host."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def probe() -> float:
    """The host's speed now, as the geometric mean of the two parts' seconds."""
    global _table
    if _table is None:
        _table = list(range(TABLE_LEN))
        _interp()
        _reads(_table)
    return math.sqrt(_best_of_two(_interp) * _best_of_two(_reads, _table))


def scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two probes to the reference speed."""
    return NOMINAL_S / ((before + after) / 2.0)


class Sampler:
    """Probes the host on a timer while operations run, and takes each operation's
    time to the reference speed.

    SIGALRM fires every PROBE_EVERY_S; its handler runs a probe in the main
    thread, between two bytecodes of whatever runs then, so that an operation
    lasting seconds is probed inside too. Probe time is taken out of the
    operation's time. Between the end of one probe and the start of the next, the
    host's speed is taken as the mean of the two.
    """

    def __init__(self):
        self.probes: list[tuple[float, float, float]] = []   # (start, end, probe seconds)
        self._previous = None
        self._busy = False

    def _probe(self, *_signal) -> None:
        if self._busy:      # a probe that outlasts the interval is not re-entered
            return
        self._busy = True
        t0 = time.perf_counter()
        value = probe()
        self.probes.append((t0, time.perf_counter(), value))
        self._busy = False

    def start(self) -> None:
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def program_time(self, start: float, end: float) -> tuple[float, float]:
        """Seconds of [start, end] outside probes, and the factor that takes them
        to the reference speed."""
        return program_time(self.probes, start, end)


def program_time(probes, start: float, end: float) -> tuple[float, float]:
    """For the (start, end, seconds) probes, in time order with one before start and
    one after end: the time in [start, end] between probes, and its scale factor."""
    seconds = reference = 0.0
    for (_, gap_start, before), (gap_end, _, after) in zip(probes, probes[1:]):
        overlap = min(end, gap_end) - max(start, gap_start)
        if overlap > 0.0:
            seconds += overlap
            reference += overlap * scale(before, after)
    return seconds, reference / seconds
