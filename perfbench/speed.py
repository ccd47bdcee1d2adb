"""The machine's current speed, sampled while a child works.

On a shared host the same pure-Python work takes from 0.7x to 1.9x its
usual time, depending on what the neighbours run, in spells from a fraction
of a second to minutes.  No statistic of raw times over a 40 s run is steady
against spells that long.  So every untraced child runs a fixed reference
snippet, this file's own code, every ``INTERVAL_S`` of wall time from a
timer signal, and records how long it took.  A time measured in the child
is then reported at the reference speed:

    normalised = raw * NOMINAL_S / (mean snippet time over the interval)

the time the work would have taken at the speed where the snippet takes
``NOMINAL_S``.  The snippet's own time is taken out of the raw time first.
Samples come at even steps of wall time, so their mean is the machine's
mean speed over the measured interval.  The snippet does what the
program's inner loops do, exact integer row reduction; a plain arithmetic
loop tracked the program's speed three to five times less closely.
"""

from __future__ import annotations

import gc
import signal
import time

INTERVAL_S = 0.025
# About the snippet's wall and CPU seconds on a normally loaded host (Xeon,
# 2 vCPUs, CPython 3.11); a unit only, so it never changes.
NOMINAL_S = 0.0003
# An interval with fewer samples in it borrows the latest ones before it.
MIN_SAMPLES = 4

MATRIX = tuple(tuple((3 * i + 5 * j + i * j) % 11 - 5 for j in range(7))
               for i in range(6))
ROWS = [list(row) for row in MATRIX]


def snippet():
    """Fraction-free Gauss-Jordan elimination of a fixed 6x7 integer
    matrix, six times over, in place in ``ROWS``.  It makes no object the
    cyclic garbage collector tracks, so it never sets off a collection of
    the program's objects and is never charged for one."""
    n, m = len(ROWS), len(ROWS[0])
    for _ in range(6):
        for r in range(n):
            ROWS[r][:] = MATRIX[r]
        lead = 0
        for c in range(m):
            pivot = lead
            while pivot < n and not ROWS[pivot][c]:
                pivot += 1
            if pivot == n:
                continue
            ROWS[lead], ROWS[pivot] = ROWS[pivot], ROWS[lead]
            p = ROWS[lead]
            for r in range(n):
                f = ROWS[r][c]
                if r != lead and f:
                    row, pc = ROWS[r], p[c]
                    for j in range(m):
                        row[j] = pc * row[j] - f * p[j]
            lead += 1


class Sampler:
    """Runs ``snippet`` from SIGALRM every ``INTERVAL_S`` while running and
    keeps ``(end, wall, cpu)`` per sample, ``end`` on ``perf_counter``."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self.running = False

    def _tick(self, _signum, _frame):
        # A collection the program's allocations have made due waits for
        # the program's next allocation instead of landing in the snippet.
        collecting = gc.isenabled()
        gc.disable()
        start, cpu = time.perf_counter(), time.process_time()
        snippet()
        end = time.perf_counter()
        cpu = time.process_time() - cpu
        if collecting:
            gc.enable()
        self.samples.append((end, end - start, cpu))

    def start(self):
        self.running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, start: float, end: float) -> tuple[float, float]:
        """Wall and CPU seconds the snippet took within ``[start, end]``."""
        inside = [(w, c) for t, w, c in self.samples if start <= t <= end]
        return sum(w for w, _ in inside), sum(c for _, c in inside)

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """Wall and CPU factors to the reference speed over ``[start, end]``:
        from the samples that ended in it, or the latest ``MIN_SAMPLES`` up
        to ``end`` when there are fewer.  1 when nothing was sampled."""
        window = [s for s in self.samples if start <= s[0] <= end]
        if len(window) < MIN_SAMPLES:
            window = [s for s in self.samples if s[0] <= end][-MIN_SAMPLES:]
        if not window:
            return 1.0, 1.0
        wall = sum(w for _, w, _ in window) / len(window)
        cpu = sum(c for _, _, c in window) / len(window)
        return NOMINAL_S / wall, NOMINAL_S / cpu if cpu > 0 else 1.0

    def measure(self, start: float, end: float, cpu: float) -> dict:
        """An item's times: ``s`` and ``cpu`` at the reference speed,
        ``raw_s`` as measured; the snippet's own time is out of all three.
        Without sampling, ``s`` and ``cpu`` are raw."""
        spent_wall, spent_cpu = self.spent(start, end)
        wall, cpu = end - start - spent_wall, cpu - spent_cpu
        wall_scale, cpu_scale = self.scale(start, end) if self.running else (1.0, 1.0)
        return {"s": wall * wall_scale, "cpu": cpu * cpu_scale, "raw_s": wall}
