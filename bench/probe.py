"""Host-speed probe: a fixed piece of pure-Python work, timed next to the
benchmark's items, that takes no library code.

On a shared 2-vCPU virtual machine the same Python loop runs at speeds up to
2x apart for stretches of seconds, as other tenants come and go; the spread
of 20-60 s window means is about 15%, whatever the window.  Library changes
cannot be told apart from that, so every timing the benchmark reports is
converted to *reference seconds*: the wall seconds measured, times
``REFERENCE_S`` divided by the probe's time measured around them.  A library
change moves reference seconds exactly as it moves wall seconds; a change
of host speed moves the probe too and cancels out.  The probe builds small
frozensets, sorts them and fills a dict, which is the kind of work the
library does per coalition, so it slows down in step with it.  The raw wall
times are kept in every report.

Run as a script, it times ``import vcgame`` in a fresh interpreter between
two probes and prints both; ``run.py`` uses that for ``setup_s``.  It imports
nothing before ``vcgame`` that ``vcgame`` might import itself.
"""

import gc
from time import perf_counter

# the probe's time, in seconds, at the reference speed (about its median on
# the machine described above)
REFERENCE_S = 1.5e-3


def _work() -> int:
    table = {}
    for i in range(1200):
        key = frozenset((i % 13, i % 7, i % 5))
        table[key] = table.get(key, 0) + len(sorted(key))
    return len(table)


def probe() -> float:
    """Median wall time of three runs of the fixed work, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = perf_counter()
            _work()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[1]


class SpeedTrace:
    """Probe readings taken between a phase's items, at most every
    ``interval`` seconds, and the factor that turns each item's wall time
    into reference seconds."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.marks: list[tuple[int, float]] = []  # (items done before it, probe time)
        self._last = float("-inf")

    def before(self, done: int) -> None:
        """Called before each item; ``done`` items of the phase have run."""
        if perf_counter() - self._last >= self.interval:
            self.marks.append((done, probe()))
            self._last = perf_counter()

    def close(self, done: int) -> None:
        self.marks.append((done, probe()))

    def factors(self, count: int) -> list[float]:
        """Per item: REFERENCE_S over the mean of the readings just before
        and just after it."""
        out = []
        k = 0
        for index in range(count):
            while k + 1 < len(self.marks) and self.marks[k + 1][0] <= index:
                k += 1
            after = self.marks[min(k + 1, len(self.marks) - 1)][1]
            out.append(REFERENCE_S / ((self.marks[k][1] + after) / 2))
        return out


def main() -> None:
    before = probe()
    start = perf_counter()
    import vcgame  # noqa: F401
    import_s = perf_counter() - start
    after = probe()
    print(import_s, (before + after) / 2)


if __name__ == "__main__":
    main()
