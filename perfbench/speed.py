"""Machine speed, measured with a fixed probe, to take host drift out of timings.

On a shared host the speed a process gets drifts by tens of percent over
minutes as neighbours come and go, and a whole 30-second run can fall in
a slow spell: medians within a run cannot remove that.  So the benchmark
times a fixed probe before the first timed repeat and after each one, and
reports every time at the reference speed::

    reported = measured * REFERENCE_PROBE_S / mean(probe before, probe after)

Slow spells last seconds to minutes, so the probes on either side of a
repeat see the speed the repeat ran at; the medians over the repeats
then pass over the odd probe that hit a short burst.

The probe calls nothing from ``repro``, so a change to the program cannot
move it: it mixes interpreter work (dict traffic), many small numpy calls
and a gather/scatter over a few MB, like the campaign does.  It runs with
the campaign's parallelism: in the measuring process for a serial
campaign, and on one process per worker at once for a parallel one,
which a spell on either core slows.  The raw times and the probe
readings are printed next to the result.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import statistics
import time

import numpy as np

#: The probe's duration on the reference host (2 vCPUs, quiet); reported
#: times are measured times rescaled to that speed.
REFERENCE_PROBE_S = 0.3
#: The probe repeats this unit of work.
ROUNDS = 8


class Probe:
    """A fixed piece of work whose duration tracks the machine's speed."""

    def __init__(self, seed: int = 20221):
        rng = np.random.default_rng(seed)
        self._small = rng.random(256)
        self._small_index = rng.integers(0, 256, 64)
        self._values = rng.random(1 << 19)
        self._bins = rng.integers(0, 1 << 16, 1 << 19)
        self._order = rng.permutation(1 << 19)

    def seconds(self) -> float:
        """Time one probe: :data:`ROUNDS` rounds of the same fixed work.

        The reading is the median round times the number of rounds, so a
        burst that hits one round of the probe, but only a sliver of the
        repeat next to it, does not rescale the whole repeat.
        """
        rounds = []
        for _ in range(ROUNDS):
            start = time.perf_counter()
            self._round()
            rounds.append(time.perf_counter() - start)
        return statistics.median(rounds) * ROUNDS

    def _round(self) -> float:
        table = {}
        for i in range(40_000):
            key = (i * 2654435761) & 4095
            table[key] = table.get(key, 0) + i
        total = 0.0
        for _ in range(3_000):
            total += self._small[self._small_index].sum()
        for _ in range(6):
            total += np.bincount(
                self._bins, weights=self._values[self._order], minlength=1 << 16
            ).sum()
        return total


def _serve(connection, seed: int) -> None:
    """A probe process: time one probe per request until told to stop."""
    probe = Probe(seed)
    probe.seconds()  # first touch of the arrays
    while connection.recv():
        connection.send(probe.seconds())


class ParallelProbe:
    """The probe on ``workers`` processes at once.

    A reading is the harmonic mean of the processes' times: the time the
    processes would take to share the probes' work between them, as the
    queue's workers share the campaign's jobs.
    """

    def __init__(self, workers: int, seed: int = 20221):
        context = multiprocessing.get_context("spawn")
        self._connections, self._processes = [], []
        for _ in range(workers):
            ours, theirs = context.Pipe()
            process = context.Process(target=_serve, args=(theirs, seed), daemon=True)
            process.start()
            theirs.close()
            self._connections.append(ours)
            self._processes.append(process)

    def seconds(self) -> float:
        for connection in self._connections:
            connection.send(True)
        return statistics.harmonic_mean([c.recv() for c in self._connections])

    def close(self) -> None:
        for connection in self._connections:
            with contextlib.suppress(OSError):
                connection.send(False)
            connection.close()
        for process in self._processes:
            process.join(timeout=10)
            if process.is_alive():
                process.kill()
                process.join()


@contextlib.contextmanager
def probe(workers: int):
    """A probe with the parallelism of a campaign of ``workers`` workers."""
    if workers == 1:
        yield Probe()
        return
    parallel = ParallelProbe(workers)
    try:
        yield parallel
    finally:
        parallel.close()


def scale(before: float, after: float) -> float:
    """The factor that takes a time measured between two probe readings
    to the reference speed."""
    return REFERENCE_PROBE_S / ((before + after) / 2)
