"""A fixed reference loop that measures how fast the host runs right now.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds to minutes, so raw times of the same code spread wider than any
useful bound.  While a timed call into smoothlm runs, `SpeedSampler` times
one run of this loop every `PERIOD_S` (from a SIGALRM handler, which Python
runs between the call's bytecodes), and once just before and after it.  The
call's time, less the time the samples took, is rescaled by
`REFERENCE_S / median(loop times)`: "seconds at reference speed".  A change
to smoothlm moves that figure as it moves the raw time; a change of the
host's speed moves the loop with it and mostly cancels.

The loop mixes the kinds of work smoothlm does: dict updates keyed by
tuples, number formatting and parsing, and numpy arithmetic on rows of
|V|+1 = 301 floats.  Changing the loop, `REFERENCE_S` or `PERIOD_S` changes
every reported time, so the baseline must be measured again after such a
change.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# the loop's median time on an otherwise idle 2-vCPU Intel Xeon VM
REFERENCE_S = 0.0016
PERIOD_S = 0.05
_ROWS = np.linspace(0.5, 1.5, 48 * 301).reshape(48, 301)


def _loop() -> float:
    counts: dict[tuple[int, int], int] = {}
    for i in range(4500):
        key = (i % 61, i % 13)
        counts[key] = counts.get(key, 0) + 1
    text = "\n".join(f"{a}\t{b}\t{c / 3:.12g}" for (a, b), c in counts.items())
    parsed = [float(line.split("\t")[2]) for line in text.splitlines()]
    rows = _ROWS
    for _ in range(4):
        rows = rows / rows.sum(axis=1, keepdims=True) + 0.5 * np.exp(-rows)
    return sum(parsed) + float(rows[0, 0])


def loop_seconds() -> float:
    """Wall time of one run of the reference loop."""
    t = time.perf_counter()
    _loop()
    return time.perf_counter() - t


def at_reference_speed(seconds: float, loop_times: list[float]) -> float:
    """`seconds` measured while the loop took `loop_times`, rescaled to the
    speed at which it takes `REFERENCE_S`."""
    return seconds * REFERENCE_S / statistics.median(loop_times)


class SpeedSampler:
    """Samples the loop's time around and during one call; main thread only."""

    def __init__(self):
        self.edges: list[float] = []
        self.inside: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.inside.append(loop_seconds())

    def start(self) -> None:
        self.edges.append(loop_seconds())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.edges.append(loop_seconds())

    def own_seconds(self) -> float:
        """Time the samples took inside the call."""
        return sum(self.inside)

    def scale(self, seconds: float) -> float:
        """`seconds`, already net of `own_seconds()`, at reference speed."""
        return at_reference_speed(seconds, self.edges + self.inside)
