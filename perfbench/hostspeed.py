"""Host-speed yardsticks, by which the benchmark scales its times.

The speed of a shared host swings by up to 2x within seconds and between
minutes, so raw times measure the neighbours as much as qgha.  The timed loop
therefore samples a fixed reference workload after every batch of ops (a
batch ends once `batch_s` of op time has passed) and divides each op's time
by its batch's host factor: the mean of the `window`
reference samples nearest the batch on either side, over the reference's
nominal time.  Scaled times read as on a host where the reference takes its
nominal time.  The references use the stdlib only and never import qgha, so a
change to qgha moves the scaled times exactly as it moves the raw ones.

There are two references.  CHUNK, a Fraction polynomial product run in
process, scales ops that run in process.  CHILD, a fresh interpreter that runs
CHILD_CHUNKS chunks, scales ops and set-ups that start a process: the warm
in-process chunk does not track the cost of spawning, importing and faulting
in a new process.

Run as a script, this file is the CHILD reference:

    python3 perfbench/hostspeed.py
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

_LEFT = [Fraction(i + 1, i % 5 + 2) for i in range(24)]
_RIGHT = [Fraction(2 * i - 7, i % 3 + 1) for i in range(24)]
_SUM = Fraction(57848, 3)
CHILD_CHUNKS = 5


def chunk_seconds() -> float:
    """Seconds taken by two schoolbook products of the same pair of 24-term
    Fraction polynomials: the kind of work qgha's kernel does, on the stdlib."""
    start = perf_counter()
    for _ in range(2):
        out = [Fraction(0)] * 47
        for i, x in enumerate(_LEFT):
            for j, y in enumerate(_RIGHT):
                out[i + j] += x * y
        terms = {k: v for k, v in enumerate(out) if v}
    elapsed = perf_counter() - start
    if len(terms) != 47 or sum(out) != _SUM:
        raise RuntimeError("reference chunk computed a wrong product")
    return elapsed


def child_seconds() -> float:
    """Seconds from spawning this file as a script until it exits."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True)
    elapsed = perf_counter() - start
    if proc.returncode != 0 or proc.stdout != "ready\n":
        raise RuntimeError("reference child failed")
    return elapsed


class Yardstick:
    """A reference workload, its nominal time, the op time between two
    samples and the smoothing window."""

    def __init__(self, name: str, sample, nominal_s: float, batch_s: float, window: int):
        self.name = name
        self.sample = sample
        self.nominal_s = nominal_s
        self.batch_s = batch_s
        self.window = window

    def factor(self, samples: list, before: int) -> float:
        """Host factor of work done between samples[before] and the next
        sample: how many times its nominal time the reference took nearby."""
        nearby = samples[max(0, before + 1 - self.window): before + 1 + self.window]
        return statistics.fmean(nearby) / self.nominal_s


CHUNK = Yardstick("in-process chunk", chunk_seconds, nominal_s=0.005, batch_s=0.1, window=4)
CHILD = Yardstick("child process", child_seconds, nominal_s=0.1, batch_s=0.3, window=1)


if __name__ == "__main__":
    for _ in range(CHILD_CHUNKS):
        chunk_seconds()
    print("ready")
