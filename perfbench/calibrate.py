"""Host-speed calibration: a fixed reference task timed between operations.

The benchmark shares a few cores of a host with other machines' work, and
the speed it gets drifts by up to half over minutes.  Process CPU time drifts
with wall time, so the lost time is contention for the hardware, and no
statistic over a single run's repetitions can remove it.  A fixed task that
never changes, timed in the same minutes as the workload, slows down with
it.  ``run.py`` runs one chunk between every two timed pieces of work (set-up
probes, operations), divides each repetition's host time by the median of
the chunks run during it and multiplies by ``REFERENCE_CHUNK_S``, so the
time metrics read as seconds on a host that runs one chunk in that time.

The task runs in a child interpreter that never imports gathernoc, so no
change to the program under test can change it.  The child only works when
asked, one chunk at a time, between the workload's operations; it never
runs at the same time as the workload.

    python3 perfbench/calibrate.py          # child: one chunk per input line
"""
from __future__ import annotations

import subprocess
import sys
from collections import deque
from pathlib import Path
from statistics import median
from time import perf_counter

# Median chunk time measured on a 2-vCPU Intel Xeon host (2.1 GHz, Python
# 3.11, numpy 2.4).  Any fixed value works: it only sets the scale.
REFERENCE_CHUNK_S = 0.035

_NODES = 256
_PY_ROUNDS = 200
_NP_ROUNDS = 8


def chunk() -> float:
    """Run the reference task once; return its host seconds.

    About three fifths interpreter work shaped like a cycle loop (deques,
    tuples, small lists, dict stores), two fifths small integer numpy work:
    the two kinds of work the simulator does."""
    import numpy as np

    t0 = perf_counter()
    queues = [deque() for _ in range(_NODES)]
    nxt = [(i * 7 + 1) % _NODES for i in range(_NODES)]
    counts = [0] * _NODES
    seen = {}
    for cycle in range(_PY_ROUNDS):
        for node in range(_NODES):
            q = queues[node]
            q.append((cycle, node))
            if len(q) > 1:
                flit = q.popleft()
                queues[nxt[node]].append(flit)
                counts[node] += 1
                seen[(node, cycle & 15)] = flit
            if len(q) > 4:
                q.popleft()
    rng = np.random.default_rng(1)
    w = rng.integers(-128, 128, size=(363, 64))
    total = sum(counts)
    for _ in range(_NP_ROUNDS):
        x = rng.integers(-128, 128, size=(64, 363))
        total += int((x @ w).sum()) + int(np.cumsum(x, axis=1)[:, -1].sum())
    if total == 0 or len(seen) != _NODES * 16:
        raise RuntimeError("calibration task computed the wrong result")
    return perf_counter() - t0


class Calibrator:
    """The calibration child, used as a context manager.

    ``measure()`` runs one chunk in the child between two timed pieces of
    work and returns its index in ``chunks``.  ``scale()`` converts host
    seconds to reference seconds by the chunks run around the work."""

    def __init__(self) -> None:
        self.chunks: list[float] = []
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "Calibrator":
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self.measure()      # imports numpy and warms the child
        except BaseException:
            self.__exit__()
            raise
        self.chunks.clear()
        return self

    def __exit__(self, *exc) -> None:
        proc, self._proc = self._proc, None
        try:
            proc.stdin.close()
            proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        finally:
            proc.stdout.close()

    def measure(self) -> int:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration child exited with code {self._proc.wait()}")
        self.chunks.append(float(line))
        return len(self.chunks) - 1

    def scale(self, seconds: float, first: int, last: int) -> float:
        """Reference seconds of work done between chunks ``first`` and
        ``last``, by the median of the chunks from ``first`` to ``last``."""
        return seconds * REFERENCE_CHUNK_S / median(self.chunks[first:last + 1])


def _child() -> None:
    for _ in sys.stdin:
        print(repr(chunk()), flush=True)


if __name__ == "__main__":
    _child()
