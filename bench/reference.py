"""Fixed reference work, timed next to the program's ops to track machine speed.

The benchmark runs on shared virtual machines whose speed drifts by up to
1.7x within seconds and for minutes at a time; CPU time drifts with wall
time, so the slowdown is not stolen time that a CPU clock could leave out.
A run therefore times a fixed piece of reference work between its ops, and
reports every end-to-end time scaled to the speed at which the reference
takes its nominal time:

    reported = measured * NOMINAL / (reference time measured around the op)

The reference never touches `gha`, so a change to the program moves the
reported times exactly as it moves the measured ones; only the machine's
drift cancels.  Two references exist, one per kind of op:

- `inprocess`: pure-Python polynomial arithmetic on dicts, the shape of the
  library's ladder algebra, and a small dense `eigvalsh`, the shape of its
  oracle; for in-process ops.
- `process`: a fresh interpreter that imports numpy; for ops and set-up
  that spawn an interpreter and import `gha`.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

# nominal durations: roughly the fast-state times on the 2-core machine the
# benchmark was defined on; they only fix the scale of the reported times
INPROCESS_NOMINAL_S = 0.004
PROCESS_NOMINAL_S = 0.2
# reference work per call of `inprocess`
_ROUNDS = 15
_POWER = 8
_MATRIX = np.cos(np.add.outer(np.arange(48.0), 0.37 * np.arange(48.0) ** 1.5))
_MATRIX = _MATRIX + _MATRIX.T


def _multiply(a, b):
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0.0) + x * y
    return out


def _kernel():
    base = {(0, 0): 0.3, (1, 0): 0.7, (0, 1): 0.7}
    poly = {(0, 0): 1.0}
    for _ in range(_POWER):
        poly = _multiply(poly, base)
    total = 0.0
    for (i, j), c in poly.items():
        total += c * math.sqrt(1.0 + i) / (1.0 + j)
    return total + float(np.linalg.eigvalsh(_MATRIX)[0])


def inprocess():
    """Seconds taken by the in-process reference work."""
    t0 = time.perf_counter()
    for _ in range(_ROUNDS):
        _kernel()
    return time.perf_counter() - t0


def process(cwd, env):
    """Seconds taken by a fresh interpreter that imports numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, env=env,
                   check=True, timeout=60)
    return time.perf_counter() - t0


class Scale:
    """Reference timings taken between ops, and the factor for each op.

    `mark()` times the reference; ops timed after one mark and before the
    next are scaled by NOMINAL over the mean of those two reference times.
    A mark is taken once the ops since the last one have run for `every`
    seconds, which keeps the reference at about a fifth of the run.
    """

    def __init__(self, kind, cwd=None, env=None):
        if kind == "process":
            self._time = lambda: process(cwd, env)
            self.nominal = PROCESS_NOMINAL_S
        else:
            self._time = inprocess
            self.nominal = INPROCESS_NOMINAL_S
            _kernel()  # the first LAPACK call sets up, outside any mark
        self.every = 4.0 * self.nominal
        self.times = []

    def mark(self):
        self.times.append(self._time())
        return self.times[-1]

    def factor(self, before, after):
        return self.nominal / (0.5 * (before + after))
