"""The shared host's speed during a run, from fixed canary computations.

The benchmark's host runs other tenants' work.  Its speed moves in steps
that last 30-90 s and reach 2x, and it also moves from second to second.
No measurement window this benchmark can afford averages that out.  So each
run also times a canary, a fixed computation of the same kind as the
workload's own work.  A sample is taken between items, at most every
EVERY_S, and once after the last item.  Each item's time, unless it is
longer than LONG_ITEM_S, is multiplied by REFERENCE_S over the mean of the
samples just before and just after it, which gives its time at the
reference speed.  The program never runs inside a canary, so a faster
program still reads faster.

Which canary tracks the host depends on the work (measured on a shared
2-core Xeon VM, Python 3.11):

- "python" (allocation-heavy interpreter work: tuples, big ints, Fractions,
  dicts, strings) tracks exact and membership.  Scaled item by item, their
  wall_s spread (IQR / median) 0.02-0.04 over ten seeds.
- "scipy" (L-BFGS-B solves of a small Rosenbrock function) tracks census,
  whose items are max_violation's L-BFGS-B runs.  Its wall_s spread fell
  from 0.14 with one python-canary factor per run to 0.04-0.06.
- "memory" (random gathers over a 4 MiB table plus streaming sums over a
  32 MiB array) tracks orbits' n=5 table sweeps.

cli_s has its own canary, PROCESS_CANARY_ARGS, run in a fresh interpreter
before and after each timed CLI process: the python canary, taken in-process,
correlated only 0.22 with CLI times, and the fresh-process canary 0.68.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

EVERY_S = 0.1  # least time between two samples taken between items
# An item that runs this long averages the host's speed over its own run
# better than two canary snapshots around it do, so it is not scaled.  The
# only such item, orbits' generic n=6 sweep (7-12 s), spread 0.09 over ten
# runs as measured and 0.15-0.20 scaled.
LONG_ITEM_S = 3.0
# about each canary's best time on a 2-core Xeon host
REFERENCE_S = {"python": 0.009, "memory": 0.025, "scipy": 0.012, "process": 0.7}
# The fresh-process canary for cli_s: a new interpreter that loads the
# libraries bellpoly loads, but not bellpoly.  It runs before and after each
# timed CLI process, and each CLI time is divided by the mean of those two.
PROCESS_CANARY_ARGS = ["-c", "import numpy, scipy.optimize"]
_TABLE_WORDS = 1 << 19  # 4 MiB of uint64
_STREAM_WORDS = 1 << 22  # 32 MiB of float64
_ROSEN_X0 = np.array([-1.2, 1.0, -0.5, 0.8, 1.1])


def python_canary() -> float:
    start = time.perf_counter()
    for k in range(40):
        values = tuple((i * 2654435761 + k) % 1000003 - 500000 for i in range(256))
        total = sum(Fraction(v, 1 << (i % 9)) for i, v in enumerate(values[:64]))
        table = {i: v << 70 for i, v in enumerate(values)}
        text = " ".join(str(v) for v in values[:32])
        if total is None or not table or not text:
            raise AssertionError("unreachable: keeps the results live")
    return time.perf_counter() - start


class MemoryCanary:
    """Random gathers over a 4 MiB table, then streaming sums over a 32 MiB array."""

    def __init__(self) -> None:
        self._table = np.arange(_TABLE_WORDS, dtype=np.uint64)
        self._order = np.random.default_rng(0).permutation(_TABLE_WORDS).astype(np.int32)
        self._stream = np.ones(_STREAM_WORDS)

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(4):
            self._table[self._order].sum()
        for _ in range(3):
            self._stream.sum()
        return time.perf_counter() - start


class ScipyCanary:
    """Three L-BFGS-B solves of a 5-dimensional Rosenbrock function (48 iterations each)."""

    def __init__(self) -> None:
        from scipy.optimize import minimize, rosen, rosen_der

        self._solve = lambda: minimize(rosen, _ROSEN_X0, jac=rosen_der, method="L-BFGS-B",
                                       options={"gtol": 1e-12, "ftol": 0.0})

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(3):
            self._solve()
        return time.perf_counter() - start


CANARIES = {"python": lambda: python_canary, "memory": MemoryCanary, "scipy": ScipyCanary}


class Speed:
    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.canary = CANARIES[kind]()
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        self.samples.append(self.canary())
        self._last = time.perf_counter()

    def sample_now_and_then(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def factor(self) -> float:
        """The run's median speed factor, for the report."""
        return REFERENCE_S[self.kind] / statistics.median(self.samples)

    def scale(self, seconds: float, mark: int) -> float:
        """An item's time at the reference speed, from the samples `mark` and `mark + 1` around it."""
        if seconds >= LONG_ITEM_S:
            return seconds
        return seconds * REFERENCE_S[self.kind] / statistics.fmean(self.samples[mark:mark + 2])
