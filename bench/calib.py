"""Calibration work, timed next to every measured operation.

This machine is shared and its speed drifts by tens of percent within a
minute and between minutes, for CPU time as much as for wall time.  So the
benchmark times a fixed piece of work that is not semdef's next to each
operation, and reports the operation's time as a multiple of it, scaled to
the calibration's reference time below ("reference seconds").  A change to
semdef moves the operation and not the calibration; a change of the
machine's speed moves both.

The calibration is the benchmark's own pure-Python code, of the same make
as the workloads: one unit exhausts the reference search of `reference.py`
on C_3 + 3K_1 with 2 fillers and builds, checks and round-trips through
JSON the edge list of C_201 + 10K_1 with `check.py`.

    python3 bench/calib.py N    # a cold process: the imports semdef makes, then N units
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

from check import consecutive_sums_error, family_edges
from reference import find_labeling

HERE = Path(__file__).resolve().parent

# Reference times, medians measured in benchmark runs on the machine the
# benchmark was defined on (2 vCPUs of a shared host, CPython 3.11.7): n
# units in process, and a cold `calib.py n` process, for each n used.
IN_PROCESS_S = {1: 0.0118, 4: 0.0445}
COLD_S = {2: 0.135, 20: 0.345}

_SEARCH = family_edges("cycle-join", 3, 3)
_SEARCH_TOTAL = _SEARCH[0] + 2


def unit() -> None:
    """One unit of calibration work, about 12 ms on the reference machine."""
    if find_labeling(*_SEARCH, _SEARCH_TOTAL) is not None:
        raise RuntimeError("calibration search found a labeling; it must exhaust")
    p, edges = family_edges("cycle-join", 201, 10)
    labels = list(range(1, p + 1))
    consecutive_sums_error(p, edges, labels, p)
    data = json.loads(json.dumps({"p": p, "edges": edges, "labels": labels}))
    if len(data["edges"]) != len(edges):
        raise RuntimeError("calibration JSON round trip lost edges")


def cpu_now() -> float:
    """CPU seconds of this process plus its waited-for children."""
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + c.ru_utime + c.ru_stime


class InProcess:
    """n units in this process; reference time IN_PROCESS_S[n]."""

    def __init__(self, n: int):
        self.n = n
        self.reference_s = IN_PROCESS_S[n]

    def run(self) -> tuple[float, float]:
        c0, t0 = cpu_now(), time.perf_counter()
        for _ in range(self.n):
            unit()
        return time.perf_counter() - t0, cpu_now() - c0


class Cold:
    """A cold `calib.py n` process; reference time COLD_S[n]."""

    def __init__(self, n: int, env: dict, cwd: Path):
        self.cmd = [sys.executable, str(HERE / "calib.py"), str(n)]
        self.reference_s = COLD_S[n]
        self.env, self.cwd = env, cwd

    def run(self) -> tuple[float, float]:
        c0, t0 = cpu_now(), time.perf_counter()
        subprocess.run(self.cmd, cwd=self.cwd, env=self.env, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=True)
        return time.perf_counter() - t0, cpu_now() - c0


if __name__ == "__main__":
    # the standard-library modules semdef's CLI imports, so a cold process
    # loads about as much as semdef's start does
    import argparse  # noqa: F401
    import dataclasses  # noqa: F401
    import datetime  # noqa: F401
    import multiprocessing  # noqa: F401

    for _ in range(int(sys.argv[1])):
        unit()
