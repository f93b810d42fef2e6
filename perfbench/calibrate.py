"""Processor-speed calibration: every time the benchmark reports is
rescaled to a fixed reference speed.

The host this benchmark was built on drifts: a fixed pure-Python task
runs 15-40% slower or faster for seconds to minutes at a time, and every
wall-clock figure of a run moves in step with it, set-up included.
Longer runs average over the short swings but not over the long ones,
so two sets of runs of the same code disagreed by more than any useful
bound.

A calibration burst is a fixed reference task run between operations:
the independent oracle's obstructed-distance search from a fixed point
of the fixed 2,000-obstacle city (``oracle.distances_within``), whatever
scene the workload runs on.  It is the same kind
of work as the program's (rectangle scans, exact segment tests, heap
Dijkstra over tuples and dicts, in pure Python) and shares no code with
it, so a change to the program never moves it.  Each timed interval is
multiplied by ``REFERENCE_S / b``, where ``b`` is the mean of the bursts
that bracket it: a time is reported as it would read on a processor on
which one burst takes ``REFERENCE_S``.
"""

from __future__ import annotations

import statistics
import time

import oracle
from repro.datasets.synthetic import query_points, street_grid_obstacles

#: Seconds one burst takes at the reference speed (about its median on
#: the 2-core host the benchmark was tuned on, so reported times read
#: close to that host's wall clock).
REFERENCE_S = 0.010
#: Oracle calls per burst; the burst is their median, so an interrupt
#: during one call does not skew it.
CALLS = 3
#: Radius of the oracle search, in universe units (the street grid's
#: universe is 10,000 wide).  On the 2,000-obstacle city a burst scans
#: every rectangle once and runs Dijkstra over the corners of the 28
#: that meet the disk.
RADIUS = 600.0
#: Seed of the burst's fixed points (independent of ``--seed``).
POINT_SEED = 99
#: Obstacles of the burst's street grid, and its seed (the benchmark
#: city's).
OBSTACLES = 2000
CITY_SEED = 2004


class Calibrator:
    """Times bursts on one fixed scene and rescales measured intervals."""

    def __init__(self) -> None:
        obstacles = street_grid_obstacles(OBSTACLES, seed=CITY_SEED)
        a, *targets = query_points(3, obstacles, seed=POINT_SEED)
        self._source = (a.x, a.y)
        self._targets = [(p.x, p.y) for p in targets]
        self._rects = [(o.mbr.minx, o.mbr.miny, o.mbr.maxx, o.mbr.maxy) for o in obstacles]
        self.bursts: list[float] = []

    def burst(self) -> float:
        """Run one burst; record and return its duration in seconds."""
        times = []
        for __ in range(CALLS):
            t0 = time.perf_counter()
            oracle.distances_within(self._source, self._targets, self._rects, RADIUS)
            times.append(time.perf_counter() - t0)
        b = statistics.median(times)
        self.bursts.append(b)
        return b

    @staticmethod
    def factor(before: float, after: float) -> float:
        """The rescaling of an interval between bursts ``before`` and ``after``."""
        return REFERENCE_S / (0.5 * (before + after))

    def timed(self, fn, *args):
        """Call ``fn(*args)`` between two bursts; returns (result,
        measured seconds, rescaling factor)."""
        before = self.burst()
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
        return result, elapsed, self.factor(before, self.burst())
