"""Shared pieces of the workloads: scene recipe, the timed operation
loop, latency summaries and the scratch directory."""

from __future__ import annotations

import contextlib
import gc
import math
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

from repro.datasets.synthetic import (
    DEFAULT_UNIVERSE,
    entities_following_obstacles,
    street_grid_obstacles,
)

from calibrate import REFERENCE_S, Calibrator

#: The paper's obstacle cardinality (LA street MBRs).
PAPER_OBSTACLES = 131_461

#: R-tree fanout of every benchmark database (as in ``benchmarks/common.py``:
#: 64 keeps a multi-level tree at |O| = 2000).
PAGE_ENTRIES = 64

#: How many times set-up is repeated; ``setup_s`` is the median.
SETUP_REPEATS = 11

#: Operation time between two calibration bursts of a loop (a burst
#: takes 15-40 ms).
CALIBRATE_EVERY_S = 0.5


def db_kwargs() -> dict:
    return {"max_entries": PAGE_ENTRIES, "min_entries": int(PAGE_ENTRIES * 0.4)}


def scaled_range(fraction: float, n_obstacles: int) -> float:
    """An OR radius given as a fraction of the universe side, grown by
    sqrt(131461 / |O|) so each query disk holds as many obstacles and
    entities as in the paper."""
    return fraction * DEFAULT_UNIVERSE.width * math.sqrt(PAPER_OBSTACLES / n_obstacles)


def scaled_join_range(fraction: float, n_obstacles: int) -> float:
    """A join distance grown linearly by 131461 / |O|: both joined sets
    shrink by that factor, and the paper's result sizes need e to grow
    by the same."""
    return fraction * DEFAULT_UNIVERSE.width * PAPER_OBSTACLES / n_obstacles


#: The street grid is one fixed city, as the paper's experiments use one
#: real dataset (LA streets); ``--seed`` draws the entity sets, query
#: locations and event streams over it.
CITY_SEED = 2004


def street_scene(n_obstacles: int):
    """The city's street-grid obstacles, as program records and as
    ``(minx, miny, maxx, maxy)`` tuples for the oracle.

    The generator documents its streets as disjoint, yet a few overlap
    (5 pairs at |O| = 2000), and through an overlap the engine returns
    paths that cross an obstacle's interior.  Every obstacle overlapping
    an earlier one is left out, so the scene keeps the generator's
    documented contract and the oracle checks hold on every seed.
    """
    obstacles = street_grid_obstacles(n_obstacles, seed=CITY_SEED)
    boxes = [o.mbr for o in obstacles]
    order = sorted(range(len(boxes)), key=lambda i: boxes[i].minx)
    dropped: set[int] = set()
    for at, i in enumerate(order):
        a = boxes[i]
        for j in order[at + 1:]:
            b = boxes[j]
            if b.minx >= a.maxx:
                break
            if i in dropped or j in dropped:
                continue
            if a.miny < b.maxy and b.miny < a.maxy:
                dropped.add(max(i, j))
    kept = [o for i, o in enumerate(obstacles) if i not in dropped]
    rects = [(o.mbr.minx, o.mbr.miny, o.mbr.maxx, o.mbr.maxy) for o in kept]
    return kept, rects


def entities(n: int, obstacles, seed: int):
    """Entities hugging obstacle boundaries, as in the paper's setup."""
    return entities_following_obstacles(
        n, obstacles, seed=seed, on_boundary_fraction=0.5, offset_fraction=0.15
    )


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_setup(build, calibrator, repeats: int = SETUP_REPEATS):
    """Run ``build()`` ``repeats`` times between calibration bursts;
    returns (median rescaled seconds, the last result).  Earlier results
    are released through ``dispose`` when the builder returns a pair
    ``(result, dispose)``."""
    raw = []
    bursts = []
    result = None
    for __ in range(repeats):
        if result is not None:
            result[1]()
        gc.collect()
        bursts.append(calibrator.burst())
        t0 = time.perf_counter()
        result = build()
        raw.append(time.perf_counter() - t0)
    bursts.append(calibrator.burst())
    times = [
        t * calibrator.factor(before, after)
        for t, before, after in zip(raw, bursts, bursts[1:])
    ]
    return statistics.median(times), result[0]


def p50(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


@dataclass
class Loop:
    """The closed-loop operation timer of one run.

    Every operation goes through :meth:`call`, which times exactly the
    program call.  The loop is *due* once the summed operation time
    reaches ``seconds``; callers finish the round they are in, so every
    run attempts whole rounds, and then call :meth:`finish`.  Operation
    time counts at the reference speed of the latest calibration burst,
    so how many rounds a run makes does not depend on how fast the host
    happens to run.

    Between operations, after every ``CALIBRATE_EVERY_S`` of operation
    time, the loop runs a calibration burst; :meth:`finish` rescales
    each operation's time by the bursts that bracket it (see
    ``calibrate.py``), and every figure the loop reports is rescaled.
    """

    seconds: float
    calibrator: Calibrator
    tracer: object = None
    #: (kind, param) -> rescaled latencies in ms, filled by :meth:`finish`.
    latencies: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Measured operation time, s.
    busy: float = 0.0
    #: Rescaled operation time, s, set by :meth:`finish`.
    scaled_busy: float = 0.0
    #: ``scaled_busy / busy``: the run's mean rescaling.
    scale: float = 0.0
    _ops: list = field(default_factory=list)
    _marks: list = field(default_factory=list)
    _marked_at: float = 0.0
    #: Operation time rescaled by the latest burst (what ``seconds`` is
    #: compared with).
    _running: float = 0.0

    def __post_init__(self) -> None:
        self._marks.append(self.calibrator.burst())
        # The measured window starts here: set-up is never traced.
        if self.tracer is not None:
            self.tracer.install()

    def call(self, kind: str, fn, *args, param=None, expect_error=None):
        """Time ``fn(*args)`` as one ``kind`` operation.

        ``param`` names the operation's parameter value (an OR radius, an
        ONN k) when a workload sweeps one.  With ``expect_error`` the
        operation is a deliberately invalid input: it succeeds only when
        the call raises that error type, and its result (or error) is
        returned for inspection.
        """
        if self.busy - self._marked_at >= CALIBRATE_EVERY_S:
            self._marks.append(self.calibrator.burst())
            self._marked_at = self.busy
        tracer = self.tracer
        span = tracer.open("op." + kind) if tracer is not None else -1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a bad-input op may raise anything
            if expect_error is None:
                raise
            result = exc
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
        self.busy += elapsed
        self._running += elapsed * REFERENCE_S / self._marks[-1]
        self.attempted += 1
        key = (kind, param)
        if expect_error is not None:
            key = None  # failed or not, a bad-input op has no latency figure
            if not isinstance(result, expect_error):
                self.failed += 1
        self._ops.append((key, elapsed, len(self._marks) - 1))
        return result

    @property
    def due(self) -> bool:
        return self._running >= self.seconds

    def finish(self) -> None:
        """Close the measured window: a last burst, then rescale."""
        self._marks.append(self.calibrator.burst())
        factors = [
            self.calibrator.factor(before, after)
            for before, after in zip(self._marks, self._marks[1:])
        ]
        for key, elapsed, epoch in self._ops:
            scaled = elapsed * factors[epoch]
            self.scaled_busy += scaled
            if key is not None:
                self.latencies.setdefault(key, []).append(scaled * 1000.0)
        self.scale = self.scaled_busy / self.busy

    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.scaled_busy

    def samples(self, *kinds) -> list[float]:
        """Every latency (ms) of operations of ``kinds``."""
        return [
            v for (kind, __), values in self.latencies.items() if kind in kinds
            for v in values
        ]

    def p50(self, kind: str) -> float:
        """The median latency (ms) of each parameter value of ``kind``,
        and the geometric mean over the values.

        A sweep mixes classes far apart (an ONN at k = 16 costs ~10x one
        at k = 1), and so do traffic profiles (a uniform stream misses
        the graph cache on nearly every query, a hotspot stream hits it),
        so the median of the mixture sits on a cliff between classes and
        jumps from run to run; each class's own median does not.  With
        one parameter value this is the plain median.
        """
        medians = [
            statistics.median(values)
            for (k, __), values in self.latencies.items() if k == kind
        ]
        return math.exp(statistics.fmean(math.log(m) for m in medians))


def base_metrics(loop: Loop, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics every workload reports (operations of kinds
    ``or``, ``onn`` and ``dist``)."""
    return {
        "setup_s": setup_s,
        "ops_per_s": loop.ops_per_s(),
        "peak_rss_mb": peak_rss_mb(),
        "or_ms_p50": loop.p50("or"),
        "onn_ms_p50": loop.p50("onn"),
        "dist_ms_p50": loop.p50("dist"),
        "query_ms_p90": p90(loop.samples("or", "onn", "dist")),
    }


@contextlib.contextmanager
def scratch_dir():
    """A private directory under ``.bench_build/perfbench`` in the
    current directory, also used as the temporary-file directory (so no
    temporary file the program makes leaves the checkout); removed on exit."""
    root = os.path.join(os.getcwd(), ".bench_build", "perfbench")
    os.makedirs(root, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=root)
    saved = tempfile.tempdir
    tempfile.tempdir = path
    try:
        yield path
    finally:
        tempfile.tempdir = saved
        shutil.rmtree(path, ignore_errors=True)


def db_layer_metrics(dbs, ops: int) -> dict[str, float]:
    """Per-layer counters the program itself keeps (page misses per tree,
    runtime cache counters), summed over ``dbs`` since their last
    ``reset_stats`` and given per operation."""
    ops = max(ops, 1)
    obstacle_pages = entity_pages = 0
    runtime = {}
    for db in dbs:
        for tree, counters in db.stats().items():
            if tree.startswith("obstacles:"):
                obstacle_pages += counters["misses"]
            else:
                entity_pages += counters["misses"]
        for key, value in db.runtime_stats().items():
            if not isinstance(value, str):
                runtime[key] = runtime.get(key, 0) + value
    hits = runtime["graph_cache_hits"]
    lookups = hits + runtime["graph_cache_misses"]
    return {
        "index.obstacle_pages_per_op": obstacle_pages / ops,
        "index.entity_pages_per_op": entity_pages / ops,
        "runtime.cache_hit_rate": hits / lookups if lookups else 0.0,
        "runtime.graph_builds_per_op": runtime["graph_builds"] / ops,
        "runtime.promotions_per_op": runtime["graph_cache_promotions"] / ops,
        "runtime.repairs_per_op": runtime["graph_cache_repairs"] / ops,
        "runtime.policy_adjustments_per_op": runtime["policy_adjustments"] / ops,
    }


def answer_event(
    loop: Loop, check, db, ev, entities, budget: dict, rects, pairs: list, param=None
):
    """Answer one query event of a workload profile through the timed
    loop (as an operation of parameter ``param``) and check it; while
    ``budget`` lasts for the event's kind, the oracle re-derives the
    answer (distance samples are also kept in ``pairs`` as
    ``(db, a, b, d)`` for the symmetry check)."""
    if ev.kind == "nearest":
        result = loop.call("onn", db.nearest, "P", ev.center, ev.k, param=param)
        check.nearest(ev.center, ev.k, result, len(entities))
        if budget["onn"]:
            budget["onn"] -= 1
            check.nearest_oracle(ev.center, ev.k, result, entities, rects)
    elif ev.kind == "range":
        result = loop.call("or", db.range, "P", ev.center, ev.e, param=param)
        check.range(ev.center, ev.e, result)
        if budget["or"]:
            budget["or"] -= 1
            check.range_oracle(ev.center, ev.e, result, entities, rects)
    else:
        d = loop.call("dist", db.obstructed_distance, ev.source, ev.center, param=param)
        check.distance(ev.source, ev.center, d)
        if budget["dist"]:
            budget["dist"] -= 1
            check.distance_oracle(ev.source, ev.center, d, rects)
            pairs.append((db, ev.source, ev.center, d))
