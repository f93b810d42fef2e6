"""stream-warm: the read-only traffic profiles (uniform, zipf-hotspot,
commuter, flash-crowd) at |O| = |P|, each against its own long-lived
database under the adaptive cache policy.

Events come from the program's profile generators
(``repro.workloads.profiles.PROFILES``), one segment of ``SEGMENT``
events per profile per round, every segment drawn from the seed's
random stream over the one shared scene: a zipf segment brings new
hotspots, a commuter segment new clients, a flash-crowd segment a new
crowd.  ``uniform`` is the no-locality case.
"""

from __future__ import annotations

import random
import sys

from repro import ObstacleDatabase
from repro.datasets.synthetic import DEFAULT_UNIVERSE
from repro.workloads.profiles import PROFILES

import common
from calibrate import Calibrator
from checks import Checker

PROFILE_NAMES = ("uniform", "zipf-hotspot", "commuter", "flash-crowd")
#: Events per profile per round.  Each segment draws its own anchors
#: (hotspots, clients, a crowd), and where they lie decides most of the
#: cost: 160-event segments moved the ONN median by 10-20% from seed to
#: seed; 80-event ones give a run twice the anchors.
SEGMENT = 80
#: Answers per profile and kind the oracle re-derives (first round).
ORACLE_SAMPLES = 3


def run(seed: int, seconds: float, tracer, n_obstacles: int, scratch: str) -> dict:
    obstacles, rects = common.street_scene(n_obstacles)
    calibrator = Calibrator()
    P = common.entities(n_obstacles, obstacles, seed * 10_007 + 1)

    def build():
        dbs = {}
        for name in PROFILE_NAMES:
            db = ObstacleDatabase(obstacles, cache_policy="adaptive", **common.db_kwargs())
            db.add_entity_set("P", P)
            dbs[name] = db
        return dbs, lambda: [db.close() for db in dbs.values()]

    setup_s, dbs = common.median_setup(build, calibrator)
    rngs = {name: random.Random(f"{seed}:{name}") for name in PROFILE_NAMES}

    def segment(name):
        builder, __ = PROFILES[name]
        return builder(rngs[name], obstacles, P, SEGMENT, DEFAULT_UNIVERSE)

    check = Checker()
    pairs: list = []
    budgets = {
        name: dict.fromkeys(("or", "onn", "dist"), ORACLE_SAMPLES)
        for name in PROFILE_NAMES
    }
    for db in dbs.values():
        db.reset_stats()
    busy = dict.fromkeys(PROFILE_NAMES, 0.0)
    counts = dict.fromkeys(PROFILE_NAMES, 0)
    loop = common.Loop(seconds, calibrator, tracer)
    while not loop.due:
        for name in PROFILE_NAMES:
            events = segment(name)
            before = loop.busy
            for ev in events:
                common.answer_event(
                    loop, check, dbs[name], ev, P, budgets[name], rects, pairs, param=name
                )
            busy[name] += loop.busy - before
            counts[name] += len(events)
    for name in PROFILE_NAMES:
        stats = dbs[name].runtime_stats()
        lookups = stats["graph_cache_hits"] + stats["graph_cache_misses"]
        print(
            f"{name}: {counts[name]} events, {1000 * busy[name] / counts[name]:.2f} ms/event, "
            f"cache hit rate {stats['graph_cache_hits'] / max(lookups, 1):.2f}, "
            f"{stats['graph_builds']} graph builds",
            file=sys.stderr,
        )
    loop.finish()
    metrics = common.base_metrics(loop, setup_s)
    layers = common.db_layer_metrics(list(dbs.values()), loop.attempted)
    for db, a, b, d in pairs:
        check.symmetric(a, b, d, db.obstructed_distance(b, a))
    for db in dbs.values():
        db.close()
    return {
        "check": check,
        "loop": loop,
        "metrics": metrics,
        "layers": layers,
        "mutations": 0,
    }
