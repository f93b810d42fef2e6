"""churn-durable: the churn-heavy profile at |O| = |P| under the adaptive
cache policy, with a write-ahead journal anchored on a base snapshot.

About a quarter of the operations insert or delete an obstacle (each
appended and fsynced to the journal before it applies).  The events are
a fixed pool of churn-heavy segments, drawn independently of ``--seed``
(the entity set, which the segments' distance sources and churn
rectangles avoid, is the seed's): one round replays every segment once,
in a seed-shuffled order, with a ``compact()`` checkpoint before every
second segment, so the snapshot encoder and the atomic base rewrite run
once per 96 events.  After the measured window the base snapshot plus
journal are reopened, and the recovered database must answer a query
set bit-identically to the live one.  Durable bytes are read from the
disk with ``os.path.getsize``, never from the program's counters.
"""

from __future__ import annotations

import os
import random

from repro import ObstacleDatabase
from repro.datasets.synthetic import DEFAULT_UNIVERSE
from repro.workloads.profiles import PROFILES

import common
from calibrate import Calibrator
from checks import Checker

#: Events per segment, and segments in the pool.  Each segment draws two
#: query anchors, and the anchor's place and the entities around it
#: decide most of its queries' cost: with fresh segments the ONN median
#: moved 16-18% from seed to seed, and so it did with a pool of 32
#: anchors (the entities around them are still the seed's).  The pool
#: holds 128 anchors; a round takes ~13 s of operation time.
SEGMENT = 48
SEGMENTS = 64
#: Segments per compaction.
COMPACT_EVERY = 2
#: Answers per kind the oracle re-derives (first round).
ORACLE_SAMPLES = 4
#: Recoveries timed at the end (``persist.recover_s`` is their median).
RECOVERIES = 3
#: Query points of the recovery parity check.
PARITY_QUERIES = 24


def _rect_tuple(rect):
    return (rect.minx, rect.miny, rect.maxx, rect.maxy)


def run(seed: int, seconds: float, tracer, n_obstacles: int, scratch: str) -> dict:
    obstacles, rects = common.street_scene(n_obstacles)
    calibrator = Calibrator()
    P = common.entities(n_obstacles, obstacles, seed * 10_007 + 1)
    builds = iter(range(common.SETUP_REPEATS))

    def build():
        where = os.path.join(scratch, f"setup-{next(builds)}")
        os.makedirs(where)
        journal = os.path.join(where, "journal.wal")
        base = os.path.join(where, "base.snap")
        db = ObstacleDatabase(
            obstacles, cache_policy="adaptive", durable=journal, **common.db_kwargs()
        )
        db.add_entity_set("P", P)
        db.save(base)
        return (db, journal, base), lambda: db.journal.close()

    setup_s, (db, journal, base) = common.median_setup(build, calibrator)
    rng = random.Random(f"{seed}:churn-heavy")
    builder, __ = PROFILES["churn-heavy"]
    segments = [
        builder(random.Random(f"churn-heavy:{i}"), obstacles, P, SEGMENT, DEFAULT_UNIVERSE)
        for i in range(SEGMENTS)
    ]

    check = Checker()
    budget = dict.fromkeys(("or", "onn", "dist"), ORACLE_SAMPLES)
    live = list(rects)
    pairs: list = []
    journal_grown = 0
    base_bytes: list[int] = []
    mutations = 0
    db.reset_stats()
    journal_start = os.path.getsize(journal)
    loop = common.Loop(seconds, calibrator, tracer)
    while not loop.due:
        rng.shuffle(segments)
        for at, events in enumerate(segments):
            if at % COMPACT_EVERY == 0:
                journal_grown += os.path.getsize(journal) - journal_start
                loop.call("compact", db.compact)
                base_bytes.append(os.path.getsize(base))
                journal_start = os.path.getsize(journal)
            inserted = {}
            for ev in events:
                if ev.kind == "insert":
                    inserted[ev.tag] = loop.call("insert", db.insert_obstacle, ev.rect)
                    live.append(_rect_tuple(ev.rect))
                    mutations += 1
                elif ev.kind == "delete":
                    record = inserted.pop(ev.tag)
                    check.expect(
                        loop.call("delete", db.delete_obstacle, record),
                        f"delete of inserted obstacle {record} found nothing",
                    )
                    live.remove(_rect_tuple(record.mbr))
                    mutations += 1
                else:
                    common.answer_event(loop, check, db, ev, P, budget, live, pairs)
    journal_grown += os.path.getsize(journal) - journal_start
    stats = db.runtime_stats()
    loop.finish()
    metrics = common.base_metrics(loop, setup_s)
    layers = common.db_layer_metrics([db], loop.attempted)
    # The disk must account for every journaled byte and every base
    # rewrite: a compaction the benchmark did not ask for, or journal
    # bytes the counters saw but the file did not, is a fault.
    check.expect(
        stats["compactions"] == len(base_bytes),
        f"{stats['compactions']} compactions ran, {len(base_bytes)} were asked for",
    )
    check.expect(
        stats["journal_bytes"] == journal_grown,
        f"journal grew {journal_grown} B on disk, counters say {stats['journal_bytes']}",
    )
    durable = journal_grown + sum(base_bytes)

    # Recovery: reopen base + journal, as a restarted process would.
    def reopen():
        return ObstacleDatabase.load(base, cache_policy="adaptive", durable=journal)

    recover_raw, recover_times = [], []
    for __ in range(RECOVERIES):
        recovered, elapsed, factor = calibrator.timed(reopen)
        recover_raw.append(elapsed)
        recover_times.append(elapsed * factor)
        recovered.journal.close()
    qrng = random.Random(f"{seed}:parity")
    free = [ev.center for ev in builder(qrng, obstacles, P, PARITY_QUERIES, DEFAULT_UNIVERSE)
            if ev.center is not None]
    e = common.scaled_range(0.001, n_obstacles)
    for q in free:
        source = min(P, key=q.distance)
        check.expect(
            recovered.nearest("P", q, 4) == db.nearest("P", q, 4)
            and recovered.range("P", q, e) == db.range("P", q, e)
            and recovered.obstructed_distance(source, q) == db.obstructed_distance(source, q),
            f"recovered database answers differently at {q}",
        )
    for __, a, b, d in pairs:
        check.symmetric(a, b, d, db.obstructed_distance(b, a))

    layers.update({
        "persist.base_bytes": sum(base_bytes) / len(base_bytes),
        "persist.write_amplification": durable / journal_grown if journal_grown else 0.0,
        "persist.mut_ms_p50": common.p50(loop.samples("insert", "delete")),
        "persist.mut_ms_p90": common.p90(loop.samples("insert", "delete")),
        "persist.recover_s": common.p50(recover_times),
        "persist.durable_bytes_per_mut": durable / mutations,
    })
    if tracer is not None:
        root = "persist.snapshot_load"
        scale = sum(recover_times) / sum(recover_raw) / RECOVERIES
        layers["persist.snapshot_load_ms"] = tracer.self_ms(root, root) * scale
        layers["persist.journal_replay_ms"] = (
            tracer.self_ms("persist.journal_replay", root) * scale
        )
    db.journal.close()
    return {
        "check": check,
        "loop": loop,
        "metrics": metrics,
        "layers": layers,
        "mutations": mutations,
    }
