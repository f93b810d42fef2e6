"""Benchmark-side tracing: spans around the public entry points of each
layer, recorded from outside the program.

:meth:`Tracer.install` replaces each entry point listed in
:data:`TARGETS` by a wrapper that records one span (name, start, end,
parent) in memory; :meth:`Tracer.uninstall` puts the originals back.
Nothing inside ``src/`` changes.  A span's *self time* is its duration
minus the time its child spans cover, so the self times of all spans
of one operation add up to the operation's traced duration.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

#: (span name, module, attribute path) of every wrapped entry point.
TARGETS = (
    ("index.retrieve", "repro.core.source", "ObstacleIndex.obstacles_in_range"),
    ("visibility.build", "repro.visibility.graph", "VisibilityGraph.build"),
    ("visibility.build", "repro.visibility.graph", "VisibilityGraph.rebuild"),
    ("visibility.kernel_sweep", "repro.visibility.kernel.backend", "_TimedBackend.visible_from"),
    ("visibility.anchor_sweep", "repro.visibility.sweep", "visible_from"),
    ("visibility.add_obstacle", "repro.visibility.graph", "VisibilityGraph.add_obstacle"),
    ("visibility.remove_obstacle", "repro.visibility.graph", "VisibilityGraph.remove_obstacle"),
    ("visibility.guest", "repro.visibility.graph", "VisibilityGraph.add_entity"),
    ("visibility.guest", "repro.visibility.graph", "VisibilityGraph.delete_entity"),
    ("visibility.path", "repro.runtime.context", "shortest_path_dist"),
    ("visibility.path", "repro.core.distance", "shortest_path_dist"),
    ("csr.freeze", "repro.visibility.csr", "CSRGraph.freeze"),
    ("csr.dijkstra", "repro.visibility.csr", "CSRGraph.dijkstra"),
    ("csr.anchors", "repro.visibility.csr", "CSRGraph.anchors_for"),
    ("persist.append", "repro.persist.journal", "MutationJournal.append"),
    ("persist.fsync", "os", "fsync"),
    ("persist.compact", "repro.core.engine", "ObstacleDatabase.compact"),
    ("persist.snapshot_load", "repro.persist.store", "load_database"),
    ("persist.journal_replay", "repro.persist.journal", "MutationJournal.recover"),
    ("persist.journal_replay", "repro.persist.store", "apply_record"),
)


class Tracer:
    """Spans of one benchmark run, kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []
        self._pid = os.getpid()
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        # A forked worker inherits the wrappers; it must not record.
        self._pid = -1

    # ------------------------------------------------------------ spans
    def open(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    def in_op(self) -> bool:
        """True inside a timed operation (a root span named ``op.*``)."""
        stack = self._stack
        return bool(stack) and self.spans[stack[0]][0].startswith("op.")

    def self_ms(self, name: str, root: str) -> float:
        """Total self time, in ms, of ``name`` spans under ``root`` spans."""
        return 1000.0 * self.self_times().get((name, root), (0.0, 0))[0]

    def _wrap(self, name: str, fn):
        tracer = self
        counts = self.counts
        if name == "index.retrieve":
            def after(result):
                counts["index.obstacles"] += len(result)
        elif name == "csr.dijkstra":
            def after(result):
                counts["csr.settled"] += int(result[1].sum())
        elif name == "visibility.anchor_sweep":
            def after(result):
                counts["anchor_sweeps"] += 1
        else:
            after = None

        def wrapper(*args, **kwargs):
            if tracer._pid != os.getpid():
                return fn(*args, **kwargs)
            if name == "csr.anchors":
                before = counts["anchor_sweeps"]
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if tracer.in_op():
                if after is not None:
                    after(result)
                if name == "csr.anchors" and counts["anchor_sweeps"] == before:
                    counts["csr.anchor_memo_hits"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ----------------------------------------------------- installation
    def install(self) -> None:
        """Wrap every entry point of :data:`TARGETS`."""
        if self._saved:
            return
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------ aggregation
    def self_times(self) -> dict[tuple[str, str], tuple[float, int]]:
        """``(span name, root span name) -> (self seconds, calls)``."""
        spans = self.spans
        covered = [0.0] * len(spans)
        roots = [""] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                covered[parent] += end - start
                roots[i] = roots[parent]
            else:
                roots[i] = name
        out: dict[tuple[str, str], list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, parent) in enumerate(spans):
            cell = out[(name, roots[i])]
            cell[0] += (end - start) - covered[i]
            cell[1] += 1
        return {key: (s, n) for key, (s, n) in out.items()}

    def write(self, path: str) -> None:
        """Write every span as ``name start end parent`` lines."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


#: Root span names of operations that change obstacles (their
#: ``add_obstacle``/``remove_obstacle`` work is repair, not expansion).
MUTATION_ROOTS = ("op.insert", "op.delete")


def layer_metrics(tracer: Tracer, ops: int, mutations: int, scale: float) -> dict[str, float]:
    """The span-derived per-layer metrics of a traced run.

    Only spans inside timed operations count (set-up, checks and
    recovery are left out).  Every ``*_ms`` value is self time in
    milliseconds per operation, rescaled by ``scale`` (the loop's mean
    calibration factor) like the operation times.
    """
    ops = max(ops, 1)
    selfs = tracer.self_times()
    sec: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, root), (s, n) in selfs.items():
        if not root.startswith("op."):
            continue
        if name in ("visibility.add_obstacle", "visibility.remove_obstacle"):
            name = (
                "visibility.repair"
                if root in MUTATION_ROOTS or name == "visibility.remove_obstacle"
                else "visibility.expand"
            )
        elif name == "persist.fsync" and root in MUTATION_ROOTS:
            calls["persist.fsync_mut"] += n
        elif name.startswith("op."):
            name = "op.other"
        sec[name] += s
        calls[name] += n
    counts = tracer.counts

    def ms(name: str) -> float:
        return 1000.0 * sec[name] * scale / ops

    anchors = calls["csr.anchors"]
    retrieves = calls["index.retrieve"]
    return {
        "index.retrieve_ms": ms("index.retrieve"),
        "index.obstacles_per_retrieve": (
            counts["index.obstacles"] / retrieves if retrieves else 0.0
        ),
        "visibility.builds_per_op": calls["visibility.build"] / ops,
        "visibility.build_ms": ms("visibility.build"),
        "visibility.kernel_sweeps_per_op": calls["visibility.kernel_sweep"] / ops,
        "visibility.kernel_sweep_ms": ms("visibility.kernel_sweep"),
        "visibility.expand_ms": ms("visibility.expand"),
        "visibility.anchor_sweeps_per_op": calls["visibility.anchor_sweep"] / ops,
        "visibility.anchor_sweep_ms": ms("visibility.anchor_sweep"),
        "visibility.guest_ms": ms("visibility.guest"),
        "visibility.path_ms": ms("visibility.path"),
        "visibility.repair_ms": ms("visibility.repair"),
        "csr.freezes_per_op": calls["csr.freeze"] / ops,
        "csr.freeze_ms": ms("csr.freeze"),
        "csr.dijkstra_ms": ms("csr.dijkstra"),
        "csr.settled_per_op": counts["csr.settled"] / ops,
        "csr.anchor_memo_hit_rate": (
            counts["csr.anchor_memo_hits"] / anchors if anchors else 0.0
        ),
        "persist.append_ms": ms("persist.append"),
        "persist.fsyncs_per_mut": (
            calls["persist.fsync_mut"] / mutations if mutations else 0.0
        ),
        "persist.fsync_ms": ms("persist.fsync"),
        "persist.compact_ms": ms("persist.compact"),
        "op.other_ms": ms("op.other"),
    }
