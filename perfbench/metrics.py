"""The benchmark's metric names, units and directions.

``BENCHMARK.json`` at the repository root must list exactly these; the
self-check (``run.py --self-check``) verifies it.
"""

#: (name, unit, better, bound) of the end-to-end metrics: every
#: workload reports all of them from an untraced run.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("or_ms_p50", "ms", "lower", 0.25),
    ("onn_ms_p50", "ms", "lower", 0.25),
    ("dist_ms_p50", "ms", "lower", 0.25),
    ("query_ms_p90", "ms", "lower", 0.25),
)

#: (name, unit, better) of the per-layer metrics of a traced run.  A
#: layer a workload does not reach reports 0.
PER_LAYER = (
    ("index.obstacle_pages_per_op", "count", "lower"),
    ("index.entity_pages_per_op", "count", "lower"),
    ("index.retrieve_ms", "ms", "lower"),
    ("index.obstacles_per_retrieve", "count", "lower"),
    ("visibility.builds_per_op", "count", "lower"),
    ("visibility.build_ms", "ms", "lower"),
    ("visibility.kernel_sweeps_per_op", "count", "lower"),
    ("visibility.kernel_sweep_ms", "ms", "lower"),
    ("visibility.expand_ms", "ms", "lower"),
    ("visibility.anchor_sweeps_per_op", "count", "lower"),
    ("visibility.anchor_sweep_ms", "ms", "lower"),
    ("visibility.guest_ms", "ms", "lower"),
    ("visibility.path_ms", "ms", "lower"),
    ("visibility.repair_ms", "ms", "lower"),
    ("csr.freezes_per_op", "count", "lower"),
    ("csr.freeze_ms", "ms", "lower"),
    ("csr.dijkstra_ms", "ms", "lower"),
    ("csr.settled_per_op", "count", "lower"),
    ("csr.anchor_memo_hit_rate", "ratio", "higher"),
    ("runtime.cache_hit_rate", "ratio", "higher"),
    ("runtime.graph_builds_per_op", "count", "lower"),
    ("runtime.promotions_per_op", "count", "lower"),
    ("runtime.repairs_per_op", "count", "lower"),
    ("runtime.policy_adjustments_per_op", "count", "lower"),
    ("persist.append_ms", "ms", "lower"),
    ("persist.fsyncs_per_mut", "count", "lower"),
    ("persist.fsync_ms", "ms", "lower"),
    ("persist.compact_ms", "ms", "lower"),
    ("persist.base_bytes", "bytes", "lower"),
    ("persist.write_amplification", "ratio", "lower"),
    ("persist.snapshot_load_ms", "ms", "lower"),
    ("persist.journal_replay_ms", "ms", "lower"),
    ("persist.mut_ms_p50", "ms", "lower"),
    ("persist.mut_ms_p90", "ms", "lower"),
    ("persist.recover_s", "s", "lower"),
    ("persist.durable_bytes_per_mut", "bytes", "lower"),
    ("query.join_ms_p50", "ms", "lower"),
    ("op.other_ms", "ms", "lower"),
    ("trace.ops_per_s", "1/s", "higher"),
)
