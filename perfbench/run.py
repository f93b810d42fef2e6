"""Run one benchmark workload; print its metrics as one JSON line.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0

Run from the repository root: the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` wraps each layer's entry points and prints the per-layer
metrics instead, writing every span to
``.bench_build/perfbench/trace-<workload>.tsv``.  ``--self-check`` runs
every workload at toy size, in its own process, and validates the
printed metric names against ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

#: Workload name -> module.
WORKLOADS = {
    "paper-cold": "paper_cold",
    "stream-warm": "stream_warm",
    "churn-durable": "churn_durable",
}

#: The paper's regime scaled to this many obstacles.
OBSTACLES = 2000


def run_workload(name: str, seed: int, seconds: float, trace: bool, n_obstacles: int) -> dict:
    import importlib

    import common
    import tracing
    from metrics import END_TO_END, PER_LAYER

    module = importlib.import_module(WORKLOADS[name])
    tracer = tracing.Tracer() if trace else None
    with common.scratch_dir() as scratch:
        result = module.run(
            seed=seed, seconds=seconds, tracer=tracer,
            n_obstacles=n_obstacles, scratch=scratch,
        )
    loop, check = result["loop"], result["check"]
    if trace:
        tracer.uninstall()
        values = dict.fromkeys((m[0] for m in PER_LAYER), 0.0)
        values.update(tracing.layer_metrics(
            tracer, loop.attempted, result["mutations"], loop.scale
        ))
        values.update(result["layers"])
        values["trace.ops_per_s"] = result["metrics"]["ops_per_s"]
        units = {m[0]: m[1] for m in PER_LAYER}
        out = os.path.join(os.getcwd(), ".bench_build", "perfbench", f"trace-{name}.tsv")
        tracer.write(out)
    else:
        values = result["metrics"]
        units = {m[0]: m[1] for m in END_TO_END}
    unknown = set(values) - set(units)
    missing = set(units) - set(values)
    if unknown or missing:
        raise SystemExit(f"metric names out of step: unknown {unknown}, missing {missing}")
    print(
        f"calibration: {len(loop.calibrator.bursts)} bursts, median "
        f"{1000 * statistics.median(loop.calibrator.bursts):.2f} ms; operation time "
        f"{loop.busy:.2f} s measured, {loop.scaled_busy:.2f} s rescaled",
        file=sys.stderr,
    )
    for message in check.failures:
        print(f"check failed: {message}", file=sys.stderr)
    return {
        "correct": check.ok,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            key: {"value": float(values[key]), "unit": units[key]} for key in units
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--obstacles", type=int, default=OBSTACLES,
                        help="scene size (the self-check uses a toy scene)")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        import selfcheck

        return selfcheck.main(__file__)
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        # Measure this checkout's program, never an installed copy.
        print(f"run.py: no program sources at {SRC}", file=sys.stderr)
        return 2
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.obstacles
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
