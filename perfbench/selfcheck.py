"""Fast self-check: every workload at toy size, each in its own process,
traced and untraced; the printed metric names must match
``BENCHMARK.json`` and every run must report correct answers.

    python3 perfbench/run.py --self-check
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from metrics import END_TO_END, PER_LAYER

TOY_OBSTACLES = 200
TOY_SECONDS = 1


def main(run_py: str) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(run_py)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    declared = {
        "end_to_end": [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
    }
    if declared["end_to_end"] != list(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    if declared["per_layer"] != list(PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            command = [
                sys.executable, run_py, "--workload", workload, "--seed", "1",
                "--seconds", str(TOY_SECONDS), "--trace", str(trace),
                "--obstacles", str(TOY_OBSTACLES),
            ]
            proc = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            names = [m[0] for m in declared[section]]
            if list(result["metrics"]) != names:
                problems.append(f"{label}: printed metrics {list(result['metrics'])}")
            if not result["correct"]:
                problems.append(f"{label}: answers failed their checks: {proc.stderr[-2000:]}")
            if result["attempted"] < 1:
                problems.append(f"{label}: attempted nothing")
            print(f"{label}: ok, {result['attempted']} attempted, {result['failed']} failed")
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    return 1 if problems else 0
