"""Print each layer's share of self time from a traced run's span file.

    python3 perfbench/attribution.py .bench_build/perfbench/trace-paper-cold.tsv [op.or op.onn]

Optional arguments restrict the split to operations of those kinds
(root span names).  Spans outside timed operations are left out.
"""

from __future__ import annotations

import sys
from collections import defaultdict

from tracing import Tracer


def split(path: str, roots: set[str] | None = None) -> dict[str, float]:
    """Self seconds per span name over the operations under ``roots``."""
    tracer = Tracer()
    with open(path) as fh:
        for line in fh:
            name, start, end, parent = line.rstrip("\n").split("\t")
            tracer.spans.append([name, float(start), float(end), int(parent)])
    out: dict[str, float] = defaultdict(float)
    for (name, root), (seconds, __) in tracer.self_times().items():
        if root.startswith("op.") and (not roots or root in roots):
            out["op (other)" if name.startswith("op.") else name] += seconds
    return dict(out)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    shares = split(argv[0], set(argv[1:]) or None)
    total = sum(shares.values())
    print(f"{'layer':28s} {'self s':>9s} {'share':>7s}")
    for name, seconds in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"{name:28s} {seconds:9.3f} {100 * seconds / total:6.1f}%")
    print(f"{'total':28s} {total:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
