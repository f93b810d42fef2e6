"""An independent obstructed-distance oracle for the benchmark's checks.

It shares no code with the program's visibility layer: obstacles are
axis-aligned rectangles given as ``(minx, miny, maxx, maxy)`` tuples,
points are ``(x, y)`` tuples, visibility between two points is decided
exactly (a segment is blocked when it passes through the open interior
of a rectangle), and shortest paths come from Dijkstra over ``heapq``.

Correctness rests on one fact: a path of length at most ``r`` from a
point ``c`` never leaves the disk of radius ``r`` around ``c``, so the
obstacles meeting that disk decide every obstructed distance up to
``r``.  Edges are discovered lazily, only from nodes Dijkstra settles.
"""

from __future__ import annotations

import heapq
import math

#: Slack for "strictly inside a rectangle" against rounding in clipping.
INSIDE_EPS = 1e-9


def rect_meets_disk(rect, cx: float, cy: float, r: float) -> bool:
    x0, y0, x1, y1 = rect
    dx = max(x0 - cx, 0.0, cx - x1)
    dy = max(y0 - cy, 0.0, cy - y1)
    return dx * dx + dy * dy <= r * r


def strictly_inside(p, rect) -> bool:
    x0, y0, x1, y1 = rect
    return x0 < p[0] < x1 and y0 < p[1] < y1


def blocked(a, b, rects) -> bool:
    """True when segment ``ab`` crosses the open interior of a rectangle.

    Each rectangle clips the segment (Liang-Barsky); a clipped piece of
    positive length crosses the interior exactly when its midpoint lies
    strictly inside, because a chord of a convex set that touches the
    interior anywhere is interior everywhere between its ends.
    """
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    sx0, sx1 = (ax, bx) if ax <= bx else (bx, ax)
    sy0, sy1 = (ay, by) if ay <= by else (by, ay)
    for x0, y0, x1, y1 in rects:
        if x1 <= sx0 or x0 >= sx1 or y1 <= sy0 or y0 >= sy1:
            continue
        t0, t1 = 0.0, 1.0
        for p, q in ((-dx, ax - x0), (dx, x1 - ax), (-dy, ay - y0), (dy, y1 - ay)):
            if p == 0.0:
                if q < 0.0:
                    t0, t1 = 1.0, 0.0
                    break
            elif p < 0.0:
                t0 = max(t0, q / p)
            else:
                t1 = min(t1, q / p)
        if t1 <= t0:
            continue
        tm = 0.5 * (t0 + t1)
        mx, my = ax + tm * dx, ay + tm * dy
        if (
            x0 + INSIDE_EPS < mx < x1 - INSIDE_EPS
            and y0 + INSIDE_EPS < my < y1 - INSIDE_EPS
        ):
            return True
    return False


def distances_within(source, targets, rects, radius: float) -> list[float]:
    """Obstructed distances from ``source`` to each target.

    Exact for every target whose obstructed distance is at most
    ``radius``; any larger value is only a lower bound (``inf`` when
    the target is unreachable inside the disk).
    """
    sx, sy = source
    local = [r for r in rects if rect_meets_disk(r, sx, sy, radius)]
    nodes = [tuple(source)]
    seen = {nodes[0]}
    for t in targets:
        t = tuple(t)
        if t not in seen:
            seen.add(t)
            nodes.append(t)
    for x0, y0, x1, y1 in local:
        for corner in ((x0, y0), (x1, y0), (x1, y1), (x0, y1)):
            if corner in seen:
                continue
            if any(strictly_inside(corner, r) for r in local):
                continue
            seen.add(corner)
            nodes.append(corner)
    index = {p: i for i, p in enumerate(nodes)}
    wanted = {index[tuple(t)] for t in targets}
    dist = [math.inf] * len(nodes)
    done = [False] * len(nodes)
    dist[0] = 0.0
    heap = [(0.0, 0)]
    while heap and wanted:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        wanted.discard(u)
        if d > radius:
            break
        pu = nodes[u]
        for v, pv in enumerate(nodes):
            if done[v]:
                continue
            nd = d + math.hypot(pv[0] - pu[0], pv[1] - pu[1])
            if nd < dist[v] and not blocked(pu, pv, local):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return [dist[index[tuple(t)]] for t in targets]


def obstructed_distance(a, b, rects) -> float:
    """The exact obstructed distance between free points ``a`` and ``b``.

    Starts from the Euclidean distance as the disk radius and grows it
    to each local answer until the answer fits inside its disk.
    """
    radius = math.dist(a, b)
    while True:
        (d,) = distances_within(a, [b], rects, radius)
        if d <= radius:
            return d
        if math.isinf(d):
            return d
        radius = d
