"""Answer checks: properties every answer must have, and spot checks
against the independent oracle in :mod:`oracle`.

A check never compares with a stored copy of earlier output.  Each
failed check is kept as a message; a run is correct only when none
failed.
"""

from __future__ import annotations

import math

import oracle

#: Relative tolerance between the engine's and the oracle's distances
#: (both sum the same Euclidean legs, in different orders).
TOL = 1e-6


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def xy(p) -> tuple[float, float]:
    return (p.x, p.y)


class Checker:
    """Collects failed checks for one run."""

    def __init__(self) -> None:
        self.failures: list[str] = []  # the first few messages
        self.failed = 0
        self.checked = 0

    def expect(self, ok: bool, message: str) -> None:
        self.checked += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(message)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    # ------------------------------------------------------ properties
    def distance(self, a, b, d: float) -> None:
        """d_O(a, b) is a number no smaller than the Euclidean distance."""
        e = math.dist(xy(a), xy(b))
        self.expect(
            not math.isnan(d) and d >= e - TOL * max(1.0, e),
            f"d_O({a}, {b}) = {d} is below the Euclidean {e}",
        )

    def symmetric(self, a, b, d_ab: float, d_ba: float) -> None:
        self.expect(close(d_ab, d_ba), f"d_O({a}, {b}) = {d_ab} but reversed {d_ba}")

    def range(self, q, e: float, result) -> None:
        """OR answers lie in the Euclidean range, each within ``e``."""
        for p, d in result:
            self.distance(q, p, d)
            self.expect(
                math.dist(xy(q), xy(p)) <= e + TOL * max(1.0, e) and d <= e + TOL * max(1.0, e),
                f"OR({q}, {e}) returned {p} at {d}",
            )

    def nearest(self, q, k: int, result, population: int) -> None:
        """ONN answers: min(k, |P|) of them, sorted, none below Euclid."""
        self.expect(
            len(result) == min(k, population),
            f"ONN({q}, {k}) returned {len(result)} answers",
        )
        for (p, d), (__, d_next) in zip(result, result[1:]):
            self.expect(d <= d_next, f"ONN({q}, {k}) is not sorted at {p}")
        for p, d in result:
            self.distance(q, p, d)

    # ---------------------------------------------------------- oracle
    def distance_oracle(self, a, b, d: float, rects) -> None:
        want = oracle.obstructed_distance(xy(a), xy(b), rects)
        self.expect(close(d, want), f"d_O({a}, {b}) = {d}, oracle says {want}")

    def range_oracle(self, q, e: float, result, entities, rects) -> None:
        """The OR answer is exactly the entities the oracle puts within
        ``e`` (entities within rounding of the boundary may go either way)."""
        qq = xy(q)
        cands = [p for p in entities if math.dist(qq, xy(p)) <= e]
        got = {p: d for p, d in result}
        want = oracle.distances_within(qq, [xy(p) for p in cands], rects, e)
        for p, w in zip(cands, want):
            if abs(w - e) <= TOL * max(1.0, e):
                continue
            if w < e:
                self.expect(
                    p in got and close(got[p], w),
                    f"OR({q}, {e}): {p} at oracle {w} answered {got.get(p)}",
                )
            else:
                self.expect(p not in got, f"OR({q}, {e}): {p} beyond e (oracle {w})")

    def nearest_oracle(self, q, k: int, result, entities, rects) -> None:
        """Every ONN distance matches the oracle, and no entity outside
        the answer is closer than its k-th distance."""
        if not result:
            return
        qq = xy(q)
        bound = result[-1][1] * (1 + TOL) + TOL
        cands = [p for p in entities if math.dist(qq, xy(p)) <= bound]
        want = dict(
            zip(cands, oracle.distances_within(qq, [xy(p) for p in cands], rects, bound))
        )
        answered = {p for p, __ in result}
        for p, d in result:
            self.expect(
                p in want and close(want[p], d),
                f"ONN({q}, {k}): {p} at {d}, oracle {want.get(p)}",
            )
        kth = result[-1][1]
        for p, w in want.items():
            if p not in answered:
                self.expect(
                    w >= kth - TOL * max(1.0, kth),
                    f"ONN({q}, {k}): {p} at oracle {w} beats the k-th answer {kth}",
                )
