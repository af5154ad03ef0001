"""Interval partitions of lattice paths hitting half the displacement.

Given a path and k, the search looks for parameters t1 <= s1 <= ... <=
tk <= sk (half-unit grid, doubled coordinates) with

    sum_i (points[s_i] - points[t_i]) = points[-1] / 2,

where points[-1] is the doubled displacement (paths start at the origin).

For k = floor((n+1)/2) such breakpoints always exist; the search is
exhaustive, so failure would falsify the construction rather than the
input, and raises InternalInvariantError with a diagnostic payload.

The search is meet-in-the-middle (Horowitz & Sahni, JACM 1974): a point
index answers the last interval and a latest-start table the one before
it, so it costs O(L log L) for k = 1 (n = 1, 2) and O(L^2) for k = 2
(n = 3, 4); each further interval (k >= 3, n = 5, 6) is an ordered,
pruned and memoised loop over O(L^2) candidates. See burago_partition.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .zn import LatticePath, Vec, l1, vadd, vsub


class InternalInvariantError(RuntimeError):
    """An exhaustive search came up empty where existence is guaranteed."""

    def __init__(self, message: str, payload: dict):
        super().__init__(f"{message}: {payload!r}")
        self.payload = payload


@dataclass(frozen=True)
class SegmentPartition:
    """Breakpoints (t1, s1, ..., tk, sk) on the doubled parameter grid."""

    path: LatticePath
    k: int
    breakpoints: tuple[int, ...]

    def __post_init__(self):
        if len(self.breakpoints) != 2 * self.k:
            raise ValueError(
                f"expected {2 * self.k} breakpoints, got {len(self.breakpoints)}"
            )
        if any(b > a for a, b in zip(self.breakpoints[1:], self.breakpoints)):
            raise ValueError(f"breakpoints not ordered: {self.breakpoints}")
        end = 2 * len(self.path)
        if any(not 0 <= b <= end for b in self.breakpoints):
            raise ValueError(f"breakpoints outside 0..{end}: {self.breakpoints}")

    def sum_of_differences(self) -> Vec:
        pts, bp = self.path.points, self.breakpoints
        total = (0,) * self.path.n
        for t, s in zip(bp[::2], bp[1::2]):
            total = vadd(total, vsub(pts[s], pts[t]))
        return total

    def satisfies_identity(self) -> bool:
        """2 * sum of interval differences equals the path's displacement, exactly."""
        return tuple(2 * c for c in self.sum_of_differences()) == self.path.points[-1]

    def to_json_dict(self) -> dict:
        return {"breakpoints": list(self.breakpoints), "doubled": True}


def burago_partition(path: LatticePath, k: int) -> SegmentPartition:
    """Lexicographically smallest breakpoint tuple hitting half the displacement.

    An exhaustive search in increasing lexicographic order, so the first
    hit is the lexicographic minimum, answered per interval as follows.

    - Last interval: an index `where` from each point to the ascending
      parameters at which the path takes it. The earliest (t, s) with
      lo <= t <= s and points[s] - points[t] = rem is one scan over t with
      a dictionary lookup of points[t] + rem and a bisect for the first
      s >= t: O(L log L). For k = 1 this is the whole search.
    - Second-to-last interval (k >= 2): a table `latest` from each
      difference vector to the largest t of any pair t <= s with that
      difference, built in O(L^2). A candidate (t, s) leaves a feasible
      last interval exactly when latest[rem'] >= s, an O(1) check, so
      k = 2 costs O(L^2) overall.
    - Earlier intervals (k >= 3): a depth-first loop over ordered (t, s),
      pruned by an l1 budget (consecutive grid points differ by exactly 1
      in l1, so the remaining intervals can cover at most the remaining
      parameter range) and by a memo of infeasible (pair, position,
      remainder) states; O(L^2) candidates per level on top of the above.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pts = path.points
    end = len(pts) - 1
    # the lattice endpoint has even coordinates, so the halving is exact
    target = tuple(c // 2 for c in pts[-1])

    where: dict[Vec, list[int]] = {}
    for s, p in enumerate(pts):
        where.setdefault(p, []).append(s)

    def last(lo: int, remaining: Vec) -> tuple[int, int] | None:
        for t in range(lo, end + 1):
            hits = where.get(vadd(pts[t], remaining))
            if hits is not None and hits[-1] >= t:
                return t, hits[bisect_left(hits, t)]
        return None

    latest: dict[Vec, int] = {}
    if k >= 2:
        for t in range(end, -1, -1):
            pt = pts[t]
            for s in range(t, end + 1):
                latest.setdefault(vsub(pts[s], pt), t)

    dead: set[tuple[int, int, Vec]] = set()
    chosen: list[int] = []

    def search(pair: int, lo: int, remaining: Vec) -> bool:
        if pair == k - 1:
            hit = last(lo, remaining)
            if hit is None:
                return False
            chosen.extend(hit)
            return True
        if l1(remaining) > end - lo:
            return False
        state = (pair, lo, remaining)
        if state in dead:
            return False
        for t in range(lo, end + 1):
            # remaining - (pts[s] - pts[t]), with the sum hoisted out of the s loop
            shifted = vadd(remaining, pts[t])
            for s in range(t, end + 1):
                rest = vsub(shifted, pts[s])
                if pair == k - 2 and latest.get(rest, -1) < s:
                    continue
                chosen.append(t)
                chosen.append(s)
                if search(pair + 1, s, rest):
                    return True
                chosen.pop()
                chosen.pop()
        dead.add(state)
        return False

    if not search(0, 0, target):
        raise InternalInvariantError(
            "no breakpoint tuple reaches half the displacement",
            {
                "n": path.n,
                "steps": path.steps,
                "k": k,
                "target_doubled": target,
            },
        )
    return SegmentPartition(path, k, tuple(chosen))
