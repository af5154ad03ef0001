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
pruned and memoised loop over O(L^2) candidates. Vectors are compared as
the path's packed int keys (LatticePath.keys), which is exact for the
vectors the search builds. See burago_partition.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat

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
      last interval exactly when latest[rest] >= s, where rest = rem -
      (points[s] - points[t]): one int sum and one lookup, so k = 2 costs
      O(L^2) overall.
    - Earlier intervals (k >= 3): a depth-first loop over ordered (t, s),
      O(L^2) candidates per level on top of the above.

    Every level before the last is pruned by an l1 budget (consecutive
    grid points differ by exactly 1 in l1, so the intervals left after t
    cover at most end - t) and by a memo from (pair, remainder) to the
    least position from which that remainder is known to fail; a later
    start only narrows the choices, so it fails too.

    The search runs on the path's packed `keys`, one int per vector, so
    a sum or a dictionary lookup costs one int operation instead of an
    n-tuple; only the l1 budget reads remainders as vectors. Packing is
    exact on the vectors compared: points lie in [-2L, 2L] and their
    differences in [-4L, 4L] per coordinate; a remainder that passes the
    l1 budget lies in [-2L, 2L], so `rest` lies in [-6L, 6L]. Any two
    vectors compared thus differ by at most 10L < base per coordinate,
    where equal keys mean equal vectors.

    For k beyond K = floor((n+1)/2), where K intervals always exist, the
    answer is (0, 0) repeated k - K times before the K-interval answer:
    a (k-1)-interval solution exists, so the empty interval is the least
    feasible first pair.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pad = max(0, k - max(1, (path.n + 1) // 2))
    pairs = k - pad
    keys = path.keys
    # only the l1-pruned pairs before k - 2 read the points as vectors
    pts = path.points if pairs >= 3 else ()
    end = len(keys) - 1
    # the lattice endpoint has even coordinates, so the halving is exact
    target = tuple(c // 2 for c in path.vector(keys[-1]))

    where: dict[int, list[int]] = {}
    for s, key in enumerate(keys):
        where.setdefault(key, []).append(s)

    def last(lo: int, rem: int) -> tuple[int, int] | None:
        for t in range(lo, end + 1):
            hits = where.get(keys[t] + rem)
            if hits is not None and hits[-1] >= t:
                return t, hits[bisect_left(hits, t)]
        return None

    latest: dict[int, int] = {}
    if pairs >= 2:
        # ascending t, so the largest t of each difference is written last
        for t in range(end + 1):
            latest.update(zip(map(keys[t].__rsub__, keys[t:]), repeat(t)))

    dead: dict[tuple[int, int], int] = {}
    chosen: list[int] = [0] * (2 * pad)

    def search(pair: int, lo: int, remaining: Vec, rem: int) -> bool:
        if pair == pairs - 1:  # one interval; with more, pair k - 2 places the last two
            hit = last(lo, rem)
            if hit is None:
                return False
            chosen.extend(hit)
            return True
        need = l1(remaining)
        if need > end - lo:
            return False
        state = (pair, rem)
        stop = dead.get(state, end + 1)
        if lo >= stop:
            return False
        # the intervals left lie in [t, end], so they cover l1 <= end - t; rows
        # from stop on already failed with this remainder
        rows = range(lo, min(stop, end - need + 1))
        if pair == pairs - 2:
            get = latest.get
            for t in rows:
                shifted = rem + keys[t]
                for s in range(t, end + 1):
                    # rem - (keys[s] - keys[t]) must be the difference of a
                    # pair starting at or after s
                    if get(shifted - keys[s], -1) >= s:
                        chosen.extend((t, s))
                        chosen.extend(last(s, shifted - keys[s]))
                        return True
        else:
            for t in rows:
                # remaining - (pts[s] - pts[t]), with the sum hoisted out of the s loop
                shifted = vadd(remaining, pts[t])
                shifted_key = rem + keys[t]
                for s in range(t, end + 1):
                    chosen.append(t)
                    chosen.append(s)
                    if search(pair + 1, s, vsub(shifted, pts[s]), shifted_key - keys[s]):
                        return True
                    chosen.pop()
                    chosen.pop()
        dead[state] = lo
        return False

    if not search(0, 0, target, keys[-1] // 2):
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
