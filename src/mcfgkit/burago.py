"""Interval partitions of lattice paths hitting half the displacement.

Given a path and k, the search looks for parameters t1 <= s1 <= ... <=
tk <= sk (half-unit grid, doubled coordinates) with

    sum_i (points[s_i] - points[t_i]) = points[-1] / 2,

where points[-1] is the doubled displacement (paths start at the origin).

For k = floor((n+1)/2) such breakpoints always exist; the search is
exhaustive, so failure would falsify the construction rather than the
input, and raises InternalInvariantError with a diagnostic payload.
"""

from __future__ import annotations

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

    Depth-first search over ordered breakpoints, pruned by an l1 budget
    (consecutive grid points differ by exactly 1 in l1, so the remaining
    intervals can cover at most the remaining parameter range) and by a
    memo of infeasible (pair, position, remainder) states. Branches are
    visited in increasing order, so the first hit is the lexicographic
    minimum.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pts = path.points
    end = len(pts) - 1
    # the lattice endpoint has even coordinates, so the halving is exact
    target = tuple(c // 2 for c in pts[-1])
    dead: set[tuple[int, int, Vec]] = set()
    chosen: list[int] = []

    def search(pair: int, lo: int, remaining: Vec) -> bool:
        if pair == k:
            return remaining == (0,) * path.n
        if l1(remaining) > end - lo:
            return False
        state = (pair, lo, remaining)
        if state in dead:
            return False
        for t in range(lo, end + 1):
            # remaining - (pts[s] - pts[t]), with the sum hoisted out of the s loop
            shifted = vadd(remaining, pts[t])
            for s in range(t, end + 1):
                chosen.append(t)
                chosen.append(s)
                if search(pair + 1, s, vsub(shifted, pts[s])):
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
