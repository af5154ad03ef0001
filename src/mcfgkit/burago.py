"""Interval partitions of lattice paths hitting half the displacement.

Given a path and k, the search looks for parameters t1 <= s1 <= ... <=
tk <= sk on the half-unit grid with

    sum_i (P(s_i) - P(t_i)) = P(2L) / 2,

where P(p) is the doubled point at p and P(2L) the doubled displacement.

For k = floor((n+1)/2) such breakpoints always exist; the search is
exhaustive, so failure would falsify the construction rather than the
input, and raises InternalInvariantError with a diagnostic payload.

The search is meet-in-the-middle (Horowitz & Sahni, JACM 1974): one point
index, built for every k, answers the last interval with one O(L) scan.
For k = 1 (n = 1, 2) that is the whole search, answered from row 0 on;
the synthesis first scans row 0 of each half on the word's keys
(row_zero) and searches only when that scan finds no answer. For k >= 2
(n >= 3) each candidate for the second-to-last interval is checked by an
index scan, until the scans have read a third as many rows as a
latest-start table over all pairs has entries or the first row scanned
ends; only then is the table built, once per search, and it answers every
later candidate with one lookup. An early answer thus costs O(L) per
candidate tried, and the worst case O(L^2), at most a third more than
building the table up front. Each earlier interval (k >= 3, n >= 5) is an
ordered, pruned and memoised loop over O(L^2) candidates on top of that.
Points are the path's packed int keys (LatticePath.keys), which compare
exactly for the vectors the search builds. See burago_partition.
"""

from __future__ import annotations

from itertools import repeat
from operator import sub

from .zn import LatticePath, l1


class InternalInvariantError(RuntimeError):
    """An exhaustive search came up empty where existence is guaranteed."""

    def __init__(self, message: str, payload: dict):
        super().__init__(f"{message}: {payload!r}")
        self.payload = payload


def burago_partition(path: LatticePath, k: int) -> tuple[int, ...]:
    """Lex-min breakpoints (t1, s1, ..., tk, sk), doubled, hitting half the displacement.

    An exhaustive search in increasing lexicographic order, so the first
    hit is the lexicographic minimum; at k >= 2 the search returns the
    breakpoints it placed, or None. Each interval is answered as follows.

    - Last interval: an index `at` from each point to the largest
      parameter at which the path takes it. The earliest (t, s) with
      lo <= t <= s and P(s) - P(t) = rem is found by one scan
      over t for the first with at[P(t) + rem] >= t; s is then the
      first index of that point from t on: O(L).
    - k = 1: the last interval is the whole search, answered from `at`
      from row 0 on: O(L); the synthesis asks row_zero first.
    - Second-to-last interval (k >= 2): a candidate (t, s) leaves a
      feasible last interval for rest = rem - (P(s) - P(t))
      exactly when the last-interval scan from s finds one. A table
      `latest` from each difference vector to the largest t of any pair
      t <= s with that difference answers the same predicate as
      latest[rest] >= s in one lookup, but has (end+1)(end+2)/2 entries
      (end = 2L) to build. So the search scans first and charges each
      failed candidate the end + 1 - s rows its scan read. When the
      charge reaches a third of the table's entries, or the first row it
      scans ends, it builds `latest` and answers the rest of that row,
      every later row and every later entry into this level from it. At
      k = 2 that first row is row 0, whose candidates before s = end
      alone would charge all but one of the table's entries, so the
      charge runs out first. A search whose answer comes early never pays
      for the table, and the worst case reads fewer than a third of the
      table's entries plus end + 1 rows more than building the table up
      front. The predicate is the same either way, so the answer does not
      depend on when the table is built.
    - Earlier intervals (k >= 3): a depth-first loop over ordered (t, s),
      O(L^2) candidates per level on top of the above.

    Every level before the last is pruned by an l1 budget (consecutive
    grid points differ by exactly 1 in l1, so the intervals left after t
    cover at most end - t) and by a memo from (pair, remainder) to the
    least position from which that remainder is known to fail; a later
    start only narrows the choices, so it fails too.

    The search runs on the path's packed `keys`, one int per vector, so
    a sum or a dictionary lookup costs one int operation instead of an
    n-tuple; only the l1 budget unpacks a remainder, once per search node.
    That unpacking is exact: a remainder is the target minus a sum over
    disjoint intervals, so each coordinate lies in [-3L, 3L], within
    base/2. Comparisons are exact too: points lie in [-2L, 2L] and their
    differences in [-4L, 4L] per coordinate; a remainder that passes the
    l1 budget lies in [-2L, 2L], so `rest` lies in [-6L, 6L]. Any two
    vectors compared thus differ by at most 10L < base per coordinate,
    where equal keys mean equal vectors.

    For k beyond K = floor((n+1)/2), where K intervals always exist, the
    answer is (0, 0) repeated k - K times before the K-interval answer:
    a (k-1)-interval solution exists, so the empty interval is the least
    feasible first pair.

    Every answer is some leading (0, 0) pairs, then strictly increasing
    breakpoints. Past those pairs, two touching intervals could merge, or
    an empty one could go, giving a solution with one interval fewer;
    with (0, 0) in front, that one would be lexicographically smaller.
    The lattice lift relies on this shape.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pad = max(0, k - max(1, (path.n + 1) // 2))
    pairs = k - pad
    keys = path.keys
    end = len(keys) - 1
    # the lattice endpoint has even coordinates, so the halving is exact
    target = keys[-1] // 2
    at = _point_index(keys)
    if pairs == 1:
        found = _last(keys, at, 0, target)
    else:
        latest = None
        budget = (end + 1) * (end + 2) // 6
        dead: dict[tuple[int, int], int] = {}

        def search(pair: int, lo: int, rem: int) -> tuple[int, ...] | None:
            nonlocal latest, budget
            state = (pair, rem)
            stop = dead.get(state, end + 1)
            if lo >= stop:
                return None
            need = l1(path.vector(rem))
            if need > end - lo:
                return None
            # the intervals left lie in [t, end], so they cover l1 <= end - t; rows
            # from stop on already failed with this remainder
            rows = range(lo, min(stop, end - need + 1))
            if pair == pairs - 2:
                get = None if latest is None else latest.get
                for t in rows:
                    shifted = rem + keys[t]
                    s = t
                    if latest is None:
                        # scan while the budget lasts; a failed scan read end + 1 - s rows
                        while budget > 0 and s <= end:
                            hit = _last(keys, at, s, shifted - keys[s])
                            if hit is not None:
                                return (t, s, *hit)
                            budget -= end + 1 - s
                            s += 1
                        latest = _pair_table(keys)
                        get = latest.get
                    # rem - (keys[s] - keys[t]) must be the difference of a pair
                    # starting at or after s
                    for s in range(s, end + 1):
                        if get(shifted - keys[s], -1) >= s:
                            return (t, s, *_last(keys, at, s, shifted - keys[s]))
            else:
                for t in rows:
                    shifted = rem + keys[t]
                    for s in range(t, end + 1):
                        tail = search(pair + 1, s, shifted - keys[s])
                        if tail is not None:
                            return (t, s, *tail)
            dead[state] = lo
            return None

        found = search(0, 0, target)
        del search  # the closure refers to itself; drop the cycle with its tables
    if found is None:
        raise InternalInvariantError(
            "no breakpoint tuple reaches half the displacement",
            {"n": path.n, "steps": path.steps, "k": k, "target_doubled": path.vector(target)},
        )
    return (0, 0) * pad + found


def row_zero(keys: tuple[int, ...], spans: tuple[tuple[int, int], ...], target: int) -> int | None:
    """The first parameter s with P(s) = target on the path of the spans, or None.

    Row 0 of the one-interval search (P(0) = 0, so (0, s) answers at t1 = 0)
    on the keys of a word whose (start, end) token spans, in order, make the
    path; target is packed at the word's base. Each span takes one
    `keys.index` scan, shifted by `off`, the packed displacement of the
    spans before it. Exact: with L the word's length, keys[i] -
    keys[2 * start] lies within 2L of zero per coordinate and target - off
    within 3L, so they differ by at most 5L < base/2, where equal ints mean
    equal vectors.
    """
    off = q = 0
    for s, e in spans:
        try:
            return q + keys.index(target - off + keys[2 * s], 2 * s, 2 * e + 1) - 2 * s
        except ValueError:
            off += keys[2 * e] - keys[2 * s]
            q += 2 * (e - s)
    return None


def _point_index(keys: tuple[int, ...]) -> dict[int, int]:
    """Each point mapped to the largest parameter at which the path takes it."""
    # later parameters overwrite earlier ones
    return dict(zip(keys, range(len(keys))))


def _last(keys: tuple[int, ...], at: dict[int, int], lo: int, rem: int) -> tuple[int, int] | None:
    """The earliest (t, s) with lo <= t <= s and keys[s] - keys[t] == rem, or None."""
    get = at.get
    for t, key in enumerate(keys[lo:], lo):
        if get(key + rem, -1) >= t:
            return t, keys.index(key + rem, t)
    return None


def _pair_table(keys: tuple[int, ...]) -> dict[int, int]:
    """Each difference keys[s] - keys[t] with t <= s, mapped to its largest t."""
    latest: dict[int, int] = {}
    # ascending t, so the largest t of each difference is written last
    for t, key in enumerate(keys):
        latest.update(zip(map(sub, keys[t:], repeat(key)), repeat(t)))
    return latest
