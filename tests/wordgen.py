"""Deterministic word generators, small oracles, and the reference split stage and
breakpoint search shared by the tests."""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, combinations_with_replacement, product, repeat
from operator import sub
from typing import Iterator

import hypothesis.strategies as st

from mcfgkit import (Blocking, InternalInvariantError, LatticePath, Vec, Word, alphabet, l1,
                     make_token, token_step, word_to_path)
from mcfgkit.burago import burago_partition, row_zero


def all_words(n: int, max_len: int) -> Iterator[Word]:
    """Every word over the rank-n alphabet with length <= max_len."""
    letters = alphabet(n)
    for length in range(max_len + 1):
        yield from product(letters, repeat=length)


def random_word(rng: random.Random, n: int, max_len: int) -> Word:
    letters = alphabet(n)
    length = rng.randrange(max_len + 1)
    return tuple(rng.choice(letters) for _ in range(length))


def shuffled_pairs(rng: random.Random, n: int, length: int) -> Word:
    """length // 2 inverse pairs on random axes, shuffled; displaces to zero."""
    tokens: list[str] = []
    for _ in range(length // 2):
        axis = rng.randrange(1, n + 1)
        sign = rng.choice((1, -1))
        tokens.append(make_token(axis, sign))
        tokens.append(make_token(axis, -sign))
    rng.shuffle(tokens)
    return tuple(tokens)


def random_zero_displacement_word(rng: random.Random, n: int, max_len: int) -> Word:
    """Shuffled inverse pairs of a random even length up to max_len."""
    return shuffled_pairs(rng, n, 2 * rng.randrange(max_len // 2 + 1))


def walk_and_return(rng: random.Random, n: int, length: int) -> Word:
    """A random walk of length // 2 steps, then the same walk undone backwards."""
    steps = [(rng.randrange(1, n + 1), rng.choice((1, -1))) for _ in range(length // 2)]
    back = [(axis, -sign) for axis, sign in reversed(steps)]
    return tuple(make_token(axis, sign) for axis, sign in steps + back)


def block_word(n: int, r: int) -> Word:
    """a1^r ... an^r A1^r ... An^r."""
    return tuple(make_token(axis, sign) for sign in (1, -1)
                 for axis in range(1, n + 1) for _ in range(r))


def relabel_axes(rng: random.Random, n: int, word: Word) -> Word:
    """word with its axes permuted and some of them reversed, both drawn from rng."""
    relabel = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
    flip = {axis: rng.choice((1, -1)) for axis in relabel}
    return tuple(make_token(relabel[axis], flip[axis] * sign) for axis, sign in map(token_step, word))


def search_symmetry(rng: random.Random, n: int, cases: int, max_len: int) -> tuple[list, int]:
    """burago_partition on words and on their relabel_axes images: the cases
    whose answers differ, as (k, word, relabelled), and the count that failed.

    The word problem is invariant under signed axis permutations, and the
    search orders tuples by parameter alone, so each word and its image must
    give the same tuple, or both fail. Words cycle through random words,
    shuffled pairs and walk-and-return words up to max_len, and k through
    K - 1, K and K + 1 (those >= 1, with K = floor((n+1)/2)).
    """
    big = (n + 1) // 2
    ks = [k for k in (big - 1, big, big + 1) if k >= 1]
    differ, failed = [], 0
    for i in range(cases):
        k = ks[i % len(ks)]
        family = (random_word, shuffled_pairs, walk_and_return)[i // len(ks) % 3]
        word = family(rng, n, max_len if family is random_word else rng.randrange(max_len + 1))
        image = relabel_axes(rng, n, word)
        answers = []
        for w in (word, image):
            try:
                answers.append(burago_partition(word_to_path(w, n), k))
            except InternalInvariantError:
                answers.append(None)
        if answers[0] != answers[1]:
            differ.append((k, word, image))
        failed += answers[0] is None
    return differ, failed


def zero_displacement_words(n: int, min_pairs: int = 0, max_pairs: int = 7):
    """Hypothesis strategy over zero-displacement words built from inverse pairs."""
    pairs = st.lists(
        st.tuples(st.integers(1, n), st.sampled_from((1, -1))),
        min_size=min_pairs,
        max_size=max_pairs,
    )

    def expand(ps: list[tuple[int, int]]) -> list[str]:
        tokens: list[str] = []
        for axis, sign in ps:
            tokens.append(make_token(axis, sign))
            tokens.append(make_token(axis, -sign))
        return tokens

    return pairs.map(expand).flatmap(st.permutations).map(tuple)


def points(path: LatticePath) -> tuple[Vec, ...]:
    """Doubled coordinates at every half-unit parameter 0..2L, walked from the
    steps alone: the reference that the packed keys are checked against."""
    cur = [0] * path.n
    pts = [tuple(cur)]
    for axis, sign in path.steps:
        for _ in range(2):
            cur[axis - 1] += sign
            pts.append(tuple(cur))
    return tuple(pts)


def step_at(path: LatticePath, p: int) -> tuple[int, int]:
    """The (axis, sign) of the edge whose interior contains odd parameter p."""
    if p % 2 == 0 or not 0 < p < 2 * len(path.steps):
        raise ValueError(f"parameter {p} is not inside an edge of 0..{2 * len(path.steps)}")
    return path.steps[p // 2]


def interval_sum(pts: tuple[Vec, ...], bp: tuple[int, ...]) -> Vec:
    """sum_i (pts[s_i] - pts[t_i]) over the breakpoints (t1, s1, ..., tk, sk)."""
    pairs = list(zip(bp[::2], bp[1::2]))
    return tuple(sum(pts[s][i] - pts[t][i] for t, s in pairs) for i in range(len(pts[0])))


def lex_min_reference(path: LatticePath, k: int) -> tuple[int, ...] | None:
    """The first ordered 2k-tuple, in lexicographic order, whose intervals sum
    to half the displacement, or None."""
    pts = points(path)
    for bp in combinations_with_replacement(range(len(pts)), 2 * k):
        if tuple(2 * c for c in interval_sum(pts, bp)) == pts[-1]:
            return bp
    return None


def abcd_oracle(word: Word) -> bool:
    """True exactly for a^j b^j c^j d^j."""
    j, rem = divmod(len(word), 4)
    return rem == 0 and word == ("a",) * j + ("b",) * j + ("c",) * j + ("d",) * j


# The split stage as it stood when its stages passed frozen dataclasses: the
# reference whose y, z, blocking and failures the library's stages must repeat.
Span = tuple[int, int]


@dataclass(frozen=True)
class HalfSplit:
    """One concatenated half, cut into parts on the half-unit grid.

    word is the input word's path and spans the half's components as
    (start, end) token spans of it; the half's own path, those spans'
    steps in order, is built on demand as `path`. boundaries has
    len(parts)+1 sorted parameters of that path starting at 0 and ending
    at 2L; members holds the 0-based part indices on the chosen side of
    the balance condition (S for the left half, T for the right).
    component_cuts are the even parameters of the original component
    boundaries, with multiplicity, and appear among boundaries verbatim.
    """

    word: LatticePath
    spans: tuple[Span, ...]
    component_cuts: tuple[int, ...]
    boundaries: tuple[int, ...]
    members: frozenset[int]

    @cached_property
    def path(self) -> LatticePath:
        return self.word.sub_path(self.spans)

    def offset(self, c: int) -> int:
        """What turns a parameter of the half in component c into one of the word."""
        return 2 * self.spans[c][0] - (c and self.component_cuts[c - 1])


@dataclass(frozen=True)
class RefinedSplit:
    """Both halves of an m-tuple, refined and tagged with S and T."""

    left: HalfSplit
    right: HalfSplit

    @property
    def m(self) -> int:
        return 2 * len(self.left.spans)

    def condition_sum(self) -> Vec:
        """Sum of doubled part differences over S and T; zero when balanced."""
        # each part is read on the word's keys in the first component ending at or
        # past its end; the parts are disjoint, so the sum lies in [-2L, 2L]
        keys, total = self.left.word.keys, 0
        for half in (self.left, self.right):
            b = half.boundaries
            for p in half.members:
                off = half.offset(bisect_left(half.component_cuts, b[p + 1]))
                total += keys[b[p + 1] + off] - keys[b[p] + off]
        return self.left.word.vector(total)


@dataclass(frozen=True)
class YZSplit:
    """Two m-tuples of spans plus the blocking that reassembles the original one."""

    y: tuple[Span, ...]
    z: tuple[Span, ...]
    blocking: Blocking


def _reference_half(path: LatticePath, spans: tuple[Span, ...], k: int, target: int,
                    prefer_large: bool) -> HalfSplit:
    """One half cut at its breakpoints and component cuts, with its member side."""
    s1 = row_zero(path.keys, spans, target) if k == 1 else None
    breakpoints = burago_partition(path.sub_path(spans), k) if s1 is None else (0, s1)
    ends = tuple(accumulate([2 * (e - s) for s, e in spans]))
    cuts = ends[:-1]
    boundaries = (0, *sorted(cuts + breakpoints), ends[-1])
    # breakpoint j is boundary bisect_right(cuts, b) + j + 1, as cuts come first at ties
    at = [bisect_right(cuts, b) + j for j, b in enumerate(breakpoints, 1)]
    members = frozenset(chain.from_iterable(map(range, at[::2], at[1::2])))
    count = len(boundaries) - 1
    if (2 * len(members) < count) if prefer_large else (2 * len(members) > count):
        members = frozenset(range(count)) - members
    return HalfSplit(path, spans, cuts, boundaries, members)


def reference_refine(path: LatticePath, x: tuple[Span, ...], k: int) -> RefinedSplit:
    """Both halves of a zero-displacement m-tuple of spans, refined (no validation)."""
    m, keys = len(x), path.keys
    left = sum(keys[2 * e] - keys[2 * s] for s, e in x[: m // 2])
    return RefinedSplit(_reference_half(path, x[: m // 2], k, left // 2, True),
                        _reference_half(path, x[m // 2 :], k, -left // 2, False))


def reference_lift(split: RefinedSplit) -> RefinedSplit:
    """Every odd boundary paired with one on the same axis and both moved, in trial
    order, then the balance sum checked."""
    halves = (split.left, split.right)
    bounds = [list(half.boundaries) for half in halves]
    odd = []
    for h, (b, half) in enumerate(zip(bounds, halves)):
        members, steps, cuts = half.members, half.word.steps, half.component_cuts
        for i in range(1, len(b) - 1):
            if b[i] % 2:
                side = ((i - 1) in members) - (i in members)
                axis, sign = steps[(b[i] + half.offset(bisect_right(cuts, b[i]))) // 2]
                odd.append((h, i, side, axis, sign * side))
    result = split
    if odd:
        total = sum(b[-1] for b in bounds)
        inside = sum([b[p + 1] - b[p] for b, half in zip(bounds, halves) for p in half.members])
        while odd:
            for moves, grow in _reference_moves(odd):
                if 1 <= inside + grow <= total - 1 and _reference_apply(bounds, moves):
                    break
            else:
                raise InternalInvariantError(
                    "no mid-lattice endpoint can move",
                    {
                        "left_boundaries": tuple(bounds[0]),
                        "right_boundaries": tuple(bounds[1]),
                        "left_members": sorted(split.left.members),
                        "right_members": sorted(split.right.members),
                        "left_steps": split.left.path.steps,
                        "right_steps": split.right.path.steps,
                    },
                )
            inside += grow
            done = {(h, i) for h, i, _ in moves}
            odd = [o for o in odd if o[:2] not in done]
        result = RefinedSplit(*(HalfSplit(half.word, half.spans, half.component_cuts,
                                          tuple(b), half.members)
                                for half, b in zip(halves, bounds)))
    if any(result.condition_sum()):
        raise InternalInvariantError(
            "repair moves changed the balance sum",
            {"sum": result.condition_sum()},
        )
    return result


def _reference_moves(odd: list[tuple[int, int, int, int, int]]) -> Iterator[tuple[tuple, int]]:
    """Boundaries in order, each with every partner on the same axis in order; -1 before +1."""
    for h, i, side, axis, effect in odd:
        for h2, j, side2, axis2, effect2 in odd:
            if axis2 == axis and (h2, j) != (h, i):
                for delta in (-1, 1):
                    delta2 = -delta * effect * effect2
                    yield ((h, i, delta), (h2, j, delta2)), delta * side + delta2 * side2


def _reference_apply(bounds: list[list[int]], moves: tuple[tuple[int, int, int], ...]) -> bool:
    for h, i, delta in moves:
        bounds[h][i] += delta
    if all(bounds[h][i - 1] <= bounds[h][i] <= bounds[h][i + 1] for h, i, _ in moves):
        return True
    for h, i, delta in moves:
        bounds[h][i] -= delta
    return False


def reference_yz(split: RefinedSplit) -> YZSplit:
    """y takes the member parts (S, then T), z the rest; each part's owner gives its
    span of the word and its block."""
    m = split.m
    y: list[Span] = []
    z: list[Span] = []
    blocks: list[list[int]] = [[] for _ in range(m)]
    for own, half in ((blocks[: m // 2], split.left), (blocks[m // 2 :], split.right)):
        b, members = half.boundaries, half.members
        owners = map(bisect_left, repeat(half.component_cuts), b[1:])
        for p, (lo, hi, c) in enumerate(zip(b, b[1:], owners)):
            if lo % 2 or hi % 2:
                raise ValueError(f"part {p} spans odd parameters ({lo}, {hi})")
            off = half.offset(c)
            span = ((lo + off) // 2, (hi + off) // 2)
            if p in members:
                y.append(span)
                own[c].append(len(y))
            else:
                z.append(span)
                own[c].append(m + len(z))
    if len(y) > m or len(z) > m:
        raise InternalInvariantError(
            "side exceeds the slot budget", {"y": len(y), "z": len(z), "m": m}
        )
    blocks[-1].extend(chain(range(len(y) + 1, m + 1), range(m + len(z) + 1, 2 * m + 1)))
    y.extend([(0, 0)] * (m - len(y)))
    z.extend([(0, 0)] * (m - len(z)))
    return YZSplit(tuple(y), tuple(z), Blocking(tuple(map(tuple, blocks))))


def reference_split(path: LatticePath, x: tuple[Span, ...], k: int) -> YZSplit:
    """y, z and the blocking of the m-tuple of spans x, through the reference stages."""
    return reference_yz(reference_lift(reference_refine(path, x, k)))


def as_refined(split) -> RefinedSplit:
    """A split of the library's stages, (path, x, left, right), as the reference's
    dataclasses: a snapshot, since the library's lift edits its bounds in place."""
    path, x, *halves = split
    m = len(x)
    return RefinedSplit(*(
        HalfSplit(path, spans, tuple(ends[:-1]), tuple(bounds),
                  frozenset(p for p, f in enumerate(member) if f))
        for spans, (bounds, member, ends, _, _) in zip((x[: m // 2], x[m // 2 :]), halves)))


# The breakpoint search as it stood with two exits and a shared `chosen` list:
# the reference whose tuples and failure payloads burago_partition must repeat.
def reference_partition(path: LatticePath, k: int) -> tuple[int, ...]:
    """Lexicographically smallest breakpoint tuple hitting half the displacement."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pad = max(0, k - max(1, (path.n + 1) // 2))
    pairs = k - pad
    keys = path.keys
    end = len(keys) - 1
    # the lattice endpoint has even coordinates, so the halving is exact
    target = keys[-1] // 2
    if pairs == 1:
        hit = _last(keys, _point_index(keys), 0, target)
        if hit is None:
            raise _no_tuple(path, k, target)
        return (0, 0) * pad + hit
    at = _point_index(keys)

    # at k >= 3 the level that uses the pair table is entered again from many
    # earlier candidates, so they share one; k = 2 builds it only if its scans
    # have read a third as many rows as the table has entries
    latest = _pair_table(keys) if pairs >= 3 else None
    budget = (end + 1) * (end + 2) // 6
    dead: dict[tuple[int, int], int] = {}
    chosen: list[int] = [0] * (2 * pad)

    def search(pair: int, lo: int, rem: int) -> bool:
        nonlocal latest, budget
        if pair == pairs - 1:  # one interval; with more, pair k - 2 places the last two
            hit = _last(keys, at, lo, rem)
            if hit is None:
                return False
            chosen.extend(hit)
            return True
        state = (pair, rem)
        stop = dead.get(state, end + 1)
        if lo >= stop:
            return False
        need = l1(path.vector(rem))
        if need > end - lo:
            return False
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
                            chosen.extend((t, s))
                            chosen.extend(hit)
                            return True
                        budget -= end + 1 - s
                        s += 1
                    latest = _pair_table(keys)
                    get = latest.get
                # rem - (keys[s] - keys[t]) must be the difference of a pair
                # starting at or after s
                for s in range(s, end + 1):
                    if get(shifted - keys[s], -1) >= s:
                        chosen.extend((t, s))
                        chosen.extend(_last(keys, at, s, shifted - keys[s]))
                        return True
        else:
            for t in rows:
                shifted = rem + keys[t]
                for s in range(t, end + 1):
                    chosen.append(t)
                    chosen.append(s)
                    if search(pair + 1, s, shifted - keys[s]):
                        return True
                    chosen.pop()
                    chosen.pop()
        dead[state] = lo
        return False

    found = search(0, 0, target)
    del search  # the closure refers to itself; drop the cycle with its tables
    if not found:
        raise _no_tuple(path, k, target)
    return tuple(chosen)


def _no_tuple(path: LatticePath, k: int, target: int) -> InternalInvariantError:
    return InternalInvariantError(
        "no breakpoint tuple reaches half the displacement",
        {"n": path.n, "steps": path.steps, "k": k, "target_doubled": path.vector(target)},
    )


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
