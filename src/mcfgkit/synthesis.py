"""Constructive derivation synthesis for the zero-displacement grammars.

The synthesizer turns a zero-displacement word w into a checked
derivation by recursing on the total length of an m-tuple of factors of
w, each carried as a (start, end) token span of w. w is traced once, and
every displacement test is an int difference of that path's keys:

  * small tuples (total length <= m) get an explicit base construction;
  * when both concatenated halves displace, each half-path is cut where
    sum_i (P(s_i) - P(t_i)) = P(2L) / 2, P(p) its doubled point at p
    (burago_partition); the cuts are refined by the component boundaries,
    repaired onto lattice points, and read off as two strictly shorter
    zero-displacement m-tuples y, z and the blocking that rebuilds x;
  * when the halves have zero displacement individually, the tuple is
    split in two directly (or re-cut first when one half carries no
    tokens at all, so that the next level strictly descends).

Cuts never cross a component, re-cutting keeps every original cut and
padding adds only empty components, so every component stays a span of
w; tokens are read off w only for the start rule. All geometry runs in
doubled integer coordinates on the half-unit parameter grid; no floating
point is involved anywhere.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate, chain
from operator import add
from typing import Iterable, Iterator

from .burago import InternalInvariantError, burago_partition
from .derivation import Derivation, RuleInstance, apply_blocking
from .grammar import Blocking, Grammar, Word, instantiate
from .zn import (
    LatticePath,
    Vec,
    displacement,
    grammar_params,
    make_grammar,
    word_to_path,
)

Span = tuple[int, int]


def _consecutive(sizes: Iterable[int]) -> tuple[Span, ...]:
    """Spans of consecutive components of the given sizes, from token 0."""
    ends = tuple(accumulate(sizes, initial=0))
    return tuple(zip(ends, ends[1:]))


def _cut_params(spans: tuple[Span, ...]) -> tuple[int, ...]:
    """Internal component boundaries as doubled parameters, multiplicity kept."""
    return tuple(accumulate(2 * (e - s) for s, e in spans[:-1]))


def _owner_component(full_cuts: tuple[int, ...], hi: int) -> int:
    """1-based index of the component owning a part ending at parameter hi.

    full_cuts is the whole boundary ladder (0, c1, ..., total). Boundary
    lists always contain every component cut, so a nonempty part never
    straddles one and the leftmost cut at or past hi pins the owner;
    empty parts land with the earliest component ending at their point.
    """
    return max(bisect_left(full_cuts, hi), 1)


def _pad_to_last(blocks: list[list[int]], total_slots: int) -> Blocking:
    """Append every unused source slot, ascending, to the final block."""
    used = {s for b in blocks for s in b}
    blocks[-1].extend(s for s in range(1, total_slots + 1) if s not in used)
    return Blocking(tuple(tuple(b) for b in blocks))


@lru_cache(maxsize=None, typed=True)
def _fold_blocking(r: int, m: int) -> Blocking:
    """The base case's r-th fold: slots 1..2r keep their blocks, the new pair takes the next two."""
    blocks: list[list[int]] = [[j] for j in range(1, 2 * r + 1)] + [[m + 1], [m + 2]]
    blocks.extend([] for _ in range(m - len(blocks)))
    return _pad_to_last(blocks, 2 * m)


@lru_cache(maxsize=None, typed=True)
def _halve_blocking(m: int) -> Blocking:
    """The left m/2 slots of each premise, in order, one to a block."""
    half = m // 2
    blocks = [[i] for i in range(1, half + 1)] + [[m + i] for i in range(1, half + 1)]
    return _pad_to_last(blocks, 2 * m)


@dataclass(frozen=True)
class HalfSplit:
    """One concatenated half, cut into parts on the half-unit grid.

    spans are the half's components as (start, end) token spans of the
    input word, and path the half's own lattice path: those spans' steps
    in order, with its own packing base. boundaries has len(parts)+1
    sorted parameters of path starting at 0 and ending at 2L; members
    holds the 0-based part indices on the chosen side of the balance
    condition (S for the left half, T for the right).
    component_cuts are the even parameters of the original component
    boundaries, with multiplicity, and appear among boundaries verbatim.
    """

    path: LatticePath
    spans: tuple[Span, ...]
    component_cuts: tuple[int, ...]
    boundaries: tuple[int, ...]
    members: frozenset[int]

    @property
    def part_count(self) -> int:
        return len(self.boundaries) - 1


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
        # the halves pack at different bases, so each unpacks its own sum over
        # disjoint parts: one key difference whose coordinates lie in [-2L, 2L]
        sums = []
        for half in (self.left, self.right):
            keys, b = half.path.keys, half.boundaries
            sums.append(half.path.vector(sum(keys[b[p + 1]] - keys[b[p]] for p in half.members)))
        return tuple(map(add, *sums))


@dataclass(frozen=True)
class YZSplit:
    """Two m-tuples of spans plus the blocking that reassembles the original one."""

    y: tuple[Span, ...]
    z: tuple[Span, ...]
    blocking: Blocking


def _split_half(path: LatticePath, spans: tuple[Span, ...], k: int) -> HalfSplit:
    """Refine one half by its component cuts and its breakpoint partition.

    The half's search path is its spans' steps sliced off the word's path,
    with keys packed at its own, narrower base. Merging keeps multiplicity;
    at equal parameters component cuts come first and breakpoints follow
    in their own order (t before s), fixing which empty parts count as
    inside a segment. Parts between an odd number of passed breakpoints
    lie inside the segments, and those form the initial member set.
    """
    half = LatticePath(path.n, tuple(chain.from_iterable(path.steps[s:e] for s, e in spans)))
    partition = burago_partition(half, k)
    cuts = _cut_params(spans)
    merged: list[tuple[int, int]] = sorted(
        [(c, 0) for c in cuts] + [(b, 1) for b in partition.breakpoints]
    )
    boundaries = (0,) + tuple(v for v, _ in merged) + (2 * len(half),)
    members = set()
    passed = 0
    for p in range(len(boundaries) - 1):
        if p >= 1 and merged[p - 1][1] == 1:
            passed += 1
        if passed % 2 == 1:
            members.add(p)
    return HalfSplit(half, spans, cuts, boundaries, frozenset(members))


def _normalize(half: HalfSplit, prefer_large: bool) -> HalfSplit:
    """Swap members with their complement to set the cardinality ordering.

    The two sides always differ in size (their total is odd), so the
    comparison never ties; equality would keep the original side.
    """
    size = len(half.members)
    rest = half.part_count - size
    if (size < rest) if prefer_large else (size > rest):
        flipped = frozenset(range(half.part_count)) - half.members
        return replace(half, members=flipped)
    return half


def refine_and_split(path: LatticePath, x: tuple[Span, ...], k: int) -> RefinedSplit:
    """Cut both halves at their breakpoints, refined by component cuts.

    x holds m disjoint (start, end) token spans of the word traced as
    path. Requires a zero-displacement tuple whose halves displace
    nonzero (equivalently: either half, since they cancel). The left
    member set S keeps the larger side, the right member set T the
    smaller, so the slot counts of the eventual y and z both fit within m.
    """
    m = len(x)
    if m % 2:
        raise ValueError(f"tuple width must be even, got {m}")
    keys = path.keys
    ends = [keys[2 * e] - keys[2 * s] for s, e in x]
    if sum(ends):
        whole = tuple(c // 2 for c in path.vector(sum(ends)))
        raise ValueError(f"tuple displacement must be zero, got {whole}")
    if not sum(ends[: m // 2]):
        raise ValueError("both halves must have nonzero displacement")
    left = _normalize(_split_half(path, x[: m // 2], k), prefer_large=True)
    right = _normalize(_split_half(path, x[m // 2 :], k), prefer_large=False)
    return RefinedSplit(left, right)


def lift_to_lattice(split: RefinedSplit) -> RefinedSplit:
    """Move every part boundary onto an even (lattice) parameter.

    A boundary between two parts on the same side of the balance
    condition snaps one half-unit, preferring the earlier parameter.
    A boundary between opposite sides pairs with another such boundary
    whose edge lies on the same axis, and both shift together so the
    balance sum is unchanged; the direction flips when a side would run
    out of content. Every move turns odd parameters even and never
    moves component cuts (those are even already), so the refinement
    property survives. A full scan with no legal move would contradict
    the parity of crossing endpoints and raises InternalInvariantError.
    A move is legal when each moved boundary stays between its neighbours
    and the member-side extent `inside` stays in [1, total - 1]; as the
    bounds are sorted between moves, that equals a check of every part.
    """
    halves = (split.left, split.right)
    bounds = [list(half.boundaries) for half in halves]
    total = sum(b[-1] for b in bounds)
    inside = sum(b[p + 1] - b[p] for b, half in zip(bounds, halves) for p in half.members)

    def odd_positions() -> list[tuple[int, int]]:
        return [
            (h, i)
            for h in (0, 1)
            for i in range(1, len(bounds[h]) - 1)
            if bounds[h][i] % 2
        ]

    def side(h: int, i: int) -> int:
        """The change in member-side extent when boundary i moves by +1: 1, -1 or 0."""
        members = halves[h].members
        return ((i - 1) in members) - (i in members)

    def crossing(h: int, i: int) -> tuple[int, int] | None:
        """(edge axis, effect sign) of boundary i, None between same sides.

        Moving the boundary by delta changes the member-side balance sum
        by delta * sign on the axis of the edge the boundary sits on.
        """
        sign = side(h, i)
        if not sign:
            return None
        axis, edge_sign = halves[h].path.step_at(bounds[h][i])
        return axis, edge_sign * sign

    def candidates(odds: list[tuple[int, int]]) -> Iterator[list[tuple[int, int, int]]]:
        """Moves in trial order: boundaries in order, partners in order, -1 before +1."""
        for h, i in odds:
            effect = crossing(h, i)
            if effect is None:
                for delta in (-1, 1):
                    yield [(h, i, delta)]
                continue
            axis, sign = effect
            for h2, j in odds:
                if (h2, j) == (h, i):
                    continue
                partner = crossing(h2, j)
                if partner is None or partner[0] != axis:
                    continue
                for delta in (-1, 1):
                    yield [(h, i, delta), (h2, j, -delta * sign * partner[1])]

    def legal(moves: list[tuple[int, int, int]]) -> bool:
        if not 1 <= inside + sum(delta * side(h, i) for h, i, delta in moves) <= total - 1:
            return False
        moved = {(h, i): bounds[h][i] + delta for h, i, delta in moves}
        return all(moved.get((h, i - 1), bounds[h][i - 1]) <= v <= moved.get((h, i + 1), bounds[h][i + 1])
                   for (h, i), v in moved.items())

    while odds := odd_positions():
        moves = next((mv for mv in candidates(odds) if legal(mv)), None)
        if moves is None:
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
        for h, i, delta in moves:
            inside += delta * side(h, i)
            bounds[h][i] += delta
    result = RefinedSplit(
        replace(split.left, boundaries=tuple(bounds[0])),
        replace(split.right, boundaries=tuple(bounds[1])),
    )
    if any(result.condition_sum()):
        raise InternalInvariantError(
            "repair moves changed the balance sum",
            {"sum": result.condition_sum()},
        )
    return result


def make_yz(split: RefinedSplit) -> YZSplit:
    """Read the two m-tuples of spans off a lattice-aligned split.

    y takes the member parts (S in path order, then T), z the rest,
    each padded with empty spans to width m. A part lies inside one
    component, so one owner lookup gives both its span of the input word
    and its block: the blocking lists, for every original component, the
    slots of its parts in path order; slots that carry padding join the
    final block.
    """
    m = split.m
    y: list[Span] = []
    z: list[Span] = []
    blocks: list[list[int]] = [[] for _ in range(m)]
    for h, half in enumerate((split.left, split.right)):
        ladder = (0,) + half.component_cuts + (2 * len(half.path),)
        for p, (lo, hi) in enumerate(zip(half.boundaries, half.boundaries[1:])):
            if lo % 2 or hi % 2:
                raise ValueError(f"part {p} spans odd parameters ({lo}, {hi})")
            comp = _owner_component(ladder, hi)
            start = half.spans[comp - 1][0] - ladder[comp - 1] // 2
            span = (start + lo // 2, start + hi // 2)
            if p in half.members:
                y.append(span)
                slot = len(y)
            else:
                z.append(span)
                slot = m + len(z)
            blocks[h * m // 2 + comp - 1].append(slot)
    if len(y) > m or len(z) > m:
        raise InternalInvariantError(
            "side exceeds the slot budget", {"y": len(y), "z": len(z), "m": m}
        )
    y.extend((0, 0) for _ in range(m - len(y)))
    z.extend((0, 0) for _ in range(m - len(z)))
    return YZSplit(tuple(y), tuple(z), _pad_to_last(blocks, 2 * m))


class _Synthesizer:
    """One synthesis run: grammar, the word traced once, emitted steps and axiom reuse."""

    def __init__(self, g: Grammar, w: Word):
        self.g = g
        self.n = len(g.terminals) // 2
        self.params = grammar_params(self.n)
        self.path = word_to_path(w, self.n)
        self.steps: list[RuleInstance] = []
        self._axioms: dict[int, int] = {}

    def _push(self, step: RuleInstance) -> int:
        self.steps.append(step)
        return len(self.steps) - 1

    def axiom(self, rule_index: int) -> int:
        if rule_index not in self._axioms:
            self._axioms[rule_index] = self.concrete(rule_index, {}, ())
        return self._axioms[rule_index]

    def concrete(self, rule_index: int, subst: dict[str, Word],
                 premises: tuple[int, ...]) -> int:
        rule = self.g.rules[rule_index]
        comps = tuple(instantiate(t, subst) for t in rule.templates)
        return self._push(
            RuleInstance.concrete(rule_index, subst, rule.lhs, comps, premises)
        )

    def combine(self, left: int, right: int, blocking: Blocking) -> int:
        schema = self.g.schemas[0]
        comps = apply_blocking(
            blocking, self.steps[left].conclusion, self.steps[right].conclusion
        )
        return self._push(
            RuleInstance.combine(
                schema.nonterminal, blocking, schema.nonterminal, comps, (left, right)
            )
        )

    def base(self, x: tuple[Span, ...]) -> int:
        """Direct construction for total length <= m.

        Tokens pair up with inverse occurrences (leftmost first); each
        pair pulls in its axis axiom, folds keep every letter in its
        own slot (2 per pair, within budget since the total is <= m),
        and one closing combine against the empty axiom arranges the
        letters into the requested components.
        """
        m = self.params.m
        steps = list(chain.from_iterable(self.path.steps[s:e] for s, e in x))
        if not steps:
            return self.axiom(1)
        # rule order fixed by make_grammar: start rule, empty axiom, per-axis axioms
        axis = steps[0][0]
        if (steps == [(axis, 1), (axis, -1)]
                and [e - s for s, e in x] == [1, 1] + [0] * (m - 2)):
            return self.axiom(1 + axis)

        pending: dict[tuple[int, int], deque[int]] = {}
        pairs: list[tuple[int, int, int]] = []
        for pos, (axis, sign) in enumerate(steps):
            queue = pending.setdefault((axis, -sign), deque())
            if queue:
                partner = queue.popleft()
                plus, minus = (partner, pos) if sign == -1 else (pos, partner)
                pairs.append((axis, plus, minus))
            else:
                pending.setdefault((axis, sign), deque()).append(pos)

        slot_of: dict[int, int] = {}
        axis0, plus0, minus0 = pairs[0]
        acc = self.axiom(1 + axis0)
        slot_of[plus0] = 1
        slot_of[minus0] = 2
        for r, (axis, plus, minus) in enumerate(pairs[1:], start=1):
            acc = self.combine(acc, self.axiom(1 + axis), _fold_blocking(r, m))
            slot_of[plus] = 2 * r + 1
            slot_of[minus] = 2 * r + 2

        empty = self.axiom(1)
        blocks: list[list[int]] = [[] for _ in range(m)]
        pos = 0
        for i, (s, e) in enumerate(x):
            for _ in range(s, e):
                blocks[i].append(slot_of[pos])
                pos += 1
        return self.combine(acc, empty, _pad_to_last(blocks, 2 * m))

    def halve(self, x: tuple[Span, ...]) -> int:
        """Both halves displace zero and carry tokens: recurse on each."""
        m = self.params.m
        half = m // 2
        pad = ((0, 0),) * half
        il = self.synth(x[:half] + pad)
        ir = self.synth(x[half:] + pad)
        return self.combine(il, ir, _halve_blocking(m))

    def rebalance(self, x: tuple[Span, ...]) -> int:
        """Re-cut a lopsided tuple so every component is nonempty.

        Used when one half carries no tokens at all, where halving
        would recurse on the same tuple. The new cut ladder keeps every
        distinct original cut and inserts midpoints of the leftmost
        largest gap until all m components are nonempty; recursion on
        the re-cut tuple therefore strictly descends at the next level,
        and one combine against the empty axiom regroups the result.
        Each re-cut piece narrows the one nonempty component holding it,
        found by bisect_right on the size ladder (empty components repeat
        ladder entries).
        """
        m = self.params.m
        ladder = list(accumulate((e - s for s, e in x), initial=0))
        distinct = sorted(set(ladder))
        while len(distinct) < m + 1:
            widths = [b - a for a, b in zip(distinct, distinct[1:])]
            at = widths.index(max(widths))
            distinct.insert(at + 1, (distinct[at] + distinct[at + 1]) // 2)
        recut: list[Span] = []
        blocks: list[list[int]] = [[] for _ in range(m)]
        for slot, (a, b) in enumerate(zip(distinct, distinct[1:]), start=1):
            comp = bisect_right(ladder, a)
            shift = x[comp - 1][0] - ladder[comp - 1]
            recut.append((shift + a, shift + b))
            blocks[comp - 1].append(slot)
        inner = self.synth(tuple(recut))
        empty = self.axiom(1)
        return self.combine(inner, empty, _pad_to_last(blocks, 2 * m))

    def synth(self, x: tuple[Span, ...]) -> int:
        k, m = self.params
        if sum(e - s for s, e in x) <= m:
            return self.base(x)
        keys = self.path.keys
        # packs the left half's displacement; 0 exactly when it is zero
        if sum(keys[2 * e] - keys[2 * s] for s, e in x[: m // 2]):
            yz = make_yz(lift_to_lattice(refine_and_split(self.path, x, k)))
            iy = self.synth(yz.y)
            iz = self.synth(yz.z)
            return self.combine(iy, iz, yz.blocking)
        if any(e > s for s, e in x[: m // 2]) and any(e > s for s, e in x[m // 2 :]):
            return self.halve(x)
        return self.rebalance(x)


def synthesize(x: tuple[Word, ...], g: Grammar) -> Derivation:
    """Derivation of I(x) for any zero-displacement m-tuple of g's rank.

    The components are carried as consecutive spans of their concatenation.
    """
    n = len(g.terminals) // 2
    m = grammar_params(n).m
    if len(x) != m:
        raise ValueError(f"expected an {m}-tuple, got {len(x)} components")
    w = tuple(chain.from_iterable(x))
    if any(displacement(w, n)):
        raise ValueError("tuple displacement must be zero")
    syn = _Synthesizer(g, w)
    syn.synth(_consecutive(map(len, x)))
    return Derivation(tuple(syn.steps))


def synthesize_word(w: Word, n: int) -> Derivation | None:
    """Full derivation of S(w), or None when w displaces nonzero.

    Non-membership is an answer, not an error. The word is spread over
    the m components in contiguous near-equal chunks (one token each
    while it fits, then empty ones) and the tuple derivation gets the one
    start-rule step on top.
    """
    if any(displacement(w, n)):
        return None
    syn = _Synthesizer(make_grammar(n), w)
    m = syn.params.m
    share, extra = divmod(len(w), m)
    x = _consecutive(share + (i < extra) for i in range(m))
    top = syn.synth(x)
    syn.concrete(0, {f"x{i + 1}": tuple(w[s:e]) for i, (s, e) in enumerate(x)}, (top,))
    return Derivation(tuple(syn.steps))
