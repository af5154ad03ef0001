"""Constructive derivation synthesis for the zero-displacement grammars.

The synthesizer turns a zero-displacement word into a checked derivation
by recursing on the total length of an m-tuple of subwords:

  * small tuples (total length <= m) get an explicit base construction;
  * when both concatenated halves displace, each half-path is split at
    breakpoints hitting half its displacement (burago_partition), the
    split is refined by the component boundaries, repaired onto lattice
    points, and read off as two strictly shorter zero-displacement
    m-tuples y and z plus the blocking that reassembles x from them;
  * when the halves have zero displacement individually, the tuple is
    split in two directly (or re-cut first when one half carries no
    tokens at all, so that the next level strictly descends).

All geometry runs in doubled integer coordinates on the half-unit
parameter grid; no floating point is involved anywhere.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterator

from .burago import InternalInvariantError, burago_partition
from .derivation import Derivation, RuleInstance, apply_blocking
from .grammar import Blocking, Grammar, Word, instantiate
from .zn import (
    LatticePath,
    Vec,
    _decode,
    displacement,
    grammar_params,
    make_grammar,
    make_token,
    vadd,
    word_to_path,
)


def _flatten(x: tuple[Word, ...]) -> Word:
    out: list[str] = []
    for comp in x:
        out.extend(comp)
    return tuple(out)


def _cut_params(parts: tuple[Word, ...]) -> tuple[int, ...]:
    """Internal component boundaries as doubled parameters, multiplicity kept."""
    cuts = []
    pos = 0
    for comp in parts[:-1]:
        pos += 2 * len(comp)
        cuts.append(pos)
    return tuple(cuts)


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


@dataclass(frozen=True)
class HalfSplit:
    """One concatenated half, cut into parts on the half-unit grid.

    word is the half's tokens, path its lattice path, and every part word
    a slice of word. boundaries has len(parts)+1 sorted parameters
    starting at 0 and ending at 2L; members holds the 0-based part indices
    on the chosen side of the balance condition (S for the left half, T
    for the right).
    component_cuts are the even parameters of the original component
    boundaries, with multiplicity, and appear among boundaries verbatim.
    """

    path: LatticePath
    word: Word
    component_cuts: tuple[int, ...]
    boundaries: tuple[int, ...]
    members: frozenset[int]

    @property
    def part_count(self) -> int:
        return len(self.boundaries) - 1

    def part_span(self, p: int) -> tuple[int, int]:
        return self.boundaries[p], self.boundaries[p + 1]

    def part_diff(self, p: int) -> Vec:
        lo, hi = self.part_span(p)
        keys = self.path.keys
        return self.path.vector(keys[hi] - keys[lo])

    def part_word(self, p: int) -> Word:
        lo, hi = self.part_span(p)
        if lo % 2 or hi % 2:
            raise ValueError(f"part {p} spans odd parameters ({lo}, {hi})")
        return self.word[lo // 2 : hi // 2]


@dataclass(frozen=True)
class RefinedSplit:
    """Both halves of an m-tuple, refined and tagged with S and T."""

    left: HalfSplit
    right: HalfSplit

    @property
    def m(self) -> int:
        return 2 * (len(self.left.component_cuts) + 1)

    def condition_sum(self) -> Vec:
        """Sum of doubled part differences over S and T; zero when balanced."""
        total = (0,) * self.left.path.n
        for half in (self.left, self.right):
            for p in sorted(half.members):
                total = vadd(total, half.part_diff(p))
        return total


@dataclass(frozen=True)
class YZSplit:
    """Two m-tuples plus the blocking that reassembles the original one."""

    y: tuple[Word, ...]
    z: tuple[Word, ...]
    blocking: Blocking


def _split_half(word: Word, path: LatticePath, comps: tuple[Word, ...], k: int) -> HalfSplit:
    """Refine one half by its component cuts and its breakpoint partition.

    Merging keeps multiplicity; at equal parameters component cuts come
    first and breakpoints follow in their own order (t before s), fixing
    which empty parts count as inside a segment. Parts between an odd
    number of passed breakpoints lie inside the segments, and those form
    the initial member set.
    """
    partition = burago_partition(path, k)
    cuts = _cut_params(comps)
    merged: list[tuple[int, int]] = sorted(
        [(c, 0) for c in cuts] + [(b, 1) for b in partition.breakpoints]
    )
    boundaries = (0,) + tuple(v for v, _ in merged) + (2 * len(path),)
    members = set()
    passed = 0
    for p in range(len(boundaries) - 1):
        if p >= 1 and merged[p - 1][1] == 1:
            passed += 1
        if passed % 2 == 1:
            members.add(p)
    return HalfSplit(path, word, cuts, boundaries, frozenset(members))


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


def refine_and_split(x: tuple[Word, ...], n: int, k: int,
                     left_path: LatticePath | None = None) -> RefinedSplit:
    """Cut both halves at their breakpoints, refined by component cuts.

    Requires a zero-displacement tuple whose halves displace nonzero
    (equivalently: either half, since they cancel). The left member set
    S keeps the larger side, the right member set T the smaller, so the
    slot counts of the eventual y and z both fit within m. left_path is
    the left half's path when the caller has traced it already.
    """
    m = len(x)
    if m % 2:
        raise ValueError(f"tuple width must be even, got {m}")
    h1 = _flatten(x[: m // 2])
    h2 = _flatten(x[m // 2 :])
    p1 = word_to_path(h1, n) if left_path is None else left_path
    p2 = word_to_path(h2, n)
    # the halves' keys use different bases, so compare them as vectors
    end1 = p1.vector(p1.keys[-1])
    whole = tuple(c // 2 for c in vadd(end1, p2.vector(p2.keys[-1])))
    if any(whole):
        raise ValueError(f"tuple displacement must be zero, got {whole}")
    if not any(end1):
        raise ValueError("both halves must have nonzero displacement")
    left = _normalize(_split_half(h1, p1, x[: m // 2], k), prefer_large=True)
    right = _normalize(_split_half(h2, p2, x[m // 2 :], k), prefer_large=False)
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
    """
    halves = (split.left, split.right)
    bounds = [list(half.boundaries) for half in halves]

    def odd_positions() -> list[tuple[int, int]]:
        return [
            (h, i)
            for h in (0, 1)
            for i in range(1, len(bounds[h]) - 1)
            if bounds[h][i] % 2
        ]

    def crossing(h: int, i: int) -> tuple[int, int] | None:
        """(edge axis, effect sign) of boundary i, None between same sides.

        Moving the boundary by delta changes the member-side balance sum
        by delta * sign on the axis of the edge the boundary sits on.
        """
        inside_left = (i - 1) in halves[h].members
        inside_right = i in halves[h].members
        if inside_left == inside_right:
            return None
        axis, edge_sign = halves[h].path.step_at(bounds[h][i])
        return axis, edge_sign * (int(inside_left) - int(inside_right))

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
        trial = [list(bounds[0]), list(bounds[1])]
        for h, i, delta in moves:
            trial[h][i] += delta
        for h in (0, 1):
            if any(a > b for a, b in zip(trial[h], trial[h][1:])):
                return False
        inside = other = 0
        for h in (0, 1):
            for p in range(len(trial[h]) - 1):
                extent = trial[h][p + 1] - trial[h][p]
                if p in halves[h].members:
                    inside += extent
                else:
                    other += extent
        return inside >= 1 and other >= 1

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
    """Read the two m-tuples off a lattice-aligned split.

    y takes the member parts (S in path order, then T), z the rest,
    each padded with empty words to width m. The blocking lists, for
    every original component, the slots of its parts in path order;
    slots that carry padding join the final block.
    """
    m = split.m
    slot_of: dict[tuple[int, int], int] = {}
    y: list[Word] = []
    z: list[Word] = []
    for h, half in enumerate((split.left, split.right)):
        for p in range(half.part_count):
            if p in half.members:
                y.append(half.part_word(p))
                slot_of[(h, p)] = len(y)
    for h, half in enumerate((split.left, split.right)):
        for p in range(half.part_count):
            if p not in half.members:
                z.append(half.part_word(p))
                slot_of[(h, p)] = m + len(z)
    if len(y) > m or len(z) > m:
        raise InternalInvariantError(
            "side exceeds the slot budget", {"y": len(y), "z": len(z), "m": m}
        )
    y.extend(() for _ in range(m - len(y)))
    z.extend(() for _ in range(m - len(z)))

    blocks: list[list[int]] = [[] for _ in range(m)]
    for h, half in enumerate((split.left, split.right)):
        ladder = (0,) + half.component_cuts + (2 * len(half.path),)
        offset = 0 if h == 0 else m // 2
        for p in range(half.part_count):
            comp = offset + _owner_component(ladder, half.part_span(p)[1])
            blocks[comp - 1].append(slot_of[(h, p)])
    return YZSplit(tuple(y), tuple(z), _pad_to_last(blocks, 2 * m))


class _Synthesizer:
    """One synthesis run: grammar, sizes, emitted steps and axiom reuse."""

    def __init__(self, g: Grammar):
        self.g = g
        self.n = len(g.terminals) // 2
        self.params = grammar_params(self.n)
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

    def base(self, x: tuple[Word, ...]) -> int:
        """Direct construction for total length <= m.

        Tokens pair up with inverse occurrences (leftmost first); each
        pair pulls in its axis axiom, folds keep every letter in its
        own slot (2 per pair, within budget since the total is <= m),
        and one closing combine against the empty axiom arranges the
        letters into the requested components.
        """
        m = self.params.m
        tokens = _flatten(x)
        if not tokens:
            return self.axiom(1)
        # rule order fixed by make_grammar: start rule, empty axiom, per-axis axioms
        for axis in range(1, self.n + 1):
            if x == ((make_token(axis, 1),), (make_token(axis, -1),)) + ((),) * (m - 2):
                return self.axiom(1 + axis)

        pending: dict[tuple[int, int], deque[int]] = {}
        pairs: list[tuple[int, int, int]] = []
        for pos, (axis, sign) in enumerate(_decode(tokens, self.n)):
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
            ax = self.axiom(1 + axis)
            blocks: list[list[int]] = [[j] for j in range(1, 2 * r + 1)]
            blocks.append([m + 1])
            blocks.append([m + 2])
            blocks.extend([] for _ in range(m - len(blocks)))
            acc = self.combine(acc, ax, _pad_to_last(blocks, 2 * m))
            slot_of[plus] = 2 * r + 1
            slot_of[minus] = 2 * r + 2

        empty = self.axiom(1)
        blocks = [[] for _ in range(m)]
        pos = 0
        for i, comp in enumerate(x):
            for _ in comp:
                blocks[i].append(slot_of[pos])
                pos += 1
        return self.combine(acc, empty, _pad_to_last(blocks, 2 * m))

    def halve(self, x: tuple[Word, ...]) -> int:
        """Both halves displace zero and carry tokens: recurse on each."""
        m = self.params.m
        half = m // 2
        pad = ((),) * half
        il = self.synth(x[:half] + pad)
        ir = self.synth(x[half:] + pad)
        blocks = [[i] for i in range(1, half + 1)]
        blocks += [[m + i] for i in range(1, half + 1)]
        return self.combine(il, ir, _pad_to_last(blocks, 2 * m))

    def rebalance(self, x: tuple[Word, ...]) -> int:
        """Re-cut a lopsided tuple so every component is nonempty.

        Used when one half carries no tokens at all, where halving
        would recurse on the same tuple. The new cut ladder keeps every
        distinct original cut and inserts midpoints of the leftmost
        largest gap until all m components are nonempty; recursion on
        the re-cut tuple therefore strictly descends at the next level,
        and one combine against the empty axiom regroups the result.
        """
        m = self.params.m
        tokens = _flatten(x)
        ladder = [0]
        pos = 0
        for comp in x:
            pos += len(comp)
            ladder.append(pos)
        distinct = sorted(set(ladder))
        while len(distinct) < m + 1:
            widths = [b - a for a, b in zip(distinct, distinct[1:])]
            at = widths.index(max(widths))
            distinct.insert(at + 1, (distinct[at] + distinct[at + 1]) // 2)
        recut = tuple(
            tokens[a:b] for a, b in zip(distinct, distinct[1:])
        )
        inner = self.synth(recut)
        empty = self.axiom(1)
        blocks: list[list[int]] = [[] for _ in range(m)]
        for slot in range(1, m + 1):
            comp = _owner_component(tuple(ladder), distinct[slot])
            blocks[comp - 1].append(slot)
        return self.combine(inner, empty, _pad_to_last(blocks, 2 * m))

    def synth(self, x: tuple[Word, ...]) -> int:
        k, m = self.params
        if sum(len(c) for c in x) <= m:
            return self.base(x)
        h1 = _flatten(x[: m // 2])
        h2 = _flatten(x[m // 2 :])
        left_path = word_to_path(h1, self.n)
        if left_path.keys[-1]:  # packs the displacement; 0 exactly when it is zero
            split = lift_to_lattice(refine_and_split(x, self.n, k, left_path))
            yz = make_yz(split)
            iy = self.synth(yz.y)
            iz = self.synth(yz.z)
            return self.combine(iy, iz, yz.blocking)
        if h1 and h2:
            return self.halve(x)
        return self.rebalance(x)


def synthesize(x: tuple[Word, ...], g: Grammar) -> Derivation:
    """Derivation of I(x) for any zero-displacement m-tuple of g's rank."""
    syn = _Synthesizer(g)
    m = syn.params.m
    if len(x) != m:
        raise ValueError(f"expected an {m}-tuple, got {len(x)} components")
    if any(displacement(_flatten(x), syn.n)):
        raise ValueError("tuple displacement must be zero")
    syn.synth(x)
    return Derivation(tuple(syn.steps))


def synthesize_word(w: Word, n: int) -> Derivation | None:
    """Full derivation of S(w), or None when w displaces nonzero.

    Non-membership is an answer, not an error. The word is spread over
    the m components (one token each while it fits, else contiguous
    near-equal chunks) and the tuple derivation gets the one start-rule
    step on top.
    """
    if any(displacement(w, n)):
        return None
    syn = _Synthesizer(make_grammar(n))
    m = syn.params.m
    if len(w) <= m:
        x = tuple((t,) for t in w) + ((),) * (m - len(w))
    else:
        share, extra = divmod(len(w), m)
        sizes = [share + (1 if i < extra else 0) for i in range(m)]
        x = []
        pos = 0
        for size in sizes:
            x.append(w[pos : pos + size])
            pos += size
        x = tuple(x)
    top = syn.synth(x)
    subst = {f"x{i + 1}": x[i] for i in range(m)}
    syn.concrete(0, subst, (top,))
    return Derivation(tuple(syn.steps))
