"""Constructive derivation synthesis for the zero-displacement grammars.

The synthesizer turns a zero-displacement word w into a checked
derivation by recursing on the total length of an m-tuple of factors of
w, each carried as a (start, end) token span of w. w is traced once, and
every displacement test is an int difference of that path's keys:

  * small tuples (total length <= m) get an explicit base construction;
  * when both concatenated halves displace, each half-path is cut where
    sum_i (P(s_i) - P(t_i)) = P(2L) / 2, P(p) its doubled point at p
    (burago_partition, or first row_zero on the word's keys at k = 1); the
    cuts are refined by the component boundaries, repaired onto lattice
    points, and read off as two strictly shorter zero-displacement m-tuples
    y, z and the blocking that rebuilds x. The three stages
    (refine_and_split, lift_to_lattice, make_yz) hand each other the
    word's path, the tuple's spans and, per half, plain lists of part
    boundaries and member flags; the lift edits the boundary lists in
    place, and make_yz checks the balance once, on y's spans;
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

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, chain, filterfalse
from typing import TYPE_CHECKING, Iterable

from .burago import InternalInvariantError, burago_partition, row_zero
from .derivation import Derivation, RuleInstance, apply_blocking
from .grammar import Blocking, Grammar, Word, instantiate
from .zn import (
    LatticePath,
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


def _pad_to_last(blocks: list[list[int]], total_slots: int) -> Blocking:
    """Append every unused source slot, ascending, to the final block."""
    used = set(chain.from_iterable(blocks))
    blocks[-1].extend(filterfalse(used.__contains__, range(1, total_slots + 1)))
    return Blocking(tuple(map(tuple, blocks)))


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


if TYPE_CHECKING:
    # A split travels between the three stages as (path, x, left, right): the
    # word's path, the m-tuple of spans and one half per side, each a tuple
    # (bounds, member, ends, offsets, at) of plain lists (see _split_half).
    Half = tuple[list[int], list[bool], list[int], list[int], list[int]]
    Split = tuple[LatticePath, tuple[Span, ...], Half, Half]


def _split_half(path: LatticePath, spans: tuple[Span, ...], k: int, target: int,
                prefer_large: bool) -> Half:
    """Refine one half by its component cuts and its breakpoint partition.

    At k = 1, row 0 of the search for target (half the half's displacement,
    packed at the word's base) runs on the word's keys (row_zero), where
    most halves answer; otherwise the half's own path is built and
    searched whole. The half comes back as five lists over its own path's
    parameters: bounds, the len(parts)+1 sorted part boundaries from 0 to
    2L; member, one flag per part for the chosen side of the balance
    condition (S for the left half, T for the right); ends, each
    component's end, so all but the last are the component cuts, which
    are even and appear among bounds verbatim; offsets, what turns a
    parameter in component c into one of the word (2 * start - the cut
    before it); and at, each breakpoint's position in bounds.

    Merging keeps multiplicity; at equal parameters component cuts come
    first and breakpoints follow in their own order (t before s), fixing
    which empty parts count as inside a segment. Parts between an odd
    number of passed breakpoints lie inside the segments, and those form
    the initial member side. It is then swapped with its complement if
    needed, so that it is the larger side when prefer_large and the
    smaller otherwise; the two sides always differ in size (their total
    is odd), so the comparison never ties.
    """
    s1 = row_zero(path.keys, spans, target) if k == 1 else None
    breakpoints = burago_partition(path.sub_path(spans), k) if s1 is None else (0, s1)
    # one merge of the component ends with the sorted breakpoints: a breakpoint
    # goes before the first cut past it, so at equal parameters the cut comes
    # first, and every breakpoint goes before the end
    bounds, at, ends, offsets = [0], [], [], []
    q = j = 0
    last = len(spans) - 1
    for c, (s, e) in enumerate(spans):
        offsets.append(2 * s - q)
        q += 2 * (e - s)
        limit = q + (c == last)
        while j < len(breakpoints) and breakpoints[j] < limit:
            at.append(len(bounds))
            bounds.append(breakpoints[j])
            j += 1
        ends.append(q)
        bounds.append(q)
    count = len(bounds) - 1
    inside = sum(at[1::2]) - sum(at[::2])  # parts inside the segments
    # the parts before the first breakpoint lie outside the segments, so they
    # are members exactly when the sides swap; each breakpoint switches the side
    flag = (2 * inside < count) if prefer_large else (2 * inside > count)
    member: list[bool] = []
    prev = 0
    for a in at:
        member += [flag] * (a - prev)
        prev, flag = a, not flag
    member += [flag] * (count - prev)
    return bounds, member, ends, offsets, at


def refine_and_split(path: LatticePath, x: tuple[Span, ...]) -> Split:
    """Cut both halves at their breakpoints, refined by component cuts.

    x holds m disjoint (start, end) token spans of the word traced as
    path. Requires a zero-displacement tuple whose halves displace
    nonzero (equivalently: either half, since they cancel), of a width
    m = 8k - 2; each half is cut at k = (m + 2) // 8 intervals. Returns
    (path, x, left, right), each half as _split_half gives it. The left
    member side S keeps the larger side, the right member side T the
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
    left = sum(ends[: m // 2])
    if not left:
        raise ValueError("both halves must have nonzero displacement")
    if (m + 2) % 8:
        raise ValueError(f"tuple width must be 8k - 2 for some k >= 1, got {m}")
    k = (m + 2) // 8
    # the halves displace by left and -left, whose coordinates are even: halving is exact
    return (path, x, _split_half(path, x[: m // 2], k, left // 2, True),
            _split_half(path, x[m // 2 :], k, -left // 2, False))


def lift_to_lattice(split: Split) -> Split:
    """Move every part boundary onto an even (lattice) parameter, in place.

    Every odd boundary lies between opposite sides of the balance
    condition: the boundaries are component cuts, which are even and keep
    the side, and breakpoints, each of which switches it; so only the
    breakpoints are visited. A half holds at most one odd breakpoint per
    axis: were p < q two on edges of one axis, moving p to p - 1 and q by
    whichever of +-1 restores the interval sum would give a valid tuple
    lexicographically smaller than the lex-min one. The balance sum is
    even on every axis, so an axis with an odd breakpoint has exactly one
    in each half. The left half's odd breakpoints are taken in order, and
    each moves together with the right half's one on its axis, so the
    balance sum is unchanged: by -1, or by +1 when -1 would empty a side,
    that is, put the member-side extent `inside` outside (0, total).
    Each moved breakpoint borders exactly one member part, so a move
    changes inside by -2, 0 or 2, and inside and total are even; one
    direction is therefore legal unless total is 4, the minimal split
    that no move can repair. That split, and a broken pairing, raise
    InternalInvariantError. Every move turns odd parameters even and
    never moves component cuts, so the refinement property survives.
    The split is one as refine_and_split returns it: its breakpoints are
    leading (0, 0) pairs, then strictly increasing (burago_partition), and
    the cuts are even, so each odd boundary lies strictly between its
    neighbours, two odd ones lie at least 2 apart, and no move of 1 can
    put a bounds list out of order. The halves' bounds lists are edited
    and the same split is returned; with no odd boundary nothing is built.
    """
    path, x, left, right = split
    steps = path.steps
    # per axis, its odd breakpoints, the left half's first, as (h, i, side, effect): side
    # is the change in member-side extent when boundary i of half h moves by +1; moving
    # by delta changes the balance sum by delta * effect on the axis of its edge, which
    # lies in the component after the i - 1 - j cuts before boundary i
    odd: dict[int, list] = {}
    for h, (b, member, _, offsets, at) in enumerate((left, right)):
        for j, i in enumerate(at):
            if b[i] % 2:
                side = member[i - 1] - member[i]
                axis, sign = steps[(b[i] + offsets[i - 1 - j]) // 2]
                odd.setdefault(axis, []).append((h, i, side, sign * side))
    if not odd:
        return split
    total = left[0][-1] + right[0][-1]
    inside = sum([hi - lo for b, member, *_ in (left, right)
                  for lo, hi, f in zip(b, b[1:], member) if f])
    for pair in odd.values():
        (h, i, side, effect), (h2, j, side2, effect2) = pair[0], pair[-1]
        # the partner moves by -delta * effect * effect2, so inside grows by delta * grow
        grow = side - effect * effect2 * side2
        delta = next((d for d in (-1, 1) if 0 < inside + d * grow < total), 0)
        if (h, h2, len(pair)) != (0, 1, 2) or not delta:
            raise InternalInvariantError(
                "no mid-lattice endpoint can move",
                {
                    "left_boundaries": tuple(left[0]),
                    "right_boundaries": tuple(right[0]),
                    "left_members": [p for p, f in enumerate(left[1]) if f],
                    "right_members": [p for p, f in enumerate(right[1]) if f],
                    "left_steps": path.sub_path(x[: len(x) // 2]).steps,
                    "right_steps": path.sub_path(x[len(x) // 2 :]).steps,
                },
            )
        left[0][i] += delta
        right[0][j] -= delta * effect * effect2
        inside += delta * grow
    return split


def make_yz(split: Split) -> tuple[tuple[Span, ...], tuple[Span, ...], Blocking]:
    """Read (y, z, blocking) off a lattice-aligned split.

    y takes the member parts (S in path order, then T), z the rest,
    each padded with empty spans to width m. A part lies inside one
    component, so one owner gives both its span of the input word and
    its block: the blocking lists, for every original component, the
    slots of its parts in path order; slots that carry padding join the
    final block. The balance condition is checked once, as the packed sum
    of y's spans on the word's keys: each part is read at its owner's
    offset, so that sum is the member parts' sum over both halves.
    """
    path, x, left, right = split
    m = len(x)
    y: list[Span] = []
    z: list[Span] = []
    blocks: list[list[int]] = []
    for b, member, ends, offsets, _ in (left, right):
        own = [[] for _ in offsets]
        blocks += own
        # bounds hold every component cut, so a nonempty part never straddles
        # one, and the first component ending at or past a part's end owns it;
        # an empty part lands with the earliest ending at its point
        c = 0
        lo = b[0]
        for p, hi in enumerate(b[1:]):
            if lo % 2 or hi % 2:
                raise ValueError(f"part {p} spans odd parameters ({lo}, {hi})")
            while ends[c] < hi:
                c += 1
            off = offsets[c]
            if member[p]:
                y.append(((lo + off) // 2, (hi + off) // 2))
                own[c].append(len(y))
            else:
                z.append(((lo + off) // 2, (hi + off) // 2))
                own[c].append(m + len(z))
            lo = hi
    if len(y) > m or len(z) > m:
        raise InternalInvariantError(
            "side exceeds the slot budget", {"y": len(y), "z": len(z), "m": m}
        )
    keys = path.keys
    total = sum([keys[2 * e] - keys[2 * s] for s, e in y])
    if total:
        raise InternalInvariantError(
            "repair moves changed the balance sum", {"sum": path.vector(total)}
        )
    # the unused slots, ascending: those of y's padding, then z's
    blocks[-1] += chain(range(len(y) + 1, m + 1), range(m + len(z) + 1, 2 * m + 1))
    y += [(0, 0)] * (m - len(y))
    z += [(0, 0)] * (m - len(z))
    return tuple(y), tuple(z), Blocking(tuple(map(tuple, blocks)))


class _Synthesizer:
    """One synthesis run: grammar, the word traced once, emitted steps and axiom reuse."""

    def __init__(self, g: Grammar, w: Word):
        self.g = g
        self.n = len(g.terminals) // 2
        self.m = grammar_params(self.n).m
        self.path = word_to_path(w, self.n)
        self.steps: list[RuleInstance] = []
        self._axioms: dict[int, int] = {}

    def axiom(self, rule_index: int) -> int:
        if rule_index not in self._axioms:
            self._axioms[rule_index] = self.concrete(rule_index, {}, ())
        return self._axioms[rule_index]

    def concrete(self, rule_index: int, subst: dict[str, Word],
                 premises: tuple[int, ...]) -> int:
        rule = self.g.rules[rule_index]
        comps = tuple(instantiate(t, subst) for t in rule.templates)
        self.steps.append(RuleInstance.concrete(rule_index, subst, rule.lhs, comps, premises))
        return len(self.steps) - 1

    def combine(self, left: int, right: int, blocking: Blocking) -> int:
        steps, nt = self.steps, self.g.schemas[0].nonterminal
        comps = apply_blocking(blocking, steps[left].conclusion, steps[right].conclusion)
        # positional: (conclusion_nt, conclusion, premises, rule_index, schema, blocking)
        steps.append(RuleInstance(nt, comps, (left, right), None, nt, blocking))
        return len(steps) - 1

    def base(self, x: tuple[Span, ...]) -> int:
        """Direct construction for total length <= m.

        Tokens pair up with inverse occurrences (leftmost first); each
        pair pulls in its axis axiom, folds keep every letter in its
        own slot (2 per pair, within budget since the total is <= m),
        and one closing combine against the empty axiom arranges the
        letters into the requested components. The folds are appended
        here as schema steps carrying _fold_blocking(r, m); each fold's
        conclusion is sliced together, which is what that blocking gives.
        """
        m = self.m
        path_steps = self.path.steps
        steps: list[tuple[int, int]] = []
        for s, e in x:
            steps += path_steps[s:e]
        if not steps:
            return self.axiom(1)
        # rule order fixed by make_grammar: start rule, empty axiom, per-axis axioms
        axis = steps[0][0]
        if (steps == [(axis, 1), (axis, -1)]
                and [e - s for s, e in x] == [1, 1] + [0] * (m - 2)):
            return self.axiom(1 + axis)

        # each letter pairs with the earliest unpaired inverse letter, waiting
        # under the step that pairs it; the r-th pair takes slots 2r + 1 (a) and
        # 2r + 2 (A) and is folded in as found
        pending: dict[tuple[int, int], list[int]] = {}
        slot_of = [0] * len(steps)
        out, nt = self.steps, self.g.schemas[0].nonterminal
        acc = r = 0
        for pos, step in enumerate(steps):
            axis, sign = step
            queue = pending.get(step)
            if not queue:
                pending.setdefault((axis, -sign), []).append(pos)
                continue
            plus, minus = (pos, queue.pop(0)) if sign == 1 else (queue.pop(0), pos)
            slot_of[plus], slot_of[minus] = 2 * r + 1, 2 * r + 2
            unit = self.axiom(1 + axis)
            if r:
                # the letters placed so far, the unit's two letters, then its empty components
                comps = out[acc].conclusion[: 2 * r] + out[unit].conclusion[: m - 2 * r]
                out.append(RuleInstance(nt, comps, (acc, unit), None, nt, _fold_blocking(r, m)))
                acc = len(out) - 1
            else:
                acc = unit
            r += 1
        empty = self.axiom(1)
        # each component's slots in token order; the unused slots join the last block
        rows = []
        a = 0
        for s, e in x:
            rows.append(tuple(slot_of[a : a + e - s]))
            a += e - s
        rows[-1] += tuple(range(2 * r + 1, 2 * m + 1))
        return self.combine(acc, empty, Blocking(tuple(rows)))

    def halve(self, x: tuple[Span, ...]) -> int:
        """Both halves displace zero and carry tokens: recurse on each."""
        m = self.m
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
        m = self.m
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
        m = self.m
        if sum([e - s for s, e in x]) <= m:
            return self.base(x)
        keys = self.path.keys
        # packs the left half's displacement; 0 exactly when it is zero
        if sum([keys[2 * e] - keys[2 * s] for s, e in x[: m // 2]]):
            y, z, blocking = make_yz(lift_to_lattice(refine_and_split(self.path, x)))
            iy = self.synth(y)
            iz = self.synth(z)
            return self.combine(iy, iz, blocking)
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
    m = syn.m
    share, extra = divmod(len(w), m)
    x = _consecutive(share + (i < extra) for i in range(m))
    top = syn.synth(x)
    syn.concrete(0, {f"x{i + 1}": tuple(w[s:e]) for i, (s, e) in enumerate(x)}, (top,))
    return Derivation(tuple(syn.steps))
