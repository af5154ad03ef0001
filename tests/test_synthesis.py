"""Derivation synthesis: splitting, lattice repair, and the recursion."""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import replace
from itertools import accumulate, chain
from typing import Iterator

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mcfgkit.burago
import mcfgkit.synthesis
from mcfgkit import (
    Instance,
    InternalInvariantError,
    LatticePath,
    Word,
    apply_blocking,
    check_derivation,
    displacement,
    dumps_derivation,
    grammar_params,
    lift_to_lattice,
    make_grammar,
    make_yz,
    refine_and_split,
    synthesize,
    synthesize_word,
    word_to_path,
)
from mcfgkit.burago import burago_partition, row_zero

import wordgen
from wordgen import (
    RefinedSplit,
    all_words,
    as_refined,
    block_word,
    lex_min_reference,
    points,
    reference_lift,
    reference_refine,
    reference_split,
    reference_yz,
    shuffled_pairs,
    split_differential,
    split_outcomes,
    step_at,
    synthesis_symmetry,
    walk_and_return,
    yz_symmetry,
    zero_displacement_words,
)


def flatten(x: tuple[Word, ...]) -> Word:
    return sum(x, ())


def traced(x: tuple[Word, ...], n: int):
    """The path of x's concatenation, and x's components as spans of it."""
    ends = tuple(accumulate(map(len, x), initial=0))
    return word_to_path(flatten(x), n), tuple(zip(ends, ends[1:]))


def spread_word(draw, word: Word, m: int, n: int) -> tuple[Word, ...]:
    cuts = sorted(draw(st.lists(st.integers(0, len(word)),
                                min_size=m - 1, max_size=m - 1)))
    bounds = [0] + cuts + [len(word)]
    x = tuple(tuple(word[a:b]) for a, b in zip(bounds, bounds[1:]))
    if not any(displacement(flatten(x[: m // 2]), n)):
        # fall back to a single leading token, which always displaces
        bounds = [0] + [1] * (m - 1) + [len(word)]
        x = tuple(tuple(word[a:b]) for a, b in zip(bounds, bounds[1:]))
    return x


@st.composite
def splittable_tuples(draw, n: int) -> tuple[Word, ...]:
    """Zero-displacement m-tuples whose first half displaces nonzero."""
    k, m = grammar_params(n)
    word = draw(zero_displacement_words(n, min_pairs=1, max_pairs=8))
    return spread_word(draw, word, m, n)


@st.composite
def recursion_tuples(draw, n: int) -> tuple[Word, ...]:
    """Splittable tuples longer than m: the inputs the recursion splits.

    Lattice repair is only guaranteed above the base-case budget; a half
    carrying a single token can be provably unrepairable (see
    test_lift_reports_unrepairable_minimal_split).
    """
    k, m = grammar_params(n)
    word = draw(zero_displacement_words(n, min_pairs=m // 2 + 1,
                                        max_pairs=m // 2 + 4))
    return spread_word(draw, word, m, n)


def test_step_count_examples():
    assert len(synthesize_word((), 1)) == 2
    assert len(synthesize_word(("a1", "A1"), 1)) == 2
    assert len(synthesize_word(("A1", "a1"), 1)) == 4
    assert len(synthesize_word(("a1", "a1", "A1", "A1"), 1)) == 5
    assert len(synthesize_word(("a1", "a2", "A1", "A2"), 2)) == 6


def test_nonmembers_yield_none():
    assert synthesize_word(("a1",), 1) is None
    assert synthesize_word(("a1", "a1", "A1"), 1) is None
    assert synthesize_word(("a2",), 2) is None


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
def test_synthesized_derivations_check_out(n, data):
    word = data.draw(zero_displacement_words(n, max_pairs=8))
    g = make_grammar(n)
    d = synthesize_word(word, n)
    assert d is not None
    final = check_derivation(g, d)
    assert final == Instance("S", (word,))


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
def test_intermediate_instances_displace_zero(n, data):
    word = data.draw(zero_displacement_words(n, max_pairs=8))
    d = synthesize_word(word, n)
    for step in d.steps:
        assert step.conclusion_nt in ("S", "I")
        assert displacement(flatten(step.conclusion), n) == (0,) * n


def test_leading_component_split_synthesizes():
    # every short zero-displacement word placed whole into the first slot
    g = make_grammar(1)
    pad = ((),) * (grammar_params(1).m - 1)
    checked = 0
    for word in all_words(1, 8):
        if any(displacement(word, 1)):
            continue
        x = (word,) + pad
        final = check_derivation(g, synthesize(x, g))
        assert final == Instance("I", x)
        checked += 1
    assert checked == 99


def test_trailing_component_split_synthesizes():
    g = make_grammar(1)
    word = tuple("a1 a1 A1 A1 a1 A1 a1 A1".split())
    x = ((),) * (grammar_params(1).m - 1) + (word,)
    final = check_derivation(g, synthesize(x, g))
    assert final == Instance("I", x)


def test_zero_displacement_halves_synthesize():
    g = make_grammar(1)
    quad = tuple("a1 A1 a1 A1".split())
    x = (quad, (), (), quad, (), ())
    final = check_derivation(g, synthesize(x, g))
    assert final == Instance("I", x)


def test_refine_and_split_validation():
    with pytest.raises(ValueError, match="even"):
        refine_and_split(*traced((("a1",),), 1))
    with pytest.raises(ValueError, match=r"zero, got \(1,\)"):
        refine_and_split(*traced((("a1",), ()), 1))
    with pytest.raises(ValueError, match="nonzero"):
        refine_and_split(*traced((("a1", "A1"), ()), 1))
    # only widths m = 8k - 2 split; k is read off the width
    for m in (2, 4, 6, 8, 10, 12, 14):
        x = ((("a1",),) + ((),) * (m // 2 - 1)) + ((("A1",),) + ((),) * (m // 2 - 1))
        if m in (6, 14):
            assert len(refine_and_split(*traced(x, 1))[2][4]) == 2 * (m + 2) // 8
        else:
            with pytest.raises(ValueError) as info:
                refine_and_split(*traced(x, 1))
            assert str(info.value) == f"tuple width must be 8k - 2 for some k >= 1, got {m}"


@pytest.mark.parametrize("n", range(1, 7))
@given(data=st.data())
def test_refined_split_shape(n, data):
    x = data.draw(splittable_tuples(n))
    k, m = grammar_params(n)
    path, spans = traced(x, n)
    split = refine_and_split(path, spans)
    assert split[:2] == (path, spans) and len(split[1]) == len(x)
    assert as_refined(split) == reference_refine(path, spans, k)
    assert as_refined(split).condition_sum() == (0,) * n
    for (bounds, member, ends, offsets, at), comps, h in (
            (split[2], x[: m // 2], spans[: m // 2]), (split[3], x[m // 2 :], spans[m // 2 :])):
        assert len(member) == len(bounds) - 1 == m // 2 + 2 * k
        assert bounds[0] == 0
        assert bounds[-1] == 2 * len(flatten(comps))
        assert bounds == sorted(bounds)
        # the component cuts survive refinement, multiplicity included
        assert not Counter(ends[:-1]) - Counter(bounds)
        assert ends[:-1] == [sum(2 * len(c) for c in comps[: i + 1]) for i in range(len(comps) - 1)]
        assert ends[-1] == bounds[-1]
        # each breakpoint switches the side; a parameter p of component c is p + offsets[c] of the word
        assert len(at) == 2 * k and all(member[i - 1] != member[i] for i in at)
        assert offsets == [2 * s - c for (s, _), c in zip(h, [0, *ends[:-1]])]
    s = sum(split[2][1])
    t = sum(split[3][1])
    s_rest = len(split[2][1]) - s
    t_rest = len(split[3][1]) - t
    assert s + s_rest == t + t_rest == m // 2 + 2 * k
    assert s >= s_rest and t <= t_rest
    assert k <= s <= 5 * k - 1
    assert k <= t <= 3 * k - 1


@pytest.mark.parametrize("n", range(1, 7))
@given(data=st.data())
def test_lift_moves_boundaries_onto_the_lattice(n, data):
    x = data.draw(recursion_tuples(n))
    k, m = grammar_params(n)
    split = refine_and_split(*traced(x, n))
    # the lift edits the split's bounds in place, so the split is read before it
    refined = as_refined(split)
    assert lift_to_lattice(split) is split
    lifted = as_refined(split)
    assert lifted == reference_lift(refined)
    for before, after in ((refined.left, lifted.left), (refined.right, lifted.right)):
        assert all(b % 2 == 0 for b in after.boundaries)
        assert list(after.boundaries) == sorted(after.boundaries)
        assert after.boundaries[0] == 0
        assert after.boundaries[-1] == before.boundaries[-1]
        assert after.component_cuts == before.component_cuts
        assert after.members == before.members
        assert not Counter(after.component_cuts) - Counter(after.boundaries)
    assert lifted.condition_sum() == (0,) * n
    inside = sum(
        half.boundaries[p + 1] - half.boundaries[p]
        for half in (lifted.left, lifted.right)
        for p in half.members
    )
    outside = sum(2 * len(half.path) for half in (lifted.left, lifted.right)) - inside
    assert inside >= 1 and outside >= 1


@pytest.mark.parametrize("n", range(1, 7))
def test_each_call_traces_its_word_once(n, split_ks):
    """synthesize_word and synthesize decode their word once for the
    membership check and trace it once, however often they split; each
    half's path is its own tokens' path, sliced off that trace."""
    k, m = grammar_params(n)
    w = walk_and_return(random.Random(n), n, 3 * m)
    x = (w[:1],) + ((),) * (m - 2) + (w[1:],)
    calls = Counter()
    with pytest.MonkeyPatch.context() as mp:
        for name in ("word_to_path", "displacement"):
            def counted(word, n, name=name, original=getattr(mcfgkit.synthesis, name)):
                calls[name, word] += 1
                return original(word, n)

            mp.setattr(mcfgkit.synthesis, name, counted)
        synthesize_word(w, n)
        assert calls == {("word_to_path", w): 1, ("displacement", w): 1}
        assert split_ks
        split_ks.clear()
        calls.clear()
        synthesize(x, make_grammar(n))
        assert calls == {("word_to_path", w): 1, ("displacement", w): 1}
        assert split_ks
    path, spans = traced(x, n)
    split = refine_and_split(path, spans)
    assert split[0] is path and split[1] is spans
    for half, h in ((as_refined(split).left, slice(m // 2)), (as_refined(split).right, slice(m // 2, m))):
        assert half.spans == spans[h]
        assert half.path == word_to_path(flatten(x[h]), n)


def test_lift_reports_unrepairable_minimal_split():
    # One token per half: each half's lone edge must land whole on one
    # side, so balance and two-sided nonemptiness cannot both hold on
    # the lattice.  The lift must refuse loudly rather than loop.
    x = (("a1",), (), (), (), (), ("A1",))
    path, spans = traced(x, 1)
    split = refine_and_split(path, spans)
    with pytest.raises(InternalInvariantError) as info:
        lift_to_lattice(split)
    assert "no mid-lattice endpoint can move" in str(info.value)
    assert info.value.payload["left_steps"] == ((1, 1),)
    # the same message and payload as the reference stages give
    assert list(info.value.payload) == ["left_boundaries", "right_boundaries", "left_members",
                                        "right_members", "left_steps", "right_steps"]
    with pytest.raises(InternalInvariantError) as ref:
        reference_lift(reference_refine(path, spans, 1))
    assert str(info.value) == str(ref.value) and info.value.payload == ref.value.payload


@pytest.mark.parametrize("h, a", [(2, 1), (3, 1), (2, 0)], ids=["left-even", "right-even", "left-two"])
def test_lift_refuses_a_broken_pairing(h, a):
    # Each half of this split holds one odd breakpoint, on axis 1. Moved by one
    # by hand, breakpoint a of half h leaves the other half's odd breakpoint
    # with no partner (a = 1) or gives half h two on axis 1 (a = 0); a lex-min
    # tuple has neither, and the lift refuses the split before moving anything.
    x = (("A1",), ("A1",), ("a1",), ("a1",), ("A1",), ("a1", "A1", "a1"))
    split = refine_and_split(*traced(x, 1))
    assert [split[g][0][i] for g in (2, 3) for i in split[g][4]] == [0, 1, 0, 1]
    split[h][0][split[h][4][a]] += 1
    edited = (tuple(split[2][0]), tuple(split[3][0]))
    with pytest.raises(InternalInvariantError) as info:
        lift_to_lattice(split)
    assert str(info.value).startswith("no mid-lattice endpoint can move")
    assert (info.value.payload["left_boundaries"], info.value.payload["right_boundaries"]) == edited


# The lattice lift as it stood before it ran without closures, verbatim: the
# reference whose boundaries, members and failures the lift must repeat.
def closure_lift(split: RefinedSplit) -> RefinedSplit:
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
        axis, edge_sign = step_at(halves[h].path, bounds[h][i])
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


def lift_outcome(lift, split):
    """The lifted halves' boundaries and members, or the error's text and payload.

    A split of the library's stages is read after the lift as the reference's
    dataclasses; the others are lifted by the given reference."""
    try:
        result = lift(split)
    except InternalInvariantError as err:
        return str(err), err.payload
    if isinstance(result, tuple):
        result = as_refined(result)
    return tuple((half.boundaries, half.members) for half in (result.left, result.right))


def recorded_split_inputs(monkeypatch, run) -> list:
    """The (path, x, k) of every split synthesis makes while run() runs, k read off
    the width m = 8k - 2."""
    inputs = []

    def recording_split(path, x, original=refine_and_split):
        inputs.append((path, x, (len(x) + 2) // 8))
        return original(path, x)

    with monkeypatch.context() as mp:
        mp.setattr(mcfgkit.synthesis, "refine_and_split", recording_split)
        run()
    return inputs


def test_lift_matches_the_closure_reference(monkeypatch):
    """Every split that synthesis reaches on seeded words at ranks 1 to 10
    lifts to the same boundaries and members as the reference; so does the
    minimal split that neither can repair, with the same message and payload.
    Every odd boundary of those splits lies between opposite sides, so the
    lift never meets a same-side one, and strictly between its neighbours,
    so no move of one puts the bounds out of order. Each half holds at most
    one odd breakpoint per axis, both halves hold them on the same axes, and
    every move the trial-order reference (reference_lift) accepts pairs the
    left half's one with the right half's one on its axis: the pairing the
    lift makes without a search. The member-side extent and the total are
    even, and every trial move changes the extent by -2, 0 or 2, so the
    lift's extent test (0, total) is the same as [2, total - 2]."""
    rng = random.Random(8081)
    words = []
    for n in range(1, 11):
        k, m = grammar_params(n)
        # the k = 5 search grows steep past L = m + 2 on some words; the short
        # words at k >= 4 split only a few times each, so more of them are drawn
        for length in (m + 2, 3 * m, 12 * m, 40 * m)[: 4 if k < 3 else 2 if k < 5 else 1]:
            for family in (shuffled_pairs, walk_and_return):
                words += [(family(rng, n, length), n) for _ in range(1 if k < 4 else 6)]
    inputs = recorded_split_inputs(monkeypatch, lambda: [synthesize_word(w, n) for w, n in words])
    splits = [refine_and_split(path, x) for path, x, _ in inputs]
    refined = [as_refined(split) for split in splits]
    odd = Counter(any(b % 2 for half in (s.left, s.right) for b in half.boundaries)
                  for s in refined)
    assert odd[True] >= 500 and odd[False] >= 80, odd
    assert {s.left.path.n for s in refined} == set(range(1, 11))
    grows, accepted = [], []

    def recording_moves(odd, reference_moves=wordgen._reference_moves):
        for moves, grow in reference_moves(odd):
            grows.append(grow)
            yield moves, grow

    def recording_apply(bounds, moves, reference_apply=wordgen._reference_apply):
        if reference_apply(bounds, moves):
            accepted.append(moves)
            return True
        return False

    monkeypatch.setattr(wordgen, "_reference_moves", recording_moves)
    monkeypatch.setattr(wordgen, "_reference_apply", recording_apply)
    axes_seen = 0
    for split, ref in zip(splits, refined):
        inside = 0
        odd_axes = []
        for half in (ref.left, ref.right):
            b, members = half.boundaries, half.members
            assert all(((i - 1) in members) != (i in members)
                       for i in range(1, len(b) - 1) if b[i] % 2), (b, members)
            assert all(b[i - 1] < b[i] < b[i + 1] for i in range(1, len(b) - 1) if b[i] % 2), b
            inside += sum(b[p + 1] - b[p] for p in members)
            axes = [step_at(half.path, b[i])[0] for i in range(1, len(b) - 1) if b[i] % 2]
            assert len(set(axes)) == len(axes), (b, axes)
            odd_axes.append(set(axes))
        assert odd_axes[0] == odd_axes[1], odd_axes
        axes_seen += len(odd_axes[0])
        assert inside % 2 == 0 and (ref.left.boundaries[-1] + ref.right.boundaries[-1]) % 2 == 0
        expected = lift_outcome(closure_lift, ref)
        accepted.clear()
        assert lift_outcome(reference_lift, ref) == expected
        # one accepted move per axis, each the left half's odd breakpoint and the right half's
        assert len(accepted) == len(odd_axes[0])
        for (h, i, _), (h2, j, _) in accepted:
            lb, rb = ref.left.boundaries[i], ref.right.boundaries[j]
            assert (h, h2) == (0, 1) and lb % 2 and rb % 2
            assert step_at(ref.left.path, lb)[0] == step_at(ref.right.path, rb)[0]
        assert lift_outcome(lift_to_lattice, split) == expected
    assert axes_seen >= 1000, axes_seen
    assert len(grows) >= 1000 and set(grows) <= {-2, 0, 2}, Counter(grows)
    # no boundary is odd: nothing moves
    unmoved = next(i for i, s in enumerate(refined)
                   if not any(b % 2 for b in s.left.boundaries + s.right.boundaries))
    split = refine_and_split(*inputs[unmoved][:2])
    assert lift_outcome(lift_to_lattice, split) == (
        (refined[unmoved].left.boundaries, refined[unmoved].left.members),
        (refined[unmoved].right.boundaries, refined[unmoved].right.members))
    x = (("a1",), (), (), (), (), ("A1",))
    minimal = refine_and_split(*traced(x, 1))
    assert lift_outcome(lift_to_lattice, minimal) == lift_outcome(closure_lift, as_refined(minimal))


def spans_path(path: LatticePath, spans) -> LatticePath:
    """The path of the spans' steps in order, built without sub_path."""
    return LatticePath(path.n, tuple(chain.from_iterable(path.steps[s:e] for s, e in spans)))


def test_split_stage_row_zero_matches_the_search(monkeypatch):
    """At k = 1 the split stage answers row 0 of each half's search with
    row_zero on the word's keys and the half's spans. On the m-tuples that
    synthesis splits at ranks 1 and 2, and on seeded spreads with empty
    components, that answer is s1 of burago_partition and of the brute-force
    lex-min on the half's own path when t1 = 0, and None when row 0 holds none."""
    tuples = []

    def recording_split(path, x, original=refine_and_split):
        tuples.append((path, x))
        return original(path, x)

    monkeypatch.setattr(mcfgkit.synthesis, "refine_and_split", recording_split)
    rng = random.Random(5150)
    for n in (1, 2):
        g, m = make_grammar(n), grammar_params(n).m
        for length in (m + 2, 16, 24, 40):
            for family in (shuffled_pairs, walk_and_return):
                for _ in range(12):
                    w = family(rng, n, length)
                    synthesize_word(w, n)
                    # few distinct cut points, so many components come out empty
                    cuts = sorted(rng.choice((0, length // 3, length // 2, length)) for _ in range(m - 1))
                    bounds = [0, *cuts, length]
                    synthesize(tuple(w[a:b] for a, b in zip(bounds, bounds[1:])), g)
    # a half whose target is the point where its two spans meet, with a token
    # of the word skipped between them
    word = word_to_path(tuple("a1 A1 a1 a2 A2 A1".split()), 2)
    tuples.append((word, ((0, 1), (2, 3), (3, 5), (5, 6), (1, 2), (5, 5))))
    seen = Counter()
    for path, x in tuples:
        keys = path.keys
        for spans in (x[: len(x) // 2], x[len(x) // 2 :]):
            half = spans_path(path, spans)
            expected = lex_min_reference(half, 1)
            assert burago_partition(half, 1) == expected
            target = sum(keys[2 * e] - keys[2 * s] for s, e in spans) // 2
            s1 = row_zero(keys, spans, target)
            assert s1 == (expected[1] if expected[0] == 0 else None), (path.steps, spans)
            meets = tuple(accumulate(2 * (e - s) for s, e in spans))[:-1]
            seen["empty component"] += any(s == e for s, e in spans)
            seen["no row 0"] += s1 is None
            seen["at a span boundary"] += s1 in meets and 0 < s1 < 2 * len(half)
    assert seen["no row 0"] >= 50 and seen["at a span boundary"] >= 50, seen
    assert seen["empty component"] >= 200, seen
    assert row_zero(word.keys, ((0, 1), (2, 3)), word.keys[2] - word.keys[0]) == 2


def test_split_stage_scans_row_zero_once_per_half(monkeypatch):
    """At k = 1 each half's row 0 is scanned once, by row_zero on the word's
    keys, and a half whose row 0 has no answer builds its point index once:
    the search it then runs starts from that index, not from a second scan."""
    events = []

    def recording(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            out = original(*args)
            events.append((name, out) if name == "row_zero" else (name,))
            return out

        monkeypatch.setattr(module, name, wrapper)

    def recording_half(*args, original=mcfgkit.synthesis._split_half):
        events.append(("half",))
        return original(*args)

    for module, name in ((mcfgkit.synthesis, "row_zero"), (mcfgkit.burago, "row_zero"),
                         (mcfgkit.burago, "_point_index")):
        recording(module, name)
    monkeypatch.setattr(mcfgkit.synthesis, "_split_half", recording_half)
    rng = random.Random(7373)
    for n in (1, 2):
        for length in (16, 40, 120):
            for family in (shuffled_pairs, walk_and_return):
                for _ in range(4):
                    synthesize_word(family(rng, n, length), n)
    starts = [i for i, event in enumerate(events) if event == ("half",)] + [len(events)]
    assert starts[0] == 0
    seen = Counter()
    for a, b in zip(starts, starts[1:]):
        s1 = events[a + 1][1]
        assert events[a:b] == [("half",), ("row_zero", s1)] + [("_point_index",)] * (s1 is None)
        seen["no row 0" if s1 is None else "row 0"] += 1
    assert seen["no row 0"] >= 200 and seen["row 0"] >= 600, seen


def reference_condition_sum(split: RefinedSplit) -> tuple[int, ...]:
    """The doubled member-part differences summed over points of each half's own path."""
    total = [0] * split.left.word.n
    for half in (split.left, split.right):
        pts, b = points(spans_path(half.word, half.spans)), half.boundaries
        for p in half.members:
            for i, (hi, lo) in enumerate(zip(pts[b[p + 1]], pts[b[p]])):
                total[i] += hi - lo
    return tuple(total)


def test_condition_sum_on_the_word_keys_matches_the_half_paths(monkeypatch):
    """The reference's condition_sum reads each part on the word's keys; it
    equals the sum over points of each half's own path on every split
    synthesis reaches at ranks 1 to 6, before and after the lift, and with
    member sets drawn at random, whose sums are seldom zero. make_yz checks
    the balance as the packed sum of y's spans on the word's keys: with a
    drawn member set it raises exactly when that sum is not zero, with the
    sum as payload, unless a side overflows the slot budget first."""
    rng = random.Random(6262)
    words = []
    for n in range(1, 7):
        k, m = grammar_params(n)
        for length in (m + 2, 3 * m) if k == 3 else (m + 2, 3 * m, 12 * m):
            for family in (shuffled_pairs, walk_and_return):
                words.append((family(rng, n, length), n))
    splits = []
    for path, x, k in recorded_split_inputs(monkeypatch, lambda: [synthesize_word(w, n) for w, n in words]):
        split = refine_and_split(path, x)
        splits.append((as_refined(split), split))
        splits.append((as_refined(lift_to_lattice(split)), split))
    assert {s.left.word.n for s, _ in splits} == set(range(1, 7))
    nonzero = balance_errors = 0
    for split, (path, x, *halves) in splits:
        assert split.condition_sum() == reference_condition_sum(split) == (0,) * path.n
        drawn = RefinedSplit(*(replace(half, members=frozenset(
            p for p in range(len(half.boundaries) - 1) if rng.random() < 0.5))
            for half in (split.left, split.right)))
        assert drawn.condition_sum() == reference_condition_sum(drawn)
        nonzero += any(drawn.condition_sum())
        if any(b % 2 for b in drawn.left.boundaries + drawn.right.boundaries):
            continue
        # the drawn split in the library's shape: component ends and offsets do not
        # change in the lift, and make_yz does not read the breakpoint positions
        library = (path, x, *((list(half.boundaries), [p in half.members for p in range(len(member))],
                               ends, offsets, at)
                              for half, (_, member, ends, offsets, at) in zip((drawn.left, drawn.right), halves)))
        try:
            make_yz(library)
        except InternalInvariantError as err:
            if "slot budget" in str(err):
                continue
            assert str(err).startswith("repair moves changed the balance sum")
            assert err.payload == {"sum": reference_condition_sum(drawn)} != {"sum": (0,) * path.n}
            balance_errors += 1
        else:
            assert not any(reference_condition_sum(drawn))
    assert nonzero >= len(splits) // 2
    assert balance_errors >= len(splits) // 8, balance_errors


@pytest.mark.parametrize("n", range(1, 7))
@given(data=st.data())
def test_yz_reassembles_to_the_original_tuple(n, data):
    x = data.draw(recursion_tuples(n))
    k, m = grammar_params(n)
    yz = make_yz(lift_to_lattice(refine_and_split(*traced(x, n))))
    ref = reference_split(*traced(x, n), k)
    assert yz == (ref.y, ref.z, ref.blocking)
    y_spans, z_spans, blocking = yz
    w = flatten(x)
    y = tuple(w[s:e] for s, e in y_spans)
    z = tuple(w[s:e] for s, e in z_spans)
    assert all(0 <= s <= e <= len(w) for s, e in y_spans + z_spans)
    assert len(y) == len(z) == m
    assert blocking.violations(m) == []
    assert apply_blocking(blocking, y, z) == x
    assert displacement(flatten(y), n) == (0,) * n
    assert displacement(flatten(z), n) == (0,) * n
    total = len(w)
    assert len(flatten(y)) + len(flatten(z)) == total
    assert 1 <= len(flatten(y)) <= total - 1  # strict descent on both sides


def test_split_stages_match_the_reference():
    """Every split that synthesis makes on seeded shuffled, walk and block words
    at ranks 1 to 6, and on the random spreads, gives the same y, z and
    blocking through the library's stages as through the reference's
    dataclass stages (split_differential). The cases include lifts that move
    at k = 1, 2 and 3, k = 1 halves with no row-0 answer on the word's keys,
    and breakpoints that land on a component cut; the minimal unrepairable
    split fails alike. CI runs ranks 7 to 12."""
    def run():
        rng = random.Random(4242)
        for n in range(1, 7):
            k, m = grammar_params(n)
            for length in (m + 2, 3 * m) if k == 3 else (m + 2, 3 * m, 12 * m):
                for family in (shuffled_pairs, walk_and_return):
                    synthesize_word(family(rng, n, length), n)
            for r in (2, 3) if k == 3 else (2, 3, 5, 8):
                synthesize_word(block_word(n, r), n)
        for n, x in random_spreads():
            synthesize(x, make_grammar(n))

    differ, seen = split_differential(run)
    assert not differ, [(path.n, x) for path, x in differ[:3]]
    assert all(seen["ranks", n] for n in range(1, 7)), seen
    assert all(seen["moves", k] >= 100 for k in (1, 2, 3)), seen
    assert seen["k = 1, no row 0"] >= 100 and seen["breakpoint on a cut"] >= 500, seen
    library, reference = split_outcomes(*traced((("a1",), (), (), (), (), ("A1",)), 1))
    assert library[0].startswith("no mid-lattice endpoint can move")
    assert library == reference


# (words, longest length) per rank: the k >= 4 searches grow steep past L = m + 2
# on some words (a rank-8 word of L = 3m took 2.4 s), so ranks 7 to 10 draw fewer
# words of that length only. CI runs ranks 11 to 16
SYMMETRY_WORDS = {n: (10, 3 * grammar_params(n).m) if n <= 6
                  else (6 if n <= 8 else 4, grammar_params(n).m + 2) for n in range(1, 11)}


def test_split_stage_is_symmetric_under_signed_axis_permutations():
    # every split synthesis makes gives the same y, z and blocking on the word's
    # path and on its image's, as the search gives both the same breakpoints
    rng = random.Random(4127)
    splits = 0
    for n, (cases, cap) in SYMMETRY_WORDS.items():
        differ, count = yz_symmetry(rng, n, cases, cap)
        assert not differ, (n, differ[:3])
        assert count >= cases, (n, count)
        splits += count
    assert splits >= 100, splits


def test_synthesis_is_symmetric_under_axis_permutations():
    # the derivation of the permuted word is the word's own, tokens renamed and
    # each axis axiom read as the permuted axis's
    rng = random.Random(4129)
    for n, (cases, cap) in SYMMETRY_WORDS.items():
        differ = synthesis_symmetry(rng, n, cases, cap)
        assert not differ, (n, differ[:3])


@pytest.mark.parametrize("n", range(1, 7))
def test_make_yz_reports_a_changed_balance_sum(n):
    """A lifted split whose boundaries are moved afterwards, one edge at a
    breakpoint, still reads off on even parameters within the slot budget,
    but its member parts no longer balance: make_yz refuses it with the
    reference's condition sum as payload."""
    k, m = grammar_params(n)
    w = walk_and_return(random.Random(n), n, 3 * m)
    path, spans = traced((w[:1],) + ((),) * (m - 2) + (w[1:],), n)
    split = lift_to_lattice(refine_and_split(path, spans))
    bounds, _, _, _, at = split[3]
    i = next(i for i in at if bounds[i] - 2 >= bounds[i - 1])
    bounds[i] -= 2
    with pytest.raises(InternalInvariantError) as info:
        make_yz(split)
    assert str(info.value).startswith("repair moves changed the balance sum")
    assert info.value.payload == {"sum": as_refined(split).condition_sum()}
    assert any(info.value.payload["sum"])


def test_make_yz_refuses_an_unlifted_split():
    """A split that skipped the lift still has an odd boundary, which names no
    token span of the word: make_yz refuses it as the reference does."""
    split = refine_and_split(*traced((("a1",), (), (), (), (), ("A1",)), 1))
    with pytest.raises(ValueError) as info:
        make_yz(split)
    assert str(info.value) == "part 1 spans odd parameters (0, 1)"
    with pytest.raises(ValueError) as reference:
        reference_yz(as_refined(split))
    assert str(reference.value) == str(info.value)


def test_make_yz_reports_an_over_full_side():
    """Every part on the member side overflows y's m slots."""
    for n in range(1, 7):
        k, m = grammar_params(n)
        w = walk_and_return(random.Random(n), n, 3 * m)
        split = lift_to_lattice(refine_and_split(*traced((w[:1],) + ((),) * (m - 2) + (w[1:],), n)))
        for half in split[2:]:
            half[1][:] = [True] * len(half[1])
        with pytest.raises(InternalInvariantError) as info:
            make_yz(split)
        assert str(info.value).startswith("side exceeds the slot budget")
        assert info.value.payload == {"y": m + 4 * k, "z": 0, "m": m}


def test_base_derivation_small_tuples():
    g = make_grammar(1)
    for x in (
        ((),) * 6,
        (("a1",), ("A1",), (), (), (), ()),
        (("A1",), ("a1",), (), (), (), ()),
        (("a1", "A1", "a1", "A1"), (), ("A1",), (), ("a1",), ()),
    ):
        final = check_derivation(g, synthesize(x, g))
        assert final == Instance("I", x)


def test_synthesize_validation():
    g = make_grammar(1)
    with pytest.raises(ValueError, match="6-tuple"):
        synthesize(((),) * 4, g)
    with pytest.raises(ValueError, match="zero"):
        synthesize((("a1",),) + ((),) * 5, g)


def test_adversarial_words_synthesize(split_ks):
    def rising(n: int, r: int) -> Word:
        # (a1 ... an)^r (An ... A1)^r, long enough to reach the split
        return (tuple(f"a{i}" for i in range(1, n + 1)) * r
                + tuple(f"A{i}" for i in range(n, 0, -1)) * r)

    cases = (
        (("a1",) * 12 + ("A1",) * 12, 1),
        (("a1", "A1") * 10, 1),
        (tuple("a1 a2 a3 A3 A2 A1".split()) * 3, 3),
        (rising(4, 4), 4),
        (rising(5, 5), 5),
        (rising(6, 4), 6),
    )
    for word, n in cases:
        g = make_grammar(n)
        split_ks.clear()
        d = synthesize_word(word, n)
        assert check_derivation(g, d) == Instance("S", (word,))
        if n >= 4:
            assert split_ks and set(split_ks) == {grammar_params(n).k}


def test_list_words_derive_like_tuples():
    # the start rule's substitution must hold tuples, at and past the base case
    for word, n in ((["a1", "A1"], 1), (["a1", "A1"] * 5, 1)):
        d = synthesize_word(word, n)
        assert d == synthesize_word(tuple(word), n)
        assert check_derivation(make_grammar(n), d) == Instance("S", (tuple(word),))


def test_synthesis_is_deterministic():
    word = tuple("a1 a2 A2 a1 A1 A1 a2 A2".split())
    assert synthesize_word(word, 2) == synthesize_word(word, 2)


# sha256 of the derivation texts of random_spreads(), concatenated in order
SPREADS_SHA256 = "cba7446131af97d80dbbf79b61a8c7bf282bf8ed0ce2eea6d6f1114d90dd4134"


def random_spreads() -> list[tuple[int, tuple[Word, ...]]]:
    """Seeded words at ranks 1-6 cut at random points, empty components anywhere."""
    rng = random.Random(11)
    cases = []
    for n in range(1, 7):
        m = grammar_params(n).m
        for length in (m + 2, 2 * m, 4 * m):
            for family in (shuffled_pairs, walk_and_return):
                for _ in range(8):
                    w = family(rng, n, length)
                    # few distinct cut points, so many components come out empty
                    points = rng.sample(range(length + 1), rng.randint(1, m))
                    cuts = sorted(rng.choice(points) for _ in range(m - 1))
                    bounds = [0, *cuts, length]
                    cases.append((n, tuple(w[a:b] for a, b in zip(bounds, bounds[1:]))))
    return cases


def test_random_spreads_synthesize(monkeypatch):
    """Arbitrary layouts go through rebalance and make_yz at every rank,
    check to I(x), and serialize to pinned bytes."""
    reached = Counter()
    for name in ("rebalance", "halve"):
        def counted(self, x, name=name, original=getattr(mcfgkit.synthesis._Synthesizer, name)):
            reached[name, rank] += 1
            return original(self, x)

        monkeypatch.setattr(mcfgkit.synthesis._Synthesizer, name, counted)

    def counted_make_yz(split, original=make_yz):
        reached["make_yz", rank] += 1
        return original(split)

    monkeypatch.setattr(mcfgkit.synthesis, "make_yz", counted_make_yz)
    digest = hashlib.sha256()
    cases = random_spreads()
    for rank, x in cases:
        g = make_grammar(rank)
        d = synthesize(x, g)
        assert check_derivation(g, d) == Instance("I", x)
        digest.update(dumps_derivation(d).encode("utf-8"))
    assert len(cases) == 288
    assert all(reached[name, n] for name in ("rebalance", "make_yz") for n in range(1, 7))
    assert any(name == "halve" for name, _ in reached)
    assert digest.hexdigest() == SPREADS_SHA256
