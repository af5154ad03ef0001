"""Derivation synthesis: splitting, lattice repair, and the recursion."""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mcfgkit.synthesis
from mcfgkit import (
    Instance,
    InternalInvariantError,
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

from wordgen import all_words, shuffled_pairs, walk_and_return, zero_displacement_words


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
        refine_and_split(*traced((("a1",),), 1), 1)
    with pytest.raises(ValueError, match=r"zero, got \(1,\)"):
        refine_and_split(*traced((("a1",), ()), 1), 1)
    with pytest.raises(ValueError, match="nonzero"):
        refine_and_split(*traced((("a1", "A1"), ()), 1), 1)


@pytest.mark.parametrize("n", range(1, 7))
@given(data=st.data())
def test_refined_split_shape(n, data):
    x = data.draw(splittable_tuples(n))
    k, m = grammar_params(n)
    split = refine_and_split(*traced(x, n), k)
    assert split.m == len(x)
    assert split.condition_sum() == (0,) * n
    for half, comps in ((split.left, x[: m // 2]), (split.right, x[m // 2 :])):
        assert half.part_count == m // 2 + 2 * k
        assert half.boundaries[0] == 0
        assert half.boundaries[-1] == 2 * len(half.path)
        assert list(half.boundaries) == sorted(half.boundaries)
        # the component cuts survive refinement, multiplicity included
        assert not Counter(half.component_cuts) - Counter(half.boundaries)
        assert half.component_cuts == tuple(
            sum(2 * len(c) for c in comps[: i + 1]) for i in range(len(comps) - 1)
        )
    s = len(split.left.members)
    t = len(split.right.members)
    s_rest = split.left.part_count - s
    t_rest = split.right.part_count - t
    assert s + s_rest == t + t_rest == m // 2 + 2 * k
    assert s >= s_rest and t <= t_rest
    assert k <= s <= 5 * k - 1
    assert k <= t <= 3 * k - 1


@pytest.mark.parametrize("n", range(1, 7))
@given(data=st.data())
def test_lift_moves_boundaries_onto_the_lattice(n, data):
    x = data.draw(recursion_tuples(n))
    k, m = grammar_params(n)
    split = refine_and_split(*traced(x, n), k)
    lifted = lift_to_lattice(split)
    for before, after in ((split.left, lifted.left), (split.right, lifted.right)):
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
    split = refine_and_split(path, spans, k)
    for half, h in ((split.left, slice(m // 2)), (split.right, slice(m // 2, m))):
        assert half.spans == spans[h]
        assert half.path == word_to_path(flatten(x[h]), n)


def test_lift_reports_unrepairable_minimal_split():
    # One token per half: each half's lone edge must land whole on one
    # side, so balance and two-sided nonemptiness cannot both hold on
    # the lattice.  The lift must refuse loudly rather than loop.
    x = (("a1",), (), (), (), (), ("A1",))
    split = refine_and_split(*traced(x, 1), 1)
    with pytest.raises(InternalInvariantError) as info:
        lift_to_lattice(split)
    assert "no mid-lattice endpoint can move" in str(info.value)
    assert info.value.payload["left_steps"] == ((1, 1),)


@pytest.mark.parametrize("n", range(1, 7))
@given(data=st.data())
def test_yz_reassembles_to_the_original_tuple(n, data):
    x = data.draw(recursion_tuples(n))
    k, m = grammar_params(n)
    yz = make_yz(lift_to_lattice(refine_and_split(*traced(x, n), k)))
    w = flatten(x)
    y = tuple(w[s:e] for s, e in yz.y)
    z = tuple(w[s:e] for s, e in yz.z)
    assert all(0 <= s <= e <= len(w) for s, e in yz.y + yz.z)
    assert len(y) == len(z) == m
    assert yz.blocking.violations(m) == []
    assert apply_blocking(yz.blocking, y, z) == x
    assert displacement(flatten(y), n) == (0,) * n
    assert displacement(flatten(z), n) == (0,) * n
    total = len(w)
    assert len(flatten(y)) + len(flatten(z)) == total
    assert 1 <= len(flatten(y)) <= total - 1  # strict descent on both sides


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
