"""Derivation synthesis: splitting, lattice repair, and the recursion."""

from __future__ import annotations

from collections import Counter

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
    grammar_params,
    lift_to_lattice,
    make_grammar,
    make_yz,
    parse_word,
    refine_and_split,
    synthesize,
    synthesize_word,
)

from wordgen import all_words, zero_displacement_words


def flatten(x: tuple[Word, ...]) -> Word:
    return sum(x, ())


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
    word = parse_word("a1 a1 A1 A1 a1 A1 a1 A1")
    x = ((),) * (grammar_params(1).m - 1) + (word,)
    final = check_derivation(g, synthesize(x, g))
    assert final == Instance("I", x)


def test_zero_displacement_halves_synthesize():
    g = make_grammar(1)
    quad = parse_word("a1 A1 a1 A1")
    x = (quad, (), (), quad, (), ())
    final = check_derivation(g, synthesize(x, g))
    assert final == Instance("I", x)


def test_refine_and_split_validation():
    with pytest.raises(ValueError, match="even"):
        refine_and_split((("a1",),), 1, 1)
    with pytest.raises(ValueError, match="zero"):
        refine_and_split((("a1",), ()), 1, 1)
    with pytest.raises(ValueError, match="nonzero"):
        refine_and_split((("a1", "A1"), ()), 1, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
def test_refined_split_shape(n, data):
    x = data.draw(splittable_tuples(n))
    k, m = grammar_params(n)
    split = refine_and_split(x, n, k)
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


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
def test_lift_moves_boundaries_onto_the_lattice(n, data):
    x = data.draw(recursion_tuples(n))
    k, m = grammar_params(n)
    split = refine_and_split(x, n, k)
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


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
def test_each_split_decodes_each_half_once(n, data):
    x = data.draw(recursion_tuples(n))
    k, m = grammar_params(n)
    decoded = Counter()
    expected = Counter()
    split = mcfgkit.synthesis.refine_and_split
    synth = mcfgkit.synthesis._Synthesizer.synth

    def counted_synth(self, x):
        if sum(map(len, x)) > m:
            expected[flatten(x[: m // 2])] += 1
        return synth(self, x)

    def counted_split(x, n, k, left_path=None):
        expected[flatten(x[m // 2 :])] += 1
        return split(x, n, k, left_path)

    with pytest.MonkeyPatch.context() as mp:
        for name in ("word_to_path", "displacement"):
            def counted(word, n, original=getattr(mcfgkit.synthesis, name)):
                decoded[word] += 1
                return original(word, n)

            mp.setattr(mcfgkit.synthesis, name, counted)
        lifted = lift_to_lattice(split(x, n, k))
        assert decoded == Counter((flatten(x[: m // 2]), flatten(x[m // 2 :])))
        # through the recursion, the branch test decodes the left half of every
        # tuple past the base case, and a split decodes only the right half more
        decoded.clear()
        mp.setattr(mcfgkit.synthesis._Synthesizer, "synth", counted_synth)
        mp.setattr(mcfgkit.synthesis, "refine_and_split", counted_split)
        mcfgkit.synthesis._Synthesizer(make_grammar(n)).synth(x)
    assert decoded == expected
    for half, comps in ((lifted.left, x[: m // 2]), (lifted.right, x[m // 2 :])):
        assert half.word == flatten(comps)
        assert flatten(tuple(map(half.part_word, range(half.part_count)))) == half.word


def test_lift_reports_unrepairable_minimal_split():
    # One token per half: each half's lone edge must land whole on one
    # side, so balance and two-sided nonemptiness cannot both hold on
    # the lattice.  The lift must refuse loudly rather than loop.
    x = (("a1",), (), (), (), (), ("A1",))
    split = refine_and_split(x, 1, 1)
    with pytest.raises(InternalInvariantError) as info:
        lift_to_lattice(split)
    assert "no mid-lattice endpoint can move" in str(info.value)
    assert info.value.payload["left_steps"] == ((1, 1),)


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
def test_yz_reassembles_to_the_original_tuple(n, data):
    x = data.draw(recursion_tuples(n))
    k, m = grammar_params(n)
    yz = make_yz(lift_to_lattice(refine_and_split(x, n, k)))
    assert len(yz.y) == len(yz.z) == m
    assert yz.blocking.violations(m) == []
    assert apply_blocking(yz.blocking, yz.y, yz.z) == x
    assert displacement(flatten(yz.y), n) == (0,) * n
    assert displacement(flatten(yz.z), n) == (0,) * n
    total = len(flatten(x))
    assert len(flatten(yz.y)) + len(flatten(yz.z)) == total
    assert 1 <= len(flatten(yz.y)) <= total - 1  # strict descent on both sides


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
        (parse_word("a1 a2 a3 A3 A2 A1") * 3, 3),
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


def test_synthesis_is_deterministic():
    word = parse_word("a1 a2 A2 a1 A1 A1 a2 A2")
    assert synthesize_word(word, 2) == synthesize_word(word, 2)
