"""Generator tokens, displacement, lattice paths, and the derived grammars."""

from __future__ import annotations

from operator import sub

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcfgkit import (
    GrammarParams,
    LatticePath,
    alphabet,
    displacement,
    grammar_params,
    l1,
    make_grammar,
    make_token,
    token_step,
    validate_grammar,
    word_to_path,
)

from wordgen import points, step_at, zero_displacement_words


@given(st.integers(1, 50), st.sampled_from((1, -1)))
def test_token_round_trip(axis, sign):
    assert token_step(make_token(axis, sign)) == (axis, sign)


def test_token_examples():
    assert make_token(3, 1) == "a3"
    assert make_token(3, -1) == "A3"
    assert token_step("a12") == (12, 1)
    assert token_step("A1") == (1, -1)


@pytest.mark.parametrize("bad", ["", "a", "b1", "a0", "a01", "A-1", "a1 ", "1a"])
def test_token_step_rejects_malformed_tokens(bad):
    with pytest.raises(ValueError):
        token_step(bad)


def test_make_token_rejects_bad_spec():
    with pytest.raises(ValueError):
        make_token(0, 1)
    with pytest.raises(ValueError):
        make_token(1, 2)


def test_alphabet_order():
    assert alphabet(2) == ("a1", "A1", "a2", "A2")


def test_displacement_examples():
    assert displacement((), 2) == (0, 0)
    assert displacement(("a1", "a1", "A2"), 2) == (2, -1)
    with pytest.raises(ValueError):
        displacement(("a3",), 2)


@pytest.mark.parametrize("decode", [displacement, word_to_path])
@pytest.mark.parametrize("word, n, message", [
    (("a1", "b2"), 2, "malformed generator token: 'b2'"),
    (("a0",), 2, "malformed generator token: 'a0'"),
    (("a1", "a01"), 2, "malformed generator token: 'a01'"),
    (("A3",), 2, "token 'A3': axis 3 out of range for n=2"),
    (("a1",), 0, "token 'a1': axis 1 out of range for n=0"),
    # several bad tokens: the first one is named
    (("a1", "a9", "x", "A7"), 2, "token 'a9': axis 9 out of range for n=2"),
    (("a2", "x", "a9"), 2, "malformed generator token: 'x'"),
    (("A1", "a1 ", "b1"), 1, "malformed generator token: 'a1 '"),
])
def test_decode_errors_name_the_first_bad_token(decode, word, n, message):
    with pytest.raises(ValueError) as info:
        decode(word, n)
    assert str(info.value) == message


@pytest.mark.parametrize("decode", [displacement, word_to_path])
@pytest.mark.parametrize("token", [5, None, ["a1"]])
def test_decode_rejects_non_string_tokens(decode, token):
    with pytest.raises(TypeError):
        decode(("a1", token), 1)


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.sampled_from(alphabet(n)), max_size=40))))
def test_displacement_is_the_signed_letter_count(case):
    n, word = case
    expected = tuple(word.count(f"a{i}") - word.count(f"A{i}") for i in range(1, n + 1))
    assert displacement(tuple(word), n) == expected
    path = word_to_path(tuple(word), n)
    assert path.vector(path.keys[-1]) == tuple(2 * c for c in expected)


def test_vector_helpers():
    assert l1((0, -3, 2)) == 5


def test_path_points_are_doubled_half_units():
    path = word_to_path(("a1", "A2", "a2"), 2)
    assert len(path) == 3
    expected = ((0, 0), (1, 0), (2, 0), (2, -1), (2, -2), (2, -1), (2, 0))
    assert points(path) == expected
    assert tuple(map(path.vector, path.keys)) == expected
    assert step_at(path, 1) == (1, 1)
    assert step_at(path, 3) == (2, -1)


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.sampled_from(alphabet(n)), max_size=60))))
def test_keys_pack_the_points(case):
    n, word = case
    path = word_to_path(tuple(word), n)
    keys, pts = path.keys, points(path)
    assert path.base > 10 * len(path)
    assert len(keys) == len(pts)
    assert [path.vector(key) for key in keys] == list(pts)
    # packing is linear: a difference of keys unpacks to the difference of points
    for t, s in ((0, len(keys) - 1), (len(keys) // 3, 2 * len(keys) // 3)):
        assert path.vector(keys[s] - keys[t]) == tuple(map(sub, pts[s], pts[t]))
        assert path.vector(keys[t] - keys[s]) == tuple(map(sub, pts[t], pts[s]))


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.sampled_from(alphabet(n)), max_size=40),
                        st.lists(st.integers(0, 40), max_size=8))))
def test_sub_path_is_the_path_of_its_spans(case):
    n, word, cuts = case
    path = word_to_path(tuple(word), n)
    ends = sorted(min(c, len(word)) for c in cuts)
    spans = tuple(zip(ends[::2], ends[1::2]))
    sub_path = path.sub_path(spans)
    expected = word_to_path(tuple(t for s, e in spans for t in word[s:e]), n)
    assert sub_path == expected
    assert (sub_path.base, sub_path.keys) == (expected.base, expected.keys)


def test_path_parameter_validation():
    path = word_to_path(("a1", "a2"), 2)
    assert step_at(path, 1) == (1, 1) and step_at(path, 3) == (2, 1)
    # lattice points, and odd parameters outside the path, name no edge
    for p in (0, 2, -1, 2 * len(path), 2 * len(path) + 1):
        with pytest.raises(ValueError):
            step_at(path, p)


def test_path_construction_validation():
    with pytest.raises(ValueError):
        LatticePath(1, ((2, 1),))  # axis out of range
    with pytest.raises(ValueError):
        LatticePath(1, ((1, 0),))  # no sign
    with pytest.raises(ValueError):
        word_to_path(("a2",), 1)


@pytest.mark.parametrize("build", [
    lambda: word_to_path(("a1", "A1"), 1.0),
    lambda: displacement(("a1", "A1"), 1.0),
    lambda: LatticePath(1.0, ((1, 1),)),
    lambda: LatticePath(1, [[1, 1]]),
], ids=["word-float-rank", "displacement-float-rank", "path-float-rank", "path-list-step"])
def test_a_float_rank_or_an_unhashable_step_is_refused_at_once(build):
    # as make_grammar(1.0) is; a path built from one would fail only at the first use of keys
    with pytest.raises(TypeError):
        build()


@given(zero_displacement_words(2, max_pairs=6))
def test_path_parity_invariants(word):
    path = word_to_path(word, 2)
    for p, point in enumerate(map(path.vector, path.keys)):
        odd = [c % 2 for c in point]
        if p % 2 == 0:
            assert sum(odd) == 0  # lattice point
        else:
            assert sum(odd) == 1  # edge midpoint
    assert path.vector(path.keys[-1]) == tuple(2 * c for c in displacement(word, 2))


def test_grammar_params_values():
    assert grammar_params(1) == (1, 6)
    assert grammar_params(2) == (1, 6)
    assert grammar_params(3) == (2, 14)
    assert grammar_params(4) == (2, 14)
    assert grammar_params(5) == (3, 22)
    assert grammar_params(2) == GrammarParams(k=1, m=6)
    with pytest.raises(ValueError):
        grammar_params(0)


def test_make_grammar_rank_one_shape():
    g = make_grammar(1)
    assert g.terminals == ("a1", "A1")
    assert g.nonterminals == (("S", 1), ("I", 6))
    assert g.start == "S"
    assert len(g.rules) == 3
    assert len(g.schemas) == 1
    assert g.schemas[0].nonterminal == "I"
    assert g.schemas[0].arity == 6
    # fixed rule order: start rule, empty axiom, one axiom per axis
    assert g.rules[0].lhs == "S" and g.rules[0].rhs == (("I", tuple(f"x{i}" for i in range(1, 7))),)
    assert g.rules[1].templates == ((),) * 6
    assert g.rules[2].templates[:2] == ((("term", "a1"),), (("term", "A1"),))


def test_make_grammar_rank_two_shape():
    g = make_grammar(2)
    assert g.terminals == ("a1", "A1", "a2", "A2")
    assert len(g.rules) == 4
    assert g.rules[3].templates[:2] == ((("term", "a2"),), (("term", "A2"),))
    assert g.schemas[0].arity == 6


def test_make_grammar_is_one_shared_grammar_per_rank():
    assert make_grammar(2) is make_grammar(2)
    assert make_grammar(1) is not make_grammar(2)
    # a float rank is not the cached integer rank: it fails as it always has
    with pytest.raises(TypeError):
        make_grammar(1.0)
    with pytest.raises(ValueError):
        make_grammar(0)


@pytest.mark.parametrize("n", range(1, 7))
def test_make_grammar_is_well_formed(n):
    g = make_grammar(n)
    assert validate_grammar(g) == []
    m = grammar_params(n).m
    assert dict(g.nonterminals)["I"] == m
    assert len(g.rules) == 2 + n
