"""Bounded recognition for schema-free grammars."""

from __future__ import annotations

import hashlib
import random
from itertools import product

import pytest

from mcfgkit import (
    Grammar,
    Instance,
    InvalidGrammarError,
    Rule,
    SchemaPresentError,
    bounded_language,
    check_derivation,
    dumps_derivation,
    instantiate,
    make_grammar,
    recognize_bounded,
    term,
    var,
)
from mcfgkit import recognize

from conftest import make_abcd_grammar
from wordgen import abcd_oracle


def abcd_word(j: int) -> tuple[str, ...]:
    return ("a",) * j + ("b",) * j + ("c",) * j + ("d",) * j


def test_recognizes_counted_quads(abcd_grammar):
    for j in range(4):
        accepted, witness = recognize_bounded(abcd_grammar, abcd_word(j))
        assert accepted
        final = check_derivation(abcd_grammar, witness)
        assert final == Instance("S", (abcd_word(j),))


@pytest.mark.parametrize(
    "word",
    ["abc", "abcdabcd", "aabbccd", "dcba", "aabcd", "ab"],
)
def test_rejects_near_misses(abcd_grammar, word):
    accepted, witness = recognize_bounded(abcd_grammar, tuple(word))
    assert not accepted
    assert witness is None


def test_agrees_with_oracle_on_short_strings(abcd_grammar):
    for length in range(7):
        for chars in product("abcd", repeat=length):
            accepted, _ = recognize_bounded(abcd_grammar, chars)
            assert accepted == abcd_oracle(chars), chars


def test_bounded_language_enumerates_start_words(abcd_grammar):
    assert bounded_language(abcd_grammar, 8) == {abcd_word(0), abcd_word(1), abcd_word(2)}
    assert bounded_language(abcd_grammar, 3) == {abcd_word(0)}


def test_rejects_grammars_with_schemas():
    with pytest.raises(SchemaPresentError):
        recognize_bounded(make_grammar(1), ("a1", "A1"))
    with pytest.raises(SchemaPresentError):
        bounded_language(make_grammar(1), 4)


def test_rejects_invalid_grammars():
    broken = Grammar((), (("S", 2),), "S", ())
    with pytest.raises(InvalidGrammarError):
        recognize_bounded(broken, ())


def test_witness_is_deterministic(abcd_grammar):
    w = abcd_word(2)
    first = recognize_bounded(abcd_grammar, w)
    second = recognize_bounded(abcd_grammar, w)
    assert first == second


def test_witness_prefers_smallest_rule_index():
    g = Grammar(
        terminals=("a",),
        nonterminals=(("S", 1), ("A", 1)),
        start="S",
        rules=(
            Rule("S", ((var("x"),),), (("A", ("x",)),)),
            Rule("S", ((var("x"),),), (("A", ("x",)),)),
            Rule("A", ((term("a"),),)),
        ),
    )
    accepted, witness = recognize_bounded(g, ("a",))
    assert accepted
    assert witness.steps[-1].rule_index == 0


def test_copying_rules_are_recognized():
    # S(x a) <- A(x); A derives "b"; language is exactly {ba}
    g = Grammar(
        terminals=("a", "b"),
        nonterminals=(("S", 1), ("A", 1)),
        start="S",
        rules=(
            Rule("A", ((term("b"),),)),
            Rule("S", ((var("x"), term("a")),), (("A", ("x",)),)),
        ),
    )
    assert recognize_bounded(g, ("b", "a"))[0]
    assert not recognize_bounded(g, ("a", "b"))[0]
    assert bounded_language(g, 5) == {("b", "a")}


def test_empty_word_handling(abcd_grammar):
    accepted, witness = recognize_bounded(abcd_grammar, ())
    assert accepted
    assert check_derivation(abcd_grammar, witness) == Instance("S", ((),))


def copy_grammar() -> Grammar:
    """{ w w : w over {a, b} }."""
    return Grammar(
        terminals=("a", "b"),
        nonterminals=(("S", 1), ("I", 2)),
        start="S",
        rules=(
            Rule("I", ((), ())),
            Rule("I", ((var("x"), term("a")), (var("y"), term("a"))), (("I", ("x", "y")),)),
            Rule("I", ((var("x"), term("b")), (var("y"), term("b"))), (("I", ("x", "y")),)),
            Rule("S", ((var("x"), var("y")),), (("I", ("x", "y")),)),
        ),
    )


def two_premise_grammar() -> Grammar:
    """a+ b^j c^j and b^j a+ c^j, with an ambiguous A -> A A and a
    duplicated start rule, so that witnesses depend on discovery order."""
    return Grammar(
        terminals=("a", "b", "c"),
        nonterminals=(("S", 1), ("A", 1), ("B", 2)),
        start="S",
        rules=(
            Rule("A", ((term("a"),),)),
            Rule("A", ((var("x"), var("y")),), (("A", ("x",)), ("A", ("y",)))),
            Rule("B", ((), ())),
            Rule("B", ((var("u"), term("b")), (var("v"), term("c"))), (("B", ("u", "v")),)),
            Rule("S", ((var("x"), var("u"), var("v")),), (("A", ("x",)), ("B", ("u", "v")))),
            Rule("S", ((var("u"), var("x"), var("v")),), (("B", ("u", "v")), ("A", ("x",)))),
            Rule("S", ((var("x"), var("u"), var("v")),), (("A", ("x",)), ("B", ("u", "v")))),
        ),
    )


def reference_close(g, budget, component_ok):
    """The naive closure: every rule over every premise tuple, pass after
    pass until a pass admits nothing."""
    derived = {}
    by_nt = {nt: [] for nt, _ in g.nonterminals}
    changed = True
    while changed:
        changed = False
        for index, rule in enumerate(g.rules):
            for premises in product(*(by_nt[nt] for nt, _ in rule.rhs)):
                subst = {}
                for (_, names), inst in zip(rule.rhs, premises):
                    subst.update(zip(names, inst.components))
                comps = tuple(instantiate(t, subst) for t in rule.templates)
                inst = Instance(rule.lhs, comps)
                if (inst in derived or sum(map(len, comps)) > budget
                        or not all(map(component_ok, comps))):
                    continue
                derived[inst] = (index, premises)
                by_nt[inst.nt].append(inst)
                changed = True
    return derived


def test_closure_matches_naive_passes_on_two_premise_rules(monkeypatch):
    g = two_premise_grammar()
    for budget in range(9):
        semi = recognize._close(g, recognize._rules(g), budget, lambda _: True)
        assert list(semi.items()) == list(reference_close(g, budget, lambda _: True).items())
    words = [w for length in range(7) for w in product("abc", repeat=length)]
    fast = [recognize_bounded(g, w) for w in words]
    monkeypatch.setattr(recognize, "_close", lambda g, rules, *args: reference_close(g, *args))
    slow = [recognize_bounded(g, w) for w in words]
    assert fast == slow
    assert sum(accepted for accepted, _ in fast) == 18


# sha256 of dumps_derivation(witness), or b"0" for a rejection, over
# golden_strings() in order
GOLDEN_WITNESS_SHA256 = "20afdc454623bbf6268e5e12ce2b445b1d8ca235e27415e676fb07a04ea1fece"


def golden_strings() -> list[tuple[Grammar, tuple[str, ...]]]:
    """200 seeded strings: short abcd strings and members, then copy-language
    members and one-letter spoils of them up to length 24."""
    rng = random.Random(11)
    abcd, copy = make_abcd_grammar(), copy_grammar()
    cases = [(abcd, abcd_word(j)) for j in range(5)]
    cases += [(abcd, tuple(rng.choice("abcd") for _ in range(rng.randrange(13))))
              for _ in range(120)]
    for half in range(13):
        for _ in range(3):
            w = tuple(rng.choice("ab") for _ in range(half)) * 2
            cases.append((copy, w))
            if w:
                at = rng.randrange(len(w))
                cases.append((copy, w[:at] + ("b" if w[at] == "a" else "a",) + w[at + 1:]))
    return cases


def test_golden_witness_bytes():
    digest = hashlib.sha256()
    accepted = 0
    for g, s in golden_strings():
        ok, witness = recognize_bounded(g, s)
        accepted += ok
        digest.update(dumps_derivation(witness).encode("utf-8") if ok else b"0")
    assert accepted == 51
    assert digest.hexdigest() == GOLDEN_WITNESS_SHA256


def test_list_words_match_their_tuples(abcd_grammar):
    for w in [abcd_word(2), ("a", "b", "c"), (), abcd_word(1)[::-1]]:
        assert recognize_bounded(abcd_grammar, list(w)) == recognize_bounded(abcd_grammar, w)
    copy = copy_grammar()
    assert recognize_bounded(copy, list("abab")) == recognize_bounded(copy, tuple("abab"))


def random_rule(rng: random.Random, arity: dict[str, int], lhs: str, rhs: str) -> Rule:
    """A non-deleting rule: the premises' variables, shuffled, are dealt
    into the templates, and up to two terminals join each template."""
    premises = tuple((nt, tuple(f"{nt.lower()}{i}{j}" for j in range(arity[nt])))
                     for i, nt in enumerate(rhs))
    names = [v for _, vs in premises for v in vs]
    rng.shuffle(names)
    templates = [[] for _ in range(arity[lhs])]
    for v in names:
        templates[rng.randrange(arity[lhs])].append(var(v))
    for t in templates:
        for _ in range(rng.choice((0, 0, 1, 2))):
            t.insert(rng.randint(0, len(t)), term(rng.choice("ab")))
    return Rule(lhs, tuple(map(tuple, templates)), premises)


def random_grammar(rng: random.Random) -> Grammar:
    """A schema-free, non-deleting grammar over {a, b}: one nullary rule
    for each of A, B (arity 3) and C, then rules of one or two premises."""
    arity = {"S": 1, "A": rng.randint(1, 3), "B": 3, "C": rng.randint(1, 2)}
    shapes = [(nt, "") for nt in "ABC"]
    shapes += [(rng.choice("ABC"), "".join(rng.choices("ABC", k=rng.randint(1, 2))))
               for _ in range(rng.randint(2, 4))]
    shapes += [("S", "".join(rng.choices("ABC", k=rng.randint(1, 2))))
               for _ in range(rng.randint(1, 2))]
    rng.shuffle(shapes)
    rules = tuple(random_rule(rng, arity, lhs, rhs) for lhs, rhs in shapes)
    return Grammar(("a", "b"), tuple(arity.items()), "S", rules)


def grammar_features(g: Grammar) -> set[str]:
    """The rule shapes in g that the compiled closure must handle."""
    out = set()
    for rule in g.rules:
        premise_of = {v: i for i, (_, names) in enumerate(rule.rhs) for v in names}
        order = [premise_of[value] for t in rule.templates for kind, value in t if kind == "var"]
        kinds = [[kind for kind, _ in t] for t in rule.templates]
        checks = {
            "nullary": not rule.rhs,
            "repeated premise": len({nt for nt, _ in rule.rhs}) < len(rule.rhs),
            "arity 3 premise": any(len(names) == 3 for _, names in rule.rhs),
            "later premise first": order != sorted(order),
            "empty template": [] in kinds,
            "terminal run": any(a == b == "term" for k in kinds for a, b in zip(k, k[1:])),
        }
        out |= {name for name, hit in checks.items() if hit}
    return out


def test_closure_matches_naive_passes_on_random_grammars(monkeypatch):
    # The naive reference tries every premise tuple on every pass, so a
    # grammar whose budget-8 closure exceeds 200 instances (about one in
    # forty) is skipped to keep the test to a second or so.
    rng = random.Random(17)
    grammars, features = [], set()
    while len(grammars) < 40:
        g = random_grammar(rng)
        if len(recognize._close(g, recognize._rules(g), 8, lambda _: True)) <= 200:
            grammars.append(g)
            features |= grammar_features(g)
    assert features == {"nullary", "repeated premise", "arity 3 premise",
                        "later premise first", "empty template", "terminal run"}
    for g in grammars:
        for budget in range(9):
            semi = recognize._close(g, recognize._rules(g), budget, lambda _: True)
            assert list(semi.items()) == list(reference_close(g, budget, lambda _: True).items())
    words = [w for length in range(6) for w in product("ab", repeat=length)]
    fast = [recognize_bounded(g, w) for g in grammars for w in words]
    monkeypatch.setattr(recognize, "_close", lambda g, rules, *args: reference_close(g, *args))
    assert fast == [recognize_bounded(g, w) for g in grammars for w in words]
    assert sum(accepted for accepted, _ in fast) == 128


def test_invalid_and_schema_grammars_raise_on_every_call():
    broken = Grammar((), (("S", 2),), "S", ())
    before = recognize._compile.cache_info().currsize
    for _ in range(2):
        with pytest.raises(InvalidGrammarError):
            recognize_bounded(broken, ())
        with pytest.raises(InvalidGrammarError):
            bounded_language(broken, 2)
        with pytest.raises(SchemaPresentError, match="^recognition requires"):
            recognize_bounded(make_grammar(1), ("a1", "A1"))
        with pytest.raises(SchemaPresentError, match="^bounded language requires"):
            bounded_language(make_grammar(1), 2)
    assert recognize._compile.cache_info().currsize == before


def listed(g: Grammar) -> Grammar:
    """g with every tuple field a list, so that it cannot be hashed."""
    return Grammar(
        list(g.terminals), [list(d) for d in g.nonterminals], g.start,
        [Rule(r.lhs, [[list(item) for item in t] for t in r.templates],
              [[nt, list(names)] for nt, names in r.rhs]) for r in g.rules])


def test_unhashable_grammars_recognize_like_their_tuple_twins(abcd_grammar):
    for g, words in ((copy_grammar(), ["abab", "abba", "", "aa"]),
                     (abcd_grammar, ["aabbccdd", "abcd", "abdc"])):
        twin = listed(g)
        with pytest.raises(TypeError):
            hash(twin)
        # compiled on every call: the cache neither stores nor counts it
        before = recognize._compile.cache_info()
        got = [recognize_bounded(twin, w) for w in map(tuple, words)]
        language = bounded_language(twin, 6)
        assert recognize._compile.cache_info() == before
        assert got == [recognize_bounded(g, w) for w in map(tuple, words)]
        assert language == bounded_language(g, 6)
    with pytest.raises(InvalidGrammarError):
        recognize_bounded(listed(Grammar((), (("S", 2),), "S", ())), ())


def test_equal_grammars_built_apart_share_one_entry():
    first, second = copy_grammar(), copy_grammar()
    assert first == second and first is not second
    w = tuple("abbabb")
    expected = recognize_bounded(first, w)
    size = recognize._compile.cache_info().currsize
    again = recognize_bounded(second, w)
    assert again == expected
    assert dumps_derivation(again[1]) == dumps_derivation(expected[1])
    assert recognize._compile.cache_info().currsize == size


def test_more_grammars_than_the_cache_holds():
    def exactly(count: int) -> Grammar:
        """The grammar whose language is { a^count }."""
        return Grammar(("a",), (("S", 1),), "S", (Rule("S", ((term("a"),) * count,)),))

    size = recognize._compile.cache_info().maxsize
    for _ in range(2):
        for count in range(size + 6):
            g = exactly(count)
            accepted, witness = recognize_bounded(g, ("a",) * count)
            assert accepted
            assert check_derivation(g, witness) == Instance("S", (("a",) * count,))
            assert recognize_bounded(g, ("a",) * (count + 1)) == (False, None)
    assert recognize._compile.cache_info().currsize == size
