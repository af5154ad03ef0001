"""Grammar types, validation, and JSON serialization."""

from __future__ import annotations

import pickle

import pytest

from mcfgkit import (
    Blocking,
    CombineSchema,
    Grammar,
    GrammarFormatError,
    InvalidGrammarError,
    Rule,
    canonical_json,
    dumps_grammar,
    grammar_from_json_dict,
    grammar_to_json_dict,
    instantiate,
    loads_grammar,
    make_grammar,
    require_valid,
    term,
    validate_grammar,
    var,
)


def has_violation(g: Grammar, fragment: str) -> bool:
    return any(fragment in v for v in validate_grammar(g))


def test_template_items():
    assert term("a") == ("term", "a")
    assert var("x") == ("var", "x")


def test_instantiate_mixes_terms_and_variables():
    template = (term("a"), var("x"), term("b"), var("y"))
    subst = {"x": ("u", "v"), "y": ()}
    assert instantiate(template, subst) == ("a", "u", "v", "b")


def test_instantiate_rejects_bad_item_kind():
    with pytest.raises(ValueError):
        instantiate((("frob", "a"),), {})


def test_rule_accessors():
    rule = Rule("S", ((var("x"), var("y")),), (("I", ("x", "y")),))
    assert rule.arity == 1


def test_validate_accepts_well_formed_grammar(abcd_grammar):
    assert validate_grammar(abcd_grammar) == []
    require_valid(abcd_grammar)


def test_validate_flags_duplicate_terminal(abcd_grammar):
    g = Grammar(("a", "a"), abcd_grammar.nonterminals, "S", abcd_grammar.rules)
    assert has_violation(g, "duplicate terminal")


def test_validate_flags_duplicate_nonterminal(abcd_grammar):
    g = Grammar(
        abcd_grammar.terminals,
        (("S", 1), ("S", 1), ("I", 2)),
        "S",
        abcd_grammar.rules,
    )
    assert has_violation(g, "duplicate nonterminal")


def test_validate_flags_symbol_both_terminal_and_nonterminal():
    g = Grammar(("a",), (("a", 1),), "a", (Rule("a", ((term("a"),),)),))
    assert has_violation(g, "declared both terminal and nonterminal")


def test_validate_flags_nonpositive_arity():
    g = Grammar((), (("S", 0),), "S", ())
    assert has_violation(g, "arity must be >= 1")


def test_validate_flags_undeclared_start(abcd_grammar):
    g = Grammar(abcd_grammar.terminals, abcd_grammar.nonterminals, "Z", abcd_grammar.rules)
    assert has_violation(g, "start symbol 'Z' not declared")


def test_validate_flags_start_arity():
    g = Grammar((), (("S", 2),), "S", ())
    assert has_violation(g, "start arity != 1")


def test_validate_flags_template_count_mismatch():
    g = Grammar((), (("S", 1), ("I", 2)), "S", (Rule("I", ((),)),))
    assert has_violation(g, "1 templates for arity 2")


def test_validate_flags_undeclared_rule_symbols():
    g = Grammar((), (("S", 1),), "S", (Rule("X", ((),)),))
    assert has_violation(g, "lhs nonterminal 'X' not declared")
    g = Grammar((), (("S", 1),), "S", (Rule("S", ((var("x"),),), (("X", ("x",)),)),))
    assert has_violation(g, "rhs nonterminal 'X' not declared")


def test_validate_flags_premise_variable_count():
    g = Grammar(
        (),
        (("S", 1), ("I", 2)),
        "S",
        (Rule("S", ((var("x"),),), (("I", ("x",)),)),),
    )
    assert has_violation(g, "1 variables for arity 2")


def test_validate_flags_variable_introduced_twice():
    g = Grammar(
        (),
        (("S", 1), ("I", 1)),
        "S",
        (Rule("S", ((var("x"),),), (("I", ("x",)), ("I", ("x",)))),),
    )
    assert has_violation(g, "'x' introduced twice")


def test_validate_flags_unknown_template_symbols():
    g = Grammar((), (("S", 1),), "S", (Rule("S", ((term("a"),),)),))
    assert has_violation(g, "unknown terminal 'a'")
    g = Grammar((), (("S", 1),), "S", (Rule("S", ((var("x"),),)),))
    assert has_violation(g, "unknown variable 'x'")
    g = Grammar((), (("S", 1),), "S", (Rule("S", ((("frob", "a"),),)),))
    assert has_violation(g, "rule 0: bad template item kind 'frob'")


def test_validate_flags_variable_used_twice():
    g = Grammar(
        (),
        (("S", 1), ("I", 1)),
        "S",
        (Rule("S", ((var("x"), var("x")),), (("I", ("x",)),)),),
    )
    assert has_violation(g, "'x' used twice")


def test_validate_flags_schema_problems():
    g = Grammar((), (("S", 1),), "S", (), (CombineSchema("X", 2),))
    assert has_violation(g, "nonterminal 'X' not declared")
    g = Grammar((), (("S", 1), ("I", 2)), "S", (), (CombineSchema("I", 3),))
    assert has_violation(g, "does not match declared")


def test_require_valid_raises_with_violation_list():
    g = Grammar((), (("S", 2),), "S", ())
    with pytest.raises(InvalidGrammarError) as info:
        require_valid(g)
    assert any("start arity" in v for v in info.value.violations)


def test_blocking_violations():
    assert Blocking(((1, 3), (2, 4))).violations(2) == []
    assert Blocking(((1, 2, 3, 4),)).violations(2) != []  # wrong block count
    assert Blocking(((1, 1), (2, 3))).violations(2) != []  # slot reused, slot missing
    assert Blocking(((1, 2), (3, 5))).violations(2) != []  # slot out of range


def test_blocking_is_a_value():
    rows = ((1, 3), (2, 4))
    b = Blocking(rows)
    assert b == Blocking(blocks=rows) and b.blocks is rows
    assert b.violations(2) == [] and Blocking(blocks=((1, 2, 3, 4),)).violations(2) != []
    # equal and hashed by value, whatever the object
    twin = Blocking(tuple(map(tuple, map(list, rows))))
    assert twin is not b and twin == b and hash(twin) == hash(b)
    assert len({b, twin}) == 1 and b != Blocking(((1, 4), (2, 3)))
    # a one-field tuple: it iterates, has len 1 and equals (rows,)
    assert list(b) == [rows] and len(b) == 1 and b == (rows,)
    assert repr(b) == "Blocking(blocks=((1, 3), (2, 4)))"
    assert pickle.loads(pickle.dumps(b)) == b
    with pytest.raises(AttributeError):
        b.blocks = ()


def test_grammar_arities(abcd_grammar):
    assert abcd_grammar.nonterminals == (("S", 1), ("I", 2))


def test_json_round_trip_preserves_grammars(abcd_grammar):
    for g in (abcd_grammar, make_grammar(1), make_grammar(3)):
        assert grammar_from_json_dict(grammar_to_json_dict(g)) == g
        assert loads_grammar(dumps_grammar(g)) == g


def test_serialization_is_byte_stable(abcd_grammar):
    text = dumps_grammar(abcd_grammar)
    assert dumps_grammar(loads_grammar(text)) == text
    assert text.endswith("\n")


def test_canonical_json_sorts_keys():
    assert canonical_json({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}\n'


def test_loads_grammar_rejects_invalid_json():
    with pytest.raises(GrammarFormatError):
        loads_grammar("not json")


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"terminals": "abc"},
        {"terminals": [], "nonterminals": [["S", 1]]},
        {"terminals": [], "nonterminals": [{"name": "S"}]},
        {"terminals": [], "nonterminals": [], "start": 3},
        {"terminals": [], "nonterminals": [], "start": "S", "rules": {}},
        {"terminals": [], "nonterminals": [], "start": "S", "rules": [{"lhs": "S"}]},
        {
            "terminals": [],
            "nonterminals": [],
            "start": "S",
            "rules": [{"lhs": {"nt": "S", "templates": [[{"frob": "a"}]]}}],
        },
        {"terminals": [], "nonterminals": [], "start": "S", "rules": [], "schemas": [{"nt": "I"}]},
        # JSON booleans are not integers
        {"terminals": [], "nonterminals": [{"name": "S", "arity": True}], "start": "S",
         "rules": []},
        {"terminals": [], "nonterminals": [], "start": "S", "rules": [],
         "schemas": [{"nt": "I", "arity": True}]},
        # keys the format does not define, at every level
        {"terminals": [], "nonterminals": [], "start": "S", "rules": [],
         "schema": [{"nt": "I", "arity": 2}]},
        {"terminals": [], "nonterminals": [{"name": "S", "arity": 1, "arty": 1}],
         "start": "S", "rules": []},
        {"terminals": [], "nonterminals": [], "start": "S",
         "rules": [{"lhs": {"nt": "S", "templates": []}, "rsh": []}]},
        {"terminals": [], "nonterminals": [], "start": "S",
         "rules": [{"lhs": {"nt": "S", "templates": [], "vars": []}}]},
        {"terminals": [], "nonterminals": [], "start": "S",
         "rules": [{"lhs": {"nt": "S", "templates": []}, "rhs": [{"nt": "A", "vars": [], "x": 1}]}]},
        {"terminals": [], "nonterminals": [], "start": "S", "rules": [],
         "schemas": [{"nt": "I", "arity": 2, "blocking": []}]},
    ],
)
def test_malformed_grammar_json_is_rejected(data):
    with pytest.raises(GrammarFormatError):
        loads_grammar(canonical_json(data))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(schema=d.pop("schemas")), "grammar: unknown key 'schema'"),
        (lambda d: d["nonterminals"][1].update(size=2), "nonterminal 1: unknown key 'size'"),
        (lambda d: d["rules"][0].update(weight=1), "rule 0: unknown key 'weight'"),
        (lambda d: d["rules"][1]["lhs"].update(rhs=[]), "rule 1 lhs: unknown key 'rhs'"),
        (lambda d: d["rules"][0]["rhs"][0].update(args=[]), "rule 0 rhs 0: unknown key 'args'"),
        (lambda d: d["schemas"][0].update(blocks=[]), "schema 0: unknown key 'blocks'"),
    ],
    ids=["grammar", "nonterminal", "rule", "lhs", "rhs", "schema"],
)
def test_unknown_grammar_keys_name_the_place_and_key(edit, message):
    data = grammar_to_json_dict(make_grammar(1))
    edit(data)
    with pytest.raises(GrammarFormatError) as info:
        grammar_from_json_dict(data)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "template, message",
    [
        ("a", "rule 1: template must be a list"),
        (["a"], "rule 1: template item must be a single-key object"),
        ([{"term": "a1", "var": "x"}], "rule 1: template item must be a single-key object"),
        ([{"frob": "a1"}], "rule 1: template item must be {'term': sym} or {'var': name}"),
    ],
    ids=["not-a-list", "not-an-object", "two-keys", "bad-kind"],
)
def test_malformed_templates_name_the_rule(template, message):
    data = grammar_to_json_dict(make_grammar(1))
    data["rules"][1]["lhs"]["templates"][0] = template
    with pytest.raises(GrammarFormatError) as info:
        loads_grammar(canonical_json(data))
    assert str(info.value) == message
