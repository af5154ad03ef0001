"""Derivation steps, the checker, and derivation JSON."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given

from mcfgkit import (
    Blocking,
    CombineSchema,
    Derivation,
    DerivationError,
    Grammar,
    GrammarFormatError,
    Instance,
    RuleInstance,
    apply_blocking,
    check_derivation,
    dumps_derivation,
    loads_derivation,
    make_grammar,
    synthesize_word,
)
from mcfgkit import cli

from wordgen import zero_displacement_words


def abcd_steps() -> tuple[RuleInstance, ...]:
    """I(e, e); I(ab, cd); S(abcd) in the counted-quads grammar."""
    return (
        RuleInstance.concrete(0, {}, "I", ((), ())),
        RuleInstance.concrete(
            1, {"x": (), "y": ()}, "I", (("a", "b"), ("c", "d")), (0,)
        ),
        RuleInstance.concrete(
            2, {"x": ("a", "b"), "y": ("c", "d")}, "S",
            (("a", "b", "c", "d"),), (1,)
        ),
    )


def combine_steps() -> tuple[RuleInstance, ...]:
    """Empty axiom and axis axiom merged by an interleaving blocking, rank 1."""
    axis = (("a1",), ("A1",), (), (), (), ())
    blocking = Blocking(((1, 7), (2, 8), (3, 9), (4, 10), (5, 11), (6, 12)))
    return (
        RuleInstance.concrete(1, {}, "I", ((),) * 6),
        RuleInstance.concrete(2, {}, "I", axis),
        RuleInstance.combine("I", blocking, "I", axis, (0, 1)),
    )


def test_apply_blocking_regroups_source_slots():
    blocking = Blocking(((2, 3), (4, 1)))
    left = (("a",), ("b", "b"))
    right = (("c",), ())
    assert apply_blocking(blocking, left, right) == (("b", "b", "c"), ("a",))


def test_checker_accepts_concrete_derivation(abcd_grammar):
    final = check_derivation(abcd_grammar, Derivation(abcd_steps()))
    assert final == Instance("S", (("a", "b", "c", "d"),))


def test_checker_accepts_schema_step():
    final = check_derivation(make_grammar(1), Derivation(combine_steps()))
    assert final == Instance("I", (("a1",), ("A1",), (), (), (), ()))


def test_checker_rejects_empty_derivation(abcd_grammar):
    with pytest.raises(DerivationError) as info:
        check_derivation(abcd_grammar, Derivation(()))
    assert info.value.code == "empty-derivation"


def expect_code(grammar, steps, code: str, step: int | None = None):
    with pytest.raises(DerivationError) as info:
        check_derivation(grammar, Derivation(tuple(steps)))
    assert info.value.code == code
    if step is not None:
        assert info.value.step == step


def test_checker_rejects_out_of_range_rule(abcd_grammar):
    steps = (RuleInstance.concrete(9, {}, "I", ((), ())),)
    expect_code(abcd_grammar, steps, "unknown-rule", 0)


def test_checker_rejects_step_with_no_rule_reference(abcd_grammar):
    steps = (RuleInstance(conclusion_nt="I", conclusion=((), ())),)
    expect_code(abcd_grammar, steps, "unknown-rule")


def test_checker_rejects_forward_premise(abcd_grammar):
    steps = (
        RuleInstance.concrete(1, {"x": (), "y": ()}, "I",
                              (("a", "b"), ("c", "d")), (0,)),
    )
    expect_code(abcd_grammar, steps, "premise-not-derived", 0)


def test_checker_rejects_premise_count_mismatch(abcd_grammar):
    steps = (RuleInstance.concrete(0, {}, "I", ((), ()), (0,)),)
    expect_code(abcd_grammar, steps, "premise-not-derived")


def test_checker_rejects_premise_conclusion_mismatch(abcd_grammar):
    good = abcd_steps()
    steps = (
        good[0],
        RuleInstance.concrete(1, {"x": ("a",), "y": ()}, "I",
                              (("a", "a", "b"), ("c", "d")), (0,)),
    )
    expect_code(abcd_grammar, steps, "premise-not-derived", 1)


def test_checker_rejects_missing_substitution_variable(abcd_grammar):
    steps = (
        abcd_steps()[0],
        RuleInstance.concrete(1, {"x": ()}, "I", (("a", "b"), ("c", "d")), (0,)),
    )
    expect_code(abcd_grammar, steps, "template-mismatch", 1)


def test_checker_rejects_foreign_symbol_in_substitution(abcd_grammar):
    # rule 0 introduces no variables, so binding "x" at all is refused,
    # whatever symbols its value holds
    steps = (RuleInstance.concrete(0, {"x": ("z",)}, "I", ((), ())),)
    expect_code(abcd_grammar, steps, "template-mismatch", 0)


def test_checker_rejects_unbound_substitution_variable(abcd_grammar):
    good = abcd_steps()
    extra = RuleInstance.concrete(
        2, {**good[2].subst_dict, "zz": ()}, "S", good[2].conclusion, (1,)
    )
    expect_code(abcd_grammar, good[:2] + (extra,), "template-mismatch", 2)
    # the start step of a synthesized derivation, with one binding too many
    d = synthesize_word(("a1", "A1"), 1)
    start = d.steps[-1]
    extra = RuleInstance.concrete(
        start.rule_index, {**start.subst_dict, "zz": ()},
        start.conclusion_nt, start.conclusion, start.premises,
    )
    expect_code(make_grammar(1), d.steps[:-1] + (extra,), "template-mismatch", len(d) - 1)


def test_checker_rejects_fields_a_step_kind_never_uses(tmp_path, capsys):
    good = combine_steps()
    # a combine step binds no variables, so a substitution on one is rejected
    bound = replace(good[2], subst=(("x", ("a1",)),))
    expect_code(make_grammar(1), good[:2] + (bound,), "template-mismatch", 2)
    text = dumps_derivation(Derivation(good[:2] + (bound,)))
    assert loads_derivation(text).steps[2].subst == (("x", ("a1",)),)
    path = tmp_path / "d.json"
    path.write_text(text, encoding="utf-8")
    assert cli.run(["verify", "--n", "1", "--derivation", str(path)]) == 1
    assert "schema step carries a substitution" in capsys.readouterr().out
    # a concrete step with a blocking would lose it on a dump/load round trip
    blocked = replace(good[1], blocking=good[2].blocking)
    expect_code(make_grammar(1), (good[0], blocked, good[2]), "blocking-malformed", 1)


def test_checker_rejects_wrong_conclusion(abcd_grammar):
    steps = (RuleInstance.concrete(0, {}, "I", (("a",), ())),)
    expect_code(abcd_grammar, steps, "template-mismatch", 0)
    steps = (RuleInstance.concrete(0, {}, "S", ((), ())),)
    expect_code(abcd_grammar, steps, "template-mismatch", 0)


def test_checker_rejects_unknown_schema():
    good = combine_steps()
    bad = RuleInstance.combine("J", good[2].blocking, "J",
                               good[2].conclusion, (0, 1))
    expect_code(make_grammar(1), good[:2] + (bad,), "unknown-rule", 2)


def test_checker_rejects_missing_and_malformed_blockings():
    good = combine_steps()
    no_blocking = RuleInstance(conclusion_nt="I", conclusion=good[2].conclusion,
                               premises=(0, 1), schema="I")
    expect_code(make_grammar(1), good[:2] + (no_blocking,), "blocking-malformed", 2)
    short = Blocking(((1, 7), (2, 8), (3, 9), (4, 10), (5, 11), (6,)))
    bad = RuleInstance.combine("I", short, "I", good[2].conclusion, (0, 1))
    expect_code(make_grammar(1), good[:2] + (bad,), "blocking-malformed", 2)


def test_checker_rejects_schema_premise_problems():
    good = combine_steps()
    one_premise = RuleInstance.combine("I", good[2].blocking, "I",
                                       good[2].conclusion, (0,))
    expect_code(make_grammar(1), good[:2] + (one_premise,), "premise-not-derived", 2)


def test_checker_rejects_wrong_arity_schema_premise(abcd_grammar):
    g = Grammar(abcd_grammar.terminals, abcd_grammar.nonterminals,
                abcd_grammar.start, abcd_grammar.rules, (CombineSchema("I", 2),))
    steps = (
        RuleInstance.concrete(0, {}, "I", ((), ())),
        RuleInstance.concrete(2, {"x": (), "y": ()}, "S", ((),), (0,)),
        RuleInstance.combine(
            "I", Blocking(((1, 3), (2, 4))), "I", ((), ()), (0, 1)
        ),
    )
    expect_code(g, steps, "premise-not-derived", 2)


def test_checker_rejects_regrouping_mismatch():
    good = combine_steps()
    wrong = RuleInstance.combine("I", good[2].blocking, "I",
                                 (("A1",), ("a1",), (), (), (), ()), (0, 1))
    expect_code(make_grammar(1), good[:2] + (wrong,), "template-mismatch", 2)


def test_derivation_error_carries_location():
    err = DerivationError(3, "unknown-rule", "nope")
    assert err.step == 3 and err.code == "unknown-rule" and err.detail == "nope"
    assert "step 3" in str(err) and "unknown-rule" in str(err)


def test_rule_instance_helpers():
    step = RuleInstance.concrete(1, {"y": ("c",), "x": ()}, "I", (("a",), ("c",)))
    assert step.subst == (("x", ()), ("y", ("c",)))  # name-sorted
    assert step.subst_dict == {"x": (), "y": ("c",)}
    assert step.instance() == Instance("I", (("a",), ("c",)))
    assert len(Derivation((step,))) == 1


@given(zero_displacement_words(1, min_pairs=4, max_pairs=6))
def test_every_prefix_of_a_valid_derivation_is_valid(word):
    g = make_grammar(1)
    d = synthesize_word(word, 1)
    assert d is not None
    check_derivation(g, d)
    for j in range(1, len(d) + 1):
        check_derivation(g, Derivation(d.steps[:j]))


def test_json_round_trip_concrete_and_schema_steps(abcd_grammar):
    for grammar, steps in (
        (abcd_grammar, abcd_steps()),
        (make_grammar(1), combine_steps()),
    ):
        d = Derivation(steps)
        text = dumps_derivation(d)
        assert loads_derivation(json.dumps(json.loads(text))) == d
        assert loads_derivation(text) == d
        assert dumps_derivation(loads_derivation(text)) == text
        check_derivation(grammar, loads_derivation(text))


# quote, backslash, non-ASCII, U+2028, an astral character, control characters
PIECES = ('"', "\\", "\u00e9", "\u2028", "\U0001f600", "\x00", "\x1f", "\n", "\x7f", "a1")


def random_step(rng: random.Random) -> dict:
    """A step object with every key present; strings may be empty."""
    def text() -> str:
        return "".join(rng.choice(PIECES) for _ in range(rng.randrange(4)))

    def lists(item) -> list:
        return [[item() for _ in range(rng.randrange(4))] for _ in range(rng.randrange(4))]

    if rng.random() < 0.5:
        rule = {"index": rng.randrange(10 ** rng.randrange(1, 5))}
    else:
        rule = {"schema": text(), "blocking": lists(lambda: rng.randrange(-3, 300))}
    return {
        "conclusion": {"components": lists(text), "nt": text()},
        "premises": [rng.randrange(10 ** rng.randrange(1, 5)) for _ in range(rng.randrange(4))],
        "rule": rule,
        "subst": {text(): [text() for _ in range(rng.randrange(4))]
                  for _ in range(rng.randrange(4))},
    }


def test_dumps_matches_json_dumps_on_any_strings():
    rng = random.Random(2026)
    fixed = [
        {"steps": []},
        {"steps": [{"conclusion": {"components": [], "nt": ""}, "premises": [],
                    "rule": {"index": 0}, "subst": {}}]},
        {"steps": [{"conclusion": {"components": [[], [""]], "nt": "I"}, "premises": [10, 123],
                    "rule": {"blocking": [], "schema": "I"}, "subst": {"": []}}]},
    ]
    for data in fixed + [{"steps": [random_step(rng) for _ in range(rng.randrange(1, 5))]}
                         for _ in range(300)]:
        text = json.dumps(data, ensure_ascii=rng.random() < 0.5)
        d = loads_derivation(text)
        out = dumps_derivation(d)
        assert out == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        assert loads_derivation(out) == d


def test_dumps_sorts_subst_names_of_a_built_step():
    # dict() keeps the last binding of a repeated name, as json.dumps of a dict would
    subst = (("y", ("b",)), ("x", ("\u2028",)), ("y", ("c",)))
    step = RuleInstance(conclusion_nt="I", conclusion=((),), premises=(12,), rule_index=3,
                        subst=subst)
    expected = {"steps": [{"conclusion": {"components": [[]], "nt": "I"}, "premises": [12],
                           "rule": {"index": 3}, "subst": {v: list(w) for v, w in subst}}]}
    assert dumps_derivation(Derivation((step,))) == json.dumps(
        expected, indent=2, sort_keys=True) + "\n"


def test_loads_derivation_rejects_invalid_json():
    with pytest.raises(GrammarFormatError):
        loads_derivation("{")


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"steps": 3},
        {"steps": ["x"]},
        {"steps": [{"rule": 7}]},
        {"steps": [{"rule": {}}]},
        {"steps": [{"rule": {"index": "0"}}]},
        {"steps": [{"rule": {"schema": "I"}}]},
        {"steps": [{"rule": {"schema": "I", "blocking": [[1], ["2"]]}}]},
        {"steps": [{"rule": {"index": 0}}]},
        {"steps": [{"rule": {"index": 0}, "conclusion": {"nt": "I"}}]},
        {"steps": [{"rule": {"index": 0}, "subst": {"x": "ab"},
                    "conclusion": {"nt": "I", "components": []}}]},
        {"steps": [{"rule": {"index": 0},
                    "conclusion": {"nt": "I", "components": []},
                    "premises": ["0"]}]},
        # JSON booleans are not integers
        {"steps": [{"rule": {"index": True},
                    "conclusion": {"nt": "I", "components": []}}]},
        {"steps": [{"rule": {"schema": "I", "blocking": [[1], [True]]},
                    "conclusion": {"nt": "I", "components": []}}]},
        {"steps": [{"rule": {"index": 0},
                    "conclusion": {"nt": "I", "components": []},
                    "premises": [True]}]},
        # a rule carries exactly one of the two references
        {"steps": [{"rule": {"index": 0, "schema": "I", "blocking": [[1], [2]]},
                    "conclusion": {"nt": "I", "components": []}}]},
        # unknown keys, which a re-dump would drop: at the top, in a step,
        # in a rule (a blocking beside an index) and in a conclusion
        {"steps": [], "version": 1},
        {},
        {"steps": [{"rule": {"index": 0}, "note": "",
                    "conclusion": {"nt": "I", "components": []}}]},
        {"steps": [{"rule": {"index": 0, "blocking": [[1], [2]]},
                    "conclusion": {"nt": "I", "components": []}}]},
        {"steps": [{"rule": {"schema": "I", "blocking": [[1], [2]], "index2": 0},
                    "conclusion": {"nt": "I", "components": []}}]},
        {"steps": [{"rule": {"index": 0},
                    "conclusion": {"nt": "I", "components": [], "arity": 0}}]},
    ],
)
def test_malformed_derivation_json_is_rejected(data):
    with pytest.raises(GrammarFormatError):
        loads_derivation(json.dumps(data))


def test_minimal_steps_load_with_default_subst_and_premises():
    # the malformed cases above differ from these in one key each
    for rule in ({"index": 0}, {"schema": "I", "blocking": [[1], [2]]}):
        data = {"steps": [{"rule": rule, "conclusion": {"nt": "I", "components": []}}]}
        (step,) = loads_derivation(json.dumps(data)).steps
        assert step.subst == () and step.premises == ()
