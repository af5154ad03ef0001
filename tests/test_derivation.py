"""Derivation steps, the checker, and derivation JSON."""

from __future__ import annotations

import gc
import json
import pickle
import random
import threading
from dataclasses import FrozenInstanceError, fields, replace
from types import SimpleNamespace

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
    Rule,
    RuleInstance,
    apply_blocking,
    check_derivation,
    dumps_derivation,
    loads_derivation,
    make_grammar,
    synthesize_word,
)
from mcfgkit import cli
from mcfgkit import derivation as derivation_module

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
        RuleInstance(conclusion_nt="I", conclusion=axis, premises=(0, 1), schema="I",
                     blocking=blocking),
    )


def test_apply_blocking_regroups_source_slots():
    blocking = Blocking(((2, 3), (4, 1)))
    left = (("a",), ("b", "b"))
    right = (("c",), ())
    assert apply_blocking(blocking, left, right) == (("b", "b", "c"), ("a",))
    # a block of one slot is the source component itself; an empty block is ()
    out = apply_blocking(Blocking(((2,), (3, 1), (), (4,))), left, right)
    assert out == (("b", "b"), ("c", "a"), (), ())
    assert out[0] is left[1] and out[3] is right[1]


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
    bad = RuleInstance(conclusion_nt="J", conclusion=good[2].conclusion, premises=(0, 1),
                       schema="J", blocking=good[2].blocking)
    expect_code(make_grammar(1), good[:2] + (bad,), "unknown-rule", 2)


def test_checker_rejects_missing_and_malformed_blockings():
    good = combine_steps()
    no_blocking = RuleInstance(conclusion_nt="I", conclusion=good[2].conclusion,
                               premises=(0, 1), schema="I")
    expect_code(make_grammar(1), good[:2] + (no_blocking,), "blocking-malformed", 2)
    short = Blocking(((1, 7), (2, 8), (3, 9), (4, 10), (5, 11), (6,)))
    bad = RuleInstance(conclusion_nt="I", conclusion=good[2].conclusion, premises=(0, 1),
                       schema="I", blocking=short)
    expect_code(make_grammar(1), good[:2] + (bad,), "blocking-malformed", 2)


def test_checker_rejects_schema_premise_problems():
    good = combine_steps()
    one_premise = RuleInstance(conclusion_nt="I", conclusion=good[2].conclusion, premises=(0,),
                               schema="I", blocking=good[2].blocking)
    expect_code(make_grammar(1), good[:2] + (one_premise,), "premise-not-derived", 2)


def test_checker_rejects_wrong_arity_schema_premise(abcd_grammar):
    g = Grammar(abcd_grammar.terminals, abcd_grammar.nonterminals,
                abcd_grammar.start, abcd_grammar.rules, (CombineSchema("I", 2),))
    steps = (
        RuleInstance.concrete(0, {}, "I", ((), ())),
        RuleInstance.concrete(2, {"x": (), "y": ()}, "S", ((),), (0,)),
        RuleInstance(conclusion_nt="I", conclusion=((), ()), premises=(0, 1), schema="I",
                     blocking=Blocking(((1, 3), (2, 4)))),
    )
    expect_code(g, steps, "premise-not-derived", 2)


def test_blocking_checks_are_kept_apart_per_arity():
    # one Blocking object, used by a schema step of each arity; it is
    # valid at one arity only, and that step comes first
    g = Grammar(("a",), (("S", 1), ("I", 2), ("J", 3)), "S",
                (Rule("I", ((), ())), Rule("J", ((), (), ()))),
                (CombineSchema("I", 2), CombineSchema("J", 3)))
    axioms = (RuleInstance.concrete(0, {}, "I", ((),) * 2),
              RuleInstance.concrete(1, {}, "J", ((),) * 3))
    arity, axiom = {"I": 2, "J": 3}, {"I": 0, "J": 1}
    for valid, other, blocking in (
        ("I", "J", Blocking(((1, 3), (2, 4)))),
        ("J", "I", Blocking(((1, 4), (2, 5), (3, 6)))),
    ):
        def step(nt: str) -> RuleInstance:
            return RuleInstance(conclusion_nt=nt, conclusion=((),) * arity[nt],
                                premises=(axiom[nt],) * 2, schema=nt, blocking=blocking)

        check_derivation(g, Derivation(axioms + (step(valid),)))
        expect_code(g, axioms + (step(valid), step(other)), "blocking-malformed", 3)
        expect_code(g, axioms + (step(valid), step(valid), step(other)), "blocking-malformed", 4)


def test_each_blocking_value_is_checked_once_per_arity(monkeypatch):
    # every schema step gets its own copy of its blocking: equal values, distinct objects
    word = tuple(random.Random(23).sample(["a1", "A1", "a2", "A2"] * 20, 80))
    steps = tuple(step if step.blocking is None else replace(
        step, blocking=Blocking(tuple(map(tuple, map(list, step.blocking.blocks)))))
        for step in synthesize_word(word, 2).steps)
    blockings = [step.blocking for step in steps if step.blocking is not None]
    assert len(set(map(id, blockings))) == len(blockings) > len(set(blockings))
    calls = []
    violations = Blocking.violations

    def counted(self, m):
        calls.append((self, m))
        return violations(self, m)

    monkeypatch.setattr(Blocking, "violations", counted)
    check_derivation(make_grammar(2), Derivation(steps))
    assert sorted(calls) == sorted({(b, 6) for b in blockings})


def test_checker_rejects_regrouping_mismatch():
    good = combine_steps()
    wrong = RuleInstance(conclusion_nt="I", conclusion=(("A1",), ("a1",), (), (), (), ()),
                         premises=(0, 1), schema="I", blocking=good[2].blocking)
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


def shared_row_steps(rng: random.Random) -> dict:
    """Schema steps at m = 22 whose blockings reuse rows, empty rows among them."""
    pairs = [[j, j + 22] for j in range(1, 23)]
    rows = [[], [1], [2, 3], [2, 3, 5], [44, 1, 7], list(range(1, 45)), [22], [0, -1]]
    blockings = [pairs, pairs[::-1], [[]] + pairs[1:], [[], [], list(range(1, 45))] + pairs[3:],
                 [[]] * 22] + [[rng.choice(rows) for _ in range(22)] for _ in range(12)]
    return {"steps": [{"conclusion": {"components": [[]] * 22, "nt": schema},
                       "premises": [j, j], "rule": {"blocking": b, "schema": schema}, "subst": {}}
                      for j, b in enumerate(blockings) for schema in ("I", "J")]}


def test_dumps_matches_json_dumps_on_any_strings():
    rng = random.Random(2026)
    fixed = [
        {"steps": []},
        {"steps": [{"conclusion": {"components": [], "nt": ""}, "premises": [],
                    "rule": {"index": 0}, "subst": {}}]},
        {"steps": [{"conclusion": {"components": [[], [""]], "nt": "I"}, "premises": [10, 123],
                    "rule": {"blocking": [], "schema": "I"}, "subst": {"": []}}]},
        shared_row_steps(rng),
        {"steps": [random_step(rng) for _ in range(3)] + shared_row_steps(rng)["steps"]},
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


REFUSED_BLOCKING = Blocking(((1, 3), (2, 4)))


@pytest.mark.parametrize("refs, defect", [
    ({"rule_index": 0, "schema": "I"}, "a rule index cannot be written with a schema or a blocking"),
    ({"rule_index": 0, "blocking": REFUSED_BLOCKING},
     "a rule index cannot be written with a schema or a blocking"),
    ({"rule_index": 0, "schema": "I", "blocking": REFUSED_BLOCKING},
     "a rule index cannot be written with a schema or a blocking"),
    ({"schema": "I"}, "a schema step must carry a blocking"),
    ({}, "a step must carry a rule index or a schema"),
    ({"blocking": REFUSED_BLOCKING}, "a step must carry a rule index or a schema"),
], ids=["index-schema", "index-blocking", "index-both", "schema-alone", "neither", "blocking-alone"])
def test_dumps_refuses_a_step_the_format_cannot_hold(refs, defect):
    good = RuleInstance("I", ((), ()), (), 0)
    schema = RuleInstance("I", ((), ()), (0, 0), None, "I", REFUSED_BLOCKING)
    bad = RuleInstance("I", ((), ()), (0, 0), **refs)
    for steps, at in (((bad,), 0), ((good, schema, bad, good), 2)):
        with pytest.raises(ValueError) as info:
            dumps_derivation(Derivation(steps))
        assert type(info.value) is ValueError and str(info.value) == f"step {at}: {defect}"


@pytest.mark.parametrize("index", [True, 1.0, "1"], ids=["bool", "float", "str"])
def test_a_rule_index_that_is_not_an_int_is_refused(abcd_grammar, index):
    steps = abcd_steps()
    bad = replace(steps[1], rule_index=index)
    # True passed as rule 1, and 1.0 raised TypeError
    expect_code(abcd_grammar, (steps[0], bad, steps[2]), "unknown-rule", 1)
    # the writer refuses one alone, and one after a step with the int 1
    for written, at in (((steps[0], bad), 1), ((steps[0], steps[1], bad), 2)):
        with pytest.raises(ValueError) as info:
            dumps_derivation(Derivation(written))
        assert type(info.value) is ValueError
        assert str(info.value) == f"step {at}: rule index {index!r} is not an integer"


@pytest.mark.parametrize("premise", [True, 1.0, "1"], ids=["bool", "float", "str"])
def test_a_premise_index_that_is_not_an_int_is_refused(abcd_grammar, premise):
    steps = abcd_steps()
    bad = replace(steps[2], premises=(premise,))
    # True == 1 would pass as step 1, and 1.0 or "1" would fail the range test with TypeError
    with pytest.raises(DerivationError) as info:
        check_derivation(abcd_grammar, Derivation((steps[0], steps[1], bad)))
    assert (info.value.step, info.value.code) == (2, "premise-not-derived")
    assert info.value.detail == f"premise index {premise!r} is not an earlier step"
    # the writer refuses one alone and one before a good step, but an
    # earlier step it cannot write is named first
    unwritable = f"premise index {premise!r} is not an integer"
    for written, at, defect in (((bad,), 0, unwritable), ((*steps, bad, steps[2]), 3, unwritable),
                                ((steps[0], replace(steps[1], rule_index=True), bad), 1,
                                 "rule index True is not an integer")):
        with pytest.raises(ValueError) as info:
            dumps_derivation(Derivation(written))
        assert type(info.value) is ValueError and str(info.value) == f"step {at}: {defect}"


@pytest.mark.parametrize("slot", [1.0, "1", None], ids=["float", "str", "none"])
def test_a_blocking_slot_that_is_not_an_int_is_refused(slot):
    good = combine_steps()
    blocks = good[2].blocking.blocks
    bad = replace(good[2], blocking=Blocking(((slot, 7),) + blocks[1:]))
    # 1.0 == 1 passes the violations test but cannot index a source; the step is
    # refused as the blocking's first use and after the equal int blocking passed
    for steps, at in ((good[:2] + (bad,), 2), (good + (bad,), 3)):
        with pytest.raises(DerivationError) as info:
            check_derivation(make_grammar(1), Derivation(steps))
        assert (info.value.step, info.value.code) == (at, "blocking-malformed")
        assert info.value.detail == "blocks must be tuples of integer slots"
    # the writer refuses it too, rather than write text that the loader refuses
    with pytest.raises(ValueError) as info:
        dumps_derivation(Derivation(good[:2] + (bad,)))
    assert type(info.value) is ValueError
    assert str(info.value) == f"step 2: blocking {bad.blocking.blocks!r} is not a list of integer lists"


def test_a_blocking_slot_true_is_written_as_one():
    # the checker reads a slot True as slot 1, and the writer writes it as the 1
    # that loads back, not as text that the loader refuses
    good = combine_steps()
    blocks = good[2].blocking.blocks
    steps = good[:2] + (replace(good[2], blocking=Blocking(((True, 7),) + blocks[1:])),)
    check_derivation(make_grammar(1), Derivation(steps))
    text = dumps_derivation(Derivation(steps))
    assert text == dumps_derivation(Derivation(good))
    assert loads_derivation(text) == Derivation(good)


def refused(steps, code, detail, unwritable):
    """The checker answers the last step with code and detail, and the writer
    refuses it with a plain ValueError naming it, not a bare TypeError."""
    at = len(steps) - 1
    with pytest.raises(DerivationError) as info:
        check_derivation(make_grammar(1), Derivation(steps))
    assert (info.value.step, info.value.code, info.value.detail) == (at, code, detail)
    with pytest.raises(ValueError) as info:
        dumps_derivation(Derivation(steps))
    assert type(info.value) is ValueError and str(info.value) == f"step {at}: {unwritable}"


@pytest.mark.parametrize("row", [[1, 7], ([1], 7)], ids=["row", "slot"])
def test_a_list_in_a_blocking_is_refused(row):
    good = combine_steps()
    bad = replace(good[2], blocking=Blocking((row,) + good[2].blocking.blocks[1:]))
    refused(good[:2] + (bad,), "blocking-malformed", "blocks must be tuples of integer slots",
            f"blocking {bad.blocking.blocks!r} is not a list of integer lists")


def test_a_schema_that_is_a_list_is_refused():
    good = combine_steps()
    refused(good[:2] + (replace(good[2], schema=["I"]),), "unknown-rule",
            "no schema for nonterminal ['I']", "schema ['I'] is not a string")


def test_a_plain_tuple_in_place_of_a_blocking_is_refused():
    good = combine_steps()
    blocks = good[2].blocking.blocks
    refused(good[:2] + (replace(good[2], blocking=blocks),), "blocking-malformed",
            "blocks must be tuples of integer slots", f"blocking {blocks!r} is not a Blocking")


def test_a_subst_value_that_is_a_list_is_refused():
    axis, final = synthesize_word(("a1", "A1"), 1).steps
    subst = tuple((v, list(w)) for v, w in final.subst)
    refused((axis, replace(final, subst=subst)), "premise-not-derived",
            "premise 0 conclusion does not match I under the substitution",
            f"subst {subst!r} is not (name, token tuple) pairs")


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


GOOD_STEP = {"rule": {"schema": "I", "blocking": [[1, 3], [2, 4]]},
             "conclusion": {"nt": "I", "components": [[], []]}}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("text, error", [
    (json.dumps({"steps": [GOOD_STEP, GOOD_STEP]}), None),
    ("{", "invalid JSON"),
    ("[" * 200_000, "invalid JSON: maximum recursion depth"),
    (json.dumps({"steps": [GOOD_STEP, {**GOOD_STEP, "premises": [True]}]}),
     "step 1: premises must be a list of integers"),
], ids=["valid", "invalid-json", "too-deep", "bad-later-step"])
def test_loads_leaves_the_collector_as_it_found_it(enabled, text, error):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            assert len(loads_derivation(text)) == 2
        else:
            with pytest.raises(GrammarFormatError, match=error):
                loads_derivation(text)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_overlapping_loads_leave_the_collector_on(monkeypatch):
    """A load that starts while another has the collector paused reads it
    as off; the first load's restore must not fall between that read and
    the second load's own gc.disable, or the collector stays off."""
    text = json.dumps({"steps": [GOOD_STEP]})
    held, go, done = threading.Event(), threading.Event(), threading.Event()
    load_steps = derivation_module._load_steps

    def held_load(t):
        if threading.current_thread() is not threading.main_thread():
            held.set()
            go.wait(5)
        return load_steps(t)

    def isenabled():
        state = gc.isenabled()
        if threading.current_thread() is threading.main_thread():
            go.set()  # let the first load end, and give its restore the chance to run now
            done.wait(0.5)
        return state

    def first_load():
        loads_derivation(text)
        done.set()

    monkeypatch.setattr(derivation_module, "_load_steps", held_load)
    monkeypatch.setattr(derivation_module, "gc", SimpleNamespace(
        isenabled=isenabled, disable=gc.disable, enable=gc.enable))
    was = gc.isenabled()
    gc.enable()
    try:
        first = threading.Thread(target=first_load)
        first.start()
        assert held.wait(5)
        assert len(loads_derivation(text)) == 1
        first.join(5)
        assert done.is_set() and gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


def generated_init_step(**given) -> RuleInstance:
    """A RuleInstance set up as dataclass's generated frozen __init__ does it:
    each field in order, given or defaulted, through object.__setattr__."""
    step = object.__new__(RuleInstance)
    for f in fields(RuleInstance):
        object.__setattr__(step, f.name, given.get(f.name, f.default))
    return step


def test_built_steps_equal_constructed_ones():
    blocking = Blocking(((1, 3), (2, 4)))
    text = json.dumps({"steps": [
        {**GOOD_STEP, "premises": [0, 0], "subst": {}},
        {"rule": {"index": 2}, "conclusion": {"nt": "I", "components": [["a"], []]},
         "premises": [1], "subst": {"y": [], "x": ["a"]}}]})
    concrete = {"conclusion_nt": "I", "conclusion": (("a",), ()), "premises": (1,), "rule_index": 2,
                "subst": (("x", ("a",)), ("y", ()))}
    built = loads_derivation(text).steps + (
        RuleInstance("I", ((), ()), (0, 0), None, "I", blocking, ()),
        RuleInstance(**concrete),
        RuleInstance.concrete(2, {"y": (), "x": ("a",)}, "I", (("a",), ()), (1,)))
    expected = (
        generated_init_step(conclusion_nt="I", conclusion=((), ()), premises=(0, 0), schema="I",
                            blocking=blocking),
        generated_init_step(**concrete))
    for step, twin in zip(built, expected * 2 + expected[1:], strict=True):
        assert step == twin and hash(step) == hash(twin) and repr(step) == repr(twin)
        assert list(vars(step).items()) == list(vars(twin).items())
        assert pickle.loads(pickle.dumps(step)) == step
        assert replace(step, premises=(5,)) == replace(twin, premises=(5,)) != step
        with pytest.raises(FrozenInstanceError):
            step.premises = ()


MALFORMED_STEPS = [
    ("x", "must be an object of conclusion, premises, rule, subst"),
    ({**GOOD_STEP, "note": ""}, "must be an object of conclusion, premises, rule, subst"),
    ({**GOOD_STEP, "rule": 7}, "rule must be an object"),
    ({"conclusion": GOOD_STEP["conclusion"]}, "rule must be an object"),
    ({**GOOD_STEP, "rule": {}}, "rule must be 'index' alone or 'schema' with 'blocking'"),
    ({**GOOD_STEP, "rule": {"schema": "I"}},
     "rule must be 'index' alone or 'schema' with 'blocking'"),
    ({**GOOD_STEP, "rule": {"index": 0, "blocking": [[1, 3], [2, 4]]}},
     "rule must be 'index' alone or 'schema' with 'blocking'"),
    ({**GOOD_STEP, "rule": {"index": "0"}}, "rule index must be an integer"),
    ({**GOOD_STEP, "rule": {"index": True}}, "rule index must be an integer"),
    ({**GOOD_STEP, "rule": {"index": 0.0}}, "rule index must be an integer"),
    ({**GOOD_STEP, "rule": {"schema": 1, "blocking": [[1, 3], [2, 4]]}},
     "schema must be a string"),
    ({**GOOD_STEP, "rule": {"schema": "I", "blocking": [[1, 3], ["2", 4]]}},
     "blocking must be a list of integer lists"),
    ({**GOOD_STEP, "rule": {"schema": "I", "blocking": [1, 3, 2, 4]}},
     "blocking must be a list of integer lists"),
    ({**GOOD_STEP, "rule": {"schema": "I", "blocking": {"1": [3]}}},
     "blocking must be a list of integer lists"),
    ({**GOOD_STEP, "subst": {"x": "ab"}}, "subst must map variables to token lists"),
    ({**GOOD_STEP, "subst": {"x": ["a", 1]}}, "subst must map variables to token lists"),
    ({**GOOD_STEP, "subst": [["x", []]]}, "subst must map variables to token lists"),
    ({**GOOD_STEP, "subst": None}, "subst must map variables to token lists"),
    ({"rule": GOOD_STEP["rule"]}, "conclusion must be {nt, components}"),
    ({**GOOD_STEP, "conclusion": {"nt": "I"}}, "conclusion must be {nt, components}"),
    ({**GOOD_STEP, "conclusion": {"nt": 1, "components": []}},
     "conclusion must be {nt, components}"),
    ({**GOOD_STEP, "conclusion": {"nt": "I", "components": [["a"], "b"]}},
     "conclusion must be {nt, components}"),
    ({**GOOD_STEP, "conclusion": {"nt": "I", "components": [["a", None]]}},
     "conclusion must be {nt, components}"),
    ({**GOOD_STEP, "conclusion": {"nt": "I", "components": [], "arity": 0}},
     "conclusion must be {nt, components}"),
    ({**GOOD_STEP, "premises": ["0"]}, "premises must be a list of integers"),
    ({**GOOD_STEP, "premises": [0, True]}, "premises must be a list of integers"),
    ({**GOOD_STEP, "premises": [0.0]}, "premises must be a list of integers"),
    ({**GOOD_STEP, "premises": 0}, "premises must be a list of integers"),
    # the first failing check of a step is the one reported
    ({"rule": 7, "conclusion": 7, "premises": 7}, "rule must be an object"),
    ({**GOOD_STEP, "subst": [], "conclusion": 7}, "subst must map variables to token lists"),
]


@pytest.mark.parametrize("bad, message", MALFORMED_STEPS)
def test_malformed_later_step_names_its_index_and_check(bad, message):
    text = json.dumps({"steps": [GOOD_STEP, bad, "x"]})
    with pytest.raises(GrammarFormatError) as info:
        loads_derivation(text)
    assert str(info.value) == f"step 1: {message}"


@pytest.mark.parametrize("bad, message", MALFORMED_STEPS + [
    ({**GOOD_STEP, "premises": [0, 1, True]}, "premises must be a list of integers"),
    ({**GOOD_STEP, "rule": {"schema": "I", "blocking": [[1, 3], [2, 4.0]]}},
     "blocking must be a list of integer lists"),
    ({**GOOD_STEP, "rule": {"schema": "I", "blocking": [[1, 3], [2, 4], 5]}},
     "blocking must be a list of integer lists"),
    ({**GOOD_STEP, "conclusion": {"nt": "I", "components": [["a"], ["b", 1]]}},
     "conclusion must be {nt, components}"),
    ({**GOOD_STEP, "conclusion": {"nt": "I", "components": "ab"}},
     "conclusion must be {nt, components}"),
    ({**GOOD_STEP, "subst": {"x": ["a"], "y": "b"}}, "subst must map variables to token lists"),
    # empty containers of the wrong type, whose items would pass any item test
    (["rule", "conclusion"], "must be an object of conclusion, premises, rule, subst"),
    ({**GOOD_STEP, "rule": {"schema": "I", "blocking": {}}}, "blocking must be a list of integer lists"),
    ({**GOOD_STEP, "rule": {"schema": "I", "blocking": ""}}, "blocking must be a list of integer lists"),
    ({**GOOD_STEP, "conclusion": {"nt": "I", "components": {}}}, "conclusion must be {nt, components}"),
    ({**GOOD_STEP, "premises": ""}, "premises must be a list of integers"),
    ({**GOOD_STEP, "subst": {"x": {}}}, "subst must map variables to token lists"),
])
def test_malformed_step_after_good_ones_names_its_index_and_check(bad, message):
    # nothing after the defect fails, so only the loader's tests over all
    # steps at once can find it before the step-by-step loop words it
    text = json.dumps({"steps": [GOOD_STEP] * 100 + [bad, GOOD_STEP]})
    with pytest.raises(GrammarFormatError) as info:
        loads_derivation(text)
    assert str(info.value) == f"step 100: {message}"


@pytest.mark.parametrize("bad", [[[True, 3], [2, 4]], [[1, 3], [2, 4.0]], [[1.0, 3.0], [2.0, 4.0]]])
def test_blocking_equal_by_value_to_an_earlier_one_is_still_type_checked(bad):
    # (1,) == (True,) == (1.0,) and they hash alike: equal blockings share
    # one object only once a blocking has passed its integer test
    assert tuple(map(tuple, bad)) == ((1, 3), (2, 4))
    text = json.dumps({"steps": [GOOD_STEP, {**GOOD_STEP, "rule": {"schema": "I", "blocking": bad}}]})
    with pytest.raises(GrammarFormatError) as info:
        loads_derivation(text)
    assert str(info.value) == "step 1: blocking must be a list of integer lists"


def test_equal_blockings_load_as_one_object():
    text = json.dumps({"steps": [GOOD_STEP, GOOD_STEP,
                                 {**GOOD_STEP, "rule": {"schema": "J", "blocking": [[1, 3], [2, 4]]}},
                                 {**GOOD_STEP, "rule": {"schema": "I", "blocking": [[1, 4], [2, 3]]}}]})
    a, b, c, d = (step.blocking for step in loads_derivation(text).steps)
    assert a is b is c and d is not a and d == Blocking(((1, 4), (2, 3)))
    word = tuple(random.Random(14).sample(["a1", "A1", "a2", "A2"] * 24, 96))
    loaded = loads_derivation(dumps_derivation(synthesize_word(word, 2)))
    blockings = [step.blocking for step in loaded.steps if step.blocking is not None]
    assert len(set(map(id, blockings))) == len(set(blockings)) < len(blockings)
    check_derivation(make_grammar(2), loaded)
