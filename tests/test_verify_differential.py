"""Differential fuzz of the verify path: loads_derivation, check_derivation
and dumps_derivation against a plain reference written from the derivation
format and check_derivation's docstring.

Valid derivations (ranks 1, 2, 3 and 5, words of up to 40 letters) are
mutated in twelve ways, some twice. The library and the reference must
agree on accepting or rejecting each; on a malformed file, on the whole
message, which names the first bad step and its first failing check in
the README's order; on a file that breaks a rule, on the first failing
step and the error code. The library must raise nothing but
GrammarFormatError and DerivationError, and must dump what it loads as
json.dumps would.
"""

from __future__ import annotations

import copy
import json
import random
from collections import Counter

from mcfgkit import (
    DerivationError,
    GrammarFormatError,
    check_derivation,
    dumps_derivation,
    grammar_params,
    loads_derivation,
    make_grammar,
    synthesize_word,
)

from wordgen import shuffled_pairs, walk_and_return

STEP_KEYS = {"conclusion", "premises", "rule", "subst"}


def is_int(v) -> bool:
    return type(v) is int  # JSON true and false are not integers here


def is_str_list(v) -> bool:
    return type(v) is list and all(type(t) is str for t in v)


def step_format_error(step) -> str | None:
    """The first check one step fails, in the README's order; None if it has
    the format's shape. Premises and subst may be left out."""
    if not (type(step) is dict and set(step) <= STEP_KEYS):
        return "must be an object of conclusion, premises, rule, subst"
    rule = step.get("rule")
    if type(rule) is not dict:
        return "rule must be an object"
    if set(rule) not in ({"index"}, {"blocking", "schema"}):
        return "rule must be 'index' alone or 'schema' with 'blocking'"
    if "index" in rule and not is_int(rule["index"]):
        return "rule index must be an integer"
    if "schema" in rule:
        if type(rule["schema"]) is not str:
            return "schema must be a string"
        blocking = rule["blocking"]
        if not (type(blocking) is list
                and all(type(row) is list and all(is_int(s) for s in row) for row in blocking)):
            return "blocking must be a list of integer lists"
    subst = step.get("subst", {})
    if not (type(subst) is dict and all(is_str_list(w) for w in subst.values())):
        return "subst must map variables to token lists"
    concl = step.get("conclusion")
    if not (type(concl) is dict and set(concl) == {"nt", "components"}
            and type(concl["nt"]) is str and type(concl["components"]) is list
            and all(is_str_list(c) for c in concl["components"])):
        return "conclusion must be {nt, components}"
    premises = step.get("premises", [])
    if not (type(premises) is list and all(is_int(p) for p in premises)):
        return "premises must be a list of integers"
    return None


def reference_load(obj):
    """("format", message) for malformed data, else the steps with defaults filled in."""
    if not (type(obj) is dict and set(obj) == {"steps"}):
        return ("format", "derivation must be a JSON object with the one key 'steps'")
    if type(obj["steps"]) is not list:
        return ("format", "steps must be a list")
    for i, step in enumerate(obj["steps"]):
        error = step_format_error(step)
        if error is not None:
            return ("format", f"step {i}: {error}")
    return [dict(step, premises=step.get("premises", []), subst=step.get("subst", {}))
            for step in obj["steps"]]


def instantiate(template, subst) -> list[str]:
    out: list[str] = []
    for kind, value in template:
        out.extend([value] if kind == "term" else subst[value])
    return out


def reference_check(g, steps):
    """("ok", nt, components) or ("check", step, code) for the first violation.

    Per step: premises must be earlier steps. A concrete rule must exist,
    get one premise per right-hand nonterminal, bind each variable of a
    premise to that premise's component, bind nothing else, and conclude
    the instantiated templates. A schema step must name a schema, carry no
    substitution, use each slot 1..2m once in m blocks, have two arity-m
    premises of the schema's nonterminal, and conclude their regrouping.
    """
    arity = {s.nonterminal: s.arity for s in g.schemas}
    if not steps:
        return ("check", 0, "empty-derivation")
    for i, step in enumerate(steps):
        premises, subst = step["premises"], step["subst"]
        nt, comps = step["conclusion"]["nt"], step["conclusion"]["components"]
        if any(not 0 <= p < i for p in premises):
            return ("check", i, "premise-not-derived")
        rule_ref = step["rule"]
        if "index" in rule_ref:
            r = rule_ref["index"]
            if not 0 <= r < len(g.rules):
                return ("check", i, "unknown-rule")
            rule = g.rules[r]
            if len(premises) != len(rule.rhs):
                return ("check", i, "premise-not-derived")
            for (rhs_nt, names), p in zip(rule.rhs, premises):
                if any(v not in subst for v in names):
                    return ("check", i, "template-mismatch")
                premise = steps[p]["conclusion"]
                if premise["nt"] != rhs_nt or premise["components"] != [subst[v] for v in names]:
                    return ("check", i, "premise-not-derived")
            if set(subst) - {v for _, names in rule.rhs for v in names}:
                return ("check", i, "template-mismatch")
            if nt != rule.lhs or comps != [instantiate(t, subst) for t in rule.templates]:
                return ("check", i, "template-mismatch")
        else:
            schema, blocking = rule_ref["schema"], rule_ref["blocking"]
            if schema not in arity:
                return ("check", i, "unknown-rule")
            m = arity[schema]
            if subst:
                return ("check", i, "template-mismatch")
            if len(blocking) != m or sorted(s for row in blocking for s in row) != list(range(1, 2 * m + 1)):
                return ("check", i, "blocking-malformed")
            if len(premises) != 2:
                return ("check", i, "premise-not-derived")
            sources = [steps[p]["conclusion"] for p in premises]
            if any(src["nt"] != schema or len(src["components"]) != m for src in sources):
                return ("check", i, "premise-not-derived")
            slots = sources[0]["components"] + sources[1]["components"]
            if nt != schema or comps != [[t for s in row for t in slots[s - 1]] for row in blocking]:
                return ("check", i, "template-mismatch")
    last = steps[-1]["conclusion"]
    return ("ok", last["nt"], last["components"])


def reference_outcome(g, obj):
    steps = reference_load(obj)
    if isinstance(steps, tuple):
        return steps, None
    return reference_check(g, steps), json.dumps({"steps": steps}, indent=2, sort_keys=True) + "\n"


def library_outcome(g, text):
    try:
        d = loads_derivation(text)
    except GrammarFormatError as err:
        return ("format", str(err)), None
    try:
        final = check_derivation(g, d)
    except DerivationError as err:
        outcome = ("check", err.step, err.code)
    else:
        outcome = ("ok", final.nt, [list(c) for c in final.components])
    return outcome, dumps_derivation(d)


def schema_steps(steps):
    return [i for i, s in enumerate(steps) if "schema" in s["rule"]]


def concrete_steps(steps):
    return [i for i, s in enumerate(steps) if "index" in s["rule"]]


def mutate(rng: random.Random, obj, kind: str, n: int) -> None:
    """Apply one mutation of the given kind, in place, to a derivation object
    that has the format's shape; a kind with nothing to act on does nothing."""
    steps = obj["steps"]
    m = grammar_params(n).m
    letters = [f"{c}{a}" for a in range(1, n + 2) for c in "aA"] + ["aé1"]
    oddities = [True, False, None, 1.5, "1", [], {}]
    i = rng.randrange(len(steps))
    step = steps[i]
    if kind == "tokens":
        comps = step["conclusion"]["components"]
        if not comps:
            return
        comp = comps[rng.randrange(len(comps))]
        how = rng.randrange(4)
        if comp and how == 0:
            comp[rng.randrange(len(comp))] = rng.choice(letters)
        elif comp and how == 1:
            del comp[rng.randrange(len(comp))]
        elif how == 2:
            comp.insert(rng.randrange(len(comp) + 1), rng.choice(letters))
        else:
            comp.insert(rng.randrange(len(comp) + 1), rng.choice([1, True, None, ["a1"]]))
    elif kind == "premises":
        premises = step.setdefault("premises", [])
        how = rng.randrange(4)
        if premises and how == 0:
            premises[rng.randrange(len(premises))] = rng.randrange(-2, len(steps) + 2)
        elif premises and how == 1:
            premises[rng.randrange(len(premises))] = rng.choice(oddities)
        elif premises and how == 2:
            del premises[rng.randrange(len(premises))]
        else:
            premises.append(rng.randrange(-1, len(steps) + 1))
    elif kind == "rule_index":
        if not concrete_steps(steps):
            return
        i = rng.choice(concrete_steps(steps))
        how = rng.randrange(3)
        steps[i]["rule"]["index"] = (rng.randrange(-2, 3 + n + 2) if how == 0
                                     else rng.choice(oddities) if how == 1
                                     else steps[i]["rule"]["index"] + rng.choice((-1, 1)))
    elif kind == "schemas":
        how = rng.randrange(3)
        if how == 0 and schema_steps(steps):
            i = rng.choice(schema_steps(steps))
            steps[i]["rule"]["schema"] = rng.choice(["S", "J", "", 1, None])
        elif how == 1 and schema_steps(steps):
            steps[rng.choice(schema_steps(steps))]["rule"] = {"index": rng.randrange(3 + n)}
        elif concrete_steps(steps):
            blocks = [[j] for j in range(1, m + 1)]
            blocks[-1].extend(range(m + 1, 2 * m + 1))
            steps[rng.choice(concrete_steps(steps))]["rule"] = {"schema": "I", "blocking": blocks}
    elif kind in ("slots", "moved", "swapped"):
        if not schema_steps(steps):
            return
        blocking = steps[rng.choice(schema_steps(steps))]["rule"]["blocking"]
        filled = [b for b, row in enumerate(blocking) if row]
        if not filled:
            return
        b = rng.choice(filled)
        j = rng.randrange(len(blocking[b]))
        if kind == "slots":
            blocking[b][j] = (rng.randrange(-1, 2 * m + 3) if rng.random() < 0.7
                              else rng.choice([True, 1.0, "2"]))
        elif kind == "moved":
            slot = blocking[b].pop(j)
            target = blocking[rng.randrange(len(blocking))]
            target.insert(rng.randrange(len(target) + 1), slot)
        else:
            b2 = rng.choice(filled)
            j2 = rng.randrange(len(blocking[b2]))
            blocking[b][j], blocking[b2][j2] = blocking[b2][j2], blocking[b][j]
    elif kind == "subst":
        subst = step.setdefault("subst", {})
        how = rng.randrange(5)
        if subst and how == 0:
            v = rng.choice(sorted(subst))
            subst[v] = subst[v] + [rng.choice(letters)] if rng.random() < 0.5 else subst[v][1:]
        elif subst and how == 1:
            v = rng.choice(sorted(subst))
            subst[f"{v}x"] = subst.pop(v)
        elif subst and how == 2:
            del subst[rng.choice(sorted(subst))]
        elif how == 3:
            subst[rng.choice(["x1", "x2", "y", "z9"])] = rng.choice([[], ["a1"], "a1", [1]])
        else:
            step["subst"] = rng.choice([[], "x", None, {"x1": None}])
    elif kind == "keys":
        where = rng.choice([step, step["rule"], step["conclusion"]])
        how = rng.randrange(3)
        if how == 0:
            where[rng.choice(["extra", "Premises", "index", "nt"])] = 0
        elif how == 1 and where:
            del where[rng.choice(sorted(where))]
        elif where:
            key = rng.choice(sorted(where))
            where[key + "s"] = where.pop(key)
    elif kind == "nt":
        step["conclusion"]["nt"] = rng.choice(["S", "I", "J", "", 0, None])
    elif kind == "components":
        comps = step["conclusion"]["components"]
        if comps and rng.random() < 0.5:
            del comps[rng.randrange(len(comps))]
        else:
            comps.insert(rng.randrange(len(comps) + 1), rng.choice([[], ["a1"]]))
    elif kind == "order":
        how = rng.randrange(3)
        if how == 0 and len(steps) > 1:
            j = rng.randrange(len(steps))
            steps[i], steps[j] = steps[j], steps[i]
        elif how == 1:
            del steps[i]
        else:
            steps.insert(rng.randrange(len(steps) + 1), copy.deepcopy(step))
    else:
        raise AssertionError(kind)


KINDS = ("tokens", "premises", "rule_index", "schemas", "slots", "moved", "swapped",
         "subst", "keys", "nt", "components", "order")


def test_verify_path_agrees_with_the_reference():
    rng = random.Random(2027)
    bases = []
    for n in (1, 2, 3, 5):
        g = make_grammar(n)
        for length in (0, 2, 8, 16, 24, 40):
            for family in (shuffled_pairs, walk_and_return):
                text = dumps_derivation(synthesize_word(family(rng, n, length), n))
                bases.append((n, g, text, json.loads(text)))
    # the unmutated derivations: accepted, and dumped back byte for byte
    for n, g, text, obj in bases:
        assert library_outcome(g, text) == reference_outcome(g, obj) == (
            ("ok", "S", obj["steps"][-1]["conclusion"]["components"]), text)
    seen = Counter()
    for case in range(3000):
        n, g, _, base = rng.choice(bases)
        obj = copy.deepcopy(base)
        kinds = [KINDS[case % len(KINDS)]]
        mutate(rng, obj, kinds[0], n)
        # a second mutation, now and then, on an object that still has the format's shape
        if rng.random() < 0.2 and type(reference_load(obj)) is list and obj["steps"]:
            kinds.append(rng.choice(KINDS))
            mutate(rng, obj, kinds[1], n)
        text = json.dumps(obj)
        expected = reference_outcome(g, obj)
        assert library_outcome(g, text) == expected, (case, kinds, expected)
        seen[expected[0][0] if expected[0][0] != "check" else expected[0][2]] += 1
    # every kind of outcome occurs, and most mutations are caught
    common = ("ok", "format", "premise-not-derived", "template-mismatch",
              "blocking-malformed", "unknown-rule")
    assert seen["ok"] < 600 and min(seen[outcome] for outcome in common) >= 30, seen


# defects that each fail one format check on a good step, and one that fails
# two; a later defect on the same field replaces an earlier one
DEFECTS = (
    ("note", ""),
    ("rule", 7),
    ("rule", {"index": 0, "schema": "I"}),
    ("rule", {"index": True}),
    ("rule", {"schema": 1, "blocking": [[1, 2]]}),
    ("rule", {"schema": "I", "blocking": [[1.0, 2]]}),
    ("rule", {"schema": None, "blocking": "x"}),  # two defects in one rule
    ("subst", {"x1": "a1"}),
    ("conclusion", {"nt": 1, "components": []}),
    ("conclusion", {"nt": "I", "components": [["a1", None]]}),
    ("premises", [True]),
    ("premises", [0.0]),
)


def test_stacked_format_defects_name_the_first_failing_check():
    # the mutations above leave at most one format defect per step; these put
    # two to four on one step, or on two steps, so the order of the checks shows
    rng = random.Random(2028)
    g = make_grammar(2)
    base = json.loads(dumps_derivation(synthesize_word(shuffled_pairs(rng, 2, 16), 2)))
    messages = Counter()
    for _ in range(400):
        obj = copy.deepcopy(base)
        at = rng.sample(range(len(obj["steps"])), 2)
        for field, value in rng.sample(DEFECTS, rng.randrange(2, 5)):
            obj["steps"][at[rng.random() < 0.2]][field] = copy.deepcopy(value)
        expected = reference_outcome(g, obj)
        assert library_outcome(g, json.dumps(obj)) == expected, (obj, expected)
        messages[expected[0][1].split(": ", 1)[1]] += 1
    assert len(messages) == 9, messages
