"""Derivations: sequences of rule instances checked step by step.

A derivation is valid when every step instantiates a concrete rule (via an
explicit substitution) or a schema (via an explicit Blocking), and each
premise index points at an earlier step whose conclusion matches exactly.
The derivation as a whole "ends in" the conclusion of its last step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, NamedTuple

from .grammar import (
    Blocking,
    Grammar,
    GrammarFormatError,
    Word,
    _decode_json,
    _is_int,
    instantiate,
    require_valid,
)


class Instance(NamedTuple):
    """A derived fact: nonterminal plus its tuple of component strings."""

    nt: str
    components: tuple[Word, ...]


class DerivationError(ValueError):
    """First violated condition in a derivation, indexed by step."""

    def __init__(self, step: int, code: str, message: str):
        super().__init__(f"step {step}: {code}: {message}")
        self.step = step
        self.code = code
        self.detail = message


@dataclass(frozen=True)
class RuleInstance:
    """One derivation step.

    Exactly one of rule_index (concrete rule) or schema (with blocking) is
    set. subst is stored as name-sorted pairs so equal instances compare
    and serialize identically.
    """

    conclusion_nt: str
    conclusion: tuple[Word, ...]
    premises: tuple[int, ...] = ()
    rule_index: int | None = None
    schema: str | None = None
    blocking: Blocking | None = None
    subst: tuple[tuple[str, Word], ...] = ()

    @staticmethod
    def concrete(rule_index: int, subst: dict[str, Word], conclusion_nt: str,
                 conclusion: tuple[Word, ...], premises: tuple[int, ...] = ()) -> "RuleInstance":
        return RuleInstance(
            conclusion_nt=conclusion_nt,
            conclusion=conclusion,
            premises=premises,
            rule_index=rule_index,
            subst=tuple(sorted(subst.items())),
        )

    @staticmethod
    def combine(schema: str, blocking: Blocking, conclusion_nt: str,
                conclusion: tuple[Word, ...], premises: tuple[int, ...]) -> "RuleInstance":
        return RuleInstance(
            conclusion_nt=conclusion_nt,
            conclusion=conclusion,
            premises=premises,
            schema=schema,
            blocking=blocking,
        )

    @property
    def subst_dict(self) -> dict[str, Word]:
        return dict(self.subst)

    def instance(self) -> Instance:
        return Instance(self.conclusion_nt, self.conclusion)


@dataclass(frozen=True)
class Derivation:
    steps: tuple[RuleInstance, ...]

    def __len__(self) -> int:
        return len(self.steps)


def apply_blocking(blocking: Blocking, left: tuple[Word, ...], right: tuple[Word, ...]) -> tuple[Word, ...]:
    """Regroup source components (slots 1..m left, m+1..2m right) per the blocking."""
    slots = left + right
    out: list[Word] = []
    for block in blocking.blocks:
        piece: list[str] = []
        for slot in block:
            piece.extend(slots[slot - 1])
        out.append(tuple(piece))
    return tuple(out)


def check_derivation(g: Grammar, d: Derivation) -> Instance:
    """Validate every step in order; returns the final conclusion.

    Raises DerivationError naming the first violated condition with codes
    unknown-rule, premise-not-derived, template-mismatch, blocking-malformed.
    """
    require_valid(g)
    schema_arity = {s.nonterminal: s.arity for s in g.schemas}
    if not d.steps:
        raise DerivationError(0, "empty-derivation", "derivation has no steps")

    for i, step in enumerate(d.steps):
        for p in step.premises:
            if not 0 <= p < i:
                raise DerivationError(i, "premise-not-derived",
                                      f"premise index {p} is not an earlier step")
        if (step.rule_index is None) == (step.schema is None):
            raise DerivationError(i, "unknown-rule",
                                  "step must reference exactly one of a rule index or a schema")
        if step.rule_index is not None:
            if not 0 <= step.rule_index < len(g.rules):
                raise DerivationError(i, "unknown-rule", f"no rule with index {step.rule_index}")
            if step.blocking is not None:
                raise DerivationError(i, "blocking-malformed", "concrete step carries a blocking")
            rule = g.rules[step.rule_index]
            if len(step.premises) != len(rule.rhs):
                raise DerivationError(i, "premise-not-derived",
                                      f"rule {step.rule_index} needs {len(rule.rhs)} premises, "
                                      f"got {len(step.premises)}")
            subst = step.subst_dict
            for (nt, names), p in zip(rule.rhs, step.premises):
                for v in names:
                    if v not in subst:
                        raise DerivationError(i, "template-mismatch",
                                              f"substitution missing variable {v!r}")
                expected = Instance(nt, tuple(subst[v] for v in names))
                if d.steps[p].instance() != expected:
                    raise DerivationError(i, "premise-not-derived",
                                          f"premise {p} conclusion does not match {nt} under the substitution")
            unbound = sorted(set(subst) - {v for _, names in rule.rhs for v in names})
            if unbound:
                raise DerivationError(i, "template-mismatch",
                                      f"substitution binds {unbound[0]!r}, which the rule never introduces")
            # template variables are introduced (require_valid) and bound (above) to
            # premise components, which by induction hold only terminals
            comps = tuple(instantiate(t, subst) for t in rule.templates)
            if step.conclusion_nt != rule.lhs or step.conclusion != comps:
                raise DerivationError(i, "template-mismatch",
                                      "conclusion does not equal the instantiated templates")
        else:
            if step.schema not in schema_arity:
                raise DerivationError(i, "unknown-rule", f"no schema for nonterminal {step.schema!r}")
            m = schema_arity[step.schema]
            if step.blocking is None:
                raise DerivationError(i, "blocking-malformed", "schema step carries no blocking")
            if step.subst:
                raise DerivationError(i, "template-mismatch", "schema step carries a substitution")
            problems = step.blocking.violations(m)
            if problems:
                raise DerivationError(i, "blocking-malformed", "; ".join(problems))
            if len(step.premises) != 2:
                raise DerivationError(i, "premise-not-derived",
                                      f"schema step needs 2 premises, got {len(step.premises)}")
            sources: list[tuple[Word, ...]] = []
            for p in step.premises:
                concl = d.steps[p].instance()
                if concl.nt != step.schema or len(concl.components) != m:
                    raise DerivationError(i, "premise-not-derived",
                                          f"premise {p} is not an arity-{m} {step.schema} instance")
                sources.append(concl.components)
            comps = apply_blocking(step.blocking, sources[0], sources[1])
            if step.conclusion_nt != step.schema or step.conclusion != comps:
                raise DerivationError(i, "template-mismatch",
                                      "conclusion does not equal the regrouped premise components")
    return d.steps[-1].instance()


def _json_block(items: Iterable[str], pad: str, brackets: str = "[]") -> str:
    """Encoded list items, or object members, laid out as json.dumps(indent=2) does.

    Each item goes on its own line at pad; the closing bracket sits two
    spaces to the left, and an empty block stays on one line.
    """
    body = (",\n" + pad).join(items)
    return f"{brackets[0]}\n{pad}{body}\n{pad[2:]}{brackets[1]}" if body else brackets


def dumps_derivation(d: Derivation) -> str:
    """The canonical derivation text, written straight from the steps.

    The bytes equal json.dumps(obj, indent=2, sort_keys=True) + "\\n" of the
    object {"steps": [{"conclusion": {"components", "nt"}, "premises",
    "rule": {"blocking", "schema"} or {"index"}, "subst"}, ...]}. Its depth
    is fixed, so every indent is a constant, and members are written in
    sorted key order. Strings, token lists and blockings repeat across
    steps; each distinct one is rendered once per call.
    """
    q = cache(encode_basestring_ascii)
    component = cache(lambda w: _json_block(map(q, w), " " * 12))
    binding = cache(lambda w: _json_block(map(q, w), " " * 10))
    blocks = cache(lambda bs: _json_block(
        [_json_block(map(str, b), " " * 12) for b in bs], " " * 10))
    steps = []
    for step in d.steps:
        if step.rule_index is not None:
            rule = f'{{\n        "index": {step.rule_index}\n      }}'
        else:
            assert step.schema is not None and step.blocking is not None
            rule = (f'{{\n        "blocking": {blocks(step.blocking.blocks)},\n'
                    f'        "schema": {q(step.schema)}\n      }}')
        subst = [f"{q(v)}: {binding(w)}" for v, w in sorted(dict(step.subst).items())]
        steps.append(
            '{\n      "conclusion": {\n'
            f'        "components": {_json_block(map(component, step.conclusion), " " * 10)},\n'
            f'        "nt": {q(step.conclusion_nt)}\n      }},\n'
            f'      "premises": {_json_block(map(str, step.premises), " " * 8)},\n'
            f'      "rule": {rule},\n'
            f'      "subst": {_json_block(subst, " " * 8, "{}")}\n    }}')
    return f'{{\n  "steps": {_json_block(steps, " " * 4)}\n}}\n'


def _lists_of(lists: Iterable[object], item: type) -> bool:
    """Every element is a list whose values all have exactly type item.

    Exact types match what json.loads builds, and keep true and false out
    of integer lists.
    """
    return set(map(type, lists)) <= {list} and set(map(type, chain.from_iterable(lists))) <= {item}


def loads_derivation(text: str) -> Derivation:
    """Parse derivation JSON, validating each step as its RuleInstance is built."""
    data = _decode_json(text)
    if not (isinstance(data, dict) and data.keys() == {"steps"}):
        raise GrammarFormatError("derivation must be a JSON object with the one key 'steps'")
    raw_steps = data["steps"]
    if not isinstance(raw_steps, list):
        raise GrammarFormatError("steps must be a list")
    steps: list[RuleInstance] = []
    for i, entry in enumerate(raw_steps):
        if not (isinstance(entry, dict) and entry.keys() <= {"conclusion", "premises", "rule", "subst"}):
            raise GrammarFormatError(f"step {i}: must be an object of conclusion, premises, rule, subst")
        ref = entry.get("rule")
        if not isinstance(ref, dict):
            raise GrammarFormatError(f"step {i}: rule must be an object")
        if ref.keys() != ({"index"} if "index" in ref else {"blocking", "schema"}):
            raise GrammarFormatError(f"step {i}: rule must be 'index' alone or 'schema' with 'blocking'")
        rule_index = ref.get("index")
        schema = ref.get("schema")
        blocking: Blocking | None = None
        if "index" in ref:
            if not _is_int(rule_index):
                raise GrammarFormatError(f"step {i}: rule index must be an integer")
        elif not isinstance(schema, str):
            raise GrammarFormatError(f"step {i}: schema must be a string")
        else:
            raw_blocking = ref.get("blocking")
            if not (isinstance(raw_blocking, list) and _lists_of(raw_blocking, int)):
                raise GrammarFormatError(f"step {i}: blocking must be a list of integer lists")
            blocking = Blocking(tuple(map(tuple, raw_blocking)))
        raw_subst = entry.get("subst", {})
        if not (isinstance(raw_subst, dict) and _lists_of(raw_subst.values(), str)):
            raise GrammarFormatError(f"step {i}: subst must map variables to token lists")
        concl = entry.get("conclusion")
        if not (isinstance(concl, dict) and len(concl) == 2 and isinstance(concl.get("nt"), str)
                and isinstance(concl.get("components"), list)
                and _lists_of(concl["components"], str)):
            raise GrammarFormatError(f"step {i}: conclusion must be {{nt, components}}")
        raw_premises = entry.get("premises", [])
        if not (isinstance(raw_premises, list) and set(map(type, raw_premises)) <= {int}):
            raise GrammarFormatError(f"step {i}: premises must be a list of integers")
        steps.append(RuleInstance(
            conclusion_nt=concl["nt"],
            conclusion=tuple(map(tuple, concl["components"])),
            premises=tuple(raw_premises),
            rule_index=rule_index,
            schema=schema,
            blocking=blocking,
            subst=tuple(sorted((v, tuple(w)) for v, w in raw_subst.items())),
        ))
    return Derivation(tuple(steps))
