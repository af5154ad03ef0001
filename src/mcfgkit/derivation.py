"""Derivations: sequences of rule instances checked step by step.

A derivation is valid when every step instantiates a concrete rule (via an
explicit substitution) or a schema (via an explicit Blocking), and each
premise index points at an earlier step whose conclusion matches exactly.
The derivation as a whole "ends in" the conclusion of its last step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .grammar import (
    Blocking,
    Grammar,
    GrammarFormatError,
    Word,
    _decode_json,
    _expect,
    _is_int,
    canonical_json,
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


def _rule_ref_to_json(step: RuleInstance) -> dict:
    if step.rule_index is not None:
        return {"index": step.rule_index}
    assert step.schema is not None and step.blocking is not None
    return {"schema": step.schema, "blocking": [list(b) for b in step.blocking.blocks]}


def derivation_to_json_dict(d: Derivation) -> dict:
    return {
        "steps": [
            {
                "rule": _rule_ref_to_json(step),
                "subst": {v: list(w) for v, w in step.subst},
                "conclusion": {
                    "nt": step.conclusion_nt,
                    "components": [list(c) for c in step.conclusion],
                },
                "premises": list(step.premises),
            }
            for step in d.steps
        ]
    }


def derivation_from_json_dict(data: object) -> Derivation:
    _expect(isinstance(data, dict), "derivation must be a JSON object")
    assert isinstance(data, dict)
    raw_steps = data.get("steps")
    _expect(isinstance(raw_steps, list), "steps must be a list")
    steps: list[RuleInstance] = []
    for i, entry in enumerate(raw_steps):
        where = f"step {i}"
        _expect(isinstance(entry, dict), f"{where}: must be an object")
        ref = entry.get("rule")
        _expect(isinstance(ref, dict), f"{where}: rule must be an object")
        rule_index: int | None = None
        schema: str | None = None
        blocking: Blocking | None = None
        if "index" in ref:
            _expect(_is_int(ref["index"]), f"{where}: rule index must be an integer")
            rule_index = ref["index"]
        elif "schema" in ref:
            _expect(isinstance(ref["schema"], str), f"{where}: schema must be a string")
            schema = ref["schema"]
            raw_blocking = ref.get("blocking")
            _expect(isinstance(raw_blocking, list)
                    and all(isinstance(b, list) and all(_is_int(x) for x in b)
                            for b in raw_blocking),
                    f"{where}: blocking must be a list of integer lists")
            blocking = Blocking(tuple(tuple(b) for b in raw_blocking))
        else:
            raise GrammarFormatError(f"{where}: rule must carry 'index' or 'schema'")
        raw_subst = entry.get("subst", {})
        _expect(isinstance(raw_subst, dict)
                and all(isinstance(v, str) and isinstance(w, list)
                        and all(isinstance(t, str) for t in w)
                        for v, w in raw_subst.items()),
                f"{where}: subst must map variables to token lists")
        concl = entry.get("conclusion")
        _expect(isinstance(concl, dict) and isinstance(concl.get("nt"), str)
                and isinstance(concl.get("components"), list)
                and all(isinstance(c, list) and all(isinstance(t, str) for t in c)
                        for c in concl["components"]),
                f"{where}: conclusion must be {{nt, components}}")
        raw_premises = entry.get("premises", [])
        _expect(isinstance(raw_premises, list) and all(_is_int(p) for p in raw_premises),
                f"{where}: premises must be a list of integers")
        steps.append(RuleInstance(
            conclusion_nt=concl["nt"],
            conclusion=tuple(tuple(c) for c in concl["components"]),
            premises=tuple(raw_premises),
            rule_index=rule_index,
            schema=schema,
            blocking=blocking,
            subst=tuple(sorted((v, tuple(w)) for v, w in raw_subst.items())),
        ))
    return Derivation(tuple(steps))


def dumps_derivation(d: Derivation) -> str:
    return canonical_json(derivation_to_json_dict(d))


def loads_derivation(text: str) -> Derivation:
    return derivation_from_json_dict(_decode_json(text))
