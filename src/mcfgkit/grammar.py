"""Core grammar types for multiple context-free grammars.

A nonterminal of arity q derives q-tuples of terminal strings. A concrete
rule rewrites tuples drawn from its right-hand side nonterminals through
per-component templates; each right-hand variable may be used at most once
across all templates. Large symmetric rule families are carried as compact
schema declarations instead of enumerated rules; a schema instance supplies
an explicit Blocking that says how the 2m source components are regrouped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple

Word = tuple[str, ...]
TemplateItem = tuple[str, str]  # ("term", symbol) or ("var", name)
Template = tuple[TemplateItem, ...]


def term(symbol: str) -> TemplateItem:
    return ("term", symbol)


def var(name: str) -> TemplateItem:
    return ("var", name)


class GrammarFormatError(ValueError):
    """Raised when serialized grammar or derivation data is malformed."""


class InvalidGrammarError(ValueError):
    """Raised when an operation requires a grammar that fails validation."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class Rule:
    """One concrete production: lhs(templates...) <- rhs nonterminals."""

    lhs: str
    templates: tuple[Template, ...]
    rhs: tuple[tuple[str, tuple[str, ...]], ...] = ()

    @property
    def arity(self) -> int:
        return len(self.templates)


@dataclass(frozen=True)
class CombineSchema:
    """Declares a permutation-indexed family of binary regrouping rules.

    An instance maps two arity-m premises (source slots 1..m and m+1..2m)
    to a conclusion whose components concatenate the sources per a Blocking.
    """

    nonterminal: str
    arity: int


class Blocking(NamedTuple):
    """Ordered partition of source slots 1..2m into m ordered blocks.

    A one-field tuple, so equal blockings hash and compare equal in C; as a
    tuple it iterates, has len 1 and equals (blocks,).
    """

    blocks: tuple[tuple[int, ...], ...]

    def violations(self, m: int) -> list[str]:
        out: list[str] = []
        if len(self.blocks) != m:
            out.append(f"expected {m} blocks, got {len(self.blocks)}")
        seen = sorted(chain.from_iterable(self.blocks))
        if seen != list(range(1, 2 * m + 1)):
            out.append(f"blocks must use each source slot 1..{2 * m} exactly once")
        return out


@dataclass(frozen=True)
class Grammar:
    terminals: tuple[str, ...]
    nonterminals: tuple[tuple[str, int], ...]
    start: str
    rules: tuple[Rule, ...]
    schemas: tuple[CombineSchema, ...] = ()


def instantiate(template: Template, subst: dict[str, Word]) -> Word:
    """Apply a substitution to one template, yielding a terminal string."""
    out: list[str] = []
    for kind, value in template:
        if kind == "term":
            out.append(value)
        elif kind == "var":
            out.extend(subst[value])
        else:
            raise ValueError(f"bad template item kind: {kind!r}")
    return tuple(out)


def validate_grammar(g: Grammar) -> list[str]:
    """Static checks; returns a list of violations, empty when the grammar is well formed."""
    out: list[str] = []
    seen_terms: set[str] = set()
    for t in g.terminals:
        if t in seen_terms:
            out.append(f"duplicate terminal {t!r}")
        seen_terms.add(t)

    arities: dict[str, int] = {}
    for name, arity in g.nonterminals:
        if name in arities:
            out.append(f"duplicate nonterminal {name!r}")
        if name in seen_terms:
            out.append(f"symbol {name!r} declared both terminal and nonterminal")
        if arity < 1:
            out.append(f"nonterminal {name!r} arity must be >= 1, got {arity}")
        arities[name] = arity

    if g.start not in arities:
        out.append(f"start symbol {g.start!r} not declared")
    elif arities[g.start] != 1:
        out.append(f"start arity != 1 (got {arities[g.start]})")

    for idx, rule in enumerate(g.rules):
        where = f"rule {idx}"
        if rule.lhs not in arities:
            out.append(f"{where}: lhs nonterminal {rule.lhs!r} not declared")
        elif len(rule.templates) != arities[rule.lhs]:
            out.append(
                f"{where}: {len(rule.templates)} templates for arity "
                f"{arities[rule.lhs]} nonterminal {rule.lhs!r}"
            )
        introduced: set[str] = set()
        for nt, names in rule.rhs:
            if nt not in arities:
                out.append(f"{where}: rhs nonterminal {nt!r} not declared")
            elif len(names) != arities[nt]:
                out.append(f"{where}: {len(names)} variables for arity {arities[nt]} premise {nt!r}")
            for v in names:
                if v in introduced:
                    out.append(f"{where}: variable reused: {v!r} introduced twice")
                introduced.add(v)
        used: set[str] = set()
        for template in rule.templates:
            for kind, value in template:
                if kind == "term":
                    if value not in seen_terms:
                        out.append(f"{where}: unknown terminal {value!r} in template")
                elif kind == "var":
                    if value not in introduced:
                        out.append(f"{where}: unknown variable {value!r} in template")
                    if value in used:
                        out.append(f"{where}: variable reused: {value!r} used twice")
                    used.add(value)
                else:
                    out.append(f"{where}: bad template item kind {kind!r}")

    for sidx, schema in enumerate(g.schemas):
        where = f"schema {sidx}"
        if schema.nonterminal not in arities:
            out.append(f"{where}: nonterminal {schema.nonterminal!r} not declared")
        elif schema.arity != arities[schema.nonterminal]:
            out.append(
                f"{where}: arity {schema.arity} does not match declared "
                f"{arities[schema.nonterminal]} for {schema.nonterminal!r}"
            )
    return out


def require_valid(g: Grammar) -> None:
    violations = validate_grammar(g)
    if violations:
        raise InvalidGrammarError(violations)


def _template_to_json(template: Template) -> list[dict[str, str]]:
    return [{kind: value} for kind, value in template]


def _template_from_json(items: object, where: str) -> Template:
    if not isinstance(items, list):
        raise GrammarFormatError(f"{where}: template must be a list")
    out: list[TemplateItem] = []
    for item in items:
        if not isinstance(item, dict) or len(item) != 1:
            raise GrammarFormatError(f"{where}: template item must be a single-key object")
        (kind, value), = item.items()
        if kind not in ("term", "var") or not isinstance(value, str):
            raise GrammarFormatError(f"{where}: template item must be {{'term': sym}} or {{'var': name}}")
        out.append((kind, value))
    return tuple(out)


def grammar_to_json_dict(g: Grammar) -> dict:
    return {
        "terminals": list(g.terminals),
        "nonterminals": [{"name": n, "arity": a} for n, a in g.nonterminals],
        "start": g.start,
        "rules": [
            {
                "lhs": {"nt": r.lhs, "templates": [_template_to_json(t) for t in r.templates]},
                "rhs": [{"nt": nt, "vars": list(names)} for nt, names in r.rhs],
            }
            for r in g.rules
        ],
        "schemas": [{"nt": s.nonterminal, "arity": s.arity} for s in g.schemas],
    }


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise GrammarFormatError(message)


def _is_int(value: object) -> bool:
    """A JSON integer; true and false are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _expect_keys(entry: dict, known: tuple[str, ...], where: str) -> None:
    """Reject a key the format does not define, naming the place and the key."""
    unknown = [key for key in entry if key not in known]
    if unknown:
        raise GrammarFormatError(f"{where}: unknown key {unknown[0]!r}")


def grammar_from_json_dict(data: object) -> Grammar:
    _expect(isinstance(data, dict), "grammar must be a JSON object")
    assert isinstance(data, dict)
    _expect_keys(data, ("terminals", "nonterminals", "start", "rules", "schemas"), "grammar")
    terminals = data.get("terminals")
    _expect(isinstance(terminals, list) and all(isinstance(t, str) for t in terminals),
            "terminals must be a list of strings")
    nts = data.get("nonterminals")
    _expect(isinstance(nts, list), "nonterminals must be a list")
    decls: list[tuple[str, int]] = []
    for idx, entry in enumerate(nts):
        _expect(isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and _is_int(entry.get("arity")),
                "nonterminal entries must be {name, arity}")
        _expect_keys(entry, ("name", "arity"), f"nonterminal {idx}")
        decls.append((entry["name"], entry["arity"]))
    start = data.get("start")
    _expect(isinstance(start, str), "start must be a string")
    raw_rules = data.get("rules")
    _expect(isinstance(raw_rules, list), "rules must be a list")
    rules: list[Rule] = []
    for idx, entry in enumerate(raw_rules):
        where = f"rule {idx}"
        _expect(isinstance(entry, dict), f"{where}: must be an object")
        _expect_keys(entry, ("lhs", "rhs"), where)
        lhs = entry.get("lhs")
        _expect(isinstance(lhs, dict) and isinstance(lhs.get("nt"), str)
                and isinstance(lhs.get("templates"), list),
                f"{where}: lhs must be {{nt, templates}}")
        _expect_keys(lhs, ("nt", "templates"), f"{where} lhs")
        templates = tuple(_template_from_json(t, where) for t in lhs["templates"])
        raw_rhs = entry.get("rhs", [])
        _expect(isinstance(raw_rhs, list), f"{where}: rhs must be a list")
        rhs: list[tuple[str, tuple[str, ...]]] = []
        for j, r in enumerate(raw_rhs):
            _expect(isinstance(r, dict) and isinstance(r.get("nt"), str)
                    and isinstance(r.get("vars"), list)
                    and all(isinstance(v, str) for v in r["vars"]),
                    f"{where}: rhs entries must be {{nt, vars}}")
            _expect_keys(r, ("nt", "vars"), f"{where} rhs {j}")
            rhs.append((r["nt"], tuple(r["vars"])))
        rules.append(Rule(lhs["nt"], templates, tuple(rhs)))
    raw_schemas = data.get("schemas", [])
    _expect(isinstance(raw_schemas, list), "schemas must be a list")
    schemas: list[CombineSchema] = []
    for idx, entry in enumerate(raw_schemas):
        _expect(isinstance(entry, dict) and isinstance(entry.get("nt"), str)
                and _is_int(entry.get("arity")),
                "schema entries must be {nt, arity}")
        _expect_keys(entry, ("nt", "arity"), f"schema {idx}")
        schemas.append(CombineSchema(entry["nt"], entry["arity"]))
    return Grammar(tuple(terminals), tuple(decls), start, tuple(rules), tuple(schemas))


def _json_block(items: Iterable[str], pad: str, brackets: str = "[]") -> str:
    """Encoded list items, or object members, laid out as json.dumps(indent=2) does.

    Each item goes on its own line at pad; the closing bracket sits two
    spaces to the left, and an empty block stays on one line.
    """
    body = (",\n" + pad).join(items)
    return f"{brackets[0]}\n{pad}{body}\n{pad[2:]}{brackets[1]}" if body else brackets


def canonical_json(data: object) -> str:
    """Deterministic serialization used for every JSON artifact this package writes.

    The text of json.dumps(data, indent=2, sort_keys=True) and a newline, for str
    keys, without the reference cycle the stdlib's indenting encoder leaves per call.
    """
    return _json_value(data, "  ") + "\n"


def _json_value(data: object, pad: str) -> str:
    if isinstance(data, dict):
        items = (f"{json.dumps(key)}: {_json_value(data[key], pad + '  ')}" for key in sorted(data))
        return _json_block(items, pad, "{}")
    if isinstance(data, (list, tuple)):
        return _json_block((_json_value(item, pad + "  ") for item in data), pad)
    return json.dumps(data)


def dumps_grammar(g: Grammar) -> str:
    return canonical_json(grammar_to_json_dict(g))


def _decode_json(text: str) -> object:
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # deep nesting overflows the decoder
        raise GrammarFormatError(f"invalid JSON: {exc}") from exc


def loads_grammar(text: str) -> Grammar:
    return grammar_from_json_dict(_decode_json(text))
