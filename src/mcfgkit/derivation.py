"""Derivations: sequences of rule instances checked step by step.

A derivation is valid when every step instantiates a concrete rule (via an
explicit substitution) or a schema (via an explicit Blocking), and each
premise index points at an earlier step whose conclusion matches exactly.
The derivation as a whole "ends in" the conclusion of its last step.

Derivations are read and written as canonical JSON text. dumps_derivation
writes it from the steps, rendering each repeated value once per call and
joining all pieces once. loads_derivation runs one ordered list of format
tests over all steps at once and then builds; when a test fails, the same
tests run on one step at a time to name the first bad step and its first
failing test. Neither keeps state between calls.

collector_paused is the one place the cyclic collector is paused: around
each load here, and around each command in the CLI. Nothing that deriving,
checking, writing or loading builds forms a reference cycle, so a pass of
the collector over it finds nothing to free.
"""

from __future__ import annotations

import gc
import threading
from dataclasses import dataclass
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii
from operator import add, attrgetter, not_
from typing import Any, Callable, Iterable, NamedTuple

from .grammar import (
    Blocking,
    Grammar,
    GrammarFormatError,
    Word,
    _decode_json,
    _json_block,
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

    def __init__(self, conclusion_nt, conclusion, premises=(), rule_index=None, schema=None,
                 blocking=None, subst=()):
        # kept by @dataclass: one dict update, not the frozen __init__'s setattr per field
        self.__dict__.update(conclusion_nt=conclusion_nt, conclusion=conclusion, premises=premises,
                             rule_index=rule_index, schema=schema, blocking=blocking, subst=subst)

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
    """Regroup source components (slots 1..m left, m+1..2m right) per the blocking.

    A block of one slot comes out as that source component itself, not a
    copy: adding a tuple to the empty tuple returns that tuple.
    """
    slots = ((), *left, *right)
    out: list[Word] = []
    for block in blocking.blocks:
        piece: Word = ()
        for slot in block:
            piece += slots[slot]
        out.append(piece)
    return tuple(out)


def check_derivation(g: Grammar, d: Derivation) -> Instance:
    """Validate every step in order; returns the final conclusion.

    Raises DerivationError naming the first violated condition with codes
    unknown-rule, premise-not-derived, template-mismatch, blocking-malformed.
    Each distinct blocking value is checked once per schema arity it is used at.
    """
    require_valid(g)
    schema_arity = {s.nonterminal: s.arity for s in g.schemas}
    if not d.steps:
        raise DerivationError(0, "empty-derivation", "derivation has no steps")

    steps, rules = d.steps, g.rules
    # each (blocking, arity) that passed; equal blockings share an entry
    valid_blockings: set[tuple[Blocking, int]] = set()
    for i, step in enumerate(steps):
        for p in step.premises:
            # exact int, as for the rule index: True would stand for step 1
            if type(p) is not int or not 0 <= p < i:
                raise DerivationError(i, "premise-not-derived",
                                      f"premise index {p!r} is not an earlier step")
        rule_index = step.rule_index
        if (rule_index is None) == (step.schema is None):
            raise DerivationError(i, "unknown-rule",
                                  "step must reference exactly one of a rule index or a schema")
        if rule_index is not None:
            # exact int: True would index rule 1, and 1.0 would raise TypeError
            if type(rule_index) is not int or not 0 <= rule_index < len(rules):
                raise DerivationError(i, "unknown-rule", f"no rule with index {rule_index!r}")
            if step.blocking is not None:
                raise DerivationError(i, "blocking-malformed", "concrete step carries a blocking")
            rule = rules[rule_index]
            if len(step.premises) != len(rule.rhs):
                raise DerivationError(i, "premise-not-derived",
                                      f"rule {rule_index} needs {len(rule.rhs)} premises, "
                                      f"got {len(step.premises)}")
            subst = step.subst_dict
            for (nt, names), p in zip(rule.rhs, step.premises):
                for v in names:
                    if v not in subst:
                        raise DerivationError(i, "template-mismatch",
                                              f"substitution missing variable {v!r}")
                premise = steps[p]
                if premise.conclusion_nt != nt or premise.conclusion != tuple(subst[v] for v in names):
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
            try:
                m = schema_arity[step.schema]
            except (KeyError, TypeError):  # TypeError: an unhashable schema, such as a list
                raise DerivationError(i, "unknown-rule", f"no schema for nonterminal {step.schema!r}") from None
            if step.blocking is None:
                raise DerivationError(i, "blocking-malformed", "schema step carries no blocking")
            if step.subst:
                raise DerivationError(i, "template-mismatch", "schema step carries a substitution")
            try:
                # earlier steps have tuple conclusions, so an error here is the blocking's: a list
                # row, a plain tuple, or a slot 1.0, which passes violations but indexes nothing
                if (step.blocking, m) not in valid_blockings:
                    problems = step.blocking.violations(m)
                    if problems:
                        raise DerivationError(i, "blocking-malformed", "; ".join(problems))
                    valid_blockings.add((step.blocking, m))
                if len(step.premises) != 2:
                    raise DerivationError(i, "premise-not-derived",
                                          f"schema step needs 2 premises, got {len(step.premises)}")
                sources: list[tuple[Word, ...]] = []
                for p in step.premises:
                    premise = steps[p]
                    if premise.conclusion_nt != step.schema or len(premise.conclusion) != m:
                        raise DerivationError(
                            i, "premise-not-derived", f"premise {p} is not an arity-{m} {step.schema} instance")
                    sources.append(premise.conclusion)
                comps = apply_blocking(step.blocking, sources[0], sources[1])
            except (TypeError, AttributeError):
                raise DerivationError(i, "blocking-malformed", "blocks must be tuples of integer slots") from None
            if step.conclusion_nt != step.schema or step.conclusion != comps:
                raise DerivationError(i, "template-mismatch",
                                      "conclusion does not equal the regrouped premise components")
    return steps[-1].instance()


class _Rendered(dict):
    """A value for each key, text or a Blocking, made by render on the key's first lookup."""

    def __init__(self, render: Callable[[Any], Any]):
        super().__init__()
        self.render = render

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.render(key)
        return value


def dumps_derivation(d: Derivation) -> str:
    """The canonical derivation text, written straight from the steps.

    The bytes equal json.dumps(obj, indent=2, sort_keys=True) + "\\n" of the
    object {"steps": [{"conclusion": {"components", "nt"}, "premises",
    "rule": {"blocking", "schema"} or {"index"}, "subst"}, ...]}. Its depth
    is fixed, so every indent is a constant, and members are written in
    sorted key order. Each step appends its pieces to one list, which is
    joined once: fixed text, each list's items joined in C, and the text
    around the nt and around the rule, concrete or schema alike. Strings,
    token lists, blocking rows, substitution entries, nt lines and rules
    repeat across steps; each distinct value is rendered once per call.

    Raises ValueError, naming the first step the format cannot hold: a
    premise index, rule index or blocking slot not an int, a blocking
    holding a list or not a Blocking, a schema not a str, a subst not
    (name, token tuple) pairs, a rule index with a schema or a blocking,
    a schema without a blocking, or neither. Slots are written by
    int.__repr__, so True as 1, the value that loads back; a blocking
    equal to one already written, as (1.0,) equals (1,), is written as
    that one was.
    """
    q = _Rendered(encode_basestring_ascii).__getitem__
    component = _Rendered(lambda w: _json_block(map(q, w), " " * 12)).__getitem__
    row = _Rendered(lambda b: _json_block(map(int.__repr__, b), " " * 12)).__getitem__
    binding = _Rendered(lambda vw: f"{q(vw[0])}: {_json_block(map(q, vw[1]), ' ' * 10)}").__getitem__
    nt_line = _Rendered(lambda nt: f',\n        "nt": {q(nt)}\n      }},\n      "premises": ').__getitem__
    rule_line = _Rendered(lambda key: _rule_line(*key, row, q)).__getitem__
    steps = d.steps
    # one pass in C: True would be written as invalid JSON, and 1.0 as text the loader refuses
    if not _typed(_flat(map(_premises, steps)), _INT):
        bad = next(i for i, step in enumerate(steps) if not _typed(step.premises, _INT))
        dumps_derivation(Derivation(steps[:bad]))  # an earlier step that cannot be written raises first
        p = next(p for p in steps[bad].premises if type(p) is not int)
        raise ValueError(f"step {bad}: premise index {p!r} is not an integer")
    pieces = ['{\n  "steps": [\n    ']
    append = pieces.append
    try:
        for i, step in enumerate(steps):
            comps, premises, subst = step.conclusion, step.premises, step.subst
            if comps:
                append('{\n      "conclusion": {\n        "components": [\n          ')
                append(",\n          ".join(map(component, comps)))
                append("\n        ]")
            else:
                append('{\n      "conclusion": {\n        "components": []')
            append(nt_line(step.conclusion_nt))
            if premises:
                append("[\n        ")
                append(",\n        ".join(map(str, premises)))
                append("\n      ]")
            else:
                append("[]")
            rule_index = step.rule_index
            # tested before the lookup: True and 1.0 would find the text rendered for 1
            if rule_index is not None and type(rule_index) is not int:
                raise _Unwritable(f"rule index {rule_index!r} is not an integer")
            try:
                append(rule_line((rule_index, step.blocking, step.schema)))
            except TypeError:  # an unhashable blocking or schema: rendered uncached, or refused
                append(_rule_line(rule_index, step.blocking, step.schema, row, q))
            if subst:
                append("{\n        ")
                try:
                    append(",\n        ".join(map(binding, sorted(dict(subst).items()))))
                except TypeError:  # an unhashable list of tokens, or a token that is not a str
                    raise _Unwritable(f"subst {subst!r} is not (name, token tuple) pairs") from None
                append("\n      }\n    }")
            else:
                append("{}\n    }")
            append(",\n    ")
    except _Unwritable as err:
        raise ValueError(f"step {i}: {err}") from None
    if len(pieces) == 1:
        return '{\n  "steps": []\n}\n'
    pieces[-1] = "\n  ]\n}\n"  # in place of the separator after the last step
    return "".join(pieces)


class _Unwritable(Exception):
    """A step's references that the derivation format cannot hold."""


def _rule_line(rule_index: int | None, blocking: Blocking | None, schema: str | None,
               row: Callable[[tuple[int, ...]], str], q: Callable[[str], str]) -> str:
    """A step's text from its rule object to its subst key; _Unwritable if the references do not fit."""
    if rule_index is not None:
        if schema is not None or blocking is not None:
            raise _Unwritable("a rule index cannot be written with a schema or a blocking")
        return f',\n      "rule": {{\n        "index": {rule_index}\n      }},\n      "subst": '
    if schema is None:
        raise _Unwritable("a step must carry a rule index or a schema")
    if blocking is None:
        raise _Unwritable("a schema step must carry a blocking")
    if type(schema) is not str:
        raise _Unwritable(f"schema {schema!r} is not a string")
    try:
        rows = _json_block(map(row, blocking.blocks), " " * 10)
    except TypeError:  # from int.__repr__, which writes True as 1 and refuses 1.0, or a list row
        raise _Unwritable(f"blocking {blocking.blocks!r} is not a list of integer lists") from None
    except AttributeError:
        raise _Unwritable(f"blocking {blocking!r} is not a Blocking") from None
    return (f',\n      "rule": {{\n        "blocking": {rows},\n'
            f'        "schema": {q(schema)}\n      }},\n      "subst": ')


# the keys a derivation object may hold, at each level
_STEP_KEYS = frozenset(("conclusion", "premises", "rule", "subst"))
_RULE_KEYS = frozenset(("blocking", "index", "schema"))
# element type sets: json.loads builds exact types only, and true and
# false are bools, so an exact-type test keeps them out of integer lists
_LIST, _INT, _STR = frozenset((list,)), frozenset((int,)), frozenset((str,))
_DICT = frozenset((dict,))
_flat = chain.from_iterable
_premises = attrgetter("premises")

_gc_lock = threading.Lock()


class collector_paused:
    """A with-block run with the cyclic collector paused (gc.disable, process-wide).

    The collector's state is read and switched under a lock, and restored
    on exit, normal or raised: overlapping and nested blocks leave it as
    the first found. Pause only work that builds no reference cycle. What
    the block leaves alive is traversed at the next collection all the
    same, so a pause inside one call moves that cost into the next. Exit
    allocates nothing, so that next collection falls to the caller's next
    allocation, not to the block's own exit.
    """

    __slots__ = ("enabled",)

    def __enter__(self) -> None:
        with _gc_lock:
            self.enabled = gc.isenabled()
            gc.disable()

    def __exit__(self, *exc: object) -> None:
        if self.enabled:
            with _gc_lock:
                gc.enable()


def loads_derivation(text: str) -> Derivation:
    """Parse derivation JSON into steps, refusing any that breaks the format.

    _build runs each format test once over all steps; if one fails, it
    runs again on one step at a time, and the GrammarFormatError names the
    first bad step and its first failing test. Equal blockings load as one
    shared Blocking, each built once its integer lists have passed the same
    test every blocking gets. Nothing built here can form a cycle, so the
    load runs under collector_paused, the helper every CLI command runs
    under too; the collector is left as it was found, on return and on
    every raise.
    """
    with collector_paused():
        return _load_steps(text)


def _load_steps(text: str) -> Derivation:
    data = _decode_json(text)
    if not (type(data) is dict and data.keys() == {"steps"}):
        raise GrammarFormatError("derivation must be a JSON object with the one key 'steps'")
    raw_steps = data["steps"]
    if type(raw_steps) is not list:
        raise GrammarFormatError("steps must be a list")
    try:
        return Derivation(tuple(_build(raw_steps)))
    except _Malformed:
        # the same tests, one step at a time, find the first bad step
        for i, raw_step in enumerate(raw_steps):
            try:
                _build([raw_step])
            except _Malformed as err:
                raise GrammarFormatError(f"step {i}: {err}") from None
        raise


class _Malformed(Exception):
    """The message of the first format test that some step fails."""


def _build(raw_steps: list) -> list[RuleInstance]:
    """The steps, built once every format test has passed over all of them.

    Each test runs once over all steps, in C, in this order: the step
    objects and their keys, the rule objects, their keys, the index type
    of index rules, the schema type and blocking of schema rules, the
    substitutions, the conclusions and the premises. The first test that
    fails raises _Malformed with its message, so on one step it words
    that step's first failing check. The build reuses the tested columns
    and tests nothing more.
    """
    if not (_typed(raw_steps, _DICT) and all(map(_STEP_KEYS.issuperset, raw_steps))):
        raise _Malformed("must be an object of conclusion, premises, rule, subst")
    rules = list(map(dict.get, raw_steps, repeat("rule")))
    if not _typed(rules, _DICT):
        raise _Malformed("rule must be an object")
    is_index = list(map(dict.__contains__, rules, repeat("index")))
    # keys among the three: one for an index rule, two for a schema rule
    if not (all(map(_RULE_KEYS.issuperset, rules)) and set(map(add, map(len, rules), is_index)) <= {2}):
        raise _Malformed("rule must be 'index' alone or 'schema' with 'blocking'")
    indexes = list(map(dict.get, rules, repeat("index")))
    if not _typed(compress(indexes, is_index), _INT):
        raise _Malformed("rule index must be an integer")
    schemas = list(map(dict.get, rules, repeat("schema")))
    if not _typed(compress(schemas, map(not_, is_index)), _STR):
        raise _Malformed("schema must be a string")
    # an index rule reads as an empty blocking, which the build never looks up
    blockings = list(map(dict.get, rules, repeat("blocking"), repeat([])))
    if not (_typed(blockings, _LIST) and _typed(rows := list(_flat(blockings)), _LIST)
            and _typed(_flat(rows), _INT)):
        raise _Malformed("blocking must be a list of integer lists")
    substs = list(map(dict.get, raw_steps, repeat("subst"), repeat({})))
    if not (_typed(substs, _DICT)
            and _typed(bound := list(_flat(map(dict.values, filter(None, substs)))), _LIST)
            and _strings(bound)):
        raise _Malformed("subst must map variables to token lists")
    concls = list(map(dict.get, raw_steps, repeat("conclusion")))
    if not (_typed(concls, _DICT) and set(map(len, concls)) <= {2}
            and _typed(nts := list(map(dict.get, concls, repeat("nt"))), _STR)
            and _typed(components := list(map(dict.get, concls, repeat("components"))), _LIST)
            and _typed(words := list(_flat(components)), _LIST) and _strings(words)):
        raise _Malformed("conclusion must be {nt, components}")
    premises = list(map(dict.get, raw_steps, repeat("premises"), repeat([])))
    if not (_typed(premises, _LIST) and _typed(_flat(premises), _INT)):
        raise _Malformed("premises must be a list of integers")
    # equal blockings share one object; each passed the integer test: (1,) == (True,) == (1.0,)
    shared = _Rendered(Blocking)
    return [RuleInstance(nt, tuple(map(tuple, comps)), tuple(raw_premises), rule_index, schema,
                         None if schema is None else shared[tuple(map(tuple, raw_blocking))],
                         tuple(sorted((v, tuple(w)) for v, w in raw_subst.items())) if raw_subst else ())
            for nt, comps, raw_premises, rule_index, schema, raw_blocking, raw_subst in zip(
                nts, components, premises, indexes, schemas, blockings, substs)]


def _typed(items: Iterable[Any], types: frozenset[type]) -> bool:
    """Whether every item's exact type is one of types, tested in C."""
    return set(map(type, items)) <= types


def _strings(lists: list[list]) -> bool:
    """Whether every item of every list is a str, tested in C: join takes no other type."""
    try:
        list(map("".join, lists))
    except TypeError:
        return False
    return True
