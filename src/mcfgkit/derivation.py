"""Derivations: sequences of rule instances checked step by step.

A derivation is valid when every step instantiates a concrete rule (via an
explicit substitution) or a schema (via an explicit Blocking), and each
premise index points at an earlier step whose conclusion matches exactly.
The derivation as a whole "ends in" the conclusion of its last step.

Derivations are read and written as canonical JSON text. dumps_derivation
writes it from the steps, rendering each repeated value once per call and
joining all pieces once; loads_derivation type-tests every field over all
steps at once before it builds, and falls back to testing step by step,
which words the error, when any test fails. Neither keeps state between
calls.

collector_paused is the one place the cyclic collector is paused: around
each load here, and around each command in the CLI. Nothing that deriving,
checking, writing or loading builds forms a reference cycle, so a pass of
the collector over it finds nothing to free.
"""

from __future__ import annotations

import gc
import threading
from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, NamedTuple

from .grammar import (
    Blocking,
    Grammar,
    GrammarFormatError,
    Word,
    _decode_json,
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
            if not 0 <= p < i:
                raise DerivationError(i, "premise-not-derived",
                                      f"premise index {p} is not an earlier step")
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
            if step.schema not in schema_arity:
                raise DerivationError(i, "unknown-rule", f"no schema for nonterminal {step.schema!r}")
            m = schema_arity[step.schema]
            if step.blocking is None:
                raise DerivationError(i, "blocking-malformed", "schema step carries no blocking")
            if step.subst:
                raise DerivationError(i, "template-mismatch", "schema step carries a substitution")
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
                    raise DerivationError(i, "premise-not-derived",
                                          f"premise {p} is not an arity-{m} {step.schema} instance")
                sources.append(premise.conclusion)
            comps = apply_blocking(step.blocking, sources[0], sources[1])
            if step.conclusion_nt != step.schema or step.conclusion != comps:
                raise DerivationError(i, "template-mismatch",
                                      "conclusion does not equal the regrouped premise components")
    return steps[-1].instance()


def _json_block(items: Iterable[str], pad: str, brackets: str = "[]") -> str:
    """Encoded list items, or object members, laid out as json.dumps(indent=2) does.

    Each item goes on its own line at pad; the closing bracket sits two
    spaces to the left, and an empty block stays on one line.
    """
    body = (",\n" + pad).join(items)
    return f"{brackets[0]}\n{pad}{body}\n{pad[2:]}{brackets[1]}" if body else brackets


class _Rendered(dict):
    """Text for each key, made by render on the key's first lookup."""

    def __init__(self, render: Callable[[Any], str]):
        super().__init__()
        self.render = render

    def __missing__(self, key: Any) -> str:
        text = self[key] = self.render(key)
        return text


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

    Raises ValueError, naming the step, for a step the format cannot hold:
    a rule index that is not an int, a rule index with a schema or a
    blocking, or a schema without a blocking, or neither a rule index nor
    a schema.
    """
    q = _Rendered(encode_basestring_ascii).__getitem__
    component = _Rendered(lambda w: _json_block(map(q, w), " " * 12)).__getitem__
    row = _Rendered(lambda b: _json_block(map(str, b), " " * 12)).__getitem__
    binding = _Rendered(lambda vw: f"{q(vw[0])}: {_json_block(map(q, vw[1]), ' ' * 10)}").__getitem__
    nt_line = _Rendered(lambda nt: f',\n        "nt": {q(nt)}\n      }},\n      "premises": ').__getitem__
    rule_line = _Rendered(lambda key: _rule_line(*key, row, q)).__getitem__
    pieces = ['{\n  "steps": [\n    ']
    append = pieces.append
    try:
        for i, step in enumerate(d.steps):
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
            append(rule_line((rule_index, step.blocking, step.schema)))
            if subst:
                append("{\n        ")
                append(",\n        ".join(map(binding, sorted(dict(subst).items()))))
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
    return (f',\n      "rule": {{\n        "blocking": {_json_block(map(row, blocking.blocks), " " * 10)},\n'
            f'        "schema": {q(schema)}\n      }},\n      "subst": ')


# the keys a derivation object may hold, at each level
_STEP_KEYS = frozenset(("conclusion", "premises", "rule", "subst"))
_INDEX_RULE_KEYS = frozenset(("index",))
_SCHEMA_RULE_KEYS = frozenset(("blocking", "schema"))
# element type sets: json.loads builds exact types only, and true and
# false are bools, so an exact-type test keeps them out of integer lists
_LIST, _INT, _STR = frozenset((list,)), frozenset((int,)), frozenset((str,))
_DICT = frozenset((dict,))
_flat = chain.from_iterable

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

    The types of every field are tested over all steps first (_build_tested);
    if one fails, the steps are tested one by one (_build_each), and the
    GrammarFormatError names the first bad step and its first failing
    check. Equal blockings load as one shared Blocking, each built once its
    integer lists have passed the same test every blocking gets. Nothing
    built here can form a cycle, so the load runs under collector_paused,
    the helper every CLI command runs under too; the collector is left as
    it was found, on return and on every raise.
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
    steps = _build_tested(raw_steps)
    return Derivation(tuple(_build_each(raw_steps) if steps is None else steps))


def _build_tested(raw_steps: list) -> list[RuleInstance] | None:
    """The steps, with every type test made first over all steps at once; None if one fails.

    Each pass tests one field of every step in C: the step objects and
    their keys, the rule and conclusion objects, the conclusions' nt and
    their size, the premise lists and their integers, the component lists
    and their tokens, the blocking lists, rows and slots, and the
    substitutions. The build loop then tests what these cannot: each
    rule's keys with its index or schema type. Input that fails any test
    is left to _build_each, which words the error; a test here may refuse
    more than _build_each does, but never less.
    """
    if not (_typed(raw_steps, _DICT) and all(map(_STEP_KEYS.issuperset, raw_steps))):
        return None
    rules = list(map(dict.get, raw_steps, repeat("rule")))
    concls = list(map(dict.get, raw_steps, repeat("conclusion")))
    if not (_typed(rules, _DICT) and _typed(concls, _DICT)):
        return None
    nts = list(map(dict.get, concls, repeat("nt")))
    components = list(map(dict.get, concls, repeat("components")))
    premises = list(map(dict.get, raw_steps, repeat("premises"), repeat([])))
    # an index rule reads as an empty blocking here; its keys are tested below
    blockings = list(map(dict.get, rules, repeat("blocking"), repeat([])))
    substs = list(map(dict.get, raw_steps, repeat("subst"), repeat({})))
    if not (_typed(nts, _STR) and set(map(len, concls)) <= {2}
            and _typed(components, _LIST) and _typed(_flat(components), _LIST)
            and _typed(_flat(_flat(components)), _STR)
            and _typed(premises, _LIST) and _typed(_flat(premises), _INT)
            and _typed(blockings, _LIST) and _typed(_flat(blockings), _LIST)
            and _typed(_flat(_flat(blockings)), _INT)
            and _typed(substs, _DICT)):
        return None
    bound = list(_flat(map(dict.values, filter(None, substs))))
    if not (_typed(bound, _LIST) and _typed(_flat(bound), _STR)):
        return None
    steps: list[RuleInstance] = []
    shared: dict[tuple[tuple[int, ...], ...], Blocking] = {}
    for rule, nt, comps, raw_premises, raw_blocking, raw_subst in zip(
            rules, nts, components, premises, blockings, substs):
        if len(rule) == 1:
            # the one key is "index" exactly when its value is an integer
            rule_index = rule.get("index")
            if type(rule_index) is not int:
                return None
            schema = blocking = None
        else:
            schema = rule.get("schema")
            if not (len(rule) == 2 and type(schema) is str and "blocking" in rule):
                return None
            rule_index = None
            # every blocking passed its integer test above: (1,) == (True,) == (1.0,)
            key = tuple(map(tuple, raw_blocking))
            blocking = shared.get(key)
            if blocking is None:
                blocking = shared[key] = Blocking(key)
        steps.append(RuleInstance(
            nt, tuple(map(tuple, comps)), tuple(raw_premises), rule_index, schema, blocking,
            tuple(sorted((v, tuple(w)) for v, w in raw_subst.items())) if raw_subst else ()))
    return steps


def _typed(items: Iterable[Any], types: frozenset[type]) -> bool:
    """Whether every item's exact type is one of types, tested in C."""
    return set(map(type, items)) <= types


def _build_each(raw_steps: list) -> list[RuleInstance]:
    """The steps, each tested as it is built; raises at the first failing test of the first bad step."""
    steps: list[RuleInstance] = []
    blockings: dict[tuple[tuple[int, ...], ...], Blocking] = {}
    for i, entry in enumerate(raw_steps):
        if not (type(entry) is dict and entry.keys() <= _STEP_KEYS):
            raise GrammarFormatError(f"step {i}: must be an object of conclusion, premises, rule, subst")
        ref = entry.get("rule")
        if type(ref) is not dict:
            raise GrammarFormatError(f"step {i}: rule must be an object")
        if ref.keys() != (_INDEX_RULE_KEYS if "index" in ref else _SCHEMA_RULE_KEYS):
            raise GrammarFormatError(f"step {i}: rule must be 'index' alone or 'schema' with 'blocking'")
        rule_index = ref.get("index")
        schema = ref.get("schema")
        blocking: Blocking | None = None
        if "index" in ref:
            if type(rule_index) is not int:
                raise GrammarFormatError(f"step {i}: rule index must be an integer")
        elif type(schema) is not str:
            raise GrammarFormatError(f"step {i}: schema must be a string")
        else:
            raw_blocking = ref["blocking"]
            if not (type(raw_blocking) is list and set(map(type, raw_blocking)) <= _LIST
                    and set(map(type, chain.from_iterable(raw_blocking))) <= _INT):
                raise GrammarFormatError(f"step {i}: blocking must be a list of integer lists")
            # looked up only after the test: (1,) == (True,) == (1.0,), hashes too
            key = tuple(map(tuple, raw_blocking))
            blocking = blockings.get(key)
            if blocking is None:
                blocking = blockings[key] = Blocking(key)
        raw_subst = entry.get("subst", {})
        if not (type(raw_subst) is dict and (not raw_subst or (
                set(map(type, raw_subst.values())) <= _LIST
                and set(map(type, chain.from_iterable(raw_subst.values()))) <= _STR))):
            raise GrammarFormatError(f"step {i}: subst must map variables to token lists")
        concl = entry.get("conclusion")
        if not (type(concl) is dict and len(concl) == 2 and type(concl.get("nt")) is str
                and type(components := concl.get("components")) is list
                and set(map(type, components)) <= _LIST
                and set(map(type, chain.from_iterable(components))) <= _STR):
            raise GrammarFormatError(f"step {i}: conclusion must be {{nt, components}}")
        raw_premises = entry.get("premises", [])
        if not (type(raw_premises) is list and set(map(type, raw_premises)) <= _INT):
            raise GrammarFormatError(f"step {i}: premises must be a list of integers")
        steps.append(RuleInstance(
            conclusion_nt=concl["nt"],
            conclusion=tuple(map(tuple, components)),
            premises=tuple(raw_premises),
            rule_index=rule_index,
            schema=schema,
            blocking=blocking,
            subst=tuple(sorted((v, tuple(w)) for v, w in raw_subst.items())) if raw_subst else (),
        ))
    return steps
