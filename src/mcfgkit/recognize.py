"""Bounded bottom-up recognition for concrete-rule grammars.

The engine saturates the set of derivable nonterminal instances, keeping
only instances whose total component length stays within a budget (and,
when recognizing a specific string, whose components are contiguous token
runs of it). Both filters are exact for non-deleting grammars: a variable
occurs at most once across a rule's templates, so every component of every
instance used in a derivation of S(s) is spliced into s as one contiguous
block, and total component length never shrinks along a derivation. For
grammars that drop variables the closure can under-accept.

Witness choice is deterministic: instances keep their first discovery,
found by scanning rules in index order and premise tuples in discovery
order, in passes until one admits nothing. The closure is semi-naive:
each rule remembers the pool lengths it saw on its previous turn and
then tries only the premise tuples that use an instance added since,
in the same order. This changes no witness, since a tuple wholly inside
the old pools was already tried and gave an instance that is now
derived, or one that was rejected, and rejection depends only on the
instance. The closure runs on compiled rules: each template piece is a
merged terminal run or a (premise, component) _Slot. Each grammar value
is validated and compiled once, in a bounded cache keyed by that value.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby, product
from typing import Callable, Iterator, NamedTuple

from .derivation import Derivation, Instance, RuleInstance
from .grammar import Grammar, Word, require_valid


class SchemaPresentError(ValueError):
    """Raised when recognition is asked for a grammar with rule schemas."""


_Provenance = tuple[int, tuple[Instance, ...]]


def _fresh(
    pools: list[list[Instance]], old: tuple[int, ...], new: tuple[int, ...]
) -> Iterator[tuple[Instance, ...]]:
    """The tuples of product(*(p[:n] for p, n in zip(pools, new))), in that
    order, that use some pools[i][j] with j >= old[i].

    Pools only grow, so slicing at the lengths in new reads the same
    snapshot however late the slice is taken.
    """
    (pool, *rest), (o, *old_rest), (n, *new_rest) = pools, old, new
    if rest:
        for inst in pool[:o]:
            for tail in _fresh(rest, old_rest, new_rest):
                yield (inst, *tail)
    yield from product(pool[o:n], *(p[:m] for p, m in zip(rest, new_rest)))


def _close(
    g: Grammar,
    rules: tuple,
    budget: int,
    component_ok: Callable[[Word], bool],
) -> dict[Instance, _Provenance]:
    """The closure of g within budget, run on its compiled rules (_rules(g))."""
    derived: dict[Instance, _Provenance] = {}
    by_nt: dict[str, list[Instance]] = {nt: [] for nt, _ in g.nonterminals}
    seen: list[tuple[int, ...] | None] = [None] * len(rules)
    changed = True
    while changed:
        changed = False
        for index, lhs, rhs, templates in rules:
            pools = [by_nt[nt] for nt in rhs]
            old, new = seen[index], tuple(map(len, pools))
            if old == new:
                continue
            seen[index] = new
            # product snapshots every pool before yielding the first tuple
            tuples = product(*pools) if old is None else _fresh(pools, old, new)
            for premises in tuples:
                parts, size = [], 0
                for template in templates:
                    comp: Word = ()
                    for piece in template:
                        comp += premises[piece[0]][1][piece[1]] if type(piece) is _Slot else piece
                    parts.append(comp)
                    size += len(comp)
                comps = tuple(parts)
                # side-effect free tests, cheapest first; (lhs, comps) == Instance(lhs, comps)
                if size <= budget and (lhs, comps) not in derived and all(map(component_ok, comps)):
                    inst = Instance(lhs, comps)
                    derived[inst] = (index, premises)
                    by_nt[lhs].append(inst)
                    changed = True
    return derived


def _witness(g: Grammar, target: Instance, derived: dict[Instance, _Provenance]) -> Derivation:
    steps: list[RuleInstance] = []
    position: dict[Instance, int] = {}

    def build(inst: Instance) -> int:
        if inst in position:
            return position[inst]
        index, premises = derived[inst]
        where = tuple(build(p) for p in premises)
        subst: dict[str, Word] = {}
        for (_, names), p in zip(g.rules[index].rhs, premises):
            subst.update(zip(names, p.components))
        steps.append(RuleInstance.concrete(index, subst, inst.nt, inst.components, where))
        position[inst] = len(steps) - 1
        return position[inst]

    build(target)
    del build  # the closure refers to itself; drop the cycle with its tables
    return Derivation(tuple(steps))


_Slot = NamedTuple("_Slot", [("premise", int), ("component", int)])


@lru_cache(maxsize=64)
def _compile(g: Grammar) -> tuple[tuple[int, str, tuple[str, ...], tuple], ...]:
    """Validates g, requires it schema-free, and compiles its rules."""
    require_valid(g)
    if g.schemas:
        raise SchemaPresentError("requires a schema-free grammar; expand or avoid schemas")
    compiled = []
    for index, rule in enumerate(g.rules):
        slots = {v: _Slot(i, j) for i, (_, vs) in enumerate(rule.rhs) for j, v in enumerate(vs)}
        # terminals share the key False, so a run of them becomes one piece
        templates = tuple(
            tuple(key or tuple(v for _, v in items)
                  for key, items in groupby(t, lambda item: item[0] == "var" and slots[item[1]]))
            for t in rule.templates)
        compiled.append((index, rule.lhs, tuple(nt for nt, _ in rule.rhs), templates))
    return tuple(compiled)


def _rules(g: Grammar) -> tuple:
    try:
        return _compile(g)
    except TypeError:  # fields hold lists; any other TypeError recurs below
        pass
    return _compile.__wrapped__(g)


def _require_schema_free(g: Grammar, task: str) -> tuple:
    """g's compiled rules; g must be valid and schema-free."""
    try:
        return _rules(g)
    except SchemaPresentError as e:
        raise SchemaPresentError(f"{task} {e}") from None


def recognize_bounded(g: Grammar, s: Word) -> tuple[bool, Derivation | None]:
    """Decide whether g derives S(s); returns (answer, witness or None).

    Only concrete-rule grammars are supported; a grammar carrying schemas
    raises SchemaPresentError since its rule family cannot be enumerated.
    The returned witness always passes check_derivation and ends in S(s).
    """
    s = tuple(s)
    rules = _require_schema_free(g, "recognition")
    runs = {s[i:j] for i in range(len(s) + 1) for j in range(i, len(s) + 1)}
    derived = _close(g, rules, len(s), runs.__contains__)
    target = Instance(g.start, (s,))
    if target not in derived:
        return False, None
    return True, _witness(g, target, derived)


def bounded_language(g: Grammar, max_len: int) -> set[Word]:
    """All words of length <= max_len derivable from the start symbol.

    Complete for non-deleting grammars by the same argument as
    recognize_bounded; the closure budget is max_len.
    """
    rules = _require_schema_free(g, "bounded language")
    derived = _close(g, rules, max_len, lambda _: True)
    return {inst.components[0] for inst in derived if inst.nt == g.start}
