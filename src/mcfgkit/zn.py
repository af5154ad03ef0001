"""Words over free-abelian generators and their geometry as lattice paths.

Tokens are "a3" (one step forward along axis 3) and "A3" (one step back).
All path coordinates are stored doubled so that edge midpoints are exact
integers: a unit step changes one coordinate by 2 and a path of L edges is
parameterized by half-units p = 0..2L. Lattice points sit at even p (all
coordinates even) and edge midpoints at odd p (exactly one odd coordinate).

Every path starts at the origin and is read through its `steps` and its
`keys`: the doubled point at each p packed into one int, sum(c[i] *
base**i) with base a power of two above 10L, built in C by accumulating
per-step increments; keys[-1] is the doubled displacement. Packing is
linear, so differences of keys are keys of differences, and it is
injective on vectors whose coordinates differ by less than base; `vector`
unpacks a key whose coordinates lie within base/2 of zero.

Words decode through a per-rank table from each of the 2n tokens to its
(axis, sign); the first token outside it is named, as malformed or as out
of range. A rank that is not an int, and a step that cannot be hashed,
raise TypeError.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from typing import NamedTuple

from .grammar import CombineSchema, Grammar, Rule, Word, term, var

_TOKEN_RE = re.compile(r"^([aA])([1-9][0-9]*)$")

Vec = tuple[int, ...]


def make_token(axis: int, sign: int) -> str:
    if axis < 1 or sign not in (1, -1):
        raise ValueError(f"bad token spec: axis={axis}, sign={sign}")
    return f"{'a' if sign == 1 else 'A'}{axis}"


def token_step(token: str) -> tuple[int, int]:
    """Decode a token to (axis, sign); axes are 1-based."""
    m = _TOKEN_RE.match(token)
    if m is None:
        raise ValueError(f"malformed generator token: {token!r}")
    return int(m.group(2)), 1 if m.group(1) == "a" else -1


def alphabet(n: int) -> tuple[str, ...]:
    """Terminals a1, A1, ..., an, An in declaration order."""
    out: list[str] = []
    for axis in range(1, n + 1):
        out.append(make_token(axis, 1))
        out.append(make_token(axis, -1))
    return tuple(out)


@lru_cache(maxsize=None, typed=True)
def _steps_of(n: int) -> dict[str, tuple[int, int]]:
    """The (axis, sign) of each of the 2n tokens of rank n."""
    return {token: token_step(token) for token in alphabet(n)}


@lru_cache(maxsize=None, typed=True)
def _valid_steps(n: int) -> frozenset[tuple[int, int]]:
    """Every (axis, sign) of rank n."""
    return frozenset(_steps_of(n).values())


def _decode(word: Word, n: int) -> tuple[tuple[int, int], ...]:
    """The (axis, sign) of every token, rejecting axes beyond n."""
    try:
        return tuple(map(_steps_of(n).__getitem__, word))
    except KeyError as missing:
        token = missing.args[0]
    axis, _ = token_step(token)  # names a malformed token
    raise ValueError(f"token {token!r}: axis {axis} out of range for n={n}")


def displacement(word: Word, n: int) -> Vec:
    """Net movement of a word as an n-vector of unit steps."""
    counts = Counter(_decode(word, n))
    return tuple(counts[axis, 1] - counts[axis, -1] for axis in range(1, n + 1))


@lru_cache(maxsize=None)
def _key_steps(n: int, base: int) -> dict[tuple[int, int], tuple[int, int]]:
    """The packed increments of an edge's two half-units along each (axis, sign) of rank n."""
    return {(axis, sign): (sign * base ** (axis - 1),) * 2
            for axis in range(1, n + 1) for sign in (1, -1)}


def l1(v: Vec) -> int:
    return sum(abs(c) for c in v)


@dataclass(frozen=True)
class LatticePath:
    """A path of unit steps from the origin of the n-dimensional lattice, doubled coordinates."""

    n: int
    steps: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        valid = _valid_steps(self.n)
        if not valid.issuperset(self.steps):
            axis, sign = next(step for step in self.steps if step not in valid)
            raise ValueError(f"bad step: axis={axis}, sign={sign}")

    def __len__(self) -> int:
        """Number of edges."""
        return len(self.steps)

    @property
    def base(self) -> int:
        """The packing base of `keys`: the least power of two above 10L.

        Points have coordinates in [-2L, 2L]; the breakpoint search
        compares vectors that differ by up to 10L per coordinate.
        """
        return 1 << (10 * len(self.steps)).bit_length()

    @cached_property
    def keys(self) -> tuple[int, ...]:
        """Doubled points at every half-unit parameter 0..2L, each packed into one int."""
        halves = map(_key_steps(self.n, self.base).__getitem__, self.steps)
        return tuple(accumulate(chain.from_iterable(halves), initial=0))

    def sub_path(self, spans: tuple[tuple[int, int], ...]) -> LatticePath:
        """The path of this path's steps in the given (start, end) spans, in order.

        Its keys are packed at the new path's own base.
        """
        return LatticePath(self.n, tuple(chain.from_iterable([self.steps[s:e] for s, e in spans])))

    def vector(self, key: int) -> Vec:
        """The vector packed into key; its coordinates must lie in [-base/2, base/2)."""
        base = self.base
        out = []
        for _ in range(self.n):
            c = key % base
            if 2 * c >= base:
                c -= base
            out.append(c)
            key = (key - c) // base
        return tuple(out)


def word_to_path(word: Word, n: int) -> LatticePath:
    """Trace a word as a lattice path from the origin."""
    return LatticePath(n, _decode(word, n))


class GrammarParams(NamedTuple):
    """Derived grammar sizes for rank n: k = floor((n+1)/2), m = 8k - 2.

    A plain (k, m) pair; the dimension n travels alongside as an explicit
    argument wherever it is needed.
    """

    k: int
    m: int


def grammar_params(n: int) -> GrammarParams:
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    k = (n + 1) // 2
    return GrammarParams(k=k, m=8 * k - 2)


@lru_cache(maxsize=None, typed=True)
def make_grammar(n: int) -> Grammar:
    """Grammar whose language is the set of words with zero displacement in rank n.

    One start rule flattens an m-tuple, one axiom derives the all-empty
    tuple, one axiom per axis derives (a_i, A_i, eps, ...), and a single
    schema carries the full regrouping family for the arity-m nonterminal.
    Built once per rank: calls with the same n share one immutable grammar.
    """
    params = grammar_params(n)
    m = params.m
    xs = tuple(f"x{i}" for i in range(1, m + 1))
    rules = [Rule("S", (tuple(var(x) for x in xs),), (("I", xs),))]
    rules.append(Rule("I", tuple(() for _ in range(m))))
    for axis in range(1, n + 1):
        templates = [(term(make_token(axis, 1)),), (term(make_token(axis, -1)),)]
        templates.extend(() for _ in range(m - 2))
        rules.append(Rule("I", tuple(templates)))
    return Grammar(
        terminals=alphabet(n),
        nonterminals=(("S", 1), ("I", m)),
        start="S",
        rules=tuple(rules),
        schemas=(CombineSchema("I", m),),
    )
