"""Deterministic word generators and small oracles shared by the tests."""

from __future__ import annotations

import random
from itertools import combinations_with_replacement, product
from typing import Iterator

import hypothesis.strategies as st

from mcfgkit import LatticePath, Vec, Word, alphabet, make_token


def all_words(n: int, max_len: int) -> Iterator[Word]:
    """Every word over the rank-n alphabet with length <= max_len."""
    letters = alphabet(n)
    for length in range(max_len + 1):
        yield from product(letters, repeat=length)


def random_word(rng: random.Random, n: int, max_len: int) -> Word:
    letters = alphabet(n)
    length = rng.randrange(max_len + 1)
    return tuple(rng.choice(letters) for _ in range(length))


def shuffled_pairs(rng: random.Random, n: int, length: int) -> Word:
    """length // 2 inverse pairs on random axes, shuffled; displaces to zero."""
    tokens: list[str] = []
    for _ in range(length // 2):
        axis = rng.randrange(1, n + 1)
        sign = rng.choice((1, -1))
        tokens.append(make_token(axis, sign))
        tokens.append(make_token(axis, -sign))
    rng.shuffle(tokens)
    return tuple(tokens)


def random_zero_displacement_word(rng: random.Random, n: int, max_len: int) -> Word:
    """Shuffled inverse pairs of a random even length up to max_len."""
    return shuffled_pairs(rng, n, 2 * rng.randrange(max_len // 2 + 1))


def walk_and_return(rng: random.Random, n: int, length: int) -> Word:
    """A random walk of length // 2 steps, then the same walk undone backwards."""
    steps = [(rng.randrange(1, n + 1), rng.choice((1, -1))) for _ in range(length // 2)]
    back = [(axis, -sign) for axis, sign in reversed(steps)]
    return tuple(make_token(axis, sign) for axis, sign in steps + back)


def block_word(n: int, r: int) -> Word:
    """a1^r ... an^r A1^r ... An^r."""
    return tuple(make_token(axis, sign) for sign in (1, -1)
                 for axis in range(1, n + 1) for _ in range(r))


def zero_displacement_words(n: int, min_pairs: int = 0, max_pairs: int = 7):
    """Hypothesis strategy over zero-displacement words built from inverse pairs."""
    pairs = st.lists(
        st.tuples(st.integers(1, n), st.sampled_from((1, -1))),
        min_size=min_pairs,
        max_size=max_pairs,
    )

    def expand(ps: list[tuple[int, int]]) -> list[str]:
        tokens: list[str] = []
        for axis, sign in ps:
            tokens.append(make_token(axis, sign))
            tokens.append(make_token(axis, -sign))
        return tokens

    return pairs.map(expand).flatmap(st.permutations).map(tuple)


def points(path: LatticePath) -> tuple[Vec, ...]:
    """Doubled coordinates at every half-unit parameter 0..2L, walked from the
    steps alone: the reference that the packed keys are checked against."""
    cur = [0] * path.n
    pts = [tuple(cur)]
    for axis, sign in path.steps:
        for _ in range(2):
            cur[axis - 1] += sign
            pts.append(tuple(cur))
    return tuple(pts)


def interval_sum(pts: tuple[Vec, ...], bp: tuple[int, ...]) -> Vec:
    """sum_i (pts[s_i] - pts[t_i]) over the breakpoints (t1, s1, ..., tk, sk)."""
    pairs = list(zip(bp[::2], bp[1::2]))
    return tuple(sum(pts[s][i] - pts[t][i] for t, s in pairs) for i in range(len(pts[0])))


def lex_min_reference(path: LatticePath, k: int) -> tuple[int, ...] | None:
    """The first ordered 2k-tuple, in lexicographic order, whose intervals sum
    to half the displacement, or None."""
    pts = points(path)
    for bp in combinations_with_replacement(range(len(pts)), 2 * k):
        if tuple(2 * c for c in interval_sum(pts, bp)) == pts[-1]:
            return bp
    return None


def abcd_oracle(word: Word) -> bool:
    """True exactly for a^j b^j c^j d^j."""
    j, rem = divmod(len(word), 4)
    return rem == 0 and word == ("a",) * j + ("b",) * j + ("c",) * j + ("d",) * j
