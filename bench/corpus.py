"""Seeded benchmark inputs.

The generators use the standard library only (no test helpers, no
third-party packages); the recognizer grammars are built from the
library's grammar types. Words are tuples of tokens "a3" / "A3", the
format the library parses. Every generator takes a random.Random, so
one seed fixes every input. Membership is decided here by signed
letter counts, independently of the library under test.
"""

from __future__ import annotations

import random

from mcfgkit.grammar import Grammar, Rule, term, var

Word = tuple[str, ...]


def token(axis: int, sign: int) -> str:
    return f"{'a' if sign > 0 else 'A'}{axis}"


def is_member(word: Word, n: int) -> bool:
    """True when every axis's signed letter count cancels."""
    disp = [0] * (n + 1)
    for tok in word:
        disp[int(tok[1:])] += 1 if tok[0] == "a" else -1
    return not any(disp)


def shuffled_pairs(rng: random.Random, n: int, length: int) -> Word:
    """length/2 inverse pairs on random axes, in random order."""
    tokens: list[str] = []
    for _ in range(length // 2):
        axis = rng.randrange(1, n + 1)
        sign = rng.choice((1, -1))
        tokens += [token(axis, sign), token(axis, -sign)]
    rng.shuffle(tokens)
    return tuple(tokens)


def walk_and_return(rng: random.Random, n: int, length: int) -> Word:
    """A random walk of length/2 steps, then the same walk undone backwards."""
    steps = [(rng.randrange(1, n + 1), rng.choice((1, -1))) for _ in range(length // 2)]
    back = [(axis, -sign) for axis, sign in reversed(steps)]
    return tuple(token(axis, sign) for axis, sign in steps + back)


def block_word(rng: random.Random, n: int, r: int) -> Word:
    """a1^r ... an^r A1^r ... An^r under a seeded relabelling of the axes.

    Permuting axes and flipping an axis's sign map the breakpoint search
    and the synthesis onto themselves, so every seed pays the same cost
    for the same (n, r) while the library still sees different words.
    """
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    flips = [rng.choice((1, -1)) for _ in range(n)]
    forward = [token(perm[a], flips[a]) for a in range(n) for _ in range(r)]
    backward = [token(perm[a], -flips[a]) for a in range(n) for _ in range(r)]
    return tuple(forward + backward)


def spoil(rng: random.Random, word: Word) -> Word:
    """A non-member near a member: one token deleted or one sign flipped."""
    out = list(word)
    at = rng.randrange(len(out))
    if rng.random() < 0.5:
        del out[at]
    else:
        out[at] = out[at].swapcase()
    return tuple(out)


def spoil_letters(rng: random.Random, s: Word, letters: str) -> Word:
    """s with one position changed to another letter of the alphabet."""
    at = rng.randrange(len(s))
    other = rng.choice([c for c in letters if c != s[at]])
    return s[:at] + (other,) + s[at + 1:]


# Schema-free grammars for the recognizer. Both are non-deleting, so
# recognize_bounded is exact on them.

def abcd_grammar() -> Grammar:
    """{ a^j b^j c^j d^j }."""
    return Grammar(
        terminals=("a", "b", "c", "d"),
        nonterminals=(("S", 1), ("I", 2)),
        start="S",
        rules=(
            Rule("I", ((), ())),
            Rule("I", ((term("a"), var("x"), term("b")),
                       (term("c"), var("y"), term("d"))), (("I", ("x", "y")),)),
            Rule("S", ((var("x"), var("y")),), (("I", ("x", "y")),)),
        ),
    )


def is_abcd(s: Word) -> bool:
    j, rem = divmod(len(s), 4)
    return rem == 0 and s == abcd_member(j)


def copy_grammar() -> Grammar:
    """{ w w : w over {a, b} }."""
    return Grammar(
        terminals=("a", "b"),
        nonterminals=(("S", 1), ("I", 2)),
        start="S",
        rules=(
            Rule("I", ((), ())),
            Rule("I", ((var("x"), term("a")), (var("y"), term("a"))), (("I", ("x", "y")),)),
            Rule("I", ((var("x"), term("b")), (var("y"), term("b"))), (("I", ("x", "y")),)),
            Rule("S", ((var("x"), var("y")),), (("I", ("x", "y")),)),
        ),
    )


def is_copy(s: Word) -> bool:
    half, rem = divmod(len(s), 2)
    return rem == 0 and s[:half] == s[half:]


def abcd_string(rng: random.Random, max_len: int) -> Word:
    return tuple(rng.choice("abcd") for _ in range(rng.randrange(max_len + 1)))


def abcd_member(j: int) -> Word:
    return ("a",) * j + ("b",) * j + ("c",) * j + ("d",) * j


def copy_member(rng: random.Random, half: int) -> Word:
    w = tuple(rng.choice("ab") for _ in range(half))
    return w + w
