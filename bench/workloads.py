"""The four benchmark workloads: inputs, the timed call, the output check.

Timed calls look library functions up as module attributes
(mcfgkit.cli.run, mcfgkit.derivation.loads_derivation, ...), which is
where the tracer wraps them. Output checks use the package's top-level
names (mcfgkit.check_derivation, ...), which the tracer never replaces,
and run outside the timed region.
"""

from __future__ import annotations

import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import mcfgkit
from mcfgkit import cli, derivation, recognize
from mcfgkit.derivation import Instance

import corpus
from corpus import Word


class Mismatch(Exception):
    """An output that the independent check rejects."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


@dataclass(frozen=True)
class Item:
    label: str
    n: int
    word: Word
    member: bool
    payload: object = None


def check_member_derivation(text: str, n: int, word: Word) -> int:
    """Checks a derivation text against a fresh grammar; returns its step count."""
    d = mcfgkit.loads_derivation(text)
    final = mcfgkit.check_derivation(mcfgkit.make_grammar(n), d)
    expect(final == Instance("S", (word,)), "final conclusion is not S(word)")
    expect(mcfgkit.dumps_derivation(d) == text, "dumps(loads(text)) differs from text")
    return len(d)


class Workload:
    """One workload; BENCHMARK.json records why each was chosen."""

    name = ""
    # Corpus rounds per 10 s of run time. At the committed baseline one
    # pass over the corpus takes about the run time, so a run measures
    # each item about once and the seed's whole corpus counts.
    rounds_per_10s = 1

    def rounds(self, seconds: float) -> int:
        return max(1, math.ceil(self.rounds_per_10s * seconds / 10))

    def setup(self, seed: int, seconds: float) -> list[Item]:
        raise NotImplementedError

    def call(self, item: Item):
        """The timed part of one item."""
        raise NotImplementedError

    def output_bytes(self, item: Item, output) -> bytes:
        """The item's output in a canonical form, for digests."""
        raise NotImplementedError

    def check(self, item: Item, output) -> int:
        """Independent check of the output; returns its derivation steps."""
        raise NotImplementedError


def run_cli(argv) -> tuple[int, str, str]:
    """cli.run in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


# A round is one (n, family, length) row per entry; the families are
# "shuffled" (inverse pairs), "walk" (walk, then back) and "block"
# (length / 2n repetitions per letter).
def make_word(rng: random.Random, n: int, family: str, length: int) -> Word:
    if family == "shuffled":
        return corpus.shuffled_pairs(rng, n, length)
    if family == "walk":
        return corpus.walk_and_return(rng, n, length)
    return corpus.block_word(rng, n, length // (2 * n))


class DeriveWorkload(Workload):
    """In-process `mcfgkit derive --n N --word W`, output captured."""

    def __init__(self, name: str, rows, nonmembers: int, rounds_per_10s: int):
        self.name = name
        self.rows = rows
        self.nonmembers = nonmembers
        self.rounds_per_10s = rounds_per_10s

    def setup(self, seed: int, seconds: float) -> list[Item]:
        rng = random.Random(seed)
        items = []
        for _ in range(self.rounds(seconds)):
            words = [(n, f"{family} L={length}", make_word(rng, n, family, length))
                     for n, family, length in self.rows]
            for _ in range(self.nonmembers):
                n, label, word = words[rng.randrange(len(self.rows))]
                words.append((n, f"spoiled {label}", corpus.spoil(rng, word)))
            for n, label, word in words:
                argv = ("derive", "--n", str(n), "--word", " ".join(word))
                items.append(Item(f"n={n} {label}", n, word, corpus.is_member(word, n), argv))
        return items

    def call(self, item: Item):
        return run_cli(item.payload)

    def output_bytes(self, item: Item, output) -> bytes:
        code, text, err = output
        return f"{code}\n{err}\n{text}".encode()

    def check(self, item: Item, output) -> int:
        code, text, err = output
        expect(not err, f"stderr: {err.strip()[:200]}")
        if not item.member:
            expect(code == 1, f"non-member exited {code}, expected 1")
            expect(text.startswith("not a member"), "non-member printed a derivation")
            return 0
        expect(code == 0, f"member exited {code}, expected 0")
        return check_member_derivation(text, item.n, item.word)


class VerifyWorkload(Workload):
    """load -> check -> dump of derivation texts synthesized during set-up."""

    name = "verify_replay"
    # Four cheap rank 3-6 words, four rank-2 words, four long rank-1
    # words: the median item is a rank-2 word on every seed. Ranks 5 and
    # 6 stay within the base case (length <= m = 22) to keep set-up cheap.
    rows = (
        (1, "shuffled", 1024), (2, "shuffled", 256), (3, "shuffled", 40),
        (1, "walk", 512), (2, "walk", 256), (4, "walk", 24),
        (1, "walk", 1024), (2, "shuffled", 256), (5, "shuffled", 22),
        (1, "shuffled", 512), (2, "walk", 256), (6, "walk", 22),
    )
    # set-up synthesizes the corpus, so it stays small and the timed
    # loop passes over it many times
    rounds_per_10s = 1

    def setup(self, seed: int, seconds: float) -> list[Item]:
        rng = random.Random(seed)
        grammars = {n: mcfgkit.make_grammar(n) for n in range(1, 7)}
        items = []
        for _ in range(self.rounds(seconds)):
            for n, family, length in self.rows:
                word = make_word(rng, n, family, length)
                text = mcfgkit.dumps_derivation(mcfgkit.synthesize_word(word, n))
                items.append(Item(f"n={n} {family} L={length}", n, word, True,
                                  (grammars[n], text)))
        return items

    def call(self, item: Item):
        g, text = item.payload
        d = derivation.loads_derivation(text)
        final = derivation.check_derivation(g, d)
        return final, derivation.dumps_derivation(d), len(d)

    def output_bytes(self, item: Item, output) -> bytes:
        final, out, steps = output
        return out.encode()

    def check(self, item: Item, output) -> int:
        final, out, steps = output
        expect(final == Instance("S", (item.word,)), "final conclusion is not S(word)")
        expect(out == item.payload[1], "re-dumped text differs from the input")
        return steps


class RecognizeWorkload(Workload):
    """recognize_bounded on two schema-free grammars defined by the benchmark."""

    name = "recognize_sweep"
    rounds_per_10s = 160
    short_per_round = 150

    def setup(self, seed: int, seconds: float) -> list[Item]:
        rng = random.Random(seed)
        abcd, copy = corpus.abcd_grammar(), corpus.copy_grammar()
        items = []
        for _ in range(self.rounds(seconds)):
            strings = [corpus.abcd_string(rng, 8) for _ in range(self.short_per_round)]
            strings += [corpus.abcd_member(j) for j in range(4)]
            strings += [corpus.spoil_letters(rng, corpus.abcd_member(j), "abcd") for j in (1, 2, 3)]
            for s in strings:
                items.append(Item(f"abcd L={len(s)}", 0, s, corpus.is_abcd(s), abcd))
            for half in (6, 8, 10, 12):
                s = corpus.copy_member(rng, half)
                items.append(Item(f"copy L={len(s)}", 0, s, True, copy))
            for half in (8, 12):
                s = corpus.spoil_letters(rng, corpus.copy_member(rng, half), "ab")
                items.append(Item(f"copy L={len(s)}", 0, s, corpus.is_copy(s), copy))
        rng.shuffle(items)
        return items

    def call(self, item: Item):
        return recognize.recognize_bounded(item.payload, item.word)

    def output_bytes(self, item: Item, output) -> bytes:
        accepted, witness = output
        if witness is None:
            return f"{accepted:d}\n".encode()
        return f"{accepted:d}\n{mcfgkit.dumps_derivation(witness)}".encode()

    def check(self, item: Item, output) -> int:
        accepted, witness = output
        expect(accepted == item.member, f"verdict {accepted}, expected {item.member}")
        if not accepted:
            expect(witness is None, "a rejected string came with a witness")
            return 0
        final = mcfgkit.check_derivation(item.payload, witness)
        expect(final == Instance(item.payload.start, (item.word,)), "witness does not end in S(s)")
        return len(witness)


WORKLOADS = {
    w.name: w
    for w in (
        DeriveWorkload(
            "derive_walks",
            # Most items are rank-1 words of one length, whose costs vary
            # little, so the median item lands among them on every seed.
            rows=(
                (1, "shuffled", 768), (2, "shuffled", 256), (1, "walk", 768),
                (2, "block", 384), (1, "block", 768), (2, "walk", 256),
                (1, "shuffled", 768), (1, "walk", 768),
            ),
            nonmembers=2,
            rounds_per_10s=6,
        ),
        DeriveWorkload(
            "search_heavy",
            # Block words cost the same on every seed (see corpus.block_word);
            # five of them cost about the same, so the median item is one
            # of those. The random walks are small: their cost is heavy-tailed.
            rows=(
                (4, "block", 32), (3, "walk", 48), (5, "block", 30), (3, "block", 48),
                (4, "walk", 28), (3, "block", 72), (6, "block", 24), (5, "walk", 24),
                (4, "block", 32), (4, "block", 40), (5, "block", 30),
            ),
            nonmembers=0,
            rounds_per_10s=3,
        ),
        VerifyWorkload(),
        RecognizeWorkload(),
    )
}
