"""Nothing the package builds forms a reference cycle.

Every CLI command runs with the cyclic collector paused, and so does
loads_derivation. That is safe only while each call leaves no cyclic
garbage behind: with the collector off, a full collection after the call
must find nothing to free. Each operation runs once first, so caches
filled on first use are not counted.
"""

from __future__ import annotations

import contextlib
import gc
import io
import random

import pytest

from mcfgkit import (
    bounded_language,
    check_derivation,
    dumps_derivation,
    dumps_grammar,
    loads_derivation,
    make_grammar,
    recognize_bounded,
    synthesize_word,
)
from mcfgkit import cli

from conftest import make_abcd_grammar
from wordgen import shuffled_pairs, walk_and_return


def cyclic_garbage(operation) -> int:
    """What a full collection frees after operation runs with the collector off."""
    operation()  # warm-up
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        operation()
        return gc.collect()
    finally:
        (gc.enable if was else gc.disable)()


def round_trip(word, n: int) -> None:
    """derive, check, dumps, loads and check again."""
    g = make_grammar(n)
    d = synthesize_word(word, n)
    check_derivation(g, d)
    check_derivation(g, loads_derivation(dumps_derivation(d)))


# shuffled pairs at ranks 1-6, long enough at ranks 3-6 for the k >= 2
# breakpoint search; the rank-1 walk splits hundreds of times
WORDS = [(n, shuffled_pairs(random.Random(100 + n), n, length))
         for n, length in ((1, 64), (2, 64), (3, 48), (4, 48), (5, 60), (6, 72))]
WORDS.append((1, walk_and_return(random.Random(7), 1, 2048)))


@pytest.mark.parametrize("n, word", WORDS, ids=[f"n{n}-L{len(w)}" for n, w in WORDS])
def test_derive_check_and_json_round_trip_leave_no_cycles(n, word):
    assert cyclic_garbage(lambda: round_trip(word, n)) == 0


def test_recognition_leaves_no_cycles():
    g = make_abcd_grammar()
    words = [tuple("a" * j + "b" * j + "c" * j + "d" * j) for j in range(5)] + [tuple("abdc")]

    def recognize_all():
        for word in words:
            recognize_bounded(g, word)

    assert cyclic_garbage(recognize_all) == 0
    assert cyclic_garbage(lambda: bounded_language(g, 8)) == 0


def quiet_run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.run(argv)


@pytest.mark.parametrize("argv, code", [
    (["check", "--n", "2", "--word", "a1 a2 A1 A2"], 0),
    (["derive", "--n", "3", "--word", "a1 a2 a3 A1 A2 A3 a1 A1"], 0),
    (["derive", "--n", "2", "--word", "a1 a2 A1 A2", "--out", "{tmp}/d.json"], 0),
    (["verify", "--n", "2", "--derivation", "{tmp}/d.json", "--word", "a1 a2 A1 A2"], 0),
    (["recognize", "--grammar", "{tmp}/g.json", "--word", "a b c d"], 0),
    (["burago", "--n", "3", "--word", "a1 a2 a3 A1 A2 A3"], 0),
    (["xcheck", "--n", "2", "--max-len", "4"], 0),
    (["derive", "--n", "1", "--word", "a1"], 1),
    (["derive", "--n", "1", "--word", "zz"], 2),
    (["emit-grammar", "--n", "2"], 0),
    (["check", "--n", "2", "--word", "a1 a2 A1 A2", "--json"], 0),
    (["derive", "--n", "2", "--word", "a1 a2 A1 A2", "--out", "{tmp}/e.json", "--json"], 0),
    (["derive", "--n", "1", "--word", "a1", "--json"], 1),
    (["verify", "--n", "2", "--derivation", "{tmp}/d.json", "--word", "a1 a2 A1 A2", "--json"], 0),
    (["recognize", "--grammar", "{tmp}/g.json", "--word", "a b c d", "--json"], 0),
    (["burago", "--n", "3", "--word", "a1 a2 a3 A1 A2 A3", "--json"], 0),
    (["xcheck", "--n", "2", "--max-len", "4", "--json"], 0),
], ids=["check", "derive", "derive-out", "verify", "recognize", "burago", "xcheck",
        "derive-nonmember", "derive-bad-token", "emit-grammar", "check-json", "derive-out-json",
        "derive-nonmember-json", "verify-json", "recognize-json", "burago-json", "xcheck-json"])
def test_commands_leave_no_cycles(tmp_path, argv, code):
    (tmp_path / "g.json").write_text(dumps_grammar(make_abcd_grammar()), encoding="utf-8")
    quiet_run(["derive", "--n", "2", "--word", "a1 a2 A1 A2", "--out", str(tmp_path / "d.json")])
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert quiet_run(argv) == code
    assert cyclic_garbage(lambda: quiet_run(argv)) == 0

