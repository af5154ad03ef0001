"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line naming the behavior it guards; run
with `pytest tests/test_acceptance.py -s` to see them. Budgets are wall
clock on the suite's own loops, asserted explicitly where a criterion
carries one.
"""

from __future__ import annotations

import hashlib
import random
import time
from itertools import product
from operator import sub

from mcfgkit import (
    Instance,
    InternalInvariantError,
    alphabet,
    bounded_language,
    burago_partition,
    check_derivation,
    displacement,
    dumps_derivation,
    grammar_params,
    loads_derivation,
    make_grammar,
    recognize_bounded,
    synthesize_word,
    validate_grammar,
    word_to_path,
)
from mcfgkit.cli import run
from mcfgkit.synthesis import _Synthesizer

from conftest import make_abcd_grammar
from wordgen import (
    abcd_oracle,
    all_words,
    block_word,
    interval_sum,
    points,
    random_word,
    random_zero_displacement_word,
    shuffled_pairs,
    walk_and_return,
)


def report(label: str, ok: bool, detail: str) -> bool:
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def flatten(x):
    return sum(x, ())


def test_exhaustive_small_rank_sweep():
    """Synthesis succeeds exactly on zero-displacement words, small ranks."""
    t0 = time.monotonic()
    problems: list[str] = []
    totals = {}
    for n, max_len in ((1, 10), (2, 6)):
        g = make_grammar(n)
        words = members = 0
        for w in all_words(n, max_len):
            words += 1
            member = not any(displacement(w, n))
            d = synthesize_word(w, n)
            if (d is not None) != member:
                problems.append(f"n={n} {w}: derived={d is not None}, member={member}")
                break
            if d is None:
                continue
            members += 1
            final = check_derivation(g, d)
            if final != Instance("S", (w,)):
                problems.append(f"n={n} {w}: final {final}")
                break
        totals[n] = (words, members)
    elapsed = time.monotonic() - t0
    ok = (
        not problems
        and totals[1] == (2047, 351)
        and totals[2] == (5461, 441)
        and elapsed < 120.0
    )
    assert report(
        "exhaustive small-rank synthesis sweep",
        ok,
        f"{totals[1][0]} words at n=1, {totals[2][0]} at n=2, {elapsed:.1f}s",
    ), problems


def test_random_zero_displacement_derivations():
    """Random members synthesize to checker-valid derivations whose
    intermediate tuple instances all displace to zero."""
    t0 = time.monotonic()
    problems: list[str] = []
    checked = 0
    for n, max_len in ((1, 20), (2, 20), (3, 14)):
        g = make_grammar(n)
        zero = (0,) * n
        rng = random.Random(2026 + n)
        for _ in range(1000):
            w = random_zero_displacement_word(rng, n, max_len)
            d = synthesize_word(w, n)
            if d is None:
                problems.append(f"n={n} {w}: refused a member")
                break
            final = check_derivation(g, d)
            if final != Instance("S", (w,)):
                problems.append(f"n={n} {w}: final {final}")
                break
            for step in d.steps:
                if step.conclusion_nt == "I" and displacement(flatten(step.conclusion), n) != zero:
                    problems.append(f"n={n} {w}: unbalanced instance {step.conclusion}")
                    break
            else:
                checked += 1
                continue
            break
    elapsed = time.monotonic() - t0
    ok = not problems and checked == 3000 and elapsed < 300.0
    assert report(
        "random zero-displacement derivations",
        ok,
        f"{checked} words across ranks 1-3, {elapsed:.1f}s",
    ), problems


def test_word_families_reach_the_split_at_every_rank(split_ks):
    """Shuffled pairs, walk-and-return and block words of total length
    m+2 ... 3m at ranks 1-6 derive through the split with the rank's k."""
    t0 = time.monotonic()
    problems: list[str] = []
    checked = 0
    rng = random.Random(5150)
    for n in range(1, 7):
        k, m = grammar_params(n)
        g = make_grammar(n)
        lengths = [L for L in range(m + 2, 3 * m + 1, 2) for _ in range(3)]
        families = {
            "shuffled pairs": [shuffled_pairs(rng, n, L) for L in lengths],
            "walk and return": [walk_and_return(rng, n, L) for L in lengths],
            # every r with m < 2nr <= 3m
            "block": [block_word(n, r) for r in range(m // (2 * n) + 1, 3 * m // (2 * n) + 1)],
        }
        for family, words in families.items():
            split_ks.clear()
            for w in words:
                if not m + 2 <= len(w) <= 3 * m:
                    problems.append(f"n={n} {family}: length {len(w)} outside m+2..3m")
                elif check_derivation(g, synthesize_word(w, n)) != Instance("S", (w,)):
                    problems.append(f"n={n} {family} {w}: wrong final conclusion")
                else:
                    checked += 1
            if set(split_ks) != {k}:
                problems.append(f"n={n} {family}: split ran with k in {sorted(set(split_ks))}")
    elapsed = time.monotonic() - t0
    # 2 x (18 + 18 + 42 + 42 + 66 + 66) words of the two random families + 26 block words
    ok = not problems and checked == 530
    assert report(
        "word families reach the split at ranks 1-6",
        ok,
        f"{checked} words, {elapsed:.1f}s",
    ), problems


def test_long_block_words_at_ranks_three_to_six():
    """Block words a1^r ... an^r A1^r ... An^r at n = 4 (L = 256), n = 3
    (L = 192), n = 5 (L = 140) and n = 6 (L = 144) derive and check; the
    elapsed time is reported, not asserted."""
    problems: list[str] = []
    times: list[str] = []
    for n, r in ((4, 32), (3, 32), (5, 14), (6, 12)):
        w = block_word(n, r)
        t0 = time.monotonic()
        if check_derivation(make_grammar(n), synthesize_word(w, n)) != Instance("S", (w,)):
            problems.append(f"n={n}: wrong final conclusion")
        times.append(f"n={n} L={len(w)} {time.monotonic() - t0:.2f}s")
    assert report(
        "long block words at ranks 3 to 6",
        not problems,
        ", ".join(times),
    ), problems


def test_long_random_words_at_ranks_three_and_four():
    """Random members of length 2,048 derive and check at n = 3 (a walk and
    its return, and shuffled inverse pairs) and n = 4 (shuffled pairs),
    past the suite's other random rank-3-4 words, which stop at 3m = 42;
    the elapsed time is reported, not asserted."""
    problems: list[str] = []
    times: list[str] = []
    rng = random.Random(7)
    for n, family in ((3, walk_and_return), (3, shuffled_pairs), (4, shuffled_pairs)):
        w = family(rng, n, 2048)
        t0 = time.monotonic()
        if check_derivation(make_grammar(n), synthesize_word(w, n)) != Instance("S", (w,)):
            problems.append(f"n={n} {family.__name__}: wrong final conclusion")
        times.append(f"n={n} {family.__name__} L={len(w)} {time.monotonic() - t0:.2f}s")
    assert report(
        "long random words at ranks 3 and 4",
        not problems,
        ", ".join(times),
    ), problems


def test_every_rank_two_member_of_length_eight(split_ks):
    """All 4,900 members of length 8 at n = 2, past m = 6, derive and check."""
    t0 = time.monotonic()
    g = make_grammar(2)
    problems: list[str] = []
    members = 0
    for w in product(alphabet(2), repeat=8):
        if any(displacement(w, 2)):
            continue
        members += 1
        if check_derivation(g, synthesize_word(w, 2)) != Instance("S", (w,)):
            problems.append(f"{w}: wrong final conclusion")
            break
    elapsed = time.monotonic() - t0
    ok = not problems and members == 4900 and set(split_ks) == {1}
    assert report(
        "every rank-2 member of length 8",
        ok,
        f"{members} members, split k {sorted(set(split_ks))}, {elapsed:.1f}s",
    ), problems


def test_bounded_recognizer_matches_counted_quads_oracle():
    """recognize_bounded agrees with the a^j b^j c^j d^j predicate."""
    g = make_abcd_grammar()
    problems: list[str] = []

    positives = {("a",) * j + ("b",) * j + ("c",) * j + ("d",) * j for j in range(5)}
    language = bounded_language(g, 16)
    if language != positives:
        problems.append(f"language to 16 is {sorted(language)}")

    calls = 0
    for length in range(9):
        for w in product("abcd", repeat=length):
            calls += 1
            accepted, witness = recognize_bounded(g, w)
            if accepted != abcd_oracle(w):
                problems.append(f"{w}: accepted={accepted}")
                break
            if accepted and check_derivation(g, witness) != Instance("S", (w,)):
                problems.append(f"{w}: bad witness")
                break
        if problems:
            break

    rng = random.Random(314159)
    mutants = 0
    for base in sorted(positives):
        accepted, witness = recognize_bounded(g, base)
        if not accepted or check_derivation(g, witness) != Instance("S", (base,)):
            problems.append(f"{base}: positive rejected")
            break
        if not base:
            continue
        for _ in range(10):
            kind = rng.choice(("swap", "drop", "add"))
            i = rng.randrange(len(base))
            c = rng.choice("abcd")
            if kind == "swap":
                mutant = base[:i] + (c,) + base[i + 1 :]
            elif kind == "drop":
                mutant = base[:i] + base[i + 1 :]
            else:
                mutant = base[:i] + (c,) + base[i:]
            mutants += 1
            if recognize_bounded(g, mutant)[0] != abcd_oracle(mutant):
                problems.append(f"mutant {mutant}: disagreement")
                break
    ok = not problems and calls == 87381
    assert report(
        "bounded recognizer versus counted-quads oracle",
        ok,
        f"language to 16 exact, {calls} short strings, {mutants} mutants",
    ), problems


def test_breakpoint_identity_on_random_paths():
    """Interval sums hit exactly half the displacement on random paths,
    checked both by the library and against points walked from the steps."""
    problems: list[str] = []
    checked = 0
    rng = random.Random(424242)
    for n in range(1, 7):
        k = grammar_params(n).k
        for _ in range(200):
            w = random_word(rng, n, 20)
            path = word_to_path(w, n)
            bp = burago_partition(path, k)
            ordered = all(a <= b for a, b in zip(bp, bp[1:]))
            pts = points(path)
            half = interval_sum(pts, bp)
            if not (
                len(bp) == 2 * k
                and ordered
                and all(0 <= b <= 2 * len(path) for b in bp)
                and tuple(2 * c for c in half) == pts[-1]
            ):
                problems.append(f"n={n} {w}: {bp}")
                break
            checked += 1
    ok = not problems and checked == 1200
    assert report(
        "breakpoint identity on random paths",
        ok,
        f"{checked} paths across ranks 1-6",
    ), problems


def test_three_axis_diagonal_requires_two_intervals():
    """On the path a1 a2 a3 no single interval reaches half the displacement,
    even on the quarter-unit grid, while two intervals do."""
    path = word_to_path(("a1", "a2", "a3"), 3)

    # walk the same path in quadrupled coordinates: 4 quarter-steps per edge
    pts = [(0, 0, 0)]
    for axis, sign in path.steps:
        for _ in range(4):
            last = list(pts[-1])
            last[axis - 1] += sign
            pts.append(tuple(last))
    half = tuple(c // 2 for c in pts[-1])
    hits = [
        (t, s)
        for t in range(len(pts))
        for s in range(t, len(pts))
        if tuple(map(sub, pts[s], pts[t])) == half
    ]

    single_fails = False
    try:
        burago_partition(path, 1)
    except InternalInvariantError:
        single_fails = True

    bp = burago_partition(path, 2)
    ok = (
        hits == []
        and single_fails
        and bp == (0, 1, 3, 5)
        and tuple(2 * c for c in interval_sum(points(path), bp)) == points(path)[-1]
    )
    assert report(
        "three-axis diagonal requires two intervals",
        ok,
        f"quarter-grid hits {hits}, two-interval breakpoints {bp}",
    )


def test_grammar_sizes_and_wellformedness():
    """Derived sizes come out as plain tuples and every grammar validates."""
    ok = grammar_params(2) == (1, 6)
    shapes = []
    for n in range(1, 7):
        g = make_grammar(n)
        violations = validate_grammar(g)
        shapes.append(grammar_params(n).m)
        ok = ok and violations == []
    assert report(
        "grammar sizes and well-formedness",
        ok,
        f"params(2) = {tuple(grammar_params(2))}, arities for ranks 1-6: {shapes}",
    )


def test_derivation_file_round_trips(tmp_path, capsys):
    """derive writes files that verify accepts and that re-serialize
    byte-identically after parsing."""
    problems: list[str] = []
    files = 0
    for n in (1, 2):
        rng = random.Random(77 + n)
        for i in range(100):
            w = random_zero_displacement_word(rng, n, 20)
            text = " ".join(w)
            target = tmp_path / f"derivation_{n}_{i}.json"
            if run(["derive", "--n", str(n), "--word", text, "--out", str(target)]) != 0:
                problems.append(f"n={n} {text!r}: derive failed")
                break
            if run(["verify", "--n", str(n), "--derivation", str(target),
                    "--word", text]) != 0:
                problems.append(f"n={n} {text!r}: verify failed")
                break
            stored = target.read_text(encoding="utf-8")
            if dumps_derivation(loads_derivation(stored)) != stored:
                problems.append(f"n={n} {text!r}: reserialization differs")
                break
            files += 1
    capsys.readouterr()
    ok = not problems and files == 200
    assert report(
        "derivation files verify and round-trip",
        ok,
        f"{files} files derived, verified, and re-serialized",
    ), problems


# sha256 of the derivation texts of golden_words(), concatenated in order
GOLDEN_SHA256 = "c2ca2bc7512fc3a0ed3aab225eebbe3f8ae1880798e3160f53ffb5c2eb7b3818"


def golden_words() -> list[tuple[int, tuple[str, ...]]]:
    """40 seeded members at ranks 1-6, from just past m up to 6m at k < 3."""
    rng = random.Random(7)
    words = []
    for n in range(1, 7):
        k, m = grammar_params(n)
        for L in (m + 2, 2 * m, 6 * m) if k < 3 else (m + 2, 2 * m):
            words.append((n, shuffled_pairs(rng, n, L)))
            words.append((n, walk_and_return(rng, n, L)))
        words.append((n, block_word(n, m // (2 * n) + 1)))
    words += [(1, block_word(1, 16)), (2, block_word(2, 12))]
    return words


def test_golden_derivation_bytes(split_ks, monkeypatch):
    """The serialized derivations of a fixed word set hash to a pinned
    digest, and the set reaches the split, halve and rebalance branches."""
    branches = {"halve": 0, "rebalance": 0}
    for name in branches:
        original = getattr(_Synthesizer, name)

        def counted(self, x, original=original, name=name):
            branches[name] += 1
            return original(self, x)

        monkeypatch.setattr(_Synthesizer, name, counted)
    t0 = time.monotonic()
    digest = hashlib.sha256()
    words = golden_words()
    for n, w in words:
        digest.update(dumps_derivation(synthesize_word(w, n)).encode("utf-8"))
    elapsed = time.monotonic() - t0
    ok = (len(words) == 40 and digest.hexdigest() == GOLDEN_SHA256
          and len(split_ks) > 0 and all(branches.values()))
    assert report(
        "golden derivation bytes",
        ok,
        f"{len(words)} words, {len(split_ks)} splits, {branches}, {elapsed:.2f}s",
    ), digest.hexdigest()
