"""Breakpoint search: interval sums hitting half the path displacement."""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from itertools import repeat

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mcfgkit.burago as burago_module
from mcfgkit import (
    InternalInvariantError,
    burago_partition,
    grammar_params,
    l1,
    make_token,
    word_to_path,
)
from mcfgkit.cli import run

from wordgen import (
    block_word,
    interval_sum,
    lex_min_reference,
    points,
    random_word,
    reference_partition,
    relabel_axes,
    search_symmetry,
    shuffled_pairs,
    walk_and_return,
)


def doubled_sum(path, bp):
    """The doubled interval sum, walked from the steps, and whether twice it
    is the path's doubled displacement."""
    pts = points(path)
    half = interval_sum(pts, bp)
    return half, tuple(2 * c for c in half) == pts[-1]


def test_frozen_examples():
    assert burago_partition(word_to_path(("a1", "a1"), 1), 1) == (0, 2)
    assert burago_partition(word_to_path(("a1", "a2", "A1", "A2"), 2), 1) == (0, 0)
    assert burago_partition(word_to_path(("a1", "a1", "a2", "A1", "A1"), 2), 1) == (4, 5)


def test_breakpoints_are_lexicographically_minimal():
    # any later s would also work here, so the search must stop at s = 2
    assert burago_partition(word_to_path(("a1", "A1", "a1", "a1"), 1), 1) == (0, 2)


def test_partition_identity_and_shape():
    path = word_to_path(("a1", "a1", "a2", "A1", "A1"), 2)
    bp = burago_partition(path, 1)
    assert len(bp) == 2
    assert bp == (4, 5)
    assert doubled_sum(path, bp) == ((0, 1), True)
    assert path.vector(path.keys[-1]) == (0, 2)


def test_json_shape(capsys):
    assert run(["burago", "--n", "1", "--word", "a1 a1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"breakpoints": [0, 2], "doubled": True}


def test_partition_validation():
    with pytest.raises(ValueError):
        burago_partition(word_to_path(("a1", "a1"), 1), 0)


def test_extra_intervals_are_allowed():
    path = word_to_path(("a1", "a1"), 1)
    bp = burago_partition(path, 2)
    assert len(bp) == 4
    assert doubled_sum(path, bp)[1]


def test_empty_path():
    path = word_to_path((), 1)
    bp = burago_partition(path, 1)
    assert bp == (0, 0)
    assert doubled_sum(path, bp)[1]


def test_three_axis_diagonal_needs_two_intervals():
    path = word_to_path(("a1", "a2", "a3"), 3)
    with pytest.raises(InternalInvariantError) as info:
        burago_partition(path, 1)
    assert info.value.payload["k"] == 1
    bp = burago_partition(path, 2)
    assert bp == (0, 1, 3, 5)
    assert doubled_sum(path, bp)[1]


@given(st.integers(1, 4), st.integers(0, 10 ** 9))
def test_identity_on_random_paths(n, seed):
    rng = random.Random(seed)
    word = random_word(rng, n, 16)
    path = word_to_path(word, n)
    k = grammar_params(n).k
    bp = burago_partition(path, k)
    assert len(bp) == 2 * k
    assert all(0 <= b <= 2 * len(path) for b in bp)
    assert all(a <= b for a, b in zip(bp, bp[1:]))
    assert doubled_sum(path, bp)[1]


def test_breakpoints_match_brute_force_lex_min():
    # the last interval's difference (-2, 0, 1) is also taken from t = 0, before
    # s1 = 1; only a later pair with that difference may follow the first interval
    path = word_to_path(("a1", "A1", "a2", "A1", "A2", "a3"), 3)
    assert burago_partition(path, 2) == lex_min_reference(path, 2) == (0, 1, 4, 11)

    rng = random.Random(2718)
    max_len = {1: 12, 2: 8, 3: 5, 4: 4}
    failures = 0
    for n in range(1, 7):
        for k in range(1, grammar_params(n).k + 2):
            for _ in range(25):
                path = word_to_path(random_word(rng, n, max_len[k]), n)
                expected = lex_min_reference(path, k)
                if expected is None:
                    failures += 1
                    with pytest.raises(InternalInvariantError) as info:
                        burago_partition(path, k)
                    assert info.value.payload["k"] == k
                else:
                    assert burago_partition(path, k) == expected, path.steps
    assert failures  # the failure path is exercised, not only the hits


def test_one_interval_builds_the_point_index_once(monkeypatch):
    """At k = 1 the search builds the point index once, whether the answer
    lies in row 0 (t1 = 0) or later, and answers every row from it; with no
    interval at all it builds it once and reports the failure. The tuple
    equals the brute-force lex-min either way."""
    point_index = burago_module._point_index
    built = []

    def recording_index(keys):
        built.append(len(keys))
        return point_index(keys)

    monkeypatch.setattr(burago_module, "_point_index", recording_index)
    families = (shuffled_pairs, walk_and_return, None)
    rng = random.Random(4421)
    sides = {"row 0": 0, "later": 0}
    for i in range(600):
        n = rng.choice((1, 2))
        family = families[i % len(families)]
        if family is None:
            word = random_word(rng, n, 24)
        else:
            word = family(rng, n, rng.randrange(2, 41))
            # a factor, as the synthesis searches: the target is seldom zero
            a, b = sorted(rng.sample(range(len(word) + 1), 2))
            word = word[a:b]
        path = word_to_path(word, n)
        built.clear()
        expected = lex_min_reference(path, 1)
        assert burago_partition(path, 1) == expected, word
        side = "row 0" if expected[0] == 0 else "later"
        assert built == [len(path.keys)], (side, word)
        sides[side] += 1
    assert sides["row 0"] >= 400 and sides["later"] >= 100, sides
    # with no answer the index is built, and the failure is reported
    built.clear()
    with pytest.raises(InternalInvariantError):
        burago_partition(word_to_path(("a1", "a2", "a3"), 3), 1)
    assert built == [7]


def straight_lines(n, length):
    """Paths of `length` steps that never turn back: all on axis 1, all
    backwards on axis n, and runs along axes 1..n of alternating sign."""
    runs = [length // n + (axis <= length % n) for axis in range(1, n + 1)]
    yield ("a1",) * length
    yield (make_token(n, -1),) * length
    yield tuple(make_token(axis, (-1) ** (axis + 1))
                for axis, run in enumerate(runs, 1) for _ in range(run))


@pytest.mark.parametrize("n", range(1, 7))
def test_breakpoints_on_straight_lines_at_base_boundaries(n):
    # coordinates reach +-2L, so packing is tightest just below a length where
    # 10L crosses a power of two; the lengths on either side have different bases
    k = grammar_params(n).k
    lengths = {1: (51, 52), 2: (12, 13), 3: (6, 7)}[k]  # the brute force grows as L^(2k)
    bases = set()
    for length in lengths:
        for word in straight_lines(n, length):
            path = word_to_path(word, n)
            bases.add(path.base)
            assert [path.vector(key) for key in path.keys] == list(points(path))
            assert burago_partition(path, k) == lex_min_reference(path, k), word
    assert len(bases) == 2


def eager_k2_reference(path, k):
    """The two-interval search with its pair table built before the first
    candidate, as it stood before the search scanned first: the reference
    whose tuples and failure payloads the scan-first search must repeat."""
    pad = max(0, k - (path.n + 1) // 2)
    assert k - pad == 2
    keys = path.keys
    end = len(keys) - 1
    target = keys[-1] // 2
    where = {}
    for s, key in enumerate(keys):
        where.setdefault(key, []).append(s)

    def last(lo, rem):
        for t in range(lo, end + 1):
            hits = where.get(keys[t] + rem)
            if hits is not None and hits[-1] >= t:
                return t, hits[bisect_left(hits, t)]
        return None

    latest = {}
    for t in range(end + 1):
        latest.update(zip(map(keys[t].__rsub__, keys[t:]), repeat(t)))
    for t in range(end - l1(path.vector(target)) + 1):
        shifted = target + keys[t]
        for s in range(t, end + 1):
            if latest.get(shifted - keys[s], -1) >= s:
                return (0, 0) * pad + (t, s) + last(s, shifted - keys[s])
    raise InternalInvariantError(
        "no breakpoint tuple reaches half the displacement",
        {"n": path.n, "steps": path.steps, "k": k, "target_doubled": path.vector(target)},
    )


def outcome(search, path, k):
    try:
        return search(path, k)
    except InternalInvariantError as err:
        return err.payload


def first_table_candidate(path, answer):
    """The first candidate (t, s) of the first interval that the pair table
    answers, or None when the scans reach the answer first. The scans may
    charge a third of the table's entries; a failed candidate costs the
    end + 1 - s rows its scan read."""
    keys = path.keys
    end = len(keys) - 1
    budget = (end + 1) * (end + 2) // 6
    for t in range(end - l1(path.vector(keys[-1] // 2)) + 1):
        for s in range(t, end + 1):
            if budget <= 0:
                return t, s
            if answer is not None and (t, s) == answer[-4:-2]:
                return None
            budget -= end + 1 - s
    return None


def relabelled_block_word(rng, n, length):
    """A block word with its axes permuted and some of them reversed."""
    return relabel_axes(rng, n, block_word(n, max(1, length // (2 * n))))


def test_scan_first_search_matches_eager_table(monkeypatch):
    # the pair table is built only once the scans have cost a third of it;
    # tuples and failure payloads must not depend on when, or whether, it is
    pair_table = burago_module._pair_table
    built = []

    def recording_table(keys):
        built.append(len(keys))
        return pair_table(keys)

    monkeypatch.setattr(burago_module, "_pair_table", recording_table)
    families = (shuffled_pairs, walk_and_return, relabelled_block_word, None)
    rng = random.Random(1309)
    regimes = {"scan": 0, "row start": 0, "mid-row": 0, "failed": 0}
    low_rank = 0
    for i in range(2400):
        n = rng.choice((3, 4))
        k = 2
        family = families[i % len(families)]
        if family is None:
            # any displacement; at n = 5, 6 two intervals need not exist
            n = rng.choice((3, 4, 5, 6))
            word = random_word(rng, n, 40 if n > 4 else 96)
        else:
            word = family(rng, n, rng.randrange(2, 97))
            if i % 3 == 0:
                # a factor, as the synthesis searches: a non-zero target
                a, b = sorted(rng.sample(range(len(word) + 1), 2))
                word = word[a:b]
        if i % 50 == 0 and n <= 4:
            k = 3  # one interval more than needed: (0, 0), then the k = 2 search
        low_rank += n <= 4
        path = word_to_path(word, n)
        built.clear()
        expected = outcome(eager_k2_reference, path, k)
        assert outcome(burago_partition, path, k) == expected, (n, k, word)
        answer = expected if isinstance(expected, tuple) else None
        at = first_table_candidate(path, answer)
        assert bool(built) == (at is not None), (n, k, word)
        if answer is None:
            regimes["failed"] += 1
        elif at is None:
            regimes["scan"] += 1
        elif at[1] > at[0]:
            regimes["mid-row"] += 1
        else:
            regimes["row start"] += 1
    assert low_rank >= 2000
    assert regimes["scan"] and regimes["mid-row"] and regimes["failed"], regimes


def test_search_matches_the_reference_search():
    # K = floor((n+1)/2) intervals always exist; at K - 1 many searches fail,
    # and their payloads must be equal too. Factors have nonzero targets
    max_len = {3: 48, 4: 48, 5: 32, 6: 28, 7: 20, 8: 16, 9: 14, 10: 12}
    rng = random.Random(9001)
    failed = padded = 0
    for i in range(6000):
        n = 3 + i % 8
        k = grammar_params(n).k - 1 + i // 8 % 3
        family = i // 24 % 5
        length = rng.randrange(max_len[n] + 1)
        if family == 0:
            word = random_word(rng, n, max_len[n])
        elif family == 1:
            word = shuffled_pairs(rng, n, length)
        elif family == 2:
            word = walk_and_return(rng, n, length)
        elif family == 3:
            word = relabelled_block_word(rng, n, length)
        else:
            word = shuffled_pairs(rng, n, max_len[n])
            a, b = sorted(rng.sample(range(len(word) + 1), 2))
            word = word[a:b]
        path = word_to_path(word, n)
        expected = outcome(reference_partition, path, k)
        assert outcome(burago_partition, path, k) == expected, (n, k, word)
        if isinstance(expected, tuple):
            # leading (0, 0) pairs, then strictly increasing: the lattice lift relies on it
            rest = expected
            while rest[:2] == (0, 0):
                rest = rest[2:]
            assert list(rest) == sorted(set(rest)), (n, k, expected)
            padded += rest != expected
        else:
            failed += 1
    assert failed >= 50, failed
    assert padded >= 500, padded


def test_k3_and_up_build_the_pair_table_by_the_k2_rule(monkeypatch):
    # at k >= 3 the pair level scans the first row it reaches under the charge,
    # and builds the table when that row ends or the charge runs out; the
    # reference builds it before the search starts. The answers must be equal,
    # some searches must answer in that row without a table, and none may
    # build a second one
    pair_table = burago_module._pair_table
    built = []

    def recording_table(keys):
        built.append(len(keys))
        return pair_table(keys)

    monkeypatch.setattr(burago_module, "_pair_table", recording_table)
    max_len = {5: 32, 6: 28, 7: 20, 8: 16}
    rng = random.Random(3838)
    tables = {True: 0, False: 0}
    for i in range(600):
        n = 5 + i % 4
        k = grammar_params(n).k
        word = (shuffled_pairs, walk_and_return)[i // 4 % 2](rng, n, max_len[n])
        # a factor, as the synthesis searches: a non-zero target
        a, b = sorted(rng.sample(range(len(word) + 1), 2))
        path = word_to_path(word[a:b], n)
        built.clear()
        assert burago_partition(path, k) == reference_partition(path, k), (n, word[a:b])
        assert len(built) <= 1, (n, word[a:b])
        tables[bool(built)] += 1
    assert tables[False] >= 100 and tables[True] >= 100, tables


def test_search_is_symmetric_under_signed_axis_permutations():
    # the same tuple, or a failure on both sides; CI runs the same check at ranks 11-16
    max_len = {1: 64, 2: 64, 3: 48, 4: 48, 5: 32, 6: 28, 7: 20, 8: 16, 9: 14, 10: 12}
    rng = random.Random(4093)
    failed = 0
    for n, cap in max_len.items():
        differ, fails = search_symmetry(rng, n, 200, cap)
        assert not differ, (n, differ[:3])
        failed += fails
    assert failed >= 10, failed  # the failure path is compared too, not only the hits
