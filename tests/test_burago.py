"""Breakpoint search: interval sums hitting half the path displacement."""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import repeat

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mcfgkit.burago as burago_module
from mcfgkit import (
    InternalInvariantError,
    SegmentPartition,
    burago_partition,
    grammar_params,
    l1,
    make_token,
    word_to_path,
)

from wordgen import (
    block_word,
    lex_min_reference,
    points,
    random_word,
    shuffled_pairs,
    walk_and_return,
)


def test_frozen_examples():
    assert burago_partition(word_to_path(("a1", "a1"), 1), 1).breakpoints == (0, 2)
    assert burago_partition(
        word_to_path(("a1", "a2", "A1", "A2"), 2), 1
    ).breakpoints == (0, 0)
    assert burago_partition(
        word_to_path(("a1", "a1", "a2", "A1", "A1"), 2), 1
    ).breakpoints == (4, 5)


def test_breakpoints_are_lexicographically_minimal():
    # any later s would also work here, so the search must stop at s = 2
    part = burago_partition(word_to_path(("a1", "A1", "a1", "a1"), 1), 1)
    assert part.breakpoints == (0, 2)


def test_partition_identity_and_shape():
    path = word_to_path(("a1", "a1", "a2", "A1", "A1"), 2)
    part = burago_partition(path, 1)
    assert part.k == 1
    assert part.breakpoints == (4, 5)
    assert part.sum_of_differences() == (0, 1)
    assert part.satisfies_identity()
    assert path.vector(path.keys[-1]) == (0, 2)


def test_json_shape():
    part = burago_partition(word_to_path(("a1", "a1"), 1), 1)
    assert part.to_json_dict() == {"breakpoints": [0, 2], "doubled": True}


def test_partition_validation():
    path = word_to_path(("a1", "a1"), 1)
    with pytest.raises(ValueError):
        SegmentPartition(path, 1, (0, 1, 2))  # wrong count
    with pytest.raises(ValueError):
        SegmentPartition(path, 1, (2, 0))  # out of order
    with pytest.raises(ValueError):
        SegmentPartition(path, 1, (-1, 2))  # before the path's start
    with pytest.raises(ValueError):
        SegmentPartition(path, 1, (0, 2 * len(path) + 1))  # past the path's end
    with pytest.raises(ValueError):
        burago_partition(path, 0)


def test_extra_intervals_are_allowed():
    part = burago_partition(word_to_path(("a1", "a1"), 1), 2)
    assert len(part.breakpoints) == 4
    assert part.satisfies_identity()


def test_empty_path():
    part = burago_partition(word_to_path((), 1), 1)
    assert part.breakpoints == (0, 0)
    assert part.satisfies_identity()


def test_three_axis_diagonal_needs_two_intervals():
    path = word_to_path(("a1", "a2", "a3"), 3)
    with pytest.raises(InternalInvariantError) as info:
        burago_partition(path, 1)
    assert info.value.payload["k"] == 1
    part = burago_partition(path, 2)
    assert part.breakpoints == (0, 1, 3, 5)
    assert part.satisfies_identity()


@given(st.integers(1, 4), st.integers(0, 10 ** 9))
def test_identity_on_random_paths(n, seed):
    rng = random.Random(seed)
    word = random_word(rng, n, 16)
    path = word_to_path(word, n)
    k = grammar_params(n).k
    part = burago_partition(path, k)
    assert len(part.breakpoints) == 2 * k
    assert all(0 <= b <= 2 * len(path) for b in part.breakpoints)
    assert all(
        a <= b for a, b in zip(part.breakpoints, part.breakpoints[1:])
    )
    assert part.satisfies_identity()
    assert tuple(2 * c for c in part.sum_of_differences()) == points(path)[-1]


def test_breakpoints_match_brute_force_lex_min():
    # the last interval's difference (-2, 0, 1) is also taken from t = 0, before
    # s1 = 1; only a later pair with that difference may follow the first interval
    path = word_to_path(("a1", "A1", "a2", "A1", "A2", "a3"), 3)
    assert burago_partition(path, 2).breakpoints == lex_min_reference(path, 2) == (0, 1, 4, 11)

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
                    assert burago_partition(path, k).breakpoints == expected, path.steps
    assert failures  # the failure path is exercised, not only the hits


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
            assert burago_partition(path, k).breakpoints == lex_min_reference(path, k), word
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
    relabel = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
    flip = {axis: rng.choice((1, -1)) for axis in relabel}
    steps = word_to_path(block_word(n, max(1, length // (2 * n))), n).steps
    return tuple(make_token(relabel[axis], flip[axis] * sign) for axis, sign in steps)


def test_scan_first_search_matches_eager_table(monkeypatch):
    # the pair table is built only once the scans have cost a third of it;
    # tuples and failure payloads must not depend on when, or whether, it is
    pair_table = burago_module._pair_table
    built = []

    def recording_table(keys):
        built.append(len(keys))
        return pair_table(keys)

    def scan_first(path, k):
        return burago_partition(path, k).breakpoints

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
        assert outcome(scan_first, path, k) == expected, (n, k, word)
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
