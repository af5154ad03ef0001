"""Breakpoint search: interval sums hitting half the path displacement."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcfgkit import (
    InternalInvariantError,
    SegmentPartition,
    burago_partition,
    grammar_params,
    vadd,
    word_to_path,
)

from wordgen import random_word


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
    assert path.points[-1] == (0, 2)


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
    doubled_sum = vadd(part.sum_of_differences(), part.sum_of_differences())
    assert doubled_sum == path.points[-1]
