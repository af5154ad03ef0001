"""Shared fixtures and hypothesis settings for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from mcfgkit import Grammar, Rule, dumps_grammar, refine_and_split, term, var

settings.register_profile("suite", max_examples=60, derandomize=True, deadline=None)
settings.load_profile("suite")


def make_abcd_grammar() -> Grammar:
    """The classic arity-2 grammar for { a^j b^j c^j d^j }."""
    return Grammar(
        terminals=("a", "b", "c", "d"),
        nonterminals=(("S", 1), ("I", 2)),
        start="S",
        rules=(
            Rule("I", ((), ())),
            Rule(
                "I",
                ((term("a"), var("x"), term("b")),
                 (term("c"), var("y"), term("d"))),
                (("I", ("x", "y")),),
            ),
            Rule("S", ((var("x"), var("y")),), (("I", ("x", "y")),)),
        ),
    )


@pytest.fixture
def abcd_grammar() -> Grammar:
    return make_abcd_grammar()


@pytest.fixture
def split_ks(monkeypatch) -> list[int]:
    """Records the k of every refine_and_split call the synthesizer makes."""
    seen: list[int] = []

    def counting_split(path, x, k):
        seen.append(k)
        return refine_and_split(path, x, k)

    monkeypatch.setattr("mcfgkit.synthesis.refine_and_split", counting_split)
    return seen


@pytest.fixture
def abcd_grammar_file(tmp_path) -> str:
    path = tmp_path / "abcd_grammar.json"
    path.write_text(dumps_grammar(make_abcd_grammar()), encoding="utf-8")
    return str(path)
