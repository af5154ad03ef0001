"""Command-line interface: exit codes, output shapes, file handling."""

from __future__ import annotations

import json
import sys

import pytest

from mcfgkit import (
    Derivation,
    Instance,
    RuleInstance,
    check_derivation,
    dumps_derivation,
    dumps_grammar,
    loads_derivation,
    loads_grammar,
    make_grammar,
    synthesize_word,
)
from mcfgkit.cli import DEFAULT_SEED, main, run

from conftest import make_abcd_grammar


def run_out(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_emit_grammar_stdout(capsys):
    code, out, _ = run_out(capsys, ["emit-grammar", "--n", "1"])
    assert code == 0
    assert out == dumps_grammar(make_grammar(1))
    assert loads_grammar(out) == make_grammar(1)


def test_emit_grammar_to_file(tmp_path, capsys):
    target = tmp_path / "g.json"
    code, out, _ = run_out(capsys, ["emit-grammar", "--n", "2", "--out", str(target)])
    assert code == 0
    assert target.read_text(encoding="utf-8") == dumps_grammar(make_grammar(2))


def test_check_member(capsys):
    code, out, _ = run_out(capsys, ["check", "--n", "1", "--word", "a1 A1"])
    assert code == 0
    assert "member" in out


def test_check_nonmember(capsys):
    code, out, _ = run_out(capsys, ["check", "--n", "1", "--word", "a1 a1"])
    assert code == 1
    assert "not a member" in out


def test_check_json_shape(capsys):
    code, out, _ = run_out(capsys, ["check", "--n", "2", "--word", "a1 A2", "--json"])
    assert code == 1
    assert json.loads(out) == {
        "n": 2,
        "word": ["a1", "A2"],
        "displacement": [1, -1],
        "member": False,
    }


def test_tokenizer_accepts_concatenated_terminals(capsys):
    code, out, _ = run_out(capsys, ["check", "--n", "12", "--word", "a12A12 a1A1"])
    assert code == 0


def test_tokenizer_rejects_foreign_text(capsys):
    code, _, err = run_out(capsys, ["check", "--n", "1", "--word", "a1 b2"])
    assert code == 2
    assert "cannot tokenize" in err


def test_derive_writes_checkable_derivation_to_stdout(capsys):
    code, out, _ = run_out(capsys, ["derive", "--n", "1", "--word", "A1 a1 a1 A1"])
    assert code == 0
    d = loads_derivation(out)
    final = check_derivation(make_grammar(1), d)
    assert final == Instance("S", (("A1", "a1", "a1", "A1"),))


def test_derive_nonmember_exits_one(capsys):
    code, out, _ = run_out(capsys, ["derive", "--n", "1", "--word", "a1"])
    assert code == 1
    assert "not a member" in out


def test_derive_out_file_then_verify(tmp_path, capsys):
    target = tmp_path / "d.json"
    word = "a1 a2 A1 A2 a1 A1"
    code, out, _ = run_out(
        capsys, ["derive", "--n", "2", "--word", word, "--out", str(target)]
    )
    assert code == 0
    assert str(target) in out

    code, out, _ = run_out(
        capsys,
        ["verify", "--n", "2", "--derivation", str(target), "--word", word, "--json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["final"]["nt"] == "S"
    assert report["final"]["components"] == [word.split()]


def test_verify_rejects_tampered_file(tmp_path, capsys):
    target = tmp_path / "d.json"
    run(["derive", "--n", "1", "--word", "a1 A1 A1 a1", "--out", str(target)])
    capsys.readouterr()
    data = json.loads(target.read_text(encoding="utf-8"))
    data["steps"][-1]["conclusion"]["components"][0] = ["a1", "a1", "A1", "A1"]
    target.write_text(json.dumps(data), encoding="utf-8")

    code, out, _ = run_out(capsys, ["verify", "--n", "1", "--derivation", str(target), "--json"])
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert report["code"] in (
        "unknown-rule", "premise-not-derived", "template-mismatch", "blocking-malformed",
    )
    assert isinstance(report["step"], int)


def test_verify_word_mismatch_exits_one(tmp_path, capsys):
    target = tmp_path / "d.json"
    run(["derive", "--n", "1", "--word", "a1 A1", "--out", str(target)])
    capsys.readouterr()
    code, out, _ = run_out(
        capsys, ["verify", "--n", "1", "--derivation", str(target), "--word", "A1 a1"]
    )
    assert code == 1
    assert "does not match" in out


def test_verify_with_grammar_file(tmp_path, capsys, abcd_grammar_file):
    steps = (
        RuleInstance.concrete(0, {}, "I", ((), ())),
        RuleInstance.concrete(
            1, {"x": (), "y": ()}, "I", (("a", "b"), ("c", "d")), (0,)
        ),
        RuleInstance.concrete(
            2, {"x": ("a", "b"), "y": ("c", "d")}, "S",
            (("a", "b", "c", "d"),), (1,)
        ),
    )
    target = tmp_path / "abcd_derivation.json"
    target.write_text(dumps_derivation(Derivation(steps)), encoding="utf-8")
    code, out, _ = run_out(
        capsys,
        ["verify", "--grammar", abcd_grammar_file,
         "--derivation", str(target), "--word", "abcd"],
    )
    assert code == 0
    assert "valid" in out


def test_verify_missing_file_exits_two(capsys):
    code, _, err = run_out(capsys, ["verify", "--n", "1", "--derivation", "/nonexistent.json"])
    assert code == 2
    assert "error" in err


def test_verify_malformed_file_exits_two(tmp_path, capsys):
    target = tmp_path / "broken.json"
    target.write_text("{]", encoding="utf-8")
    code, _, err = run_out(capsys, ["verify", "--n", "1", "--derivation", str(target)])
    assert code == 2
    assert "error" in err


def test_recognize_rejects_schema_grammars(capsys):
    code, _, err = run_out(capsys, ["recognize", "--n", "1", "--word", "a1 A1"])
    assert code == 2
    assert "error" in err


def test_recognize_grammar_file_member(capsys, abcd_grammar_file):
    code, out, _ = run_out(
        capsys, ["recognize", "--grammar", abcd_grammar_file, "--word", "aabbccdd"]
    )
    assert code == 0
    assert "recognized" in out


def test_recognize_grammar_file_nonmember(capsys, abcd_grammar_file):
    code, out, _ = run_out(
        capsys, ["recognize", "--grammar", abcd_grammar_file, "--word", "aabbcc"]
    )
    assert code == 1
    assert "not recognized" in out


def test_recognize_json_carries_witness(capsys, abcd_grammar_file):
    code, out, _ = run_out(
        capsys,
        ["recognize", "--grammar", abcd_grammar_file, "--word", "abcd", "--json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["recognized"] is True
    d = loads_derivation(json.dumps(report["derivation"]))
    assert len(d) == report["steps"]
    assert check_derivation(make_abcd_grammar(), d) == Instance("S", (("a", "b", "c", "d"),))


def test_burago_json_is_exact(capsys):
    code, out, _ = run_out(
        capsys, ["burago", "--n", "2", "--word", "a1 a1 a2 A1 A1", "--json"]
    )
    assert code == 0
    assert json.loads(out) == {"breakpoints": [4, 5], "doubled": True}
    assert out == '{\n  "breakpoints": [\n    4,\n    5\n  ],\n  "doubled": true\n}\n'


def test_burago_text_output(capsys):
    code, out, _ = run_out(capsys, ["burago", "--n", "1", "--word", "a1 a1"])
    assert code == 0
    assert "identity holds: True" in out


def test_burago_interval_count_override(capsys):
    code, out, _ = run_out(
        capsys, ["burago", "--n", "1", "--word", "a1 a1", "--k", "2", "--json"]
    )
    assert code == 0
    assert len(json.loads(out)["breakpoints"]) == 4


def test_xcheck_exhaustive_small(capsys):
    code, out, _ = run_out(capsys, ["xcheck", "--n", "1", "--max-len", "4", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "exhaustive"
    assert report["checked"] == 31  # all words of length <= 4 over two letters
    assert report["members"] == 9   # the zero-displacement ones among them
    assert report["mismatches"] == []


def test_xcheck_sampled(capsys):
    code, out, _ = run_out(
        capsys,
        ["xcheck", "--n", "2", "--sample", "40", "--max-len", "10",
         "--seed", "7", "--json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "sample"
    assert report["seed"] == 7
    assert report["checked"] == 40
    assert report["mismatches"] == []


def test_xcheck_default_seed_is_stable(capsys):
    argv = ["xcheck", "--n", "1", "--sample", "10", "--json"]
    code1, out1, _ = run_out(capsys, argv)
    code2, out2, _ = run_out(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["seed"] == DEFAULT_SEED


def test_xcheck_mismatch_exits_two(monkeypatch, capsys):
    # a synthesizer that refuses one member is a defect, reported with exit 2
    monkeypatch.setattr(
        "mcfgkit.cli.synthesize_word",
        lambda w, n: None if w == ("a1", "A1") else synthesize_word(w, n),
    )
    code, out, err = run_out(capsys, ["xcheck", "--n", "1", "--max-len", "2", "--json"])
    assert code == 2
    assert json.loads(out)["mismatches"] == [
        {"word": ["a1", "A1"], "member": True, "derived": False}
    ]
    assert "cross-check failed" in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["check", "--n", "0", "--word", ""],
        ["derive", "--n", "1"],
        ["verify", "--derivation", "x.json"],
        ["burago", "--word", "a1"],
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    assert run(argv) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_main_raises_system_exit(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["mcfgkit", "check", "--n", "1", "--word", "a1 A1"])
    with pytest.raises(SystemExit) as info:
        main()
    assert info.value.code == 0
    capsys.readouterr()
