"""Command-line interface: exit codes, output shapes, file handling."""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from mcfgkit import (
    Derivation,
    Grammar,
    Instance,
    InternalInvariantError,
    Rule,
    RuleInstance,
    check_derivation,
    dumps_derivation,
    dumps_grammar,
    loads_derivation,
    loads_grammar,
    make_grammar,
    synthesize_word,
    term,
)
from mcfgkit import cli
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


@pytest.mark.parametrize("word, code, err", [
    ("b", 2, "error: cannot tokenize 'b': no terminal matches\n"),
    ("a ab", 2, "error: cannot tokenize 'b': no terminal matches\n"),
    ("a", 0, ""),
])
def test_tokenizer_never_matches_the_empty_terminal(tmp_path, word, code, err):
    # an empty terminal matches without advancing; run in a child process with a
    # short timeout so that a tokenizer spinning on it fails instead of hanging
    g = Grammar(terminals=("a", ""), nonterminals=(("S", 1),), start="S",
                rules=(Rule("S", ((term("a"),),)),))
    grammar = tmp_path / "g.json"
    grammar.write_text(dumps_grammar(g), encoding="utf-8")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "mcfgkit.cli", "recognize", "--grammar", str(grammar),
         "--word", word], cwd=root, env=env, capture_output=True, text=True, timeout=5)
    assert (proc.returncode, proc.stderr) == (code, err)


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


def test_verify_rejects_a_misspelled_grammar_key(capsys, tmp_path):
    # "schemas" spelled "schema" must not load as a schema-free grammar, which
    # would reject every combine step of a correct derivation
    text = dumps_grammar(make_grammar(1)).replace('"schemas"', '"schema"')
    grammar = tmp_path / "g.json"
    grammar.write_text(text, encoding="utf-8")
    derivation = tmp_path / "d.json"
    derivation.write_text(dumps_derivation(synthesize_word(("a1", "a1", "A1", "A1"), 1)),
                          encoding="utf-8")
    code, out, err = run_out(
        capsys, ["verify", "--grammar", str(grammar), "--derivation", str(derivation)])
    assert (code, out, err) == (2, "", "error: grammar: unknown key 'schema'\n")


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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "1", "--derivation", "{deep}"],
        ["recognize", "--grammar", "{deep}", "--word", "ab"],
    ],
)
def test_deeply_nested_json_exits_two(tmp_path, capsys, argv):
    target = tmp_path / "deep.json"
    target.write_text("[" * 200_000, encoding="utf-8")
    code, out, err = run_out(capsys, [a.replace("{deep}", str(target)) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid JSON: ")
    assert err.count("\n") == 1


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


def test_burago_many_intervals_pad_with_empty_ones(capsys):
    # k far beyond the rank's k must not recurse k deep
    code, out, _ = run_out(
        capsys, ["burago", "--n", "1", "--word", "a1 a1", "--k", "5000", "--json"]
    )
    assert code == 0
    assert json.loads(out)["breakpoints"] == [0] * 9998 + [0, 2]


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


def test_xcheck_sample_draws_pinned_words(monkeypatch, capsys):
    # the sampler's order of rng calls fixes the words a seed draws
    drawn = []

    def recording(w, n):
        drawn.append(" ".join(w))
        return synthesize_word(w, n)

    monkeypatch.setattr("mcfgkit.cli.synthesize_word", recording)
    argv = ["xcheck", "--n", "2", "--sample", "6", "--max-len", "8", "--seed", "5"]
    assert run_out(capsys, argv)[0] == 0
    assert drawn == [
        "a2 a1 A2 A1", "", "a1 a2", "A1 A2 a2 a1 A1 a1",
        "a2 A1 A2 A1 a1 A1", "A1 a1 A1 a1 A1 a1 A2 a2",
    ]


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


def test_xcheck_reports_invariant_failures_per_word(monkeypatch, capsys):
    # a synthesizer that fails an internal invariant on one word; the sweep goes on
    def flaky(w, n):
        if w == ("a1", "A1"):
            raise InternalInvariantError("no breakpoints", {"word": list(w)})
        return synthesize_word(w, n)

    monkeypatch.setattr("mcfgkit.cli.synthesize_word", flaky)
    code, out, err = run_out(capsys, ["xcheck", "--n", "1", "--max-len", "4", "--json"])
    assert code == 2
    report = json.loads(out)
    assert report["checked"] == 31
    assert report["members"] == 8
    assert report["mismatches"] == [
        {"word": ["a1", "A1"], "invariant": "no breakpoints: {'word': ['a1', 'A1']}"}
    ]
    assert "cross-check failed" in err


def test_xcheck_reports_checker_refusals_per_word(monkeypatch, capsys):
    # a synthesizer that answers a member with another word's derivation: the
    # checker accepts every step, but the conclusion is not the word
    monkeypatch.setattr(
        "mcfgkit.cli.synthesize_word",
        lambda w, n: synthesize_word(("A1", "a1") if w == ("a1", "A1") else w, n),
    )
    code, out, err = run_out(capsys, ["xcheck", "--n", "1", "--max-len", "2", "--json"])
    assert code == 2
    assert json.loads(out)["mismatches"] == [
        {"checker": "step 3: final-mismatch: conclusion differs from the word", "word": ["a1", "A1"]}
    ]
    assert "cross-check failed" in err


def failing_synthesis(w, n):
    raise InternalInvariantError("no breakpoints", {"word": list(w)})


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("argv, code, synthesis", [
    (["check", "--n", "1", "--word", "a1 A1"], 0, synthesize_word),
    (["check", "--n", "1", "--word", "a1 a1"], 1, synthesize_word),
    (["derive", "--n", "1", "--word", "zz"], 2, synthesize_word),
    (["derive", "--n", "1"], 2, synthesize_word),
    (["derive", "--n", "1", "--word", "a1 A1"], 2, failing_synthesis),
], ids=["exit-0", "exit-1", "handler-value-error", "usage-error", "internal-invariant"])
def test_run_leaves_the_collector_as_it_found_it(monkeypatch, enabled, argv, code, synthesis):
    monkeypatch.setattr("mcfgkit.cli.synthesize_word", synthesis)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_commands_run_with_the_collector_paused(monkeypatch, capsys):
    seen = []

    def recording(w, n):
        seen.append(gc.isenabled())
        return synthesize_word(w, n)

    monkeypatch.setattr("mcfgkit.cli.synthesize_word", recording)
    was = gc.isenabled()
    gc.enable()
    try:
        code, _, _ = run_out(capsys, ["derive", "--n", "1", "--word", "a1 A1"])
        assert code == 0 and seen == [False] and gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


def test_verify_rejects_boolean_rule_index(tmp_path, capsys):
    target = tmp_path / "d.json"
    run(["derive", "--n", "1", "--word", "a1 A1 A1 a1", "--out", str(target)])
    capsys.readouterr()
    data = json.loads(target.read_text(encoding="utf-8"))
    step = next(s for s in data["steps"] if s["rule"] == {"index": 1})
    step["rule"]["index"] = True
    target.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_out(capsys, ["verify", "--n", "1", "--derivation", str(target)])
    assert code == 2
    assert out == ""
    assert "rule index must be an integer" in err


def test_verify_rejects_unknown_keys(tmp_path, capsys):
    target = tmp_path / "d.json"
    run(["derive", "--n", "1", "--word", "a1 A1 A1 a1", "--out", str(target)])
    capsys.readouterr()
    data = json.loads(target.read_text(encoding="utf-8"))
    index = next(i for i, s in enumerate(data["steps"]) if s["rule"] == {"index": 1})
    data["steps"][index]["rule"]["blocking"] = [[1]]
    target.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_out(capsys, ["verify", "--n", "1", "--derivation", str(target)])
    assert code == 2
    assert out == ""
    assert err == f"error: step {index}: rule must be 'index' alone or 'schema' with 'blocking'\n"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["check", "--n", "0", "--word", ""],
        ["derive", "--n", "1"],
        ["verify", "--derivation", "x.json"],
        ["burago", "--word", "a1"],
        ["xcheck", "--n", "1", "--max-len", "-1"],
        ["xcheck", "--n", "1", "--sample", "-1"],
        ["xcheck", "--n", "1", "--sample", "3", "--max-len", "-1"],
        ["verify", "--grammar", "", "--derivation", "x.json"],
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    assert run(argv) == 2
    capsys.readouterr()


# The exact stdout, stderr and exit code of every subcommand in text and
# --json modes. "{tmp}" stands for the test's directory, which holds d.json
# (a derivation of "a1 A1 A1 a1" at n = 1), bad.json (the same with its final
# conclusion tampered) and g.json (the a^j b^j c^j d^j grammar). Long texts
# are pinned by "sha256:" digest. A fifth entry pins the digest of the file
# written to --out.
GOLDEN = [
    ("emit-grammar --n 1", 0,
     "sha256:709c4e2532b3fa1406e91aaaceddbf3da18eb3f0c63f58eb465aba6785f0e341", ""),
    ("emit-grammar --n 1 --out {tmp}/g1.json", 0, "", "",
     "sha256:709c4e2532b3fa1406e91aaaceddbf3da18eb3f0c63f58eb465aba6785f0e341"),
    ("check --n 2 --word 'a1 a2 A1 A2'", 0, "member: displacement (0, 0)\n", ""),
    ("check --n 2 --word 'a1 a2 A1 A2' --json", 0,
     '{\n  "displacement": [\n    0,\n    0\n  ],\n  "member": true,\n  "n": 2,\n'
     '  "word": [\n    "a1",\n    "a2",\n    "A1",\n    "A2"\n  ]\n}\n', ""),
    ("check --n 2 --word 'a1 A2'", 1, "not a member: displacement (1, -1)\n", ""),
    ("check --n 2 --word 'a1 A2' --json", 1,
     '{\n  "displacement": [\n    1,\n    -1\n  ],\n  "member": false,\n  "n": 2,\n'
     '  "word": [\n    "a1",\n    "A2"\n  ]\n}\n', ""),
    ("check --n 1 --word 'a1 b2'", 2, "",
     "error: cannot tokenize 'b2': no terminal matches\n"),
    ("derive --n 1 --word 'a1 A1'", 0,
     "sha256:f8f077ad5e6b637bb7b89a2c64ab802647d8faf7a09f4a1c188469ab08be70d5", ""),
    ("derive --n 1 --word 'a1 A1' --json", 0,
     "sha256:f8f077ad5e6b637bb7b89a2c64ab802647d8faf7a09f4a1c188469ab08be70d5", ""),
    ("derive --n 1 --word a1", 1, "not a member: displacement (1,)\n", ""),
    ("derive --n 1 --word a1 --json", 1,
     '{\n  "displacement": [\n    1\n  ],\n  "member": false\n}\n', ""),
    ("derive --n 2 --word 'a1 a2 A1 A2 a1 A1' --out {tmp}/out.json", 0,
     "wrote 7 steps to {tmp}/out.json\n", "",
     "sha256:a5d55454b26695e28a1a8f4e3144352a5b105ef8b0a5836325c39456d36212bf"),
    ("derive --n 2 --word 'a1 a2 A1 A2 a1 A1' --out {tmp}/out.json --json", 0,
     '{\n  "member": true,\n  "steps": 7,\n  "written": "{tmp}/out.json"\n}\n', "",
     "sha256:a5d55454b26695e28a1a8f4e3144352a5b105ef8b0a5836325c39456d36212bf"),
    ("verify --n 1 --derivation {tmp}/d.json", 0, "valid: 5 steps ending in S\n", ""),
    ("verify --n 1 --derivation {tmp}/d.json --json", 0,
     '{\n  "final": {\n    "components": [\n      [\n        "a1",\n        "A1",\n'
     '        "A1",\n        "a1"\n      ]\n    ],\n    "nt": "S"\n  },\n'
     '  "steps": 5,\n  "valid": true\n}\n', ""),
    ("verify --n 1 --derivation {tmp}/d.json --word 'a1 A1 A1 a1'", 0,
     "valid: 5 steps ending in S\n", ""),
    ("verify --n 1 --derivation {tmp}/d.json --word 'a1 A1 A1 a1' --json", 0,
     '{\n  "final": {\n    "components": [\n      [\n        "a1",\n        "A1",\n'
     '        "A1",\n        "a1"\n      ]\n    ],\n    "nt": "S"\n  },\n'
     '  "steps": 5,\n  "valid": true\n}\n', ""),
    ("verify --n 1 --derivation {tmp}/d.json --word 'A1 a1'", 1,
     "invalid: final conclusion does not match the word\n", ""),
    ("verify --n 1 --derivation {tmp}/d.json --word 'A1 a1' --json", 1,
     '{\n  "message": "final conclusion does not match the word",\n  "valid": false\n}\n',
     ""),
    ("verify --n 1 --derivation {tmp}/bad.json", 1,
     "invalid: step 4: template-mismatch: conclusion does not equal the instantiated "
     "templates\n", ""),
    ("verify --n 1 --derivation {tmp}/bad.json --json", 1,
     '{\n  "code": "template-mismatch",\n  "message": "conclusion does not equal the '
     'instantiated templates",\n  "step": 4,\n  "valid": false\n}\n', ""),
    ("verify --grammar {tmp}/g.json --derivation {tmp}/d.json", 1,
     "invalid: step 0: premise-not-derived: rule 2 needs 1 premises, got 0\n", ""),
    ("verify --n 1 --derivation {tmp}/missing.json", 2, "",
     "error: [Errno 2] No such file or directory: '{tmp}/missing.json'\n"),
    ("recognize --grammar {tmp}/g.json --word aabbccdd", 0,
     "recognized: witness with 4 steps\n", ""),
    ("recognize --grammar {tmp}/g.json --word abcd --json", 0,
     "sha256:c59cda913091f576a4b7037321d77de77aa00a72dea493a8f68c32f823ad5cc8", ""),
    ("recognize --grammar {tmp}/g.json --word aabbcc", 1, "not recognized\n", ""),
    ("recognize --grammar {tmp}/g.json --word aabbcc --json", 1,
     '{\n  "recognized": false\n}\n', ""),
    ("recognize --n 1 --word 'a1 A1'", 2, "",
     "error: recognition requires a schema-free grammar; expand or avoid schemas\n"),
    ("burago --n 2 --word 'a1 a1 a2 A1 A1'", 0,
     "breakpoints (doubled parameters): [4, 5]\ninterval sum (doubled): (0, 1)\n"
     "identity holds: True\n", ""),
    ("burago --n 2 --word 'a1 a1 a2 A1 A1' --json", 0,
     '{\n  "breakpoints": [\n    4,\n    5\n  ],\n  "doubled": true\n}\n', ""),
    ("burago --n 1 --word 'a1 a1' --k 2", 0,
     "breakpoints (doubled parameters): [0, 0, 0, 2]\ninterval sum (doubled): (2,)\n"
     "identity holds: True\n", ""),
    ("burago --n 1 --word 'a1 a1' --k 7", 0,
     "breakpoints (doubled parameters): [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2]\n"
     "interval sum (doubled): (2,)\nidentity holds: True\n", ""),
    ("burago --n 3 --word 'a1 a2 a3'", 0,
     "breakpoints (doubled parameters): [0, 1, 3, 5]\ninterval sum (doubled): (1, 1, 1)\n"
     "identity holds: True\n", ""),
    ("burago --n 3 --word 'a1 a2 a3' --k 1", 2, "",
     "internal invariant failed: no breakpoint tuple reaches half the displacement: "
     "{'n': 3, 'steps': ((1, 1), (2, 1), (3, 1)), 'k': 1, 'target_doubled': (1, 1, 1)}\n"),
    ("xcheck --n 1 --max-len 4", 0,
     "checked 31 words (n=1, max length 4, exhaustive): 9 members, 0 mismatches\n", ""),
    ("xcheck --n 1 --max-len 4 --json", 0,
     '{\n  "checked": 31,\n  "max_len": 4,\n  "members": 9,\n  "mismatches": [],\n'
     '  "mode": "exhaustive",\n  "n": 1,\n  "seed": null\n}\n', ""),
    ("xcheck --n 2 --sample 12 --max-len 10 --seed 7", 0,
     "checked 12 words (n=2, max length 10, sample): 8 members, 0 mismatches\n", ""),
    ("xcheck --n 2 --sample 12 --max-len 10 --seed 7 --json", 0,
     '{\n  "checked": 12,\n  "max_len": 10,\n  "members": 8,\n  "mismatches": [],\n'
     '  "mode": "sample",\n  "n": 2,\n  "seed": 7\n}\n', ""),
    # usage errors print each subcommand's usage line, which pins option order
    ("emit-grammar", 2, "",
     "usage: mcfgkit emit-grammar [-h] --n N [--out OUT]\n"
     "mcfgkit emit-grammar: error: the following arguments are required: --n\n"),
    ("check --n 0 --word a1", 2, "",
     "usage: mcfgkit check [-h] --n N --word WORD [--json]\n"
     "mcfgkit check: error: argument --n: dimension must be >= 1\n"),
    ("check --n x --word a1", 2, "",
     "usage: mcfgkit check [-h] --n N --word WORD [--json]\n"
     "mcfgkit check: error: argument --n: invalid int value: 'x'\n"),
    ("derive --n 1", 2, "",
     "usage: mcfgkit derive [-h] --n N --word WORD [--json] [--out OUT]\n"
     "mcfgkit derive: error: the following arguments are required: --word\n"),
    ("verify --derivation x.json", 2, "",
     "usage: mcfgkit verify [-h] (--n N | --grammar GRAMMAR) --derivation DERIVATION\n"
     "                      [--word WORD] [--json]\n"
     "mcfgkit verify: error: one of the arguments --n --grammar is required\n"),
    ("recognize --word x", 2, "",
     "usage: mcfgkit recognize [-h] (--n N | --grammar GRAMMAR) --word WORD [--json]\n"
     "mcfgkit recognize: error: one of the arguments --n --grammar is required\n"),
    ("burago --word a1", 2, "",
     "usage: mcfgkit burago [-h] --n N --word WORD [--json] [--k K]\n"
     "mcfgkit burago: error: the following arguments are required: --n\n"),
    ("burago --n 1 --word 'a1 a1' --k 0", 2, "",
     "usage: mcfgkit burago [-h] --n N --word WORD [--json] [--k K]\n"
     "mcfgkit burago: error: argument --k: k must be >= 1\n"),
    ("xcheck", 2, "",
     "usage: mcfgkit xcheck [-h] --n N [--max-len MAX_LEN] [--sample SAMPLE]\n"
     "                      [--seed SEED] [--json]\n"
     "mcfgkit xcheck: error: the following arguments are required: --n\n"),
    ("xcheck --n 1 --max-len x", 2, "",
     "usage: mcfgkit xcheck [-h] --n N [--max-len MAX_LEN] [--sample SAMPLE]\n"
     "                      [--seed SEED] [--json]\n"
     "mcfgkit xcheck: error: argument --max-len: invalid int value: 'x'\n"),
]


def _pinned(text, expected):
    if expected.startswith("sha256:"):
        return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
    return text


@pytest.mark.parametrize("case", GOLDEN, ids=[case[0] for case in GOLDEN])
def test_golden_output(tmp_path, monkeypatch, capsys, case):
    argv, code, out, err, *written = case
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    tmp = str(tmp_path)
    d = synthesize_word(("a1", "A1", "A1", "a1"), 1)
    (tmp_path / "d.json").write_text(dumps_derivation(d), encoding="utf-8")
    data = json.loads(dumps_derivation(d))
    data["steps"][-1]["conclusion"]["components"][0] = ["a1", "a1", "A1", "A1"]
    (tmp_path / "bad.json").write_text(json.dumps(data), encoding="utf-8")
    (tmp_path / "g.json").write_text(dumps_grammar(make_abcd_grammar()), encoding="utf-8")

    args = [a.replace("{tmp}", tmp) for a in shlex.split(argv)]
    got_code, got_out, got_err = run_out(capsys, args)
    assert got_code == code
    assert _pinned(got_out, out) == out.replace("{tmp}", tmp)
    assert _pinned(got_err, err) == err.replace("{tmp}", tmp)
    if written:
        target = args[args.index("--out") + 1]
        with open(target, encoding="utf-8") as fh:
            assert _pinned(fh.read(), written[0]) == written[0]


def test_bench_tracer_sites_resolve(monkeypatch):
    # bench/tracing.py wraps these module globals; each must stay a callable
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    assert tracing.SITES
    for module_name, attr, _ in tracing.SITES:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), attr


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_one_parser_serves_every_call(tmp_path, monkeypatch, capsys):
    # run builds its parser once per process; no option or error may carry
    # over from one call to the next
    monkeypatch.setenv("COLUMNS", "80")
    word = "a1 a2 A1 A2 a1 A1"
    target = str(tmp_path / "out.json")
    usage_error = ["check", "--n", "0", "--word", "a1"]
    sequence = [
        usage_error,
        ["--help"],
        ["derive", "--n", "2", "--word", word, "--out", target],
        ["derive", "--n", "2", "--word", word],
        usage_error,
    ]
    fresh = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        fresh.append(run_out(capsys, argv))

    cli._build_parser.cache_clear()
    parser = cli._build_parser()
    assert [run_out(capsys, argv) for argv in sequence] == fresh
    assert cli._build_parser() is parser
    assert cli._build_parser() is cli._build_parser()

    derivation = synthesize_word(tuple(word.split()), 2)
    assert fresh[3] == (0, dumps_derivation(derivation), "")
    assert fresh[2] == (0, f"wrote {len(derivation)} steps to {target}\n", "")
    assert fresh[0][0] == 2 and fresh[0][2].endswith("argument --n: dimension must be >= 1\n")
    assert fresh[1][0] == 0 and fresh[1][1].startswith("usage: mcfgkit [-h]")


def test_usage_wraps_to_the_current_terminal_width(monkeypatch, capsys):
    # argparse sizes its formatter when it prints, so a kept parser still
    # follows COLUMNS from call to call
    argv = ["verify", "--derivation", "x.json"]
    error = "mcfgkit verify: error: one of the arguments --n --grammar is required\n"
    monkeypatch.setenv("COLUMNS", "80")
    assert run_out(capsys, argv) == (2, "", (
        "usage: mcfgkit verify [-h] (--n N | --grammar GRAMMAR) --derivation DERIVATION\n"
        "                      [--word WORD] [--json]\n" + error))
    monkeypatch.setenv("COLUMNS", "200")
    assert run_out(capsys, argv) == (2, "", (
        "usage: mcfgkit verify [-h] (--n N | --grammar GRAMMAR) --derivation DERIVATION "
        "[--word WORD] [--json]\n" + error))


def test_main_raises_system_exit(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["mcfgkit", "check", "--n", "1", "--word", "a1 A1"])
    with pytest.raises(SystemExit) as info:
        main()
    assert info.value.code == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv, code, out", [
    (["check", "--n", "1", "--word", "a1 A1"], 0, "member: displacement (0,)\n"),
    (["derive", "--n", "1", "--word", "a1"], 1, "not a member: displacement (1,)\n"),
])
def test_python_m_runs_the_cli(argv, code, out):
    # without the entry point installed, `python3 -m mcfgkit.cli` must still run
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-m", "mcfgkit.cli", *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, out)
