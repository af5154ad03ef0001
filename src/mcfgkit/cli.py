"""Command-line front end.

Exit codes: 0 for a positive result, 1 for a valid negative answer
(non-membership, failed verification, unrecognized string), 2 for usage
errors, malformed files, internal invariant failures, or xcheck mismatches.
"""

from __future__ import annotations

import argparse
import random
import sys
from itertools import product
from typing import Sequence

from .burago import InternalInvariantError, burago_partition
from .derivation import (
    DerivationError,
    check_derivation,
    dumps_derivation,
    derivation_to_json_dict,
    loads_derivation,
)
from .grammar import (
    Grammar,
    GrammarFormatError,
    Word,
    canonical_json,
    dumps_grammar,
    loads_grammar,
)
from .recognize import SchemaPresentError, recognize_bounded
from .synthesis import synthesize_word
from .zn import alphabet, displacement, grammar_params, make_grammar, word_to_path

DEFAULT_SEED = 2026


def _tokenize(text: str, terminals: Sequence[str]) -> Word:
    """Split on whitespace, then greedily match the longest terminal."""
    ordered = sorted(set(terminals), key=len, reverse=True)
    tokens: list[str] = []
    for chunk in text.split():
        i = 0
        while i < len(chunk):
            for t in ordered:
                if chunk.startswith(t, i):
                    tokens.append(t)
                    i += len(t)
                    break
            else:
                raise ValueError(
                    f"cannot tokenize {chunk[i:]!r}: no terminal matches"
                )
    return tuple(tokens)


def _positive_dimension(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("dimension must be >= 1")
    return n


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_grammar_arg(args: argparse.Namespace) -> Grammar:
    if getattr(args, "grammar", None):
        with open(args.grammar, encoding="utf-8") as fh:
            return loads_grammar(fh.read())
    return make_grammar(args.n)


def _cmd_emit_grammar(args: argparse.Namespace) -> int:
    _emit(args, dumps_grammar(make_grammar(args.n)))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    word = _tokenize(args.word, alphabet(args.n))
    disp = displacement(word, args.n)
    member = not any(disp)
    if args.json:
        sys.stdout.write(canonical_json({
            "n": args.n,
            "word": list(word),
            "displacement": list(disp),
            "member": member,
        }))
    else:
        verdict = "member" if member else "not a member"
        print(f"{verdict}: displacement {disp}")
    return 0 if member else 1


def _cmd_derive(args: argparse.Namespace) -> int:
    word = _tokenize(args.word, alphabet(args.n))
    derivation = synthesize_word(word, args.n)
    if derivation is None:
        disp = displacement(word, args.n)
        if args.json:
            sys.stdout.write(canonical_json({
                "member": False,
                "displacement": list(disp),
            }))
        else:
            print(f"not a member: displacement {disp}")
        return 1
    # a synthesized derivation that fails its own checker is a defect
    check_derivation(make_grammar(args.n), derivation)
    text = dumps_derivation(derivation)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        if args.json:
            sys.stdout.write(canonical_json({
                "member": True,
                "steps": len(derivation),
                "written": args.out,
            }))
        else:
            print(f"wrote {len(derivation)} steps to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_grammar_arg(args)
    with open(args.derivation, encoding="utf-8") as fh:
        derivation = loads_derivation(fh.read())
    try:
        final = check_derivation(g, derivation)
    except DerivationError as exc:
        if args.json:
            sys.stdout.write(canonical_json({
                "valid": False,
                "step": exc.step,
                "code": exc.code,
                "message": exc.detail,
            }))
        else:
            print(f"invalid: {exc}")
        return 1
    if args.word is not None:
        word = _tokenize(args.word, g.terminals)
        if final.nt != g.start or final.components != (word,):
            if args.json:
                sys.stdout.write(canonical_json({
                    "valid": False,
                    "message": "final conclusion does not match the word",
                }))
            else:
                print("invalid: final conclusion does not match the word")
            return 1
    if args.json:
        sys.stdout.write(canonical_json({
            "valid": True,
            "steps": len(derivation),
            "final": {
                "nt": final.nt,
                "components": [list(c) for c in final.components],
            },
        }))
    else:
        print(f"valid: {len(derivation)} steps ending in {final.nt}")
    return 0


def _cmd_recognize(args: argparse.Namespace) -> int:
    g = _load_grammar_arg(args)
    word = _tokenize(args.word, g.terminals)
    accepted, witness = recognize_bounded(g, word)
    if not accepted:
        if args.json:
            sys.stdout.write(canonical_json({"recognized": False}))
        else:
            print("not recognized")
        return 1
    if args.json:
        sys.stdout.write(canonical_json({
            "recognized": True,
            "steps": len(witness),
            "derivation": derivation_to_json_dict(witness),
        }))
    else:
        print(f"recognized: witness with {len(witness)} steps")
    return 0


def _cmd_burago(args: argparse.Namespace) -> int:
    word = _tokenize(args.word, alphabet(args.n))
    path = word_to_path(word, args.n)
    k = args.k if args.k is not None else grammar_params(args.n).k
    partition = burago_partition(path, k)
    if args.json:
        sys.stdout.write(canonical_json(partition.to_json_dict()))
    else:
        print(f"breakpoints (doubled parameters): {list(partition.breakpoints)}")
        print(f"interval sum (doubled): {partition.sum_of_differences()}")
        print(f"identity holds: {partition.satisfies_identity()}")
    return 0


def _zero_displacement_sample(rng: random.Random, n: int, max_len: int) -> Word:
    pairs = rng.randrange(max_len // 2 + 1)
    letters: list[str] = []
    for _ in range(pairs):
        axis = rng.randrange(1, n + 1)
        letters.append(f"a{axis}")
        letters.append(f"A{axis}")
    rng.shuffle(letters)
    return tuple(letters)


def _cmd_xcheck(args: argparse.Namespace) -> int:
    letters = alphabet(args.n)
    g = make_grammar(args.n)
    words: list[Word]
    if args.sample is None:
        words = [
            w
            for length in range(args.max_len + 1)
            for w in product(letters, repeat=length)
        ]
        mode = "exhaustive"
    else:
        rng = random.Random(args.seed)
        words = []
        for i in range(args.sample):
            if i % 2 == 0:
                length = rng.randrange(args.max_len + 1)
                words.append(tuple(rng.choice(letters) for _ in range(length)))
            else:
                words.append(_zero_displacement_sample(rng, args.n, args.max_len))
        mode = "sample"
    members = 0
    mismatches: list[dict] = []
    for w in words:
        member = not any(displacement(w, args.n))
        derivation = synthesize_word(w, args.n)
        if (derivation is None) == member:
            mismatches.append({
                "word": list(w),
                "member": member,
                "derived": derivation is not None,
            })
            continue
        if derivation is not None:
            members += 1
            try:
                final = check_derivation(g, derivation)
                if final.nt != g.start or final.components != (w,):
                    raise DerivationError(len(derivation) - 1, "final-mismatch",
                                          "conclusion differs from the word")
            except DerivationError as exc:
                mismatches.append({"word": list(w), "checker": str(exc)})
    mismatches.sort(key=lambda entry: entry["word"])
    if args.json:
        sys.stdout.write(canonical_json({
            "n": args.n,
            "max_len": args.max_len,
            "mode": mode,
            "seed": args.seed if mode == "sample" else None,
            "checked": len(words),
            "members": members,
            "mismatches": mismatches,
        }))
    else:
        print(f"checked {len(words)} words (n={args.n}, max length {args.max_len}, "
              f"{mode}): {members} members, {len(mismatches)} mismatches")
        for entry in mismatches:
            print(f"  mismatch: {entry}")
    if mismatches:
        print("cross-check failed: derive and check disagree", file=sys.stderr)
        return 2
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcfgkit",
        description="Derivation tools for the zero-displacement word languages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_common(p: argparse.ArgumentParser, word: bool = True,
                    json_flag: bool = True) -> None:
        if word:
            p.add_argument("--word", required=True,
                           help="space-separated tokens (unspaced runs are split greedily)")
        if json_flag:
            p.add_argument("--json", action="store_true",
                           help="emit a machine-readable JSON payload")

    p = sub.add_parser("emit-grammar", help="print the grammar for rank n as JSON")
    p.add_argument("--n", type=_positive_dimension, required=True)
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(handler=_cmd_emit_grammar)

    p = sub.add_parser("check", help="membership by displacement")
    p.add_argument("--n", type=_positive_dimension, required=True)
    with_common(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("derive", help="synthesize a derivation for a word")
    p.add_argument("--n", type=_positive_dimension, required=True)
    with_common(p)
    p.add_argument("--out", help="write the derivation to a file")
    p.set_defaults(handler=_cmd_derive)

    p = sub.add_parser("verify", help="check a derivation file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=_positive_dimension)
    group.add_argument("--grammar", help="grammar JSON file")
    p.add_argument("--derivation", required=True, help="derivation JSON file")
    p.add_argument("--word", help="also require the final conclusion to match")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("recognize", help="bounded recognition (schema-free grammars)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=_positive_dimension)
    group.add_argument("--grammar", help="grammar JSON file")
    with_common(p)
    p.set_defaults(handler=_cmd_recognize)

    p = sub.add_parser("burago", help="breakpoints hitting half the displacement")
    p.add_argument("--n", type=_positive_dimension, required=True)
    with_common(p)
    p.add_argument("--k", type=int, help="interval count (default: floor((n+1)/2))")
    p.set_defaults(handler=_cmd_burago)

    p = sub.add_parser("xcheck", help="sweep words, cross-checking derive against check")
    p.add_argument("--n", type=_positive_dimension, required=True)
    p.add_argument("--max-len", type=int, default=6, dest="max_len")
    p.add_argument("--sample", type=int,
                   help="sample this many words instead of sweeping exhaustively")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"sampling seed (default {DEFAULT_SEED})")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_xcheck)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except InternalInvariantError as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return 2
    except (GrammarFormatError, SchemaPresentError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())
