"""Command-line front end.

Exit codes: 0 for a positive result, 1 for a valid negative answer
(non-membership, failed verification, unrecognized string), 2 for usage
errors, malformed files, internal invariant failures, or xcheck mismatches.

Each command runs with the cyclic collector paused, through the loader's
helper derivation.collector_paused, and leaves it as it found it on every
exit. That is safe because no command builds a reference cycle: the
collector could free nothing, and would only re-walk live derivations,
its full passes landing inside whichever step allocated at the time.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from itertools import product
from typing import Iterator, Sequence

from .burago import InternalInvariantError, burago_partition
from .derivation import (
    DerivationError,
    check_derivation,
    collector_paused,
    dumps_derivation,
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
from .zn import (
    alphabet, displacement, grammar_params, make_grammar, make_token, word_to_path,
)

DEFAULT_SEED = 2026


def _tokenize(text: str, terminals: Sequence[str]) -> Word:
    """Split on whitespace, then greedily match the longest terminal.

    A chunk that is a terminal is one token, as the greedy match would
    make it. The empty terminal never matches: it would not advance.
    """
    whole = set(terminals)
    ordered = sorted(whole - {""}, key=len, reverse=True)
    tokens: list[str] = []
    for chunk in text.split():
        if chunk in whole:
            tokens.append(chunk)
            continue
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


def _int_at_least(text: str, low: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"{what} must be >= {low}")
    return value


def _positive_dimension(text: str) -> int:
    return _int_at_least(text, 1, "dimension")


def _nonnegative_count(text: str) -> int:
    return _int_at_least(text, 0, "count")


def _report(args: argparse.Namespace, code: int, payload: dict, text: str) -> int:
    """Print payload as canonical JSON under --json, else text; return code."""
    if args.json:
        sys.stdout.write(canonical_json(payload))
    else:
        print(text)
    return code


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_grammar_arg(args: argparse.Namespace) -> Grammar:
    if args.grammar is not None:
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
    payload = {"n": args.n, "word": list(word), "displacement": list(disp), "member": member}
    verdict = "member" if member else "not a member"
    return _report(args, 0 if member else 1, payload, f"{verdict}: displacement {disp}")


def _cmd_derive(args: argparse.Namespace) -> int:
    word = _tokenize(args.word, alphabet(args.n))
    derivation = synthesize_word(word, args.n)
    if derivation is None:
        disp = displacement(word, args.n)
        return _report(args, 1, {"member": False, "displacement": list(disp)},
                       f"not a member: displacement {disp}")
    # a synthesized derivation that fails its own checker is a defect
    check_derivation(make_grammar(args.n), derivation)
    _emit(args, dumps_derivation(derivation))
    if not args.out:
        return 0
    return _report(args, 0, {"member": True, "steps": len(derivation), "written": args.out},
                   f"wrote {len(derivation)} steps to {args.out}")


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _load_grammar_arg(args)
    with open(args.derivation, encoding="utf-8") as fh:
        derivation = loads_derivation(fh.read())
    try:
        final = check_derivation(g, derivation)
    except DerivationError as exc:
        payload = {"valid": False, "step": exc.step, "code": exc.code, "message": exc.detail}
        return _report(args, 1, payload, f"invalid: {exc}")
    if args.word is not None:
        word = _tokenize(args.word, g.terminals)
        if final.nt != g.start or final.components != (word,):
            message = "final conclusion does not match the word"
            return _report(args, 1, {"valid": False, "message": message}, f"invalid: {message}")
    payload = {
        "valid": True,
        "steps": len(derivation),
        "final": {"nt": final.nt, "components": [list(c) for c in final.components]},
    }
    return _report(args, 0, payload, f"valid: {len(derivation)} steps ending in {final.nt}")


def _cmd_recognize(args: argparse.Namespace) -> int:
    g = _load_grammar_arg(args)
    word = _tokenize(args.word, g.terminals)
    accepted, witness = recognize_bounded(g, word)
    if not accepted:
        return _report(args, 1, {"recognized": False}, "not recognized")
    payload = {
        "recognized": True,
        "steps": len(witness),
        "derivation": json.loads(dumps_derivation(witness)),
    }
    return _report(args, 0, payload, f"recognized: witness with {len(witness)} steps")


def _cmd_burago(args: argparse.Namespace) -> int:
    word = _tokenize(args.word, alphabet(args.n))
    path = word_to_path(word, args.n)
    k = args.k if args.k is not None else grammar_params(args.n).k
    bp = burago_partition(path, k)
    # ordered breakpoints: each coordinate of the sum lies in [-2L, 2L]
    total = sum(path.keys[s] - path.keys[t] for t, s in zip(bp[::2], bp[1::2]))
    return _report(args, 0, {"breakpoints": list(bp), "doubled": True}, "\n".join([
        f"breakpoints (doubled parameters): {list(bp)}",
        f"interval sum (doubled): {path.vector(total)}",
        f"identity holds: {2 * total == path.keys[-1]}",
    ]))


def _xcheck_words(args: argparse.Namespace) -> Iterator[Word]:
    """Every word up to --max-len, or --sample words alternating unconstrained
    and shuffled zero-displacement ones."""
    letters = alphabet(args.n)
    if args.sample is None:
        for length in range(args.max_len + 1):
            yield from product(letters, repeat=length)
        return
    rng = random.Random(args.seed)
    for i in range(args.sample):
        if i % 2 == 0:
            length = rng.randrange(args.max_len + 1)
            yield tuple(rng.choice(letters) for _ in range(length))
            continue
        pairs: list[str] = []
        for _ in range(rng.randrange(args.max_len // 2 + 1)):
            axis = rng.randrange(1, args.n + 1)
            pairs += (make_token(axis, 1), make_token(axis, -1))
        rng.shuffle(pairs)
        yield tuple(pairs)


def _cmd_xcheck(args: argparse.Namespace) -> int:
    g = make_grammar(args.n)
    mode = "exhaustive" if args.sample is None else "sample"
    checked = members = 0
    mismatches: list[dict] = []
    for w in _xcheck_words(args):
        checked += 1
        member = not any(displacement(w, args.n))
        try:
            derivation = synthesize_word(w, args.n)
        except InternalInvariantError as exc:
            mismatches.append({"word": list(w), "invariant": str(exc)})
            continue
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
    payload = {
        "n": args.n,
        "max_len": args.max_len,
        "mode": mode,
        "seed": args.seed if mode == "sample" else None,
        "checked": checked,
        "members": members,
        "mismatches": mismatches,
    }
    lines = [f"checked {checked} words (n={args.n}, max length {args.max_len}, "
             f"{mode}): {members} members, {len(mismatches)} mismatches"]
    lines += [f"  mismatch: {entry}" for entry in mismatches]
    code = _report(args, 2 if mismatches else 0, payload, "\n".join(lines))
    if code:
        print("cross-check failed: derive and check disagree", file=sys.stderr)
    return code


_WORD = ("--word", {"required": True,
                    "help": "space-separated tokens (unspaced runs are split greedily)"})
_JSON = ("--json", {"action": "store_true", "help": "emit a machine-readable JSON payload"})


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: it holds no per-call state,
    since argparse formats usage at print time and parses into a new Namespace."""
    parser = argparse.ArgumentParser(
        prog="mcfgkit",
        description="Derivation tools for the zero-displacement word languages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, handler, *options: tuple[str, dict],
                grammar: bool = False) -> None:
        """A subcommand taking --n (or, with grammar, one of --n and --grammar),
        then the given (flag, keywords) options in order."""
        p = sub.add_parser(name, help=help)
        source = p.add_mutually_exclusive_group(required=True) if grammar else p
        source.add_argument("--n", type=_positive_dimension, required=not grammar)
        if grammar:
            source.add_argument("--grammar", help="grammar JSON file")
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(handler=handler)

    command("emit-grammar", "print the grammar for rank n as JSON", _cmd_emit_grammar,
            ("--out", {"help": "write to a file instead of stdout"}))
    command("check", "membership by displacement", _cmd_check, _WORD, _JSON)
    command("derive", "synthesize a derivation for a word", _cmd_derive, _WORD, _JSON,
            ("--out", {"help": "write the derivation to a file"}))
    command("verify", "check a derivation file", _cmd_verify,
            ("--derivation", {"required": True, "help": "derivation JSON file"}),
            ("--word", {"help": "also require the final conclusion to match"}),
            ("--json", {"action": "store_true"}), grammar=True)
    command("recognize", "bounded recognition (schema-free grammars)", _cmd_recognize,
            _WORD, _JSON, grammar=True)
    command("burago", "breakpoints hitting half the displacement", _cmd_burago, _WORD, _JSON,
            ("--k", {"type": lambda text: _int_at_least(text, 1, "k"),
                     "help": "interval count (default: floor((n+1)/2))"}))
    command("xcheck", "sweep words, cross-checking derive against check", _cmd_xcheck,
            ("--max-len", {"type": _nonnegative_count, "default": 6}),
            ("--sample", {"type": _nonnegative_count,
                          "help": "sample this many words instead of sweeping exhaustively"}),
            ("--seed", {"type": int, "default": DEFAULT_SEED,
                        "help": f"sampling seed (default {DEFAULT_SEED})"}),
            ("--json", {"action": "store_true"}))
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        with collector_paused():
            return args.handler(args)
    except InternalInvariantError as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return 2
    except (GrammarFormatError, SchemaPresentError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
