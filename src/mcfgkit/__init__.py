"""Tuple-grammar toolkit for the zero-displacement word languages.

Core pieces: grammar and derivation data types with a strict checker
(grammar, derivation), a bounded recognizer for concrete grammars
(recognize), lattice-path geometry and the grammar family indexed by
rank (zn), breakpoint partitions hitting half a path's displacement
(burago), and the constructive derivation synthesizer built on top of
all of it (synthesis). The cli module exposes the same operations as
subcommands.
"""

from __future__ import annotations

from .burago import InternalInvariantError, SegmentPartition, burago_partition
from .derivation import (
    Derivation,
    DerivationError,
    Instance,
    RuleInstance,
    apply_blocking,
    check_derivation,
    dumps_derivation,
    loads_derivation,
)
from .grammar import (
    Blocking,
    CombineSchema,
    Grammar,
    GrammarFormatError,
    InvalidGrammarError,
    Rule,
    Word,
    canonical_json,
    dumps_grammar,
    grammar_from_json_dict,
    grammar_to_json_dict,
    instantiate,
    loads_grammar,
    require_valid,
    term,
    validate_grammar,
    var,
)
from .recognize import SchemaPresentError, bounded_language, recognize_bounded
from .synthesis import (
    lift_to_lattice,
    make_yz,
    refine_and_split,
    synthesize,
    synthesize_word,
)
from .zn import (
    GrammarParams,
    LatticePath,
    Vec,
    alphabet,
    displacement,
    grammar_params,
    l1,
    make_grammar,
    make_token,
    token_step,
    word_to_path,
)

__version__ = "0.1.0"

__all__ = [
    "Blocking",
    "CombineSchema",
    "Derivation",
    "DerivationError",
    "Grammar",
    "GrammarFormatError",
    "GrammarParams",
    "Instance",
    "InternalInvariantError",
    "InvalidGrammarError",
    "LatticePath",
    "Rule",
    "RuleInstance",
    "SchemaPresentError",
    "SegmentPartition",
    "Vec",
    "Word",
    "alphabet",
    "apply_blocking",
    "bounded_language",
    "burago_partition",
    "canonical_json",
    "check_derivation",
    "displacement",
    "dumps_derivation",
    "dumps_grammar",
    "grammar_from_json_dict",
    "grammar_params",
    "grammar_to_json_dict",
    "instantiate",
    "l1",
    "lift_to_lattice",
    "loads_derivation",
    "loads_grammar",
    "make_grammar",
    "make_token",
    "make_yz",
    "recognize_bounded",
    "refine_and_split",
    "require_valid",
    "synthesize",
    "synthesize_word",
    "term",
    "token_step",
    "validate_grammar",
    "var",
    "word_to_path",
]
