"""Spans around the library's public functions, recorded from outside.

The library is not instrumented. A Tracer replaces each public function
at the module attribute its callers look it up from (for example
mcfgkit.synthesis.burago_partition, which is what the synthesizer calls)
with a wrapper that records a span, and puts the originals back on
exit. Spans are recorded only while an item is being timed, so the
benchmark's own output checks, which also reach some wrapped names,
leave no spans.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from functools import wraps
from pathlib import Path
from time import perf_counter

# (module, attribute, layer.function). A function imported into several
# modules is wrapped at each import site under one span name.
SITES = (
    ("mcfgkit.cli", "run", "cli.run"),
    ("mcfgkit.cli", "synthesize_word", "synthesis.synthesize_word"),
    ("mcfgkit.cli", "check_derivation", "derivation.check_derivation"),
    ("mcfgkit.cli", "dumps_derivation", "derivation.dumps_derivation"),
    ("mcfgkit.cli", "make_grammar", "zn.make_grammar"),
    ("mcfgkit.cli", "displacement", "zn.displacement"),
    ("mcfgkit.synthesis", "make_grammar", "zn.make_grammar"),
    ("mcfgkit.synthesis", "displacement", "zn.displacement"),
    ("mcfgkit.synthesis", "word_to_path", "zn.word_to_path"),
    ("mcfgkit.synthesis", "burago_partition", "burago.burago_partition"),
    ("mcfgkit.synthesis", "refine_and_split", "synthesis.refine_and_split"),
    ("mcfgkit.synthesis", "lift_to_lattice", "synthesis.lift_to_lattice"),
    ("mcfgkit.synthesis", "make_yz", "synthesis.make_yz"),
    # every combine step of the synthesizer goes through apply_blocking
    ("mcfgkit.synthesis", "apply_blocking", "synthesis.combine"),
    ("mcfgkit.derivation", "require_valid", "grammar.require_valid"),
    ("mcfgkit.derivation", "check_derivation", "derivation.check_derivation"),
    ("mcfgkit.derivation", "dumps_derivation", "derivation.dumps_derivation"),
    ("mcfgkit.derivation", "loads_derivation", "derivation.loads_derivation"),
    ("mcfgkit.recognize", "require_valid", "grammar.require_valid"),
    ("mcfgkit.recognize", "recognize_bounded", "recognize.recognize_bounded"),
)

ITEM_SPAN = "bench.item"
# the text this span returns is counted for derivation.json_kb
JSON_SPAN = "derivation.dumps_derivation"


class Tracer:
    """Context manager that installs the wrappers and collects spans.

    Each span is [name, start, end, parent span index or -1, item id].
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.json_bytes = 0
        self._stack: list[int] = []
        self._item = -1
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, span in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _open(self, name: str) -> list:
        now = perf_counter()
        span = [name, now, now, self._stack[-1] if self._stack else -1, self._item]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            if self._item < 0:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if name == JSON_SPAN:
                self.json_bytes += len(result)
            return result

        return traced

    def call(self, item: int, fn, *args):
        """Run fn(*args) as item `item`, under a root span for the item."""
        self._item = item
        self._open(ITEM_SPAN)
        try:
            return fn(*args)
        finally:
            # the over-budget alarm can interrupt a wrapper between its
            # bookkeeping steps; every span still open ends with the item
            now = perf_counter()
            for index in self._stack:
                self.spans[index][2] = now
            self._stack.clear()
            self._item = -1

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total self seconds and longest span seconds.

        Self time is a span's duration minus the durations of its direct
        children, which on one thread never overlap each other.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "max_s": 0.0}
        )
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child[i]
            entry["max_s"] = max(entry["max_s"], end - start)
        return dict(out)

    def write(self, path: Path) -> None:
        """One JSON array per span: name, start and end in microseconds, parent, item."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps([
                    name,
                    round((start - origin) * 1e6, 1),
                    round((end - origin) * 1e6, 1),
                    parent,
                    item,
                ]) + "\n")
