"""mcfgkit benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload derive_walks --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload derive_walks --seed 1 --seconds 10 --trace 1
    python3 bench/run.py --selftest

One process and one thread drive the library as a closed loop with a
single caller: each item starts after the previous one has finished.
The seed makes the inputs; the library only receives the generated
words. Every output is checked outside the timed region.

--trace 0 measures the end-to-end metrics. The timed loop passes over
the corpus at least once and stops at the first item boundary after
--seconds of timed wall time.

Item and set-up times are CPU seconds of this process and its reaped
children, not wall time. The library is single-threaded and does no
I/O while timed, so the two differ only by the time the host did not
run the process; on a shared 2-CPU host that preemption made 7% of
wall samples over 1.3x, and some 3x, their CPU time, which wall-time
medians and tails did not absorb. Wall times are printed beside them.

--trace 1 spends half of --seconds untraced and half with the tracer's
wrappers installed, in whole passes over the corpus, and reports
per-layer metrics per pass, the tracing overhead, and a cold start-up
probe of the CLI. Spans are written to .bench_out/spans-<workload>.jsonl.
Both passes must give byte-identical outputs.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import resource
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

from tracing import ITEM_SPAN, SITES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"

# Set-up runs at least SETUP_REPEATS times and, when it is quick, until
# SETUP_MIN_S have passed, so that its median is steady.
SETUP_REPEATS = 3
SETUP_MIN_S = 0.3
ITEM_CAP_S = 10.0
# A loop stops starting items after this much wall time; the first-pass
# items it never reached count as failed, so a slow regression shows.
LOOP_LIMIT_S = 60.0
COLD_LAUNCHES = 7

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "derivation_steps": "count",
}

PER_LAYER = {
    "burago.burago_partition.calls": "count",
    "burago.burago_partition.self_ms": "ms",
    "burago.burago_partition.max_ms": "ms",
    "zn.displacement.calls": "count",
    "zn.displacement.self_ms": "ms",
    "zn.word_to_path.calls": "count",
    "zn.word_to_path.self_ms": "ms",
    "zn.make_grammar.calls": "count",
    "zn.make_grammar.self_ms": "ms",
    "synthesis.refine_and_split.self_ms": "ms",
    "synthesis.lift_to_lattice.calls": "count",
    "synthesis.lift_to_lattice.self_ms": "ms",
    "synthesis.make_yz.self_ms": "ms",
    "synthesis.combine.calls": "count",
    "synthesis.synthesize_word.self_ms": "ms",
    "derivation.dumps_derivation.self_ms": "ms",
    "derivation.json_kb": "KB",
    "derivation.loads_derivation.self_ms": "ms",
    "derivation.check_derivation.self_ms": "ms",
    "grammar.require_valid.calls": "count",
    "grammar.require_valid.self_ms": "ms",
    "recognize.recognize_bounded.self_ms": "ms",
    "cli.run.self_ms": "ms",
    "cli.cold_p50_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def import_library() -> None:
    """Put the checkout's src/ first on the path, or exit if it is missing.

    The workloads and corpus modules import mcfgkit, so they are imported
    only after this has run.
    """
    package = SRC / "mcfgkit"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no mcfgkit sources at {package}")
    sys.path.insert(0, str(SRC))
    import mcfgkit

    if Path(mcfgkit.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported mcfgkit from {mcfgkit.__file__}, not from {package}")


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


class OverBudget(Exception):
    """Raised by the alarm when an item runs past ITEM_CAP_S."""


def _alarm(signum, frame):
    raise OverBudget(f"item ran past {ITEM_CAP_S} s")


@dataclass
class Loop:
    """What one measuring loop saw."""

    cpu: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    cpu_s: float = 0.0
    wall_s: float = 0.0
    ok: int = 0
    attempted: int = 0
    failures: list[tuple[int, str, str]] = field(default_factory=list)
    steps: int = 0
    digests: list[bytes | None] = field(default_factory=list)
    passes: int = 0

    @property
    def items_per_s(self) -> float:
        return self.ok / self.cpu_s if self.cpu_s else 0.0

    def digest(self) -> str:
        h = hashlib.sha256()
        for d in self.digests:
            h.update(d if d is not None else b"failed")
        return h.hexdigest()


def run_item(workload, item, index, tracer):
    """One timed call under the per-item wall-clock cap.

    Returns (output, wall seconds, CPU seconds, error or None).
    """
    output, error = None, None
    signal.setitimer(signal.ITIMER_REAL, ITEM_CAP_S)
    start, start_cpu = perf_counter(), cpu_seconds()
    try:
        if tracer is None:
            output = workload.call(item)
        else:
            output = tracer.call(index, workload.call, item)
    except OverBudget:
        error = "over_budget"
    except Exception as exc:
        error = f"raised {type(exc).__name__}: {exc}"[:300]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed, used = perf_counter() - start, cpu_seconds() - start_cpu
    if error is None and elapsed > ITEM_CAP_S:
        error = "over_budget"
    return output, elapsed, used, error


def measure(workload, items, seconds: float, tracer=None, whole_passes: bool = False) -> Loop:
    """Cycle over the corpus until `seconds` of timed wall time, at least one pass.

    With whole_passes the loop ends only at the end of a pass.

    The first successful output of each corpus item gets the full
    independent check; later runs of the item must reproduce its bytes.
    """
    from workloads import Mismatch

    loop = Loop(digests=[None] * len(items))
    start = perf_counter()
    i = 0
    while i < len(items) or loop.wall_s < seconds or (whole_passes and i % len(items)):
        if perf_counter() - start > LOOP_LIMIT_S:
            for j in range(i, len(items)):
                loop.failures.append((j, items[j].label, "over_budget: loop limit reached"))
                loop.attempted += 1
            break
        index = i % len(items)
        item = items[index]
        output, elapsed, used, error = run_item(workload, item, index, tracer)
        loop.cpu.append(used)
        loop.wall.append(elapsed)
        loop.cpu_s += used
        loop.wall_s += elapsed
        loop.attempted += 1
        i += 1
        if error is None:
            digest = hashlib.sha256(workload.output_bytes(item, output)).digest()
            if loop.digests[index] is None:
                try:
                    steps = workload.check(item, output)
                except Mismatch as exc:
                    error = f"wrong output: {exc}"
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"[:300]
                else:
                    loop.digests[index] = digest
                    loop.steps += steps
            elif digest != loop.digests[index]:
                error = "output differs from the item's first run"
        if error is None:
            loop.ok += 1
        else:
            loop.failures.append((index, item.label, error))
    loop.passes = i // len(items)
    return loop


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    ordered = sorted(samples)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0
    return ordered[count - 11], 100.0 * (count - 10) / count


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report_failures(loop: Loop) -> None:
    for index, label, reason in loop.failures[:20]:
        print(f"  FAILED item {index} ({label}): {reason}")
    if len(loop.failures) > 20:
        print(f"  ... {len(loop.failures) - 20} more failures")


def timed_setup(workload, seed: int, seconds: float, setup_times: list[float]):
    t0 = cpu_seconds()
    items = workload.setup(seed, seconds)
    setup_times.append(cpu_seconds() - t0)
    return items


def run_untraced(workload, seed: int, seconds: float) -> dict:
    setup_times: list[float] = []
    items = timed_setup(workload, seed, seconds, setup_times)
    loop = measure(workload, items, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # The repeats come after the loop so that their garbage does not
    # shape the heap the loop runs on.
    while len(setup_times) < SETUP_REPEATS or (
        sum(setup_times) < SETUP_MIN_S and len(setup_times) < 100
    ):
        timed_setup(workload, seed, seconds, setup_times)
    tail_s, tail_pct = tail(loop.cpu)
    values = {
        "setup_s": median(setup_times),
        "items_per_s": loop.items_per_s,
        "item_p50_ms": median(loop.cpu) * 1000,
        "item_tail_ms": tail_s * 1000,
        "peak_rss_mb": peak_rss_mb,
        "derivation_steps": loop.steps,
    }
    failed = len(loop.failures)
    print(f"workload {workload.name}  seed {seed}  corpus {len(items)} items  "
          f"{loop.attempted} attempted  timed {loop.cpu_s:.2f} s CPU, {loop.wall_s:.2f} s wall")
    for name, unit in END_TO_END.items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(setup_times)})"
        elif name == "item_tail_ms":
            note = f"  (p{tail_pct:.4g} of {len(loop.cpu)} samples, 10 beyond it)"
        print(f"  {name:<18} {values[name]:.6g} {unit}{note}")
    wall_tail, _ = tail(loop.wall)
    print(f"  {'fail_ratio':<18} {failed / loop.attempted:.6g}  ({failed} of {loop.attempted})")
    print(f"  {'wall clock':<18} items_per_s {loop.ok / loop.wall_s:.6g} 1/s, "
          f"item_p50_ms {median(loop.wall) * 1000:.6g} ms, item_tail_ms {wall_tail * 1000:.6g} ms")
    print(f"  {'output_sha256':<18} {loop.digest()}")
    report_failures(loop)
    return {
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: metric(values[name], unit) for name, unit in END_TO_END.items()},
    }


def cold_probe(seed: int) -> tuple[float, int, list[str]]:
    """Median wall time of sequential `mcfgkit derive` launches on a short word."""
    import corpus
    from workloads import run_cli

    word = corpus.shuffled_pairs(random.Random(seed), 1, 8)
    argv = ["derive", "--n", "1", "--word", " ".join(word)]
    _, expected, _ = run_cli(argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times, problems = [], []
    for _ in range(COLD_LAUNCHES):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "from mcfgkit.cli import main; main()", *argv],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=60,
        )
        times.append(perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout != expected:
            problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[:200]}")
    return median(times) * 1000, COLD_LAUNCHES, problems


def layer_values(totals: dict, passes: int, json_bytes: int, cold_ms: float,
                 overhead: float) -> dict:
    """Per-layer metrics per pass over the corpus."""
    values = {}
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        entry = totals.get(span, {"calls": 0, "self_s": 0.0, "max_s": 0.0})
        if kind == "calls":
            calls, rest = divmod(entry["calls"], passes)
            values[name] = calls if rest == 0 else entry["calls"] / passes
        elif kind == "self_ms":
            values[name] = entry["self_s"] * 1000 / passes
        elif kind == "max_ms":
            values[name] = entry["max_s"] * 1000
    values["derivation.json_kb"] = json_bytes / 1024 / passes
    values["cli.cold_p50_ms"] = cold_ms
    values["trace.overhead_ratio"] = overhead
    return values


def trace_passes(workload, seed: int, seconds: float):
    """Whole passes over one corpus for seconds/2 untraced, then seconds/2 traced."""
    items = workload.setup(seed, seconds)
    plain = measure(workload, items, seconds / 2, whole_passes=True)
    with Tracer() as tracer:
        traced = measure(workload, items, seconds / 2, tracer=tracer, whole_passes=True)
    return items, plain, traced, tracer


def run_traced(workload, seed: int, seconds: float) -> dict:
    items, plain, traced, tracer = trace_passes(workload, seed, seconds)
    cold_ms, launches, cold_problems = cold_probe(seed)
    tracer.write(SPANS_DIR / f"spans-{workload.name}.jsonl")
    totals = tracer.totals()
    overhead = traced.items_per_s / plain.items_per_s if plain.items_per_s else 0.0
    values = layer_values(totals, traced.passes, tracer.json_bytes, cold_ms, overhead)
    same = plain.digest() == traced.digest()

    print(f"workload {workload.name}  seed {seed}  traced  corpus {len(items)} items, "
          f"{plain.passes} untraced and {traced.passes} traced passes; "
          f"per-layer values are per pass")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<38} {values[name]:.6g} {unit}")
    self_sum = sum(entry["self_s"] for entry in totals.values())
    print(f"  span self times (wall) sum to {self_sum:.3f} s; traced passes {traced.wall_s:.3f} s "
          f"wall, {traced.cpu_s:.3f} s CPU; untraced passes {plain.wall_s:.3f} s wall, "
          f"{plain.cpu_s:.3f} s CPU")
    for span, entry in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"    {span:<32} calls {entry['calls']:>8}  self {entry['self_s'] * 1000:10.1f} ms")
    print(f"  cold probe: {launches} launches, {len(cold_problems)} bad")
    for problem in cold_problems:
        print(f"  FAILED cold launch: {problem}")
    print(f"  self-test: traced output digest {'equals' if same else 'DIFFERS FROM'} "
          f"the untraced one ({traced.digest()[:16]})")
    report_failures(plain)
    report_failures(traced)
    attempted = plain.attempted + traced.attempted + launches
    failed = len(plain.failures) + len(traced.failures) + len(cold_problems)
    return {
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metric(values[name], unit) for name, unit in PER_LAYER.items()},
    }


def selftest() -> int:
    """Small traced runs of every workload: digests equal, wrappers removed."""
    from workloads import WORKLOADS

    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in SITES}
    bad = 0
    for workload in WORKLOADS.values():
        items, plain, traced, tracer = trace_passes(workload, seed=1, seconds=1)
        restored = all(getattr(importlib.import_module(m), a) is fn
                       for (m, a), fn in originals.items())
        totals = tracer.totals()
        self_sum = sum(entry["self_s"] for entry in totals.values())
        root_sum = sum(end - start for name, start, end, _, _ in tracer.spans
                       if name == ITEM_SPAN)
        checks = {
            "no failures": not plain.failures and not traced.failures,
            "traced digest equals untraced": plain.digest() == traced.digest(),
            "wrappers removed": restored,
            "self times add up to item times": abs(self_sum - root_sum) <= 1e-6 * max(root_sum, 1),
            "one root span per item run": totals[ITEM_SPAN]["calls"] == traced.passes * len(items),
        }
        for what, passed in checks.items():
            print(f"{workload.name:<16} {what:<34} {'ok' if passed else 'FAILED'}")
            bad += not passed
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    same_metrics = (
        {m["name"]: m["unit"] for m in listed["end_to_end"]} == END_TO_END
        and {m["name"]: m["unit"] for m in listed["per_layer"]} == PER_LAYER
        and [w["name"] for w in listed["workloads"]] == list(WORKLOADS)
    )
    print(f"{'BENCHMARK.json':<16} {'lists these workloads and metrics':<34} "
          f"{'ok' if same_metrics else 'FAILED'}")
    bad += not same_metrics
    print("selftest", "ok" if bad == 0 else f"FAILED ({bad})")
    return 0 if bad == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload briefly, traced and untraced, and compare")
    args = parser.parse_args()

    import_library()
    signal.signal(signal.SIGALRM, _alarm)
    from workloads import WORKLOADS

    if args.selftest:
        return selftest()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    runner = run_traced if args.trace else run_untraced
    result = runner(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
