"""Benchmark for cwemarket: one workload, one process, one caller.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The program is imported from the
checkout's `src/`; without it the benchmark exits with code 2 and
prints no result.

A run sets the workload up (import cwemarket, generate the instances
from the seed, write the instance files, read them back) and then runs
whole rounds of the workload's operations, one after another with no
threads (a closed loop with one caller), until the operations have
taken `--seconds` seconds: that is the budget of timed operation, and a
run takes longer by its set-ups, its checks and the rest of its last
round.  Each output is checked apart from the program, outside the
timed region: the first round's outputs after the peak resident set is
read, later ones right after their operation.  An operation that
raises, exits non-zero or fails its check counts as failed.  The set-up
is repeated between rounds, and `setup_s` is the median of
SETUP_REPEATS set-ups.

The reported times of an untraced run are corrected for the machine's
speed (see speed.py): a fixed probe, apart from the program, is timed
every half second of operation and around each set-up, and each time
is scaled by the reference probe time over the probes around it.  The
wall-clock figures go to `result.json` (`wall_clock`).

With `--trace 0` the last line of standard output is one JSON object
with every end-to-end metric.  With `--trace 1` rounds alternate
between untraced and traced (see tracing.py), and the metrics are the
per-layer split of the traced rounds, per operation, plus the tracing
overhead against the untraced rounds of the same run.  Instance files,
reports, the result and (traced) the spans go to
`.bench_out/<workload>/seed-<n>/`, which a run empties first.
`result.json` there also holds the set-up time of each repeat, the
wall-clock figures and the operations the screen left out.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

import workloads
from speed import SpeedClock
from tracing import ROOT_SPAN, VERIFY_SPANS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

PROGRAM_MODULES = ("cli", "errors", "instances", "lp", "market", "partitions", "poly",
                   "revenue", "serialize", "simple", "trace", "valuations",
                   "verifier")
# Set-ups per untraced run.  The first is kept; the others are spread
# between the rounds, so that their median samples the machine's speed
# over the whole run and not over one burst at its start.
SETUP_REPEATS = 7
# The simple solver deadlocks on about 4 in 10,000 random explicit
# instances, so a round of 374 sweep instances loses more than this many
# only if the fault has become more frequent.  Such a run is not correct:
# the screen would otherwise hide the regression by timing fewer
# operations.
MAX_LEFT_OUT = 3

# per-layer metric -> span name whose self time (or call count) it reports
LAYER_SELF = {
    "market.demand_s": "market.demand",
    "cli.verify_s": "cli.verify",
    "poly.solve_s": "poly.solve",
    "poly.push_s": "poly.push",
    "poly.verify_s": "poly.verify",
    "simple.solve_s": "simple.solve",
    "revenue.self_s": "revenue",
    "trace.replay_s": "trace.replay",
    "verifier.brute_force_s": "verifier.brute_force",
    "lp.solve_s": "lp.solve",
    "verifier.support_s": "verifier.support",
    "verifier.config_lp_s": "verifier.config_lp",
    "verifier.search_s": "verifier.search",
    "serialize.load_s": "serialize.load",
    "serialize.encode_s": "serialize.encode",
    "cli.self_s": "cli",
    "harness.self_s": ROOT_SPAN,
}
LAYER_CALLS = {
    "market.demand_calls": "market.demand",
    "poly.push_rounds": "poly.push",
    "lp.solve_calls": "lp.solve",
    "verifier.support_calls": "verifier.support",
}
LAYER_COUNTS = ("market.subsets_enumerated", "valuations.value_calls",
                "poly.merges", "poly.demand_queries", "poly.iterations",
                "simple.demand_queries", "simple.price_steps", "revenue.levels",
                "trace.events", "lp.cells", "partitions.yielded",
                "serialize.bytes_out")


class ProgramMissing(Exception):
    pass


def import_program() -> SimpleNamespace:
    """Import a fresh copy of cwemarket from the checkout's src/."""
    if not (SRC / "cwemarket" / "__init__.py").is_file():
        raise ProgramMissing(f"no cwemarket package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    _restore_program({})
    package = importlib.import_module("cwemarket")
    if Path(package.__file__).resolve().parent != SRC / "cwemarket":
        raise ProgramMissing(f"cwemarket imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{
        name: importlib.import_module(f"cwemarket.{name}") for name in PROGRAM_MODULES
    })


def _program_modules() -> Dict[str, Any]:
    return {name: module for name, module in sys.modules.items()
            if name == "cwemarket" or name.startswith("cwemarket.")}


def _restore_program(modules: Dict[str, Any]) -> None:
    """Make `modules` the only copy of cwemarket in sys.modules."""
    for name in _program_modules():
        del sys.modules[name]
    sys.modules.update(modules)


def set_up(workload: str, seed: int, set_up_dir: Path):
    """Import a fresh copy of the program, generate the workload's
    instances and write their files into `set_up_dir`, which must be new.
    Rewriting files that already exist would time the file system's
    flush of the old contents (ext4 forces one when a file is truncated
    and rewritten), which made set-up time jump by up to a quarter
    between repeats.  Returns (program, ops)."""
    program = import_program()
    return program, workloads.build(program, workload, seed, set_up_dir)


def screen(ops: List[workloads.Op]) -> Tuple[List[workloads.Op], List[str]]:
    """Leave out the operations whose screen names a known fault."""
    kept, left_out = [], []
    for op in ops:
        try:
            reason = op.screen() if op.screen is not None else None
        except Exception:  # any other fault fails the operation in the loop
            reason = None
        if reason is None:
            kept.append(op)
        else:
            left_out.append(f"{op.name}: {reason}")
    for line in left_out:
        print(f"left out: {line}", file=sys.stderr)
    return kept, left_out


class Loop:
    """Runs whole rounds, checks each output untimed, keeps the tallies."""

    def __init__(self, ops: List[workloads.Op]):
        self.ops = ops
        self.good_digests: List[set] = [set() for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: List[str] = []
        self.timings: List[Tuple[str, float]] = []  # (operation, seconds) in run order
        self.held: List[Tuple[int, workloads.Op, Any]] = []

    def _check(self, k: int, op: workloads.Op, out: Any) -> bool:
        try:
            digest = op.digest(out)
            if digest in self.good_digests[k]:
                return True
            problems = op.check(out)
        except Exception:  # a malformed output is a wrong output
            problems = [traceback.format_exc(limit=3)]
            digest = None
        if problems:
            self.wrong += 1
            self.problems.extend(f"{op.name}: {p}" for p in problems[:5])
            return False
        self.good_digests[k].add(digest)
        return True

    def round(self, run_op, untraced=contextlib.nullcontext, hold: bool = False) -> List[float]:
        """One round; `run_op(op_id, fn)` returns (output, seconds), and
        checks run inside `untraced()`.  With `hold`, the outputs are
        kept and checked only by `check_held()`."""
        times = []
        for k, op in enumerate(self.ops):
            self.attempted += 1
            try:
                out, seconds = run_op(f"{op.name}#{self.attempted}", op.run)
            except Exception:
                self.failed += 1
                self.problems.append(f"{op.name}: {traceback.format_exc(limit=3)}")
                continue
            times.append(seconds)
            self.timings.append((op.name, seconds))
            if hold:
                self.held.append((k, op, out))
                continue
            with untraced():
                ok = self._check(k, op, out)
            if not ok:
                self.failed += 1
        return times

    def check_held(self) -> None:
        for k, op, out in self.held:
            if not self._check(k, op, out):
                self.failed += 1
        self.held.clear()


def _timed(op_id: str, fn) -> Tuple[Any, float]:
    t0 = perf_counter()
    out = fn()
    return out, perf_counter() - t0


def run_untraced(workload: str, seed: int, seconds: float, out_dir: Path
                 ) -> Tuple[Loop, Dict, Dict]:
    clock = SpeedClock()
    (_, ops), first, setup = clock.timed(
        lambda: set_up(workload, seed, out_dir / "setup-0"))
    setup_wall, setup_times = [first], [setup]
    kept = _program_modules()

    def set_up_again() -> None:
        set_up_dir = out_dir / f"setup-{len(setup_times)}"
        _, wall, corrected = clock.timed(lambda: set_up(workload, seed, set_up_dir))
        setup_wall.append(wall)
        setup_times.append(corrected)
        shutil.rmtree(set_up_dir)
        _restore_program(kept)
        gc.collect()  # so the discarded copy is not collected inside a timed operation

    def run_op(op_id: str, fn) -> Tuple[Any, float]:
        clock.before()
        out, op_seconds = _timed(op_id, fn)
        clock.after(op_seconds)
        return out, op_seconds

    ops, left_out = screen(ops)
    loop = Loop(ops)
    # The first round's outputs are checked only after the peak resident
    # set is read, so the checker's own tables and the later set-ups do
    # not count in it.  Later rounds repeat the same operations.
    op_times = loop.round(run_op, hold=True)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    loop.check_held()
    while op_times and sum(op_times) < seconds:
        if len(setup_times) < SETUP_REPEATS:
            set_up_again()
        op_times += loop.round(run_op)
    clock.finish()
    while len(setup_times) < SETUP_REPEATS:
        set_up_again()
    corrected = clock.corrected()
    loop.timings = [(name, wall, c) for (name, wall), c in zip(loop.timings, corrected)]
    busy = sum(corrected)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(corrected) / busy if busy else 0.0, "1/s"),
        "op_p50_s": (statistics.median(corrected) if corrected else 0.0, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    wall = {
        "setup_s": statistics.median(setup_wall),
        "ops_per_s": len(op_times) / sum(op_times) if op_times else 0.0,
        "op_p50_s": statistics.median(op_times) if op_times else 0.0,
        "probe_median_s": clock.median_probe(),
        "probes": len(clock.probes),
    }
    return loop, metrics, {"setup_times_s": setup_times, "setup_wall_s": setup_wall,
                           "wall_clock": wall, "left_out": left_out}


def run_traced(workload: str, seed: int, seconds: float, out_dir: Path
               ) -> Tuple[Loop, Dict, Dict]:
    tracer = Tracer()
    program = import_program()
    tracer.install(program)
    try:
        ops, _ = tracer.run_op(
            "setup", lambda: workloads.build(program, workload, seed, out_dir / "setup-0"))
    finally:
        tracer.uninstall()
    setup = tracer.summary(["setup"])
    setup_counts = Counter(tracer.counts)
    tracer.counts.clear()
    ops, left_out = screen(ops)
    loop = Loop(ops)
    plain: List[float] = []
    traced: List[float] = []
    # Alternate untraced and traced rounds until the traced rounds have
    # run for half the time, so both halves see the same machine state.
    while sum(traced) < seconds / 2 or not traced:
        plain += loop.round(_timed)
        tracer.install(program)
        try:
            before = len(traced)
            traced += loop.round(tracer.run_op, tracer.paused)
        finally:
            tracer.uninstall()
        if len(traced) == before:
            break
    op_ids = {rec[4] for rec in tracer.spans if rec[3] < 0 and rec[4] != "setup"}
    summary = tracer.summary(op_ids)
    n = max(len(op_ids), 1)
    metrics: Dict[str, Tuple[float, str]] = {}
    for metric, layer in LAYER_SELF.items():
        metrics[metric] = (summary["self"].get(layer, 0.0) / n, "s")
    for metric, layer in LAYER_CALLS.items():
        metrics[metric] = (summary["calls"].get(layer, 0) / n, "count")
    for name in LAYER_COUNTS:
        unit = "B" if name == "serialize.bytes_out" else "count"
        metrics[name] = (tracer.counts.get(name, 0) / n, unit)
    metrics["market.verify_calls"] = (
        sum(summary["calls"].get(v, 0) for v in VERIFY_SPANS) / n, "count")
    metrics["market.verify_s"] = (
        sum(summary["self"].get(v, 0.0) for v in VERIFY_SPANS) / n, "s")
    metrics["market.verify_total_s"] = (
        sum(summary["total"].get(v, 0.0) for v in VERIFY_SPANS) / n, "s")
    metrics["cli.verify_total_s"] = (summary["total"].get("cli.verify", 0.0) / n, "s")
    metrics["instances.generate_s"] = (setup["self"].get("instances.generate", 0.0), "s")
    metrics["setup.serialize_s"] = (
        setup["self"].get("serialize.encode", 0.0) + setup["self"].get("serialize.load", 0.0),
        "s")
    metrics["setup.bytes_out"] = (setup_counts.get("serialize.bytes_out", 0), "B")
    traced_mean = statistics.fmean(traced) if traced else 0.0
    plain_mean = statistics.fmean(plain) if plain else 0.0
    metrics["screen.left_out"] = (len(left_out), "count")
    metrics["tracing.op_s"] = (traced_mean, "s")
    metrics["tracing.untraced_op_s"] = (plain_mean, "s")
    metrics["tracing.overhead_pct"] = (
        100 * (traced_mean / plain_mean - 1) if plain_mean else 0.0, "%")
    metrics["tracing.spans"] = (summary["spans"] / n, "count")
    metrics["tracing.self_residual_s"] = (summary["residual"], "s")
    if summary["residual"] > 1e-6:
        loop.problems.append(f"span self times miss the op wall time by {summary['residual']}")
        loop.wrong += 1
    tracer.write(out_dir / "spans.jsonl")
    (out_dir / "counts.json").write_text(
        json.dumps({"setup": setup_counts, "rounds": tracer.counts}, indent=1, sort_keys=True),
        encoding="utf-8")
    return loop, metrics, {"left_out": left_out}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out_dir = OUT / args.workload / f"seed-{args.seed}"
    measure = run_traced if args.trace else run_untraced
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        loop, metrics, notes = measure(args.workload, args.seed, args.seconds, out_dir)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(notes["left_out"]) > MAX_LEFT_OUT:
        loop.wrong += 1
        loop.problems.append(f"the screen left out {len(notes['left_out'])} operations, "
                             f"more than the {MAX_LEFT_OUT} that the known fault explains")
    for line in loop.problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    result = {
        "correct": loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    suffix = "-trace" if args.trace else ""
    (out_dir / f"result{suffix}.json").write_text(
        json.dumps(dict(result, **notes)) + "\n", encoding="utf-8")
    (out_dir / f"op_times{suffix}.json").write_text(
        json.dumps(loop.timings) + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
