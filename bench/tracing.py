"""Spans and counts taken from outside the program.

`Tracer.install(program)` replaces public functions where each module
imports them (for example `demand_correspondence` inside `poly`,
`simple` and `market`, `is_cwe` inside `cli`, `poly` and `simple`), so
each call is attributed to its caller.  `uninstall()` puts the
originals back.  Spans (name, start, end, parent, operation id) and
counts stay in memory until `write()`.

A span's self time is its duration minus the durations of its direct
children; the self times of one operation's spans add up to the
duration of its root span.
"""
from __future__ import annotations

import contextlib
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT_SPAN = "harness"

# (module, attribute, span name); the span name is the layer the call
# belongs to, the module is where the caller looks the function up.
SPANS = (
    ("market", "demand_correspondence", "market.demand"),
    ("poly", "demand_correspondence", "market.demand"),
    ("simple", "demand_correspondence", "market.demand"),
    ("cli", "is_cwe", "cli.verify"),
    ("cli", "find_violation", "cli.verify"),
    ("poly", "is_cwe", "poly.verify"),
    ("simple", "is_cwe", "simple.verify"),
    ("revenue", "find_violation", "revenue.verify"),
    ("cli", "run_poly", "poly.solve"),
    ("revenue", "run_poly", "poly.solve"),
    ("cli", "run_simple", "simple.solve"),
    ("simple", "run_simple", "simple.solve"),
    ("cli", "maximize_revenue", "revenue"),
    ("revenue", "maximize_revenue", "revenue"),
    ("trace", "replay", "trace.replay"),
    ("cli", "brute_force_optimal", "verifier.brute_force"),
    ("verifier", "brute_force_optimal", "verifier.brute_force"),
    ("verifier", "solve_lp", "lp.solve"),
    ("cli", "supporting_prices", "verifier.support"),
    ("verifier", "supporting_prices", "verifier.support"),
    ("verifier", "revenue_maximizing_prices", "verifier.support"),
    ("cli", "config_lp_fractional_opt", "verifier.config_lp"),
    ("verifier", "config_lp_fractional_opt", "verifier.config_lp"),
    ("cli", "max_cwe_welfare", "verifier.search"),
    ("cli", "max_cwe_revenue", "verifier.search"),
    ("verifier", "max_cwe_welfare", "verifier.search"),
    ("verifier", "max_cwe_revenue", "verifier.search"),
    ("verifier", "stable_singleton_outcomes", "verifier.search"),
    ("cli", "load_instance", "serialize.load"),
    ("serialize", "load_instance", "serialize.load"),
    ("cli", "dumps", "serialize.encode"),
    ("serialize", "dumps", "serialize.encode"),
    ("cli", "outcome_to_json", "serialize.encode"),
    ("cli", "trace_to_json", "serialize.encode"),
    ("cli", "ladder_to_json", "serialize.encode"),
    ("serialize", "instance_to_json", "serialize.encode"),
    ("cli", "run_cli", "cli"),
    ("instances", "generate", "instances.generate"),
)

# Functions that return generators: the span covers the whole scan.
EAGER = {("verifier", "stable_singleton_outcomes")}

VERIFY_SPANS = ("cli.verify", "poly.verify", "simple.verify", "revenue.verify")


def _count_subsets(counts: Counter, args, kwargs) -> None:
    # demand_correspondence(auction, agent, catalog, prices, excluded=...)
    catalog = args[2] if len(args) > 2 else kwargs["catalog"]
    excluded = args[4] if len(args) > 4 else kwargs.get("excluded", frozenset())
    k = sum(1 for bid, _ in catalog.entries if bid not in excluded)
    counts["market.subsets_enumerated"] += 1 << k


def _count_cells(counts: Counter, args, kwargs) -> None:
    c, rows = args[0], args[1]  # solve_lp(c, A, b)
    counts["lp.cells"] += len(rows) * len(c)


def _count_events(counts: Counter, args, kwargs) -> None:
    trace = args[2] if len(args) > 2 else kwargs["trace"]
    counts["trace.events"] += len(trace.events)


def _poly_result(counts: Counter, result) -> None:
    _, trace = result
    counts["poly.iterations"] += trace.iterations
    counts["poly.demand_queries"] += trace.demand_queries


def _simple_result(counts: Counter, result) -> None:
    _, trace = result
    counts["simple.demand_queries"] += trace.demand_queries
    counts["simple.price_steps"] += sum(
        1 for ev in trace.events if type(ev).__name__ == "PriceRaise"
    )


def _revenue_result(counts: Counter, result) -> None:
    counts["revenue.levels"] += len(result.levels)


def _bytes_out(counts: Counter, result) -> None:
    if isinstance(result, str):
        counts["serialize.bytes_out"] += len(result.encode("utf-8"))


PRE = {
    "market.demand": _count_subsets,
    "lp.solve": _count_cells,
    "trace.replay": _count_events,
}
POST = {
    "poly.solve": _poly_result,
    "simple.solve": _simple_result,
    "revenue": _revenue_result,
    "serialize.encode": _bytes_out,
}


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index, operation id]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._op: Optional[str] = None
        self._undo: List[Tuple[Any, str, Any]] = []
        self._program = None

    # -- wrapping -----------------------------------------------------

    def _wrap(self, name: str, fn: Callable, eager: bool) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        pre, post = PRE.get(name), POST.get(name)
        tracer = self

        def wrapped(*args, **kwargs):
            if pre is not None:
                pre(counts, args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = list(result)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if post is not None:
                post(counts, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, program) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._program = program
        for module, attr, name in SPANS:
            owner = getattr(program, module)
            self._patch(owner, attr, self._wrap(
                name, getattr(owner, attr), (module, attr) in EAGER
            ))
        counts = self.counts

        value = program.valuations.Valuation.value

        def counted_value(valuation, bundle, _value=value):
            counts["valuations.value_calls"] += 1
            return _value(valuation, bundle)

        self._patch(program.valuations.Valuation, "value", counted_value)

        solver = program.poly.PolySolver
        self._patch(solver, "raise_prices", self._wrap("poly.push", solver.raise_prices, False))
        for module in ("poly", "simple"):
            merge = getattr(program, module).merge_bundles

            def counted_merge(*args, _merge=merge, _key=f"{module}.merges", **kwargs):
                counts[_key] += 1
                return _merge(*args, **kwargs)

            self._patch(getattr(program, module), "merge_bundles", counted_merge)

        partitions = program.verifier.set_partitions

        def counted_partitions(elements, _partitions=partitions):
            for partition in _partitions(elements):
                counts["partitions.yielded"] += 1
                yield partition

        self._patch(program.verifier, "set_partitions", counted_partitions)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Put the originals back for the duration, e.g. around output checks."""
        self.uninstall()
        try:
            yield
        finally:
            self.install(self._program)

    # -- spans --------------------------------------------------------

    def run_op(self, op_id: str, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """Run one operation under a root span; returns (output, seconds)."""
        self._op = op_id
        rec = [ROOT_SPAN, 0.0, 0.0, -1, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            out = fn()
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
            self._op = None
        return out, rec[2] - rec[1]

    def self_times(self) -> List[float]:
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def summary(self, op_ids) -> Dict[str, Any]:
        """Per-layer self time, inclusive time and calls over the given
        operations, plus the largest gap between an operation's summed
        self times and its root span."""
        wanted = set(op_ids)
        own = self.self_times()
        layer_self: Dict[str, float] = defaultdict(float)
        layer_total: Dict[str, float] = defaultdict(float)
        layer_calls: Counter = Counter()
        per_op_self: Dict[str, float] = defaultdict(float)
        per_op_wall: Dict[str, float] = {}
        spans = 0
        for rec, s in zip(self.spans, own):
            if rec[4] not in wanted:
                continue
            spans += 1
            layer_self[rec[0]] += s
            layer_calls[rec[0]] += 1
            per_op_self[rec[4]] += s
            if rec[3] < 0:
                per_op_wall[rec[4]] = rec[2] - rec[1]
            if rec[3] < 0 or self.spans[rec[3]][0] != rec[0]:
                layer_total[rec[0]] += rec[2] - rec[1]  # outermost call of its layer
        residual = max(
            (abs(per_op_self[op] - wall) for op, wall in per_op_wall.items()), default=0.0
        )
        return {
            "self": dict(layer_self),
            "total": dict(layer_total),
            "calls": dict(layer_calls),
            "spans": spans,
            "residual": residual,
        }

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([index, name, start, end, parent, op]) + "\n")
