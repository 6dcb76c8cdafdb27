"""The benchmark's workloads: their instances and the operations of one round.

`build(program, name, seed, out_dir)` generates a workload's
instances from the seed, writes them as instance files and returns
the fixed list of operations that make one round.  Each operation
carries its own output check (see checks.py) and a digest of its
output, so that a repeated operation whose output matches an already
checked one needs no second check.

Every library call goes through a module attribute looked up at call
time (`program.verifier.supporting_prices`, ...), so the traced run can
wrap those attributes from outside.
"""
from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import checks

WORKLOADS = ("cli_large_catalog", "explicit_sweep", "oracle_audit")


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], List[str]]
    digest: Callable[[Any], str]
    # Run once before timing; a returned reason leaves the operation out.
    screen: Optional[Callable[[], Optional[str]]] = None


def _instance_seeds(workload: str, seed: int, count: int) -> List[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1 << 31) for _ in range(count)]


def _write_instance(program, path: Path, auction, allocation) -> None:
    serialize = program.serialize
    path.write_text(
        serialize.dumps(serialize.instance_to_json(auction, allocation)),
        encoding="utf-8",
    )


# -- cli_large_catalog --------------------------------------------------

# Mixed-class sizes (items = agents = seeded bundles).  The support of
# each slot's valuations is fixed; the seed draws every value.  A fully
# random support changes how early bundles merge, which moved the cost
# of one session by a factor of two between seeds; with the support
# fixed it moves by under ten percent, while every value still changes.
MIXED_SIZES = (10, 10, 11, 12, 12)
LOGN_SIZES = (9, 10)


def mixed_classes(program, m: int, slot: int, seed: int):
    """m items and m agents cycling through additive, unit-demand,
    single-minded and XOS valuations; agent i is seeded with item i.
    Values are multiples of 1/64 in [1/2, 1] (single-minded: doubled)."""
    v = program.valuations
    support = random.Random(f"mixed-support:{m}:{slot}")
    rng = random.Random(seed)
    items = tuple(str(j) for j in range(1, m + 1))
    universe = frozenset(items)

    def weight() -> Fraction:
        return Fraction(rng.randint(32, 64), 64)

    agents = []
    for i, own in enumerate(items):
        others = [it for it in items if it != own]
        kind = i % 4
        if kind == 0:
            val = v.AdditiveValuation(
                universe, {it: weight() for it in [own] + support.sample(others, 1)}
            )
        elif kind == 1:
            val = v.UnitDemandValuation(
                universe, {it: weight() for it in [own] + support.sample(others, 2)}
            )
        elif kind == 2:
            desired = [own] + support.sample(others, 1)
            val = v.SingleMindedValuation(universe, desired, 2 * weight())
        else:
            val = v.XosValuation(
                universe,
                [
                    {it: weight() for it in [own] + support.sample(others, 1)}
                    for _ in range(2)
                ],
            )
        agents.append(program.market.Agent(name=f"g{i + 1}", valuation=val))
    auction = program.market.Auction(items=items, agents=tuple(agents))
    allocation = {f"g{i + 1}": frozenset({it}) for i, it in enumerate(items)}
    return auction, allocation


def run_cli(program, argv: List[str]) -> Tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = program.cli.run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_session(program, path: Path) -> Callable[[], Dict[str, Any]]:
    trace_path = path.with_suffix(".trace.json")
    report_path = path.with_suffix(".report.json")

    def run() -> Dict[str, Any]:
        rc_s, solve, err_s = run_cli(
            program, ["solve", "--input", str(path), "--trace-out", str(trace_path)]
        )
        report_path.write_text(solve, encoding="utf-8")
        rc_v, verify, err_v = run_cli(
            program, ["verify", "--input", str(path), "--solution", str(report_path)]
        )
        rc_r, revenue, err_r = run_cli(program, ["revenue", "--input", str(path)])
        return {
            "exit_codes": [rc_s, rc_v, rc_r],
            "stderr": err_s + err_v + err_r,
            "solve": solve,
            "verify": verify,
            "revenue": revenue,
            "trace_path": trace_path,
        }

    return run


def _with_trace(out: Dict[str, Any]) -> Dict[str, Any]:
    trace_path = out["trace_path"]
    text = trace_path.read_text(encoding="utf-8") if trace_path.exists() else "{}"
    return dict(out, trace=text)


def _cli_digest(out: Dict[str, Any]) -> str:
    full = _with_trace(out)
    return repr((full["exit_codes"], full["stderr"], full["solve"], full["verify"],
                 full["revenue"], full["trace"]))


def build_cli_large_catalog(program, seed: int, out_dir: Path) -> List[Op]:
    instances = [
        (f"logn_revenue_n{n}", *program.instances.generate("logn_revenue", n=n))
        for n in LOGN_SIZES
    ]
    value_seeds = _instance_seeds("cli_large_catalog", seed, len(MIXED_SIZES))
    for slot, (m, value_seed) in enumerate(zip(MIXED_SIZES, value_seeds)):
        instances.append(
            (f"mixed_m{m}_slot{slot}", *mixed_classes(program, m, slot, value_seed))
        )
    ops = []
    for name, auction, allocation in instances:
        path = out_dir / f"{name}.json"
        _write_instance(program, path, auction, allocation)
        ops.append(
            Op(
                name=name,
                run=_cli_session(program, path),
                check=lambda out, a=auction, al=allocation: checks.check_cli_session(
                    a, al, _with_trace(out)
                ),
                digest=_cli_digest,
            )
        )
    return ops


# -- explicit_sweep -----------------------------------------------------

# Instances per (m, n).  Each size gets about 0.2 s of the round at
# today's speed (at least 3 instances, at most 48), so that no size
# dominates.  With 16 of every size, the m, n in {4, 5} instances took
# half the round, and their draw moved a round's time by up to 25%
# between seeds.
SWEEP_COUNTS = {
    (2, 2): 48, (2, 3): 23, (2, 4): 19, (2, 5): 15,
    (3, 2): 48, (3, 3): 27, (3, 4): 9, (3, 5): 6,
    (4, 2): 48, (4, 3): 31, (4, 4): 7, (4, 5): 4,
    (5, 2): 48, (5, 3): 29, (5, 4): 9, (5, 5): 3,
}


def _half_granularity(auction) -> Fraction:
    g = auction.granularity()
    return g / 2 if g is not None else Fraction(1, 2)


def _sweep_op(program, auction) -> Callable[[], Dict[str, Any]]:
    def run() -> Dict[str, Any]:
        opt, allocation = program.verifier.brute_force_optimal(auction)
        seed = {name: items for name, items in allocation.items() if items}
        result = program.revenue.maximize_revenue(auction, seed)
        simple, simple_trace = program.simple.run_simple(
            auction, seed, _half_granularity(auction)
        )
        return {
            "opt": opt,
            "allocation": allocation,
            "revenue": result,
            "simple": simple,
            "poly_replay": program.trace.replay(auction, seed, result.trace),
            "simple_replay": program.trace.replay(auction, seed, simple_trace),
        }

    return run


def _simple_deadlock(program, auction) -> Callable[[], Optional[str]]:
    """The simple solver stops with SolverDeadlockError on a few random
    instances, whatever epsilon.  Such an instance turns up on some seeds
    only, so it is left out of the round and counted instead of failing
    the run."""

    def screen() -> Optional[str]:
        _, allocation = program.verifier.brute_force_optimal(auction)
        seed = {name: items for name, items in allocation.items() if items}
        try:
            program.simple.run_simple(auction, seed, _half_granularity(auction))
        except program.errors.SolverDeadlockError as exc:
            return f"run_simple deadlocks: {exc}"
        return None

    return screen


def _market_key(outcome) -> Tuple:
    return (outcome.catalog.entries, sorted(outcome.prices.items()),
            sorted((k, sorted(v)) for k, v in outcome.assignment.items()))


def _sweep_digest(out: Dict[str, Any]) -> str:
    result = out["revenue"]
    return repr((
        out["opt"], sorted((k, sorted(v)) for k, v in out["allocation"].items()),
        _market_key(result.base), result.trace.iterations, result.trace.demand_queries,
        [(lv.t, lv.sigma, lv.survivors, lv.sw, lv.rev, _market_key(lv.outcome))
         for lv in result.levels],
        result.t_star, _market_key(out["simple"]),
        _market_key(out["poly_replay"]), _market_key(out["simple_replay"]),
    ))


def _load(program, path: Path):
    auction, _ = program.serialize.load_instance(str(path))
    return auction


def build_explicit_sweep(program, seed: int, out_dir: Path) -> List[Op]:
    slots = [size for size, count in SWEEP_COUNTS.items() for _ in range(count)]
    ops = []
    for k, ((m, n), inst_seed) in enumerate(
        zip(slots, _instance_seeds("explicit_sweep", seed, len(slots)))
    ):
        generated, _ = program.instances.generate("random_explicit", m=m, n=n, seed=inst_seed)
        path = out_dir / f"explicit_m{m}_n{n}_{k}.json"
        _write_instance(program, path, generated, None)
        auction = _load(program, path)
        ops.append(
            Op(
                name=path.stem,
                run=_sweep_op(program, auction),
                check=lambda out, a=auction: checks.check_explicit_sweep(a, out),
                digest=_sweep_digest,
                screen=_simple_deadlock(program, auction),
            )
        )
    return ops


# -- oracle_audit -------------------------------------------------------

SUPPORT_SIZES = tuple((m, n) for m in range(2, 5) for n in range(2, 5))
SEARCH_SIZES = tuple((m, n) for m in range(2, 5) for n in range(2, 4))
AUDIT_PER_SIZE = 8
SCAN_SIZES = (2, 3, 4)


def _support_op(program, auction) -> Callable[[], Dict[str, Any]]:
    verifier = program.verifier

    def run() -> Dict[str, Any]:
        opt, allocation = verifier.brute_force_optimal(auction)
        catalog = verifier.singleton_catalog(auction)
        bid_of = {items: bid for bid, items in catalog.entries}
        assignment = {
            name: frozenset(bid_of[frozenset({it})] for it in items)
            for name, items in allocation.items()
            if items
        }
        return {
            "opt": opt,
            "allocation": allocation,
            "prices": verifier.supporting_prices(auction, catalog, assignment),
            "lp_opt": verifier.config_lp_fractional_opt(auction, catalog),
        }

    return run


def _search_op(program, auction) -> Callable[[], Dict[str, Any]]:
    verifier = program.verifier

    def run() -> Dict[str, Any]:
        opt, _ = verifier.brute_force_optimal(auction)
        return {
            "opt": opt,
            "max_cwe_welfare": verifier.max_cwe_welfare(auction),
            "max_cwe_revenue": verifier.max_cwe_revenue(auction),
        }

    return run


def _scan_op(program, auction) -> Callable[[], List]:
    return lambda: list(program.verifier.stable_singleton_outcomes(auction))


def _audit_digest(out) -> str:
    if isinstance(out, list):
        return repr([(sorted((k, sorted(v)) for k, v in alloc.items()), sorted(p.items()))
                     for alloc, p in out])
    parts = []
    for key in sorted(out):
        value = out[key]
        if isinstance(value, tuple):
            value = (value[0], _market_key(value[1]))
        elif isinstance(value, dict):
            value = sorted((k, sorted(v) if isinstance(v, frozenset) else v)
                           for k, v in value.items())
        parts.append((key, value))
    return repr(parts)


def build_oracle_audit(program, seed: int, out_dir: Path) -> List[Op]:
    ops = []
    support_slots = [size for size in SUPPORT_SIZES for _ in range(AUDIT_PER_SIZE)]
    search_slots = [size for size in SEARCH_SIZES for _ in range(AUDIT_PER_SIZE)]
    inst_seeds = _instance_seeds("oracle_audit", seed, len(support_slots) + len(search_slots))
    seeded = [("support", s) for s in support_slots] + [("search", s) for s in search_slots]
    for k, ((kind, (m, n)), inst_seed) in enumerate(zip(seeded, inst_seeds)):
        generated, _ = program.instances.generate("random_explicit", m=m, n=n, seed=inst_seed)
        path = out_dir / f"{kind}_m{m}_n{n}_{k}.json"
        _write_instance(program, path, generated, None)
        auction = _load(program, path)
        if kind == "support":
            op = Op(path.stem, _support_op(program, auction),
                    lambda out, a=auction: checks.check_support_audit(a, out), _audit_digest)
        else:
            op = Op(path.stem, _search_op(program, auction),
                    lambda out, a=auction: checks.check_search_audit(a, out), _audit_digest)
        ops.append(op)
    # The paper's families, with the closed forms their parameters give.
    families = [
        ("gap3", {}, {"opt_is": Fraction(3), "max_welfare_is": Fraction(21, 10)}),
        ("logn_revenue", {"n": 4},
         {"opt_is": Fraction(25, 12), "max_revenue_at_most": Fraction(1)}),
    ]
    for family, params, closed_form in families:
        generated, seed_alloc = program.instances.generate(family, **params)
        path = out_dir / f"{family}.json"
        _write_instance(program, path, generated, seed_alloc)
        auction = _load(program, path)
        ops.append(Op(path.stem, _search_op(program, auction),
                      lambda out, a=auction, c=closed_form: checks.check_search_audit(a, out, **c),
                      _audit_digest))
    for family in ("item_pricing_um_sm", "item_pricing_xos"):
        for m in SCAN_SIZES:
            generated, seed_alloc = program.instances.generate(family, m=m)
            path = out_dir / f"{family}_m{m}.json"
            _write_instance(program, path, generated, seed_alloc)
            auction = _load(program, path)
            # um_sm: only one item sells stably, at welfare 1 + epsilon
            # (default epsilon 1/10).  xos has no closed form here.
            best = Fraction(11, 10) if family == "item_pricing_um_sm" else None
            ops.append(Op(path.stem, _scan_op(program, auction),
                          lambda out, a=auction, b=best: checks.check_singleton_scan(a, out, b),
                          _audit_digest))
    return ops


BUILDERS = {
    "cli_large_catalog": build_cli_large_catalog,
    "explicit_sweep": build_explicit_sweep,
    "oracle_audit": build_oracle_audit,
}


def build(program, workload: str, seed: int, out_dir: Path) -> List[Op]:
    out_dir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](program, seed, out_dir)
