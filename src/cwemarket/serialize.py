"""JSON encoding of auctions, outcomes, traces, and reports.

Scalars travel as "p/q" strings or bare integers; floats are rejected
at the parser level so no inexact value can slip into the exact
arithmetic.  Field names are part of the tool's contract.  A trace is
written event by event (`event_to_json`).
"""
from __future__ import annotations

import json
from dataclasses import fields
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from .errors import InputError
from .market import (
    Agent,
    Auction,
    Catalog,
    InitialAllocation,
    Outcome,
    check_agents,
    revenue_of,
    social_welfare,
    validate_initial_allocation,
)
from .scalars import format_scalar, parse_scalar
from .trace import Event, Trace
from .valuations import (
    AdditiveValuation,
    ExplicitValuation,
    ItemSet,
    SingleMindedValuation,
    UnitDemandValuation,
    Valuation,
    XosValuation,
)


def _reject_float(text: str) -> Fraction:
    raise InputError(
        f"floating point literal {text!r} not accepted; use \"p/q\" strings"
    )


def loads(text: str, kind: str) -> Any:
    """Parse JSON text read from a file of the given kind ("instance"
    or "solution"); the kind names the file in the error message."""
    try:
        return json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed {kind} text: {exc}") from None


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _expect(obj: Any, kind: type, what: str) -> Any:
    if not isinstance(obj, kind) or isinstance(obj, bool) and kind is not bool:
        raise InputError(f"{what} must be {kind.__name__}, got {type(obj).__name__}")
    return obj


def _item_list(obj: Any, what: str) -> List[str]:
    return [_expect(entry, str, f"{what} entry") for entry in _expect(obj, list, what)]


def _weight_map(obj: Any, what: str) -> Dict[str, Fraction]:
    _expect(obj, dict, what)
    return {
        _expect(k, str, f"{what} key"): parse_scalar(v) for k, v in obj.items()
    }


def valuation_from_json(items: ItemSet, obj: Any) -> Valuation:
    _expect(obj, dict, "valuation")
    kind = obj.get("type")
    if kind == "explicit":
        entries = _expect(obj.get("values"), list, "explicit values")
        table: Dict[ItemSet, Fraction] = {}
        for row in entries:
            _expect(row, dict, "explicit value row")
            subset = frozenset(_item_list(row.get("items"), "value row items"))
            if subset in table:
                raise InputError(
                    f"duplicate explicit entry for {sorted(subset)!r}"
                )
            table[subset] = parse_scalar(row.get("value"))
        return ExplicitValuation.from_entries(items, table)
    if kind == "additive":
        return AdditiveValuation(items, _weight_map(obj.get("weights"), "weights"))
    if kind == "unit_demand":
        return UnitDemandValuation(items, _weight_map(obj.get("weights"), "weights"))
    if kind == "single_minded":
        desired = frozenset(_item_list(obj.get("desired"), "desired"))
        return SingleMindedValuation(items, desired, parse_scalar(obj.get("weight")))
    if kind == "xos":
        clauses_obj = _expect(obj.get("clauses"), list, "clauses")
        clauses = [_weight_map(c, "clause") for c in clauses_obj]
        return XosValuation(items, clauses)
    raise InputError(f"unknown valuation type {kind!r}")


def valuation_to_json(valuation: Valuation) -> Dict[str, Any]:
    if isinstance(valuation, ExplicitValuation):
        return {
            "type": "explicit",
            "values": [
                {"items": items, "value": format_scalar(value)}
                for items, value in valuation.rows()
            ],
        }
    if isinstance(valuation, (AdditiveValuation, UnitDemandValuation)):
        return {
            "type": valuation.kind,
            "weights": {
                i: format_scalar(w) for i, w in sorted(valuation.weights.items())
            },
        }
    if isinstance(valuation, SingleMindedValuation):
        return {
            "type": "single_minded",
            "desired": sorted(valuation.desired),
            "weight": format_scalar(valuation.weight),
        }
    if isinstance(valuation, XosValuation):
        return {
            "type": "xos",
            "clauses": [
                {i: format_scalar(w) for i, w in sorted(clause.items())}
                for clause in valuation.clauses
            ],
        }
    raise InputError(f"cannot serialize valuation of type {type(valuation).__name__}")


def parse_instance(obj: Any) -> Tuple[Auction, Optional[Dict[str, ItemSet]]]:
    """Build an auction (and its optional seed allocation) from JSON data."""
    _expect(obj, dict, "instance")
    items = tuple(_item_list(obj.get("items"), "items"))
    universe = frozenset(items)
    agents_obj = _expect(obj.get("agents"), list, "agents")
    agents = []
    for row in agents_obj:
        _expect(row, dict, "agent")
        name = _expect(row.get("name"), str, "agent name")
        valuation = valuation_from_json(universe, row.get("valuation"))
        agents.append(Agent(name=name, valuation=valuation))
    auction = Auction(items=items, agents=tuple(agents))
    allocation: Optional[Dict[str, ItemSet]] = None
    if "initial_allocation" in obj:
        rows = _expect(obj["initial_allocation"], list, "initial_allocation")
        raw: Dict[str, ItemSet] = {}
        for row in rows:
            _expect(row, dict, "initial_allocation entry")
            agent = _expect(row.get("agent"), str, "initial_allocation agent")
            if agent in raw:
                raise InputError(f"agent {agent!r} allocated twice in seed")
            raw[agent] = frozenset(_item_list(row.get("bundle"), "seed bundle"))
        allocation = validate_initial_allocation(auction, raw)
    return auction, allocation


def instance_to_json(
    auction: Auction, allocation: Optional[InitialAllocation] = None
) -> Dict[str, Any]:
    obj: Dict[str, Any] = {
        "items": list(auction.items),
        "agents": [
            {"name": agent.name, "valuation": valuation_to_json(agent.valuation)}
            for agent in auction.agents
        ],
    }
    if allocation is not None:
        obj["initial_allocation"] = [
            {"agent": name, "bundle": sorted(allocation[name])}
            for name in auction.agent_names
            if name in allocation and allocation[name]
        ]
    return obj


def _read(path: str, kind: str) -> Any:
    """The JSON in the file at `path`; `kind` names the file in errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {kind} file {path!r}: {exc}") from None
    return loads(text, kind)


def load_instance(path: str) -> Tuple[Auction, Optional[Dict[str, ItemSet]]]:
    return parse_instance(_read(path, "instance"))


def load_solution(auction: Auction, path: str) -> Outcome:
    return outcome_from_json(auction, _read(path, "solution"))


def outcome_to_json(
    auction: Auction,
    outcome: Outcome,
    cwe: bool,
    iterations: int,
    demand_queries: int,
) -> Dict[str, Any]:
    """The outcome report: positional catalog, parallel prices, and the
    assignment as positions into the catalog list."""
    position = {bid: k for k, (bid, _) in enumerate(outcome.catalog.entries)}
    return {
        "catalog": [sorted(items) for _, items in outcome.catalog.entries],
        "prices": [
            format_scalar(outcome.prices[bid]) for bid, _ in outcome.catalog.entries
        ],
        "assignment": {
            name: sorted(
                position[bid]
                for bid in outcome.assignment.get(name, frozenset())
            )
            for name in auction.agent_names
        },
        "withheld": sorted(outcome.catalog.withheld),
        "sw": format_scalar(social_welfare(auction, outcome)),
        "revenue": format_scalar(revenue_of(auction, outcome)),
        "cwe": cwe,
        "iterations": iterations,
        "demand_queries": demand_queries,
    }


def outcome_from_json(auction: Auction, obj: Any) -> Outcome:
    """Rebuild an outcome from its report form for re-verification."""
    _expect(obj, dict, "outcome")
    bundles_obj = _expect(obj.get("catalog"), list, "catalog")
    entries = [(k, frozenset(_item_list(b, "catalog bundle"))) for k, b in enumerate(bundles_obj)]
    prices_obj = _expect(obj.get("prices"), list, "prices")
    if len(prices_obj) != len(entries):
        raise InputError("prices list must parallel the catalog list")
    prices = {k: parse_scalar(p) for k, p in enumerate(prices_obj)}
    catalog = Catalog.selling(auction.item_set, entries)
    if "withheld" in obj:
        stated = frozenset(_item_list(obj["withheld"], "withheld"))
        if stated != catalog.withheld:
            raise InputError(
                "withheld list disagrees with items absent from the catalog"
            )
    assignment_obj = _expect(obj.get("assignment"), dict, "assignment")
    check_agents(auction.agent_names, assignment_obj)
    assignment = {}
    for name, indices in assignment_obj.items():
        _expect(indices, list, "assignment bundle list")
        held = set()
        for idx in indices:
            _expect(idx, int, "bundle index")
            if not 0 <= idx < len(entries):
                raise InputError(f"bundle index {idx} out of range")
            if idx in held:
                raise InputError(f"bundle index {idx} listed twice for {name!r}")
            held.add(idx)
        assignment[name] = frozenset(held)
    return Outcome(catalog=catalog, prices=prices, assignment=assignment)


def event_to_json(event: Event, scale: int) -> Dict[str, Any]:
    """Wire form of one trace event: its tag under "type", then its fields
    in declaration order.  Bundle collections become sorted lists and
    prices, ints on the lattice of `scale`, "p/q" strings."""
    obj: Dict[str, Any] = {"type": event.kind}
    for f in fields(event):
        value = getattr(event, f.name)
        if isinstance(value, (tuple, frozenset)):
            value = sorted(value)
        elif f.metadata.get("price"):
            value = format_scalar(Fraction(value, scale))
        obj[f.name] = value
    return obj


def trace_to_json(trace: Trace) -> Dict[str, Any]:
    return {
        "events": [event_to_json(ev, trace.scale) for ev in trace.events],
        "iterations": trace.iterations,
        "demand_queries": trace.demand_queries,
    }


def ladder_to_json(levels, t_star: int) -> Dict[str, Any]:
    return {
        "t_star": t_star,
        "ladder": [
            {
                "t": level.t,
                "sigma": format_scalar(level.sigma),
                "sw": format_scalar(level.sw),
                "rev": format_scalar(level.rev),
                "survivors": list(level.survivors),
            }
            for level in levels
        ],
    }
