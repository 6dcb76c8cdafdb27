import json
from fractions import Fraction

import pytest

from cwemarket import (
    Agent,
    Auction,
    InputError,
    Trace,
    UnitDemandValuation,
    Valuation,
    generate,
    maximize_revenue,
    run_poly,
    run_simple,
)
from cwemarket.serialize import (
    dumps,
    instance_to_json,
    ladder_to_json,
    loads,
    outcome_from_json,
    outcome_to_json,
    parse_instance,
    trace_to_json,
    valuation_from_json,
)
from cwemarket.trace import (
    Assign,
    FallbackRecord,
    IterationEnd,
    Merge,
    PoolAdd,
    PoolRemove,
    PriceRaise,
    Reject,
    Unassign,
)

F = Fraction

FIVE_KIND_INSTANCE = {
    "items": ["a", "b"],
    "agents": [
        {
            "name": "ex",
            "valuation": {
                "type": "explicit",
                "values": [
                    {"items": [], "value": "0"},
                    {"items": ["a"], "value": "1"},
                    {"items": ["b"], "value": "1/2"},
                    {"items": ["a", "b"], "value": "2"},
                ],
            },
        },
        {
            "name": "ad",
            "valuation": {"type": "additive", "weights": {"a": "1/3", "b": 2}},
        },
        {
            "name": "ud",
            "valuation": {"type": "unit_demand", "weights": {"a": "3/2", "b": "1"}},
        },
        {
            "name": "sm",
            "valuation": {"type": "single_minded", "desired": ["a", "b"], "weight": "5"},
        },
        {
            "name": "xs",
            "valuation": {
                "type": "xos",
                "clauses": [{"a": "1"}, {"a": "1/2", "b": "1/2"}],
            },
        },
    ],
    "initial_allocation": [{"agent": "ex", "bundle": ["a", "b"]}],
}


def test_instance_round_trip_covers_every_valuation_kind():
    auction, seed = parse_instance(FIVE_KIND_INSTANCE)
    assert list(auction.agent_names) == ["ex", "ad", "ud", "sm", "xs"]
    ab = frozenset({"a", "b"})
    assert auction.valuation("ex").value(ab) == F(2)
    assert auction.valuation("ad").value(ab) == F(7, 3)
    assert auction.valuation("ud").value(ab) == F(3, 2)
    assert auction.valuation("sm").value(frozenset({"a"})) == F(0)
    assert auction.valuation("xs").value(frozenset({"b"})) == F(1, 2)
    assert seed == {"ex": ab}
    encoded = instance_to_json(auction, seed)
    again, again_seed = parse_instance(encoded)
    assert instance_to_json(again, again_seed) == encoded


def test_loads_rejects_floats_and_garbage():
    with pytest.raises(InputError, match="floating point"):
        loads('{"x": 1.5}', "instance")
    with pytest.raises(InputError, match="malformed instance"):
        loads("{nope", "instance")
    assert loads(dumps({"k": "1/3"}), "instance") == {"k": "1/3"}


def test_json_true_is_not_a_number():
    bad = {
        "items": ["a"],
        "agents": [
            {"name": "z", "valuation": {"type": "additive", "weights": {"a": True}}}
        ],
    }
    with pytest.raises(InputError):
        parse_instance(bad)


def test_duplicate_explicit_row_rejected():
    with pytest.raises(InputError, match="duplicate"):
        valuation_from_json(
            frozenset({"a"}),
            {
                "type": "explicit",
                "values": [
                    {"items": [], "value": "0"},
                    {"items": ["a"], "value": "1"},
                    {"items": ["a"], "value": "2"},
                ],
            },
        )


def test_unknown_valuation_type_rejected():
    with pytest.raises(InputError, match="unknown valuation type"):
        valuation_from_json(frozenset({"a"}), {"type": "budget_additive"})


def test_instance_writer_refuses_an_unknown_valuation_class():
    class Opaque(Valuation):
        items = frozenset({"x"})

        def validate(self):
            return None

    auction = Auction(items=("x",), agents=(Agent("a", Opaque()),))
    with pytest.raises(InputError, match="^cannot serialize valuation of type Opaque$"):
        instance_to_json(auction)


def test_seed_rejects_duplicates_and_strangers():
    dup = dict(FIVE_KIND_INSTANCE)
    dup["initial_allocation"] = [
        {"agent": "ex", "bundle": ["a"]},
        {"agent": "ex", "bundle": ["b"]},
    ]
    with pytest.raises(InputError, match="twice"):
        parse_instance(dup)
    stranger = dict(FIVE_KIND_INSTANCE)
    stranger["initial_allocation"] = [{"agent": "who", "bundle": ["a"]}]
    with pytest.raises(InputError, match="unknown agent"):
        parse_instance(stranger)


def test_outcome_report_round_trip():
    auction, seed = generate("gap3")
    out, trace = run_poly(auction, seed)
    obj = outcome_to_json(auction, out, cwe=True, iterations=trace.iterations,
                          demand_queries=trace.demand_queries)
    assert obj["catalog"] == [["1"], ["2", "3"]]
    assert obj["prices"] == ["1/2", "8/5"]
    assert obj["assignment"] == {"a1": [1], "a2": [], "a3": []}
    assert obj["withheld"] == []
    assert obj["sw"] == "21/10"
    assert obj["revenue"] == "8/5"
    assert obj["cwe"] is True
    json.dumps(obj)
    rebuilt = outcome_from_json(auction, obj)
    assert outcome_to_json(
        auction, rebuilt, cwe=True, iterations=trace.iterations,
        demand_queries=trace.demand_queries,
    ) == obj


def test_outcome_withheld_consistency():
    items = frozenset({"x", "y"})
    auction = Auction(
        items=items,
        agents=(Agent("A", UnitDemandValuation(items, {"x": F(4)})),),
    )
    out, trace = run_poly(auction, {"A": frozenset({"x"})})
    obj = outcome_to_json(auction, out, cwe=True, iterations=trace.iterations,
                          demand_queries=trace.demand_queries)
    assert obj["withheld"] == ["y"]
    rebuilt = outcome_from_json(auction, obj)
    assert rebuilt.catalog.withheld == frozenset({"y"})
    tampered = dict(obj)
    tampered["withheld"] = []
    with pytest.raises(InputError, match="disagrees"):
        outcome_from_json(auction, tampered)


def test_outcome_parsing_validates_identity():
    auction, seed = generate("gap3")
    out, trace = run_poly(auction, seed)
    obj = outcome_to_json(auction, out, cwe=True, iterations=0, demand_queries=0)
    alien = dict(obj)
    alien["assignment"] = {"zz": [0]}
    with pytest.raises(InputError, match="unknown agent"):
        outcome_from_json(auction, alien)
    oob = dict(obj)
    oob["assignment"] = {"a1": [5]}
    with pytest.raises(InputError, match="out of range"):
        outcome_from_json(auction, oob)
    ragged = dict(obj)
    ragged["prices"] = ["1/2"]
    with pytest.raises(InputError, match="parallel"):
        outcome_from_json(auction, ragged)
    foreign = dict(obj)
    foreign["catalog"] = [["1"], ["2", "q"]]
    with pytest.raises(InputError, match="outside"):
        outcome_from_json(auction, foreign)


def test_trace_serialization_tags_every_event():
    auction, seed = generate("gap3")
    _, trace = run_simple(auction, seed, epsilon=F(1, 20))
    obj = trace_to_json(trace)
    json.dumps(obj)
    kinds = {e["type"] for e in obj["events"]}
    assert kinds <= {
        "merge", "price_raise", "pool_add", "pool_remove", "reject",
        "assign", "unassign", "fallback", "iteration_end",
    }
    assert {"merge", "price_raise", "assign", "iteration_end"} <= kinds
    assert obj["iterations"] == trace.iterations
    assert obj["demand_queries"] == trace.demand_queries


def test_trace_wire_form_is_fixed():
    """One event of each kind: the tag, the keys in order and the value
    encoding (sorted id lists, "p/q" prices) are the file format."""
    trace = Trace(
        events=[
            Merge(sources=(3, 1), new_id=4),
            PriceRaise(bundle=4, old=1, new=6),
            PoolAdd("a1"),
            PoolRemove("a1"),
            Reject("a2"),
            Assign("a1", frozenset({4, 0})),
            Unassign("a1"),
            FallbackRecord("a3", frozenset({2, 0})),
            IterationEnd(7),
        ],
        iterations=7,
        demand_queries=30,
        scale=2,
    )
    obj = trace_to_json(trace)
    assert list(obj) == ["events", "iterations", "demand_queries"]
    assert (obj["iterations"], obj["demand_queries"]) == (7, 30)
    assert [list(ev.items()) for ev in obj["events"]] == [
        [("type", "merge"), ("sources", [1, 3]), ("new_id", 4)],
        [("type", "price_raise"), ("bundle", 4), ("old", "1/2"), ("new", "3")],
        [("type", "pool_add"), ("agent", "a1")],
        [("type", "pool_remove"), ("agent", "a1")],
        [("type", "reject"), ("agent", "a2")],
        [("type", "assign"), ("agent", "a1"), ("bundles", [0, 4])],
        [("type", "unassign"), ("agent", "a1")],
        [("type", "fallback"), ("agent", "a3"), ("bundles", [0, 2])],
        [("type", "iteration_end"), ("index", 7)],
    ]


def test_ladder_serialization():
    auction, seed = generate("logn_revenue", n=4)
    result = maximize_revenue(auction, seed)
    obj = ladder_to_json(result.levels, result.t_star)
    json.dumps(obj)
    assert obj["t_star"] == 0
    assert len(obj["ladder"]) == 5
    assert obj["ladder"][1] == {
        "t": 1,
        "sigma": "11/36",
        "sw": "1",
        "rev": "23/36",
        "survivors": ["a1"],
    }
