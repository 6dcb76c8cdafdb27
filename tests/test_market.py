import re
from collections import Counter
from fractions import Fraction

import pytest

from cwemarket import (
    AdditiveValuation,
    Agent,
    Auction,
    Catalog,
    ExplicitValuation,
    InputError,
    Outcome,
    ResourceLimitError,
    SolverInvariantError,
    UnitDemandValuation,
    brute_force_optimal,
    demand,
    demand_correspondence,
    find_violation,
    generate,
    induced_value,
    initial_market,
    is_cwe,
    maximize_revenue,
    merge_bundles,
    replay,
    revenue_of,
    run_poly,
    run_simple,
    social_welfare,
    utility,
    validate_initial_allocation,
)
from cwemarket import market
from cwemarket.market import tie_key
from cwemarket.serialize import outcome_to_json

from .helpers import reference_initial_market

F = Fraction


def two_item_auction():
    v = ExplicitValuation.from_entries(
        ["1", "2"],
        {frozenset({"1"}): F(1), frozenset({"2"}): F(2), frozenset({"1", "2"}): F(2)},
    )
    return Auction(items=frozenset({"1", "2"}), agents=(Agent("a", v),))


def cat2():
    return Catalog(entries=((0, frozenset({"1"})), (1, frozenset({"2"}))))


def test_utility_is_value_minus_price_sum():
    auction = two_item_auction()
    prices = {0: F(1, 2), 1: F(3, 2)}
    assert utility(auction, "a", frozenset(), cat2(), prices) == 0
    assert utility(auction, "a", {0}, cat2(), prices) == F(1, 2)
    assert utility(auction, "a", {1}, cat2(), prices) == F(1, 2)
    assert utility(auction, "a", {0, 1}, cat2(), prices) == 0
    with pytest.raises(InputError):
        utility(auction, "a", {9}, cat2(), prices)


def test_demand_ties_listed_small_first():
    auction = two_item_auction()
    best, members = demand_correspondence(
        auction, "a", cat2(), {0: F(1, 2), 1: F(3, 2)}
    )
    assert best == F(1, 2)
    assert members == [frozenset({0}), frozenset({1})]


def test_demand_includes_empty_set_at_zero():
    auction = two_item_auction()
    best, members = demand_correspondence(auction, "a", cat2(), {0: F(1), 1: F(2)})
    assert best == 0
    assert frozenset() in members
    assert members[0] == frozenset()


def test_demand_respects_exclusion():
    auction = two_item_auction()
    best, members = demand_correspondence(
        auction, "a", cat2(), {0: F(1, 2), 1: F(3, 2)}, excluded=frozenset({0})
    )
    assert best == F(1, 2)
    assert members == [frozenset({1})]


def test_demand_bundle_cap(monkeypatch):
    items = frozenset(str(i) for i in range(3))
    auction = Auction(
        items=items,
        agents=(Agent("a", AdditiveValuation(items, {i: F(1) for i in items})),),
    )
    catalog = Catalog(entries=tuple((k, frozenset({str(k)})) for k in range(3)))
    prices = {k: F(0) for k in range(3)}
    monkeypatch.setattr(market, "DEMAND_BUNDLE_CAP", 2)
    with pytest.raises(ResourceLimitError):
        demand_correspondence(auction, "a", catalog, prices)


def test_tie_key_prefers_unheld_then_small_then_low_ids():
    cands = [frozenset({0}), frozenset({1}), frozenset({0, 1}), frozenset({2})]
    taken = {"other": frozenset({0})}
    assert min(cands, key=tie_key("me", taken)) == frozenset({1})
    assert min([frozenset({0, 1}), frozenset({2})], key=tie_key("me", {})) == frozenset({2})
    assert min([frozenset({1}), frozenset({0})], key=tie_key("me", None)) == frozenset({0})
    # own holdings do not count against a set; with no agent named, all do
    assert min(cands, key=tie_key("other", taken)) == frozenset({0})
    assert min(cands, key=tie_key(None, taken)) == frozenset({1})


def test_chosen_demand_end_to_end():
    auction = two_item_auction()
    _, got = demand(
        auction, "a", cat2(), {0: F(1, 2), 1: F(3, 2)},
        others={"b": frozenset({0})},
    )
    assert got == frozenset({1})


def test_merge_bundles():
    catalog = cat2()
    merged, new_id = merge_bundles(catalog, [0, 1])
    assert new_id == 2
    assert dict(merged.entries) == {2: frozenset({"1", "2"})}
    with pytest.raises(InputError):
        merge_bundles(catalog, [0])
    with pytest.raises(InputError):
        merge_bundles(catalog, [0, 7])
    # merging a subset keeps the rest and appends the union at a fresh id
    three = Catalog(
        entries=((0, frozenset({"1"})), (1, frozenset({"2"})), (2, frozenset({"3"})))
    )
    merged2, nid = merge_bundles(three, [0, 2])
    assert nid == 3
    assert merged2.entries == ((1, frozenset({"2"})), (3, frozenset({"1", "3"})))


def test_catalog_rejects_overlap_and_duplicates():
    with pytest.raises(InputError):
        Catalog(entries=((0, frozenset({"1"})), (1, frozenset({"1"}))))
    with pytest.raises(InputError):
        Catalog(entries=((0, frozenset({"1"})), (0, frozenset({"2"}))))
    with pytest.raises(InputError):
        Catalog(entries=((0, frozenset()),))
    with pytest.raises(InputError):
        Catalog(entries=((0, frozenset({"1"})),), withheld=frozenset({"1"}))


def seeded_auction():
    items = frozenset({"x", "y", "z"})
    return Auction(
        items=items,
        agents=(
            Agent("p", UnitDemandValuation(items, {"x": F(4)})),
            Agent("q", AdditiveValuation(items, {"y": F(2), "z": F(2)})),
        ),
    )


def test_initial_market_seeds_half_price_and_withholds_rest():
    auction = seeded_auction()
    seed = {"p": frozenset({"x"}), "q": frozenset({"y"})}
    market, scale, catalog, prices = initial_market(auction, seed)
    assert (market, scale) == auction.on_lattice()
    assert catalog.entries == ((0, frozenset({"x"})), (1, frozenset({"y"})))
    assert catalog.withheld == frozenset({"z"})
    assert {bid: F(p, scale) for bid, p in prices.items()} == {0: F(2), 1: F(1)}
    assert reference_initial_market(auction, seed) == (catalog, {0: F(2), 1: F(1)})


def test_validate_initial_allocation_errors():
    auction = seeded_auction()
    with pytest.raises(InputError, match="unknown agent"):
        validate_initial_allocation(auction, {"nobody": frozenset({"x"})})
    with pytest.raises(InputError, match="unknown items"):
        validate_initial_allocation(auction, {"p": frozenset({"w"})})
    with pytest.raises(InputError, match="disjoint"):
        validate_initial_allocation(
            auction, {"p": frozenset({"x"}), "q": frozenset({"x"})}
        )
    norm = validate_initial_allocation(auction, {"p": frozenset(), "q": {"z"}})
    assert norm == {"q": frozenset({"z"})}


def test_outcome_rejects_double_assignment_and_unknown_bundles():
    catalog = cat2()
    prices = {0: F(0), 1: F(0)}
    with pytest.raises(InputError):
        Outcome(catalog, prices, {"a": frozenset({0}), "b": frozenset({0})})
    with pytest.raises(InputError):
        Outcome(catalog, prices, {"a": frozenset({5})})
    with pytest.raises(InputError):
        Outcome(catalog, {0: F(0)}, {})
    with pytest.raises(InputError):
        Outcome(catalog, {0: F(-1), 1: F(0)}, {})


@pytest.mark.parametrize("held", [[0], (0,), 0, None])
def test_outcome_rejects_an_assignment_value_that_is_not_a_set(held):
    """A list, tuple or bare id is bad input naming its agent, not a
    TypeError from the subset check."""
    kind = type(held).__name__
    with pytest.raises(InputError, match=f"^assignment of 'a' must be a set, got {kind}$"):
        Outcome(cat2(), {0: F(0), 1: F(0)}, {"a": held})


@pytest.mark.parametrize("price", [0.5, True, "1/2"])
def test_outcome_rejects_prices_that_are_not_ints_or_fractions(price):
    """Prices are checked where they enter: a float, a bool or a string
    is bad input naming its bundle, not a crash in a later check."""
    with pytest.raises(InputError, match=f"bundle 1 has price {price!r}"):
        Outcome(cat2(), {0: F(1, 2), 1: price}, {"a": frozenset({0})})


def test_outcome_rejects_a_price_for_a_bundle_outside_its_catalog():
    """A stray price key is bad input naming the key, not an
    AttributeError in a later `find_violation`."""
    auction, seed = generate("gap3")
    out, _ = run_poly(auction, seed)
    for stray in (99, "x"):
        with pytest.raises(InputError, match=f"bundle {stray!r}, which is not in the catalog"):
            Outcome(out.catalog, {**out.prices, stray: F(1, 2)}, out.assignment)


def test_find_violation_and_is_cwe():
    auction = two_item_auction()
    catalog = cat2()
    # stable: held set attains the demand maximum
    good = Outcome(catalog, {0: F(1, 2), 1: F(3, 2)}, {"a": frozenset({0})})
    assert is_cwe(auction, good)
    # unstable: holding nothing while a bundle gives positive utility
    bad = Outcome(catalog, {0: F(1, 2), 1: F(3, 2)}, {})
    vio = find_violation(auction, bad)
    assert vio is not None
    assert vio.agent == "a"
    assert vio.held == frozenset()
    assert vio.better in (frozenset({0}), frozenset({1}))
    assert vio.gap == F(1, 2)
    assert vio.best_utility == F(1, 2) and vio.held_utility == 0
    # withheld items are simply off the market
    part = Catalog(entries=((0, frozenset({"1"})),), withheld=frozenset({"2"}))
    ok = Outcome(part, {0: F(1, 2)}, {"a": frozenset({0})})
    assert is_cwe(auction, ok)


def test_find_violation_refuses_an_unknown_agent():
    """An assignment naming an agent outside the auction is bad input,
    as in `supporting_prices`, not a stable outcome."""
    stray = Outcome(cat2(), {0: F(0), 1: F(0)}, {"zz": frozenset({0})})
    for check in (find_violation, is_cwe):
        with pytest.raises(InputError, match="assignment names unknown agent 'zz'"):
            check(two_item_auction(), stray)


def test_welfare_and_revenue_refuse_an_unknown_agent():
    """A report on an outcome that sells a bundle at 5 to an agent
    outside the auction must not read welfare 0 and revenue 0."""
    auction, _ = generate("gap3")
    stray = Outcome(
        Catalog(entries=((0, frozenset({"1"})),)), {0: F(5)}, {"zz": frozenset({0})}
    )
    for measure in (
        social_welfare,
        revenue_of,
        lambda auction, outcome: outcome_to_json(auction, outcome, True, 0, 0),
    ):
        with pytest.raises(InputError, match="assignment names unknown agent 'zz'"):
            measure(auction, stray)


def test_social_welfare_sums_assigned_values():
    auction = seeded_auction()
    catalog, prices = reference_initial_market(
        auction, {"p": frozenset({"x"}), "q": frozenset({"y", "z"})}
    )
    out = Outcome(catalog, prices, {"p": frozenset({0}), "q": frozenset({1})})
    assert social_welfare(auction, out) == 8
    empty = Outcome(catalog, prices, {})
    assert social_welfare(auction, empty) == 0


def test_bundle_value_pools_items_before_valuing():
    auction, _ = generate("gap3")
    catalog = Catalog(
        entries=((0, frozenset({"1"})), (1, frozenset({"2", "3"})))
    )
    v = auction.valuation("a1")
    assert induced_value(v, catalog, frozenset({1})) == F(21, 10)
    assert induced_value(v, catalog, frozenset({0, 1})) == F(21, 10)
    assert utility(auction, "a1", frozenset({1}), catalog,
                   {0: F(1, 2), 1: F(1)}) == F(11, 10)
    with pytest.raises(InputError, match="no bundle"):
        induced_value(v, catalog, frozenset({7}))


def test_auction_duplicate_agent_names_rejected():
    items = frozenset({"x"})
    with pytest.raises(InputError):
        Auction(
            items=items,
            agents=(
                Agent("a", AdditiveValuation(items, {"x": F(1)})),
                Agent("a", AdditiveValuation(items, {"x": F(2)})),
            ),
        )


def test_auction_valuation_universe_must_match():
    items = frozenset({"x", "y"})
    with pytest.raises(InputError):
        Auction(
            items=items,
            agents=(Agent("a", AdditiveValuation(frozenset({"x"}), {"x": F(1)})),),
        )


def test_auction_refuses_duplicate_items_and_an_invalid_valuation():
    valuation = AdditiveValuation(frozenset({"x"}), {"x": F(1)})
    with pytest.raises(InputError, match="^duplicate item identifiers$"):
        Auction(items=("x", "x"), agents=(Agent("a", valuation),))
    negative = AdditiveValuation(frozenset({"x"}), {"x": F(-1)})
    message = "valuation of 'a' invalid (negative_weight): weight of item 'x' is -1"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        Auction(items=("x",), agents=(Agent("a", negative),))


def test_a_lattice_copy_is_kept_once_per_scale_and_refuses_another_lattice():
    """gap3's agent a1 values all items at 21/10: 42 on the copy at scale
    20.  Scaling that copy again would read 840, so it refuses."""
    auction, _ = generate("gap3")
    lattice, scale = auction.on_lattice()
    assert scale == 20
    assert lattice.valuation("a1").value(auction.item_set) == 42
    again, _ = auction.on_lattice(4)
    assert again is lattice
    thirds, scale = auction.on_lattice(3)
    assert scale == 60 and thirds is not lattice
    assert thirds.valuation("a1").value(auction.item_set) == 126
    for lattice_copy in (lattice, thirds):
        with pytest.raises(SolverInvariantError, match="^on_lattice of an auction already on a"):
            lattice_copy.on_lattice()


def test_a_sweep_operation_scales_each_valuation_once_per_scale(monkeypatch):
    """Brute force, the revenue ladder (its poly run included), the simple
    solver at g/2, `find_violation` and the replay of both solvers' traces
    share one lattice copy per scale, and replay reads its seed from it,
    never from the auction's own valuations; a simple run at g/6 adds one
    copy at a second scale."""
    calls = Counter()
    scaled, value = ExplicitValuation.scaled, ExplicitValuation.value

    def counted(valuation, scale):
        calls[id(valuation), scale] += 1
        return scaled(valuation, scale)

    monkeypatch.setattr(ExplicitValuation, "scaled", counted)
    auction, _ = generate("random_explicit", m=4, n=3, seed=5)
    _, allocation = brute_force_optimal(auction)
    seed = {name: items for name, items in allocation.items() if items}
    maximize_revenue(auction, seed)
    g = auction.granularity()
    outcome, simple_trace = run_simple(auction, seed, g / 2)
    assert find_violation(auction, outcome) is None
    _, poly_trace = run_poly(auction, seed)
    own = {id(agent.valuation) for agent in auction.agents}

    def unscaled_refused(valuation, items):
        assert id(valuation) not in own, "replay valued the auction's own valuation"
        return value(valuation, items)

    monkeypatch.setattr(ExplicitValuation, "value", unscaled_refused)
    for trace in (poly_trace, simple_trace):
        replay(auction, seed, trace)
    monkeypatch.setattr(ExplicitValuation, "value", value)
    assert sorted(calls.values()) == [1] * len(auction.agents)
    run_simple(auction, seed, g / 6)
    assert sorted(calls.values()) == [1] * 2 * len(auction.agents)
    assert len({scale for _, scale in calls}) == 2


def test_an_auction_keeps_one_lattice_copy_whatever_scales_it_is_asked_for():
    """Checking gap3's poly outcome with its prices shifted by 1/(20q + 1),
    q = 1..100, asks for 100 scales besides the solver's 20; the auction
    keeps only the last copy, and asking for scale 20 again builds it
    anew."""
    auction, seed = generate("gap3")
    outcome, _ = run_poly(auction, seed)
    solved, _ = auction.on_lattice()
    for q in range(1, 101):
        shift = F(1, 20 * q + 1)
        prices = {bid: p + shift for bid, p in outcome.prices.items()}
        find_violation(auction, Outcome(outcome.catalog, prices, outcome.assignment))
    assert list(auction._lattice) == [20 * 2001]
    again, scale = auction.on_lattice()
    assert scale == 20 and again is not solved
    assert list(auction._lattice) == [20]


def test_agent_lookups_refuse_an_unknown_agent():
    auction = two_item_auction()
    for lookup in (auction.valuation, auction.agent_index):
        with pytest.raises(InputError, match="^unknown agent 'zz'$"):
            lookup("zz")
    # the lattice copy looks names up in its own, scaled agents
    lattice, scale = auction.on_lattice()
    assert lattice.valuation("a") is lattice.agents[0].valuation
    assert lattice.valuation("a").value({"2"}) == 2 * scale
    with pytest.raises(InputError, match="^unknown agent 'zz'$"):
        lattice.valuation("zz")
