"""The integer bitmask demand engine against exhaustive `Fraction`
enumeration (`helpers.best_avoiding`) on generated catalogs, for every
valuation class, and the narrow demand queries (`market.demand`,
`market.top_price`) against both.

Values and prices mix denominators, and some prices equal bundle values
so that zero-margin ties occur; the engine must return the same maximum
and the same members in the same canonical order, and the narrow
queries the same maximum, the same tie-broken set and the same top
prices.
"""
import copy
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from math import lcm
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwemarket import (
    AdditiveValuation,
    Agent,
    Auction,
    Catalog,
    ExplicitValuation,
    InputError,
    ResourceLimitError,
    SingleMindedValuation,
    UnitDemandValuation,
    XosValuation,
    demand,
    demand_correspondence,
    find_violation,
    is_cwe,
    maximize_revenue,
    run_poly,
    run_simple,
    utility,
)
from cwemarket import market
from cwemarket.market import tie_key, top_price
from cwemarket.scalars import lattice_int
from cwemarket.valuations import subset_unions, subsets_of

from .helpers import best_avoiding, brute_stability_violation, pick_preferred, seed_instance

F = Fraction

KINDS = ("explicit", "additive", "unit_demand", "single_minded", "xos")
MAX_ITEMS = 7
EXPLICIT_MAX_ITEMS = 5

scalars = st.builds(
    F, st.integers(0, 24), st.sampled_from((1, 2, 3, 4, 5, 6, 8, 12))
)
# few distinct values: equal margins, hence ties between bundles and
# between XOS clauses, become common
coarse = st.sampled_from((F(0), F(1), F(2)))


@st.composite
def valuations(draw, kind, universe, values=scalars):
    items = sorted(universe)
    some = st.lists(st.sampled_from(items), unique=True)
    if kind == "explicit":
        # the monotone closure of a few drawn subset values
        listed = draw(
            st.dictionaries(
                st.frozensets(st.sampled_from(items), min_size=1), values, max_size=6
            )
        )
        table = {
            s: max((v for t, v in listed.items() if t <= s), default=F(0))
            for s in subsets_of(universe)
        }
        return ExplicitValuation(universe, table)
    weights = st.dictionaries(st.sampled_from(items), values)
    if kind == "additive":
        return AdditiveValuation(universe, draw(weights))
    if kind == "unit_demand":
        return UnitDemandValuation(universe, draw(weights))
    if kind == "single_minded":
        desired = frozenset(draw(some))
        weight = draw(values) if desired else F(0)
        return SingleMindedValuation(universe, desired, weight)
    return XosValuation(universe, draw(st.lists(weights, max_size=3)))


@st.composite
def markets(draw, kind, values=None):
    """(auction with one agent "a", catalog, prices, excluded), with
    values from `values`, else from `scalars` or `coarse`."""
    top = EXPLICIT_MAX_ITEMS if kind == "explicit" else MAX_ITEMS
    items = [f"i{k}" for k in range(draw(st.integers(1, top)))]
    universe = frozenset(items)
    if values is None:
        values = draw(st.sampled_from((scalars, coarse)))
    valuation = draw(valuations(kind, universe, values))
    auction = Auction(items=universe, agents=(Agent("a", valuation),))
    # each item goes to one of up to five bundles or is withheld (-1)
    labels = draw(
        st.lists(st.integers(-1, 4), min_size=len(items), max_size=len(items))
    )
    blocks = {}
    for item, label in zip(items, labels):
        if label >= 0:
            blocks.setdefault(label, set()).add(item)
    ids = draw(
        st.lists(
            st.integers(0, 40), unique=True, min_size=len(blocks), max_size=len(blocks)
        )
    )
    entries = tuple((bid, frozenset(b)) for bid, b in zip(ids, blocks.values()))
    catalog = Catalog(
        entries=entries,
        withheld=universe.difference(*(b for _, b in entries)),
    )
    prices = {}
    for bid, _ in entries:
        mode = draw(st.sampled_from(("free", "scalar", "value")))
        if mode == "free":
            prices[bid] = F(0)
        elif mode == "scalar":
            prices[bid] = draw(values)
        else:
            # the agent's value for some set of bundles: ties at zero margin
            chosen = draw(st.lists(st.sampled_from(entries), unique=True))
            prices[bid] = valuation.value(frozenset().union(*(b for _, b in chosen)))
    excluded = frozenset(draw(st.lists(st.sampled_from(ids + [99]), unique=True)))
    return auction, catalog, prices, excluded


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_demand_matches_exhaustive_fractions(kind, data):
    auction, catalog, prices, excluded = data.draw(markets(kind))
    got = demand_correspondence(auction, "a", catalog, prices, excluded)
    assert got == best_avoiding(auction, "a", catalog, prices, excluded)


@st.composite
def holdings(draw, catalog):
    """Who else holds which bundles: each bundle goes to nobody, to the
    asking agent "a" (whose own holdings never count against a set) or
    to one of two others; sometimes there is no holdings map at all."""
    if draw(st.integers(0, 4)) == 4:
        return None
    owners = draw(
        st.lists(
            st.sampled_from(("b", None, "a", "c")),
            min_size=len(catalog.entries),
            max_size=len(catalog.entries),
        )
    )
    held = {}
    for (bid, _), owner in zip(catalog.entries, owners):
        if owner is not None:
            held.setdefault(owner, set()).add(bid)
    return {name: frozenset(bids) for name, bids in held.items()}


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_narrow_demand_matches_the_references(kind, data):
    auction, catalog, prices, excluded = data.draw(markets(kind))
    value = auction.valuation("a").value
    worth = [value(items) for _, items in catalog.entries]
    if any(worth) and data.draw(st.booleans()):
        # every bundle of positive value gets the same margin, the least
        # such value: ties above zero, where other agents' holdings
        # decide the choice
        slack = min(w for w in worth if w > 0)
        prices = {
            bid: max(F(0), w - slack) for (bid, _), w in zip(catalog.entries, worth)
        }
    others = data.draw(holdings(catalog))
    best, members = demand_correspondence(auction, "a", catalog, prices, excluded)
    ref_best, ref_members = best_avoiding(auction, "a", catalog, prices, excluded)
    got = demand(auction, "a", catalog, prices, excluded, others)
    assert got == (best, min(members, key=tie_key("a", others)))
    assert got == (ref_best, pick_preferred(ref_members, "a", others or {}))
    top, everywhere = demand_correspondence(auction, "a", catalog, prices)
    for subset in subsets_of(frozenset(catalog.ids)):
        demanded = utility(auction, "a", subset, catalog, prices) == top
        assert demanded == (subset in everywhere)


@contextmanager
def counted_holdings():
    """Count the holdings counts `market.tie_key` builds in the block."""
    built = []

    def counting(*args):
        built.append(args)
        return Counter(*args)

    with patch.object(market, "Counter", counting):
        yield built


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_holdings_are_counted_only_to_break_a_tie(kind, data):
    """`demand` counts other agents' holdings at most once, and not at
    all when one set is demanded; an explicit table, which ranks all its
    maximizers, counts them exactly when two or more tie."""
    auction, catalog, prices, excluded = data.draw(markets(kind))
    others = data.draw(holdings(catalog))
    _, members = demand_correspondence(auction, "a", catalog, prices, excluded)
    with counted_holdings() as built:
        demand(auction, "a", catalog, prices, excluded, others)
    assert len(built) <= (len(members) > 1)
    if kind == "explicit":
        assert len(built) == (len(members) > 1)


@pytest.mark.parametrize("weights, chosen, counts", [((2, 1, 1), 0, 0), ((2, 2, 1), 1, 1)])
def test_a_unit_demand_tie_counts_the_holdings_once(weights, chosen, counts):
    """Bundle 0 is held by "b": with one best bundle nothing is counted;
    with two tied, the holdings are counted once and the unheld one wins."""
    items = frozenset("xyz")
    valuation = UnitDemandValuation(items, dict(zip("xyz", map(F, weights))))
    auction = Auction(items=items, agents=(Agent("a", valuation),))
    catalog = Catalog(entries=tuple((k, frozenset(i)) for k, i in enumerate("xyz")))
    with counted_holdings() as built:
        got = demand(auction, "a", catalog, dict.fromkeys(range(3), F(0)), others={"b": {0}})
    assert got == (F(2), frozenset({chosen}))
    assert len(built) == counts


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_top_price_is_the_last_epsilon_step_still_demanded(kind, data):
    """Stepping one bundle's price up from its own by epsilon, every other
    price fixed, `top_price` is the last price at which that bundle alone
    is demanded, and None exactly when it is not demanded at the
    start: in `Fraction`s and on a lattice copy, whose explicit table is
    kept between queries.  Int values and prices put every top price on
    the epsilon = 1/2 grid."""
    auction, catalog, prices, _ = data.draw(markets(kind, coarse))
    if not catalog.entries:
        return
    bid = data.draw(st.sampled_from(catalog.ids))
    lattice, scale = auction.on_lattice()
    assert scale == 2  # int parameters: a lattice step of 1 is 1/2
    on_lattice = {b: lattice_int(p, scale) for b, p in prices.items()}
    for source, quotes, epsilon in ((auction, prices, F(1, 2)), (lattice, on_lattice, 1)):
        top = top_price(source, "a", catalog, quotes, bid)
        stepped, last = dict(quotes), None
        while utility(source, "a", {bid}, catalog, stepped) == demand(
            source, "a", catalog, stepped
        )[0]:
            last = stepped[bid]
            stepped[bid] += epsilon
        assert top == last


def test_lattice_copy_never_serves_a_stale_table():
    """One lattice copy asked over catalogs A, B, A in turn (same ids,
    other items) answers each time as a fresh copy does."""
    items = ["1", "2", "3", "4"]
    listed = {
        ("1", "2"): 4, ("2", "3"): 6, ("4",): 1, ("1", "2", "4"): 5, ("2", "3", "4"): 7
    }
    valuation = ExplicitValuation.from_entries(
        items, {frozenset(s): F(v) for s, v in listed.items()}
    )
    agent = "a"
    auction = Auction(items=items, agents=(Agent(agent, valuation),))
    lattice, scale = auction.on_lattice()
    bundles_a = (frozenset({"1", "2"}), frozenset({"3"}), frozenset({"4"}))
    bundles_b = (frozenset({"1"}), frozenset({"2", "3"}), frozenset({"4"}))
    prices = {0: scale, 1: scale, 2: scale}
    answers = []
    for bundles in (bundles_a, bundles_b, bundles_a):
        catalog = Catalog(entries=tuple(enumerate(bundles)))
        fresh, _ = auction.on_lattice()
        values = lattice.valuation(agent).bundle_values(bundles)
        assert values == [
            scale * auction.valuation(agent).value(u) for u in subset_unions(bundles)
        ]
        got = demand_correspondence(lattice, agent, catalog, prices)
        assert got == demand_correspondence(fresh, agent, catalog, prices)
        answers.append(got)
    assert answers[0] != answers[1]


def test_caller_valuations_keep_no_tables():
    """The tables a run reuses live on its lattice copy: after the solvers
    and `find_violation` the caller's valuations are as they were."""
    auction, seed = seed_instance(11)
    before = copy.deepcopy([vars(a.valuation) for a in auction.agents])
    outcome, _ = run_poly(auction, seed)
    run_simple(auction, seed, auction.granularity() / 2)
    assert find_violation(auction, outcome) is None
    assert [vars(a.valuation) for a in auction.agents] == before


TIED = {
    # bundles 0 = {x} and 1 = {y} at price 1 both have margin 1
    "explicit": ExplicitValuation(
        ["x", "y"],
        {frozenset(): F(0), frozenset("x"): F(2), frozenset("y"): F(2),
         frozenset("xy"): F(2)},
    ),
    "unit_demand": UnitDemandValuation(["x", "y"], {"x": F(2), "y": F(2)}),
    "xos": XosValuation(["x", "y"], [{"x": F(2)}, {"y": F(2)}]),
}


@pytest.mark.parametrize("kind", sorted(TIED))
def test_other_holdings_decide_between_tied_sets(kind):
    auction = Auction(
        items=frozenset("xy"), agents=(Agent("a", TIED[kind]), Agent("b", TIED[kind]))
    )
    catalog = Catalog(entries=((0, frozenset("x")), (1, frozenset("y"))))
    prices = {0: F(1), 1: F(1)}
    for others, chosen in (
        (None, {0}),
        ({"b": frozenset({0})}, {1}),
        ({"a": frozenset({0})}, {0}),  # the agent's own holdings never count
        ({"b": frozenset({0, 1})}, {0}),
    ):
        got = demand(auction, "a", catalog, prices, others=others)
        assert got == (F(1), frozenset(chosen))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bundle_values_match_value_of_each_union(kind, data):
    auction, catalog, _, _ = data.draw(markets(kind))
    valuation = auction.valuation("a")
    bundles = [items for _, items in catalog.entries]
    values = valuation.bundle_values(bundles)
    assert len(values) == 1 << len(bundles)
    for mask, value in enumerate(values):
        union = frozenset().union(
            *(b for i, b in enumerate(bundles) if mask >> i & 1)
        )
        assert type(value) is F and value == valuation.value(union)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_scaled_copy_is_the_valuation_times_d(kind, data):
    """For D a multiple of twice every parameter's and price's
    denominator, `scaled(D)` answers every value, bundle table and
    margin demand query with D times the original's answer, as ints,
    and leaves the original as it was."""
    auction, catalog, prices, _ = data.draw(markets(kind))
    valuation = auction.valuation("a")
    before = copy.deepcopy(vars(valuation))
    dens = [x.denominator for x in [*valuation.parameter_values(), *prices.values()]]
    scale = 2 * lcm(*dens) * data.draw(st.sampled_from((1, 3)))
    scaled = valuation.scaled(scale)
    assert vars(valuation) == before
    for subset in subsets_of(valuation.items):
        value = scaled.value(subset)
        assert type(value) is int and value == scale * valuation.value(subset)
    bundles = [items for _, items in catalog.entries]
    values = scaled.bundle_values(bundles)
    assert all(type(v) is int for v in values)
    assert values == [scale * v for v in valuation.bundle_values(bundles)]
    on_lattice = {bid: lattice_int(p, scale) for bid, p in prices.items()}
    key = tie_key("a", None)
    found = valuation.demand_answer(catalog.entries, prices, key)
    got = scaled.demand_answer(catalog.entries, on_lattice, key)
    if found is None:
        assert got is None
    else:
        assert type(got[0]) is int
        assert got == (scale * found[0], found[1])
    assert vars(valuation) == before


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_enumerated_demand_answers_in_the_numbers_it_is_given(kind, data):
    """`demand_correspondence` returns an int maximum on the lattice
    copy with int prices and a Fraction on the auction itself, with the
    same members."""
    auction, catalog, prices, excluded = data.draw(markets(kind))
    lattice, scale = auction.on_lattice(*[p.denominator for p in prices.values()])
    on_lattice = {bid: lattice_int(p, scale) for bid, p in prices.items()}
    best, members = demand_correspondence(auction, "a", catalog, prices, excluded)
    got = demand_correspondence(lattice, "a", catalog, on_lattice, excluded)
    assert type(best) is F and type(got[0]) is int
    assert got == (scale * best, members)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_item_outside_the_valuation_is_rejected(kind, data):
    auction, catalog, prices, _ = data.draw(markets(kind))
    bid = catalog.fresh_id()
    wider = Catalog(entries=catalog.entries + ((bid, frozenset({"zz"})),))
    prices = {**prices, bid: F(1)}
    with pytest.raises(InputError, match="unknown item"):
        demand_correspondence(auction, "a", wider, prices)
    # an excluded bundle is never priced or valued
    assert demand_correspondence(
        auction, "a", wider, prices, excluded=frozenset({bid})
    ) == demand_correspondence(auction, "a", catalog, prices)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_bundle_cap_counts_the_whole_catalog(kind, data):
    auction, catalog, prices, excluded = data.draw(markets(kind))
    k = len(catalog.entries)
    # Hypothesis rejects function-scoped fixtures such as monkeypatch
    with patch.object(market, "DEMAND_BUNDLE_CAP", k):
        demand_correspondence(auction, "a", catalog, prices, excluded)
    if k:
        with patch.object(market, "DEMAND_BUNDLE_CAP", k - 1):
            with pytest.raises(ResourceLimitError):
                demand_correspondence(auction, "a", catalog, prices, excluded)


def mixed_market(m):
    """m items and m agents cycling through additive, unit-demand,
    single-minded and XOS valuations on their own item and the next;
    agent g<j> is seeded with item i<j>."""
    items = tuple(f"i{j}" for j in range(m))
    universe = frozenset(items)
    agents = []
    for j, own in enumerate(items):
        nxt = items[(j + 1) % m]
        w = F(2 + j % 3, 4)
        kind = j % 4
        if kind == 0:
            valuation = AdditiveValuation(universe, {own: w, nxt: F(1, 3)})
        elif kind == 1:
            valuation = UnitDemandValuation(universe, {own: w, nxt: w + F(1, 4)})
        elif kind == 2:
            valuation = SingleMindedValuation(universe, {own, nxt}, 2 * w)
        else:
            valuation = XosValuation(universe, [{own: w, nxt: F(1, 2)}, {nxt: F(1)}])
        agents.append(Agent(f"g{j}", valuation))
    auction = Auction(items=items, agents=tuple(agents))
    return auction, {f"g{j}": frozenset({item}) for j, item in enumerate(items)}


@pytest.mark.parametrize("m", [8, 2 * market.DEMAND_BUNDLE_CAP])
def test_structured_classes_never_enumerate(m, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a structured valuation enumerated its demand")

    monkeypatch.setattr(market, "demand_correspondence", refuse)
    auction, seed = mixed_market(m)
    outcome, trace = run_poly(auction, seed)
    assert trace.demand_queries > 0
    result = maximize_revenue(auction, seed)
    assert all(is_cwe(auction, level.outcome) for level in result.levels)
    if m <= 8:
        # exhaustive over 2^8 bundle sets per agent, apart from the library
        assert brute_stability_violation(auction, outcome) is None
        assert brute_stability_violation(auction, result.base) is None


# valuations worth 2 for {"a"} and nothing for {"b"}
WORTH_NOTHING_ON_B = {
    "explicit": lambda u: ExplicitValuation.from_entries(u, {frozenset({"a"}): F(2)}),
    "additive": lambda u: AdditiveValuation(u, {"a": F(2)}),
    "unit_demand": lambda u: UnitDemandValuation(u, {"a": F(2)}),
    "single_minded": lambda u: SingleMindedValuation(u, {"a"}, F(2)),
    "xos": lambda u: XosValuation(u, [{"a": F(2)}, {"a": F(1)}]),
}


@pytest.mark.parametrize("kind", KINDS)
def test_rational_valuations_answer_in_fractions(kind):
    """Outside the solvers' integer lattice every value, utility and
    demand maximum is a Fraction: also a zero one, and also when every
    value and price is a whole number."""
    universe = frozenset({"a", "b"})
    valuation = WORTH_NOTHING_ON_B[kind](universe)
    auction = Auction(items=universe, agents=(Agent("x", valuation),))
    catalog = Catalog(
        entries=((0, frozenset({"a"})), (1, frozenset({"b"}))), withheld=frozenset()
    )
    prices = {0: F(2), 1: F(1)}  # no bundle has a positive margin
    answers = [
        valuation.value({"b"}),
        market.utility(auction, "x", frozenset(), catalog, prices),
        market.utility(auction, "x", frozenset({1}), catalog, prices),
        demand(auction, "x", catalog, prices)[0],
        demand_correspondence(auction, "x", catalog, prices)[0],
    ]
    assert answers == [0, 0, -1, 0, 0]
    assert [type(x) for x in answers] == [Fraction] * len(answers)
