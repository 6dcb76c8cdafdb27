"""The integer bitmask demand engine against exhaustive `Fraction`
enumeration (`helpers.best_avoiding`) on generated catalogs, for every
valuation class.

Values and prices mix denominators, and some prices equal bundle values
so that zero-margin ties occur; the engine must return the same maximum
and the same members in the same canonical order.
"""
from fractions import Fraction
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
    demand_correspondence,
)
from cwemarket import market
from cwemarket.valuations import subsets_of

from .helpers import best_avoiding

F = Fraction

KINDS = ("explicit", "additive", "unit_demand", "single_minded", "xos")
MAX_ITEMS = 7
EXPLICIT_MAX_ITEMS = 5

scalars = st.builds(
    F, st.integers(0, 24), st.sampled_from((1, 2, 3, 4, 5, 6, 8, 12))
)


@st.composite
def valuations(draw, kind, universe):
    items = sorted(universe)
    some = st.lists(st.sampled_from(items), unique=True)
    if kind == "explicit":
        # the monotone closure of a few drawn subset values
        listed = draw(
            st.dictionaries(
                st.frozensets(st.sampled_from(items), min_size=1), scalars, max_size=6
            )
        )
        table = {
            s: max((v for t, v in listed.items() if t <= s), default=F(0))
            for s in subsets_of(universe)
        }
        return ExplicitValuation(universe, table)
    weights = st.dictionaries(st.sampled_from(items), scalars)
    if kind == "additive":
        return AdditiveValuation(universe, draw(weights))
    if kind == "unit_demand":
        return UnitDemandValuation(universe, draw(weights))
    if kind == "single_minded":
        desired = frozenset(draw(some))
        weight = draw(scalars) if desired else F(0)
        return SingleMindedValuation(universe, desired, weight)
    return XosValuation(universe, draw(st.lists(weights, max_size=3)))


@st.composite
def markets(draw, kind):
    """(auction with one agent "a", catalog, prices, excluded)."""
    top = EXPLICIT_MAX_ITEMS if kind == "explicit" else MAX_ITEMS
    items = [f"i{k}" for k in range(draw(st.integers(1, top)))]
    universe = frozenset(items)
    valuation = draw(valuations(kind, universe))
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
            prices[bid] = draw(scalars)
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


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bundle_values_match_value_of_each_union(kind, data):
    auction, catalog, _, _ = data.draw(markets(kind))
    valuation = auction.valuation("a")
    bundles = [items for _, items in catalog.entries]
    ints, den = valuation.bundle_values(bundles)
    assert len(ints) == 1 << len(bundles)
    for mask, numerator in enumerate(ints):
        union = frozenset().union(
            *(b for i, b in enumerate(bundles) if mask >> i & 1)
        )
        assert F(numerator, den) == valuation.value(union)


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
