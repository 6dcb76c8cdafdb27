"""The exhaustive oracles against their `Fraction` references.

The `verifier` oracles read each valuation once into integer tables
on the auction's lattice and enumerate candidates as item -> owner
maps.  `helpers` keeps the earlier form of each: `value` calls per
subset on every LP, `Fraction` right-hand sides solved by the
reference simplex, welfare sums and DP, and candidates from set
partitions with deduplication.  Both must give
the same values, the same outcomes and price maps, in the same order.

Inputs mix valuation classes and denominators, and draw values from a
coarse set too, so that equal welfares put the candidates' tie-break
to work; item and agent names are not in sorted order.
"""
import itertools
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cwemarket import (
    AdditiveValuation, Agent, Auction, Catalog, ExplicitValuation, generate,
)
from cwemarket import verifier
from cwemarket.lp import INFEASIBLE
from cwemarket.verifier import (
    brute_force_optimal,
    config_lp_fractional_opt,
    max_cwe_revenue,
    max_cwe_welfare,
    revenue_maximizing_prices,
    singleton_catalog,
    stable_singleton_outcomes,
    supporting_prices,
)

from . import helpers
from .test_demand_engine import coarse, scalars, valuations

F = Fraction

ITEM_NAMES = ("d", "b", "c", "a")
AGENT_NAMES = ("z", "b", "m", "a")
STRUCTURED = ("additive", "unit_demand", "single_minded", "xos", "explicit")


@st.composite
def auctions(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        auction, _ = generate(
            "random_explicit", m=m, n=n, seed=draw(st.integers(0, 10**6)),
            denominator=draw(st.sampled_from((1, 2, 3, 6, 64))),
        )
        return auction
    items = ITEM_NAMES[:m]
    universe = frozenset(items)
    values = draw(st.sampled_from((scalars, coarse)))
    agents = tuple(
        Agent(name, draw(valuations(draw(st.sampled_from(STRUCTURED)), universe, values)))
        for name in AGENT_NAMES[:n]
    )
    return Auction(items=items, agents=agents)


@st.composite
def tied_auctions(draw):
    """Markets whose candidates tie in welfare: all-zero explicit tables,
    where every map is on one level, or one valuation shared by agents
    with different names."""
    items = ITEM_NAMES[:draw(st.integers(1, 4))]
    if draw(st.booleans()):
        valuation = ExplicitValuation.from_entries(items, {})
    else:
        kind = draw(st.sampled_from(STRUCTURED))
        valuation = draw(valuations(kind, frozenset(items), coarse))
    names = AGENT_NAMES[:draw(st.integers(1, 4))]
    return Auction(items=items, agents=tuple(Agent(name, valuation) for name in names))


@st.composite
def bundlings(draw, auction):
    """(catalog, assignment): items in up to three bundles or withheld,
    each bundle held by nobody or by one agent, who may hold several."""
    labels = draw(st.lists(st.integers(-1, 2), min_size=len(auction.items),
                           max_size=len(auction.items)))
    blocks = {}
    for item, label in zip(auction.items, labels):
        if label >= 0:
            blocks.setdefault(label, set()).add(item)
    entries = tuple((10 + j, frozenset(b)) for j, b in enumerate(blocks.values()))
    catalog = Catalog.selling(auction.item_set, entries)
    assignment = {}
    for bid, _ in entries:
        who = draw(st.sampled_from([None] + auction.agent_names))
        if who is not None:
            assignment[who] = assignment.get(who, frozenset()) | {bid}
    return catalog, assignment


def _ordered(outcome):
    """An outcome with its dicts as lists, so that order counts too."""
    return (outcome.catalog, list(outcome.prices.items()), list(outcome.assignment.items()))


def check_against_references(auction, catalog, assignment, scan_limit=None):
    """Every oracle against its reference; the singleton scan (one LP
    per map item -> agent-or-nobody) only up to `scan_limit` maps."""
    sw, allocation = brute_force_optimal(auction)
    ref_sw, ref_allocation = helpers.reference_brute_force_optimal(auction)
    assert (sw, list(allocation.items())) == (ref_sw, list(ref_allocation.items()))

    sw, outcome = max_cwe_welfare(auction)
    ref_sw, ref_outcome = helpers.reference_max_cwe_welfare(auction)
    assert (sw, _ordered(outcome)) == (ref_sw, _ordered(ref_outcome))
    rev, outcome = max_cwe_revenue(auction)
    ref_rev, ref_outcome = helpers.reference_max_cwe_revenue(auction)
    assert (rev, _ordered(outcome)) == (ref_rev, _ordered(ref_outcome))

    items = singleton_catalog(auction)
    bid_of = {its: bid for bid, its in items.entries}
    optimal = {
        name: frozenset(bid_of[frozenset({it})] for it in its)
        for name, its in allocation.items()
        if its
    }
    for cat, held in ((items, optimal), (items, {}), (catalog, assignment)):
        prices = supporting_prices(auction, cat, held)
        ref = helpers.reference_supporting_prices(auction, cat, held)
        assert prices == ref
        assert prices is None or list(prices) == list(ref)
        got = revenue_maximizing_prices(auction, cat, held)
        ref = helpers.reference_revenue_maximizing_prices(auction, cat, held)
        assert got == ref
        assert got is None or list(got[1]) == list(ref[1])
        assert config_lp_fractional_opt(auction, cat) == helpers.reference_config_lp(auction, cat)

    def listed(outcomes):
        return [(list(alloc.items()), list(p.items())) for alloc, p in outcomes]

    if scan_limit is not None and (len(auction.agents) + 1) ** len(auction.items) > scan_limit:
        return
    assert listed(stable_singleton_outcomes(auction)) == listed(
        helpers.reference_stable_singleton_outcomes(auction)
    )


# no shrink phase: each shrink step reruns the Fraction references, so a
# failure would take minutes to report instead of seconds
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(data=st.data())
def test_oracles_match_the_fraction_references(data):
    auction = data.draw(auctions())
    catalog, assignment = data.draw(bundlings(auction))
    # the references' singleton scan takes seconds at m = n = 4
    check_against_references(auction, catalog, assignment, scan_limit=256)


@pytest.mark.parametrize("name, params", [("gap3", {}), ("logn_revenue", {"n": 4})])
def test_paper_families_match_the_fraction_references(name, params):
    auction, _ = generate(name, **params)
    bundle = Catalog.selling(auction.item_set, [(0, frozenset(auction.items[:2]))])
    check_against_references(auction, bundle, {auction.agent_names[-1]: frozenset({0})})


def test_candidate_order_matches_the_set_partition_enumeration():
    """Welfare descending, ties by the listed (agent, items) pairs."""
    items = ("c", "a", "b")
    flat = AdditiveValuation(items, {it: F(1) for it in items})
    tied = Auction(items=items, agents=(Agent("z", flat), Agent("a", flat)))
    for auction in (
        tied, generate("gap3")[0], generate("random_explicit", m=3, n=3, seed=5)[0]
    ):
        _, den, candidates = verifier._bundled_candidates(auction)
        got = [(F(-neg_sw, den), pairs) for neg_sw, pairs, _ in candidates]
        assert got == helpers.reference_bundled_candidates(auction)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(auction=st.one_of(auctions(), tied_auctions()))
def test_lazy_candidate_order_matches_on_ties(auction):
    """The level-by-level candidates equal the sorted set-partition
    enumeration, ties included, and each candidate's owners are its
    pairs' agents."""
    names = auction.agent_names
    _, den, candidates = verifier._bundled_candidates(auction)
    got = []
    for neg_sw, pairs, owned in candidates:
        assert [names[i] for i, _ in owned] == [name for name, _ in pairs]
        got.append((F(-neg_sw, den), pairs))
    assert got == helpers.reference_bundled_candidates(auction)


def test_max_cwe_revenue_reads_each_subset_value_once(monkeypatch):
    auction, _ = generate("random_explicit", m=4, n=3, seed=11)
    ref = helpers.reference_max_cwe_revenue(auction)
    reads = helpers.count_table_reads(monkeypatch)
    assert max_cwe_revenue(auction) == ref
    assert 0 < sum(reads) <= len(auction.agents) * 2 ** len(auction.items)


def _reference_lp(auction, catalog, assignment, revenue):
    rows, rhs = helpers.reference_stability_rows(auction, catalog, assignment)
    c = [int(revenue)] * len(catalog.entries)
    return helpers.reference_solve_lp(c, rows, rhs)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(auction=auctions())
def test_screens_skip_no_lp_that_could_change_an_answer(auction):
    """Where the welfare screen fires, the reference stability LP is
    infeasible; and no stable candidate earns more than its revenue
    bound.  Both over every bundled candidate and every singleton map."""
    tables, den, candidates = verifier._bundled_candidates(auction)
    for _, pairs, owned in candidates:
        lp_tables, owns = verifier._candidate_market(tables, owned)
        catalog, assignment = helpers._reference_candidate_market(auction, pairs)
        sol = _reference_lp(auction, catalog, assignment, revenue=True)
        if verifier._reallocation_beats(lp_tables, owns):
            assert sol.status == INFEASIBLE
        if sol.status != INFEASIBLE:
            bound = verifier._revenue_bound(lp_tables, [i for i, _ in owned])
            assert sol.value <= Fraction(bound, den)

    catalog = singleton_catalog(auction)
    names = auction.agent_names
    for combo in itertools.product(range(len(names) + 1), repeat=len(auction.items)):
        owns = [0] * len(names)
        assignment = {}
        for bid, who in enumerate(combo):
            if who:
                owns[who - 1] |= 1 << bid
                assignment[names[who - 1]] = assignment.get(names[who - 1], frozenset()) | {bid}
        if verifier._reallocation_beats(tables, owns):
            assert _reference_lp(auction, catalog, assignment, revenue=False).status == INFEASIBLE
