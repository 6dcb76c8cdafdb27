import copy
import itertools
from fractions import Fraction

import pytest

from cwemarket import (
    Agent,
    AdditiveValuation,
    Auction,
    Catalog,
    InputError,
    ResourceLimitError,
    SingleMindedValuation,
    SolverInvariantError,
    UnitDemandValuation,
    Valuation,
    brute_force_optimal,
    generate,
    is_cwe,
    max_cwe_revenue,
    max_cwe_welfare,
    social_welfare,
)
from cwemarket import verifier
from cwemarket.market import allocation_welfare
from cwemarket.scalars import lattice_int
from cwemarket.verifier import (
    config_lp_fractional_opt,
    revenue_maximizing_prices,
    singleton_catalog,
    stable_singleton_outcomes,
    supporting_prices,
)

from . import helpers

F = Fraction


@pytest.fixture(scope="module")
def gap3():
    auction, _ = generate("gap3")
    return auction


def test_brute_optimum_known_value(gap3):
    sw, alloc = brute_force_optimal(gap3)
    assert sw == F(3)
    assert alloc == {
        "a1": frozenset({"1"}),
        "a2": frozenset({"2"}),
        "a3": frozenset({"3"}),
    }


def test_brute_optimum_awards_every_item():
    items = frozenset({"x", "y"})
    auction = Auction(
        items=items,
        agents=(
            Agent("A", AdditiveValuation(items, {"x": F(5), "y": F(0)})),
            Agent("B", AdditiveValuation(items, {"x": F(1), "y": F(0)})),
        ),
    )
    sw, alloc = brute_force_optimal(auction)
    assert sw == F(5)
    # the worthless leftover lands with the first agent
    assert alloc["A"] == frozenset({"x", "y"})


def test_brute_optimum_reads_each_subset_value_once(monkeypatch):
    auction, _ = generate("random_explicit", m=5, n=5, seed=3)
    reads = helpers.count_table_reads(monkeypatch)
    sw, alloc = brute_force_optimal(auction)
    assert 0 < sum(reads) <= len(auction.agents) * 2 ** len(auction.items)
    assert sw == F(261, 64)
    # the first-found maximum, scanning agents in order
    assert alloc == {
        "r1": {"3"}, "r2": {"4"}, "r3": {"5"}, "r4": {"1"}, "r5": {"2"}
    }


def test_fractional_relaxation_dominates_integral(gap3):
    cat = singleton_catalog(gap3)
    lp = config_lp_fractional_opt(gap3, cat)
    assert lp == F(63, 20)
    integral, _ = brute_force_optimal(gap3)
    assert lp >= integral == F(3)


def test_efficient_allocation_not_stably_priceable(gap3):
    cat = singleton_catalog(gap3)
    idx = {items: bid for bid, items in cat.entries}
    _, alloc = brute_force_optimal(gap3)
    assignment = {
        a: frozenset(idx[frozenset({it})] for it in s) for a, s in alloc.items()
    }
    assert supporting_prices(gap3, cat, assignment) is None


def test_grand_bundle_is_stably_priceable(gap3):
    cat = Catalog(entries=((0, gap3.item_set),))
    prices = supporting_prices(gap3, cat, {"a1": frozenset({0})})
    assert prices == {0: F(21, 10)}


def test_selling_nothing_is_stably_priceable(gap3):
    cat = singleton_catalog(gap3)
    assert supporting_prices(gap3, cat, {}) is not None


def test_max_supported_revenue_caps_at_value(gap3):
    cat = Catalog(entries=((0, gap3.item_set),))
    rev, prices = revenue_maximizing_prices(gap3, cat, {"a1": frozenset({0})})
    assert rev == F(21, 10) == prices[0]
    rev, _ = revenue_maximizing_prices(gap3, cat, {})
    assert rev == F(0)


def test_best_stable_bundled_welfare(gap3):
    sw, out = max_cwe_welfare(gap3)
    assert sw == F(21, 10)
    assert social_welfare(gap3, out) == sw
    assert is_cwe(gap3, out)
    brute, _ = brute_force_optimal(gap3)
    assert sw / brute == F(7, 10)


def test_best_stable_revenue_on_log_family():
    auction, _ = generate("logn_revenue", n=4)
    rev, out = max_cwe_revenue(auction)
    assert rev == F(1)
    assert is_cwe(auction, out)
    brute, _ = brute_force_optimal(auction)
    assert brute == F(25, 12)


def test_unbundled_stability_scan():
    auction, _ = generate("item_pricing_xos", m=3)
    assert config_lp_fractional_opt(auction, singleton_catalog(auction)) == F(13, 8)
    assert max(sum(map(len, a.values())) for a, _ in stable_singleton_outcomes(auction)) == 2
    two_item = [
        (alloc, prices)
        for alloc, prices in stable_singleton_outcomes(auction)
        if sum(len(s) for s in alloc.values()) == 2
    ]
    witness = (
        {"a1": frozenset({"2"}), "a2": frozenset({"3"})},
        {0: F(1, 2), 1: F(0), 2: F(0)},
    )
    assert witness in two_item


def test_unbundled_welfare_on_pricing_family():
    auction, _ = generate("item_pricing_um_sm", m=2)
    welfare = [allocation_welfare(auction, a) for a, _ in stable_singleton_outcomes(auction)]
    assert max(welfare) == F(11, 10)


def _on_singletons(oracle, *args):
    return lambda auction: oracle(auction, singleton_catalog(auction), *args)


# (oracle on an auction, its item or bundle cap, what that cap counts,
# its agent cap)
ORACLE_CAPS = [
    (brute_force_optimal, "BRUTE_MAX_ITEMS", "item count", "BRUTE_MAX_AGENTS"),
    (_on_singletons(config_lp_fractional_opt),
     "LP_MAX_BUNDLES", "bundle count", "LP_MAX_AGENTS"),
    (_on_singletons(supporting_prices, {}),
     "LP_MAX_BUNDLES", "bundle count", "LP_MAX_AGENTS"),
    (_on_singletons(revenue_maximizing_prices, {}),
     "LP_MAX_BUNDLES", "bundle count", "LP_MAX_AGENTS"),
    (stable_singleton_outcomes, "LP_MAX_BUNDLES", "item count", "LP_MAX_AGENTS"),
    (max_cwe_welfare, "SEARCH_MAX_ITEMS", "item count", "SEARCH_MAX_AGENTS"),
    (max_cwe_revenue, "SEARCH_MAX_ITEMS", "item count", "SEARCH_MAX_AGENTS"),
    (verifier._bundled_candidates, "SEARCH_MAX_ITEMS", "item count", "SEARCH_MAX_AGENTS"),
]


def test_resource_caps_are_loud(gap3, monkeypatch):
    """Every exhaustive oracle refuses an input one over each of its
    caps, naming the count, and answers at the cap.  The refusal comes
    on the call, also where the answer is an iterator."""
    for oracle, item_cap, counted, agent_cap in ORACLE_CAPS:
        for cap, what, size in (
            (item_cap, counted, len(gap3.items)),
            (agent_cap, "agent count", len(gap3.agents)),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(verifier, cap, size - 1)
                with pytest.raises(ResourceLimitError, match=what):
                    oracle(gap3)
                patch.setattr(verifier, cap, size)
                oracle(gap3)


def test_price_lps_cap_the_agent_count():
    """Three bundles are within the LP cap, nine agents are not."""
    auction, _ = generate("logn_revenue", n=9)
    catalog = Catalog(entries=tuple(enumerate(frozenset({it}) for it in "123")))
    for oracle in (supporting_prices, revenue_maximizing_prices):
        with pytest.raises(ResourceLimitError, match="agent count"):
            oracle(auction, catalog, {})
    with pytest.raises(ResourceLimitError, match="agent count"):
        config_lp_fractional_opt(auction, catalog)


@pytest.mark.parametrize(
    "assignment, message",
    [
        ({"a1": frozenset(), "zz": frozenset({0})}, "assignment names unknown agent 'zz'"),
        ({"a1": frozenset({0, 7})}, "assignment of 'a1' references unknown bundles"),
        ({"a1": frozenset({0}), "a2": frozenset({1, 0})}, "a bundle is assigned to two agents"),
        ({"a1": [0]}, "assignment of 'a1' must be a set, got list"),
    ],
)
def test_price_lps_refuse_a_bad_assignment(gap3, assignment, message):
    """The price LPs refuse with `Outcome`'s messages."""
    catalog = singleton_catalog(gap3)
    for oracle in (supporting_prices, revenue_maximizing_prices):
        with pytest.raises(InputError, match=f"^{message}$"):
            oracle(gap3, catalog, assignment)


@pytest.fixture
def lp_calls(monkeypatch):
    calls = []
    solve_lp = verifier.solve_lp
    monkeypatch.setattr(
        verifier, "solve_lp", lambda *args: calls.append(1) or solve_lp(*args)
    )
    return calls


def test_revenue_search_skips_lps_that_cannot_win(lp_calls):
    """The revenue bound skips every candidate after the first stable
    one on the log family (414 LPs without the screens)."""
    auction, _ = generate("logn_revenue", n=4)
    rev, _ = max_cwe_revenue(auction)
    assert rev == F(1)
    assert len(lp_calls) == 1


@pytest.mark.parametrize("family, lps", [("item_pricing_xos", 22), ("item_pricing_um_sm", 52)])
def test_singleton_scan_skips_reallocatable_holdings(lp_calls, family, lps):
    """The welfare screen leaves these LPs of the 81 maps at m = 4, and
    the outcomes are those of one LP per map."""
    auction, _ = generate(family, m=4)
    outcomes = list(stable_singleton_outcomes(auction))
    assert len(lp_calls) == lps
    assert outcomes == helpers.reference_stable_singleton_outcomes(auction)


@pytest.mark.parametrize("tamper, fault", [
    (lambda shares: [shares[0]] * len(shares), "not disjoint"),  # A's x to B too
    (lambda shares: [shares[0] | 0b10] + shares[1:], "not disjoint"),  # unsold y to A
    (lambda shares: [0] * len(shares), "does not beat"),
])
def test_tampered_reallocation_witness_raises(monkeypatch, tamper, fault):
    """Item x sits with B, who values it least, and y is unsold: the
    welfare screen fires, and a witness that is not a beating
    reallocation of the held bundles stops the oracle."""
    items = frozenset({"x", "y"})
    auction = Auction(
        items=("x", "y"),
        agents=(
            Agent("A", AdditiveValuation(items, {"x": F(5), "y": F(1)})),
            Agent("B", AdditiveValuation(items, {"x": F(1), "y": F(1)})),
        ),
    )
    catalog = singleton_catalog(auction)
    assert supporting_prices(auction, catalog, {"B": frozenset({0})}) is None
    partition = verifier._partition

    def tampered(tables, full):
        best, shares = partition(tables, full)
        return best, tamper(shares)

    monkeypatch.setattr(verifier, "_partition", tampered)
    with pytest.raises(SolverInvariantError, match=fault):
        supporting_prices(auction, catalog, {"B": frozenset({0})})


class _Thirds(Valuation):
    """Values in thirds of the item count, while its one parameter is a
    half: a valuation whose values lie off the lattice of its parameters."""

    kind = "thirds"

    def __init__(self, items):
        self.items = frozenset(items)

    def _value(self, s):
        return F(len(s), 3)

    def parameter_values(self):
        yield F(1, 2)

    def scaled(self, scale):
        thirds = copy.copy(self)
        thirds._value = lambda s: lattice_int(self._value(s), scale)
        return thirds

    def validate(self):
        return None


def test_tables_refuse_values_off_the_lattice():
    """The oracles read values on the auction's lattice (scale 4 here)
    and raise on a third instead of flooring it."""
    auction = Auction(items=("x", "y"), agents=(Agent("a", _Thirds({"x", "y"})),))
    assert auction.lattice_scale == 4
    with pytest.raises(InputError, match="1/3 is off the lattice of scale 4"):
        verifier._tables(auction)
    with pytest.raises(InputError, match="off the lattice"):
        brute_force_optimal(auction)


def _config_columns(monkeypatch, auction, catalog):
    """The configuration LP's optimum and its columns: for each agent,
    the set of item sets it has a column for."""
    seen = []
    solve_lp = verifier.solve_lp
    monkeypatch.setattr(verifier, "solve_lp", lambda *lp: seen.append(lp) or solve_lp(*lp))
    value = config_lp_fractional_opt(auction, catalog)
    (c, A, _), = seen
    n = len(auction.agents)
    columns = {name: set() for name in auction.agent_names}
    for col in range(len(c)):
        (name,) = [name for i, name in enumerate(auction.agent_names) if A[i][col]]
        columns[name].add(frozenset().union(
            *(items for j, (_, items) in enumerate(catalog.entries) if A[n + j][col])
        ))
    return value, columns


def _bundled(auction):
    """The items in consecutive pairs, the last one alone when m is odd."""
    items = auction.items
    return Catalog(entries=tuple(
        (k, frozenset(items[j:j + 2])) for k, j in enumerate(range(0, len(items), 2))
    ))


@pytest.mark.parametrize("family, params", [
    *(("item_pricing_um_sm", {"m": m}) for m in range(2, 7)),
    *(("item_pricing_xos", {"m": m, "delta": F(1, 4 * (m - 1))}) for m in range(2, 7)),
    *(("logn_revenue", {"n": n}) for n in range(2, 7)),
    ("gap3", {}),
])
def test_screened_config_lp_keeps_the_optimum(family, params):
    """The columns a one-bundle-smaller set matches go, and the optimum
    is that of every column in `Fraction`, on singleton and paired
    catalogs."""
    auction, _ = generate(family, **params)
    for catalog in (singleton_catalog(auction), _bundled(auction)):
        assert config_lp_fractional_opt(auction, catalog) == helpers.reference_config_lp(
            auction, catalog
        )


def test_screen_keeps_the_closed_form_columns_of_each_class(monkeypatch):
    """Unit demand keeps its positive-weight singletons, single-minded
    its desired set, additive every set of positive-weight items, and an
    agent that values nothing no column."""
    items = ("w", "x", "y", "z")
    universe = frozenset(items)
    weights = {"w": F(3), "x": F(0), "y": F(1), "z": F(2)}
    auction = Auction(items=items, agents=(
        Agent("unit", UnitDemandValuation(universe, weights)),
        Agent("single", SingleMindedValuation(universe, {"x", "y"}, F(4))),
        Agent("additive", AdditiveValuation(universe, weights)),
        Agent("zero", AdditiveValuation(universe, dict.fromkeys(items, F(0)))),
    ))
    catalog = singleton_catalog(auction)
    value, columns = _config_columns(monkeypatch, auction, catalog)
    positive = [it for it in items if weights[it]]
    assert columns == {
        "unit": {frozenset({it}) for it in positive},
        "single": {frozenset({"x", "y"})},
        "additive": {
            frozenset(s) for r in range(1, 4) for s in itertools.combinations(positive, r)
        },
        "zero": set(),
    }
    # {x, y} to single, w to unit, z to additive
    assert value == helpers.reference_config_lp(auction, catalog) == F(9)


def test_market_valuing_nothing_has_no_config_column(monkeypatch):
    items = ("x", "y")
    zero = dict.fromkeys(items, F(0))
    auction = Auction(items=items, agents=tuple(
        Agent(name, AdditiveValuation(frozenset(items), zero)) for name in ("A", "B")
    ))
    value, columns = _config_columns(monkeypatch, auction, singleton_catalog(auction))
    assert value == 0
    assert columns == {"A": set(), "B": set()}


def test_config_lp_reads_each_subset_value_once(monkeypatch):
    """The screen reads the tables the LP reads: one `bundle_values`
    per agent, at most n * 2^k entries."""
    for seed in range(3):
        auction, _ = generate("random_explicit", m=4, n=3, seed=seed)
        for catalog in (singleton_catalog(auction), _bundled(auction)):
            ref = helpers.reference_config_lp(auction, catalog)
            with monkeypatch.context() as patch:
                reads = helpers.count_table_reads(patch)
                assert config_lp_fractional_opt(auction, catalog) == ref
            k = len(catalog.entries)
            assert 0 < sum(reads) <= len(auction.agents) * 2 ** k
