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
    InputError,
    ResourceLimitError,
    SimpleSolver,
    SolverDeadlockError,
    SolverInvariantError,
    brute_force_optimal,
    generate,
    is_cwe,
    replay,
    run_poly,
    run_simple,
    social_welfare,
)
from cwemarket import poly, simple
from cwemarket.market import demand, top_price
from cwemarket.simple import check_epsilon
from cwemarket.trace import Assign, PoolAdd, PriceRaise, Reject, Unassign

from . import helpers
from .helpers import seed_instance, seed_welfare, stepwise_contest
from .test_demand_engine import KINDS
from .test_poly import ONLY_X, mixed_seeded_markets

F = Fraction


def one_item(*values):
    items = frozenset({"1"})
    agents = tuple(
        Agent(chr(ord("A") + k), AdditiveValuation(items, {"1": F(v)}))
        for k, v in enumerate(values)
    )
    return Auction(items=items, agents=agents)


class TestEpsilonContract:
    def test_epsilon_must_be_positive(self):
        auction = one_item(1)
        with pytest.raises(InputError, match="positive"):
            check_epsilon(auction, F(0))
        with pytest.raises(InputError, match="positive"):
            check_epsilon(auction, F(-1, 4))

    def test_epsilon_at_most_half_granularity(self):
        auction = one_item(1)  # granularity 1
        check_epsilon(auction, F(1, 2))
        with pytest.raises(InputError, match="exceeds"):
            check_epsilon(auction, F(2, 3))
        with pytest.raises(InputError, match="exceeds"):
            check_epsilon(auction, F(2))

    def test_epsilon_must_divide_half_granularity(self):
        auction = one_item(1)
        check_epsilon(auction, F(1, 4))
        check_epsilon(auction, F(1, 6))
        with pytest.raises(InputError, match="divide"):
            check_epsilon(auction, F(1, 3))
        with pytest.raises(InputError, match="divide"):
            check_epsilon(auction, F(2, 5))

    def test_zero_values_accept_any_positive_epsilon(self):
        auction = one_item(0, 0)
        check_epsilon(auction, F(17, 3))
        check_epsilon(auction, F(1000))

    def test_run_rejects_bad_epsilon(self):
        auction = one_item(1)
        with pytest.raises(InputError):
            run_simple(auction, {"A": frozenset({"1"})}, F(2))


def test_single_agent_buys_at_seed_price():
    auction = one_item(1)
    out, trace = run_simple(auction, {"A": frozenset({"1"})}, F(1, 2))
    assert out.assignment == {"A": frozenset({0})}
    assert out.prices == {0: F(1, 2)}
    assert trace.iterations == 1
    assert trace.demand_queries == 1


def test_symmetric_tie_hands_the_bundle_to_the_claimant():
    # both agents value the item at 1; the price jumps to the exact
    # common indifference point, the trial step that would push both
    # away being rolled back, and the claimant takes over
    auction = one_item(1, 1)
    out, trace = run_simple(auction, {"A": frozenset({"1"})}, F(1, 4))
    assert out.assignment == {"B": frozenset({0})}
    assert out.prices == {0: F(1)}
    assert trace.iterations == 3
    # 3 main-loop queries; the contest asks the holder once, then both
    # sides after each of its 3 trial steps (the last one is undone)
    assert trace.demand_queries == 10
    raises = [e for e in trace.events if isinstance(e, PriceRaise)]
    assert [(e.old, e.new) for e in raises] == [(F(1, 2), F(1))]
    # the incumbent is released, re-pooled, and then leaves empty-handed
    tail = [e for e in trace.events if isinstance(e, (Unassign, PoolAdd, Reject))]
    assert tail[-3:] == [Unassign("A"), PoolAdd("A"), Reject("A")]
    assert is_cwe(auction, out)


def test_asymmetric_conflict_prices_out_the_lower_value():
    # A values the item at 2, B at 1, B seeds it at 1/2; the conflict
    # takes the price one step past B's indifference point in one raise
    # and A keeps the item
    auction = one_item(2, 1)
    out, trace = run_simple(auction, {"B": frozenset({"1"})}, F(1, 8))
    assert out.assignment == {"A": frozenset({0})}
    assert out.prices == {0: F(9, 8)}
    raises = [(e.old, e.new) for e in trace.events if isinstance(e, PriceRaise)]
    assert raises == [(F(1, 2), F(9, 8))]
    assert trace.iterations == 3
    # 3 main-loop queries; the contest asks the holder once, then both
    # sides once per trial step, 5 of them: 2 * 5 + 1
    assert trace.demand_queries == 14
    assert is_cwe(auction, out)


def test_a_holder_that_does_not_demand_its_bundle_is_a_broken_state():
    """An incumbent always demands its singleton when a contest starts;
    a forged state where it does not (its price above its value) raises
    instead of settling the contest."""
    solver = SimpleSolver(one_item(1, 1), {"A": frozenset({"1"})}, F(1, 4))
    solver.assignment = {"A": frozenset({0}), "B": frozenset({0})}
    solver.prices[0] = solver.scale + 1
    with pytest.raises(SolverInvariantError, match="^holder 'A' no longer demands bundle 0$"):
        solver._contest(frozenset({0}), "B", "A")


def test_three_agent_merge_run_frozen():
    auction, seed = generate("gap3")
    out, trace = run_simple(auction, seed, F(1, 20))
    assert [(bid, sorted(items)) for bid, items in out.catalog.entries] == [
        (4, ["1", "2", "3"])
    ]
    assert out.prices == {4: F(21, 10)}
    assert out.assignment == {"a1": frozenset({4})}
    assert social_welfare(auction, out) == F(21, 10)
    assert trace.iterations == 5
    assert trace.demand_queries == 32
    rebuilt = replay(auction, seed, trace)
    assert rebuilt.prices == out.prices
    assert rebuilt.assignment == out.assignment


def test_demand_queries_count_every_demand_call(monkeypatch):
    # every call a solver makes to the demand layer, the enumeration of
    # a barred tie-broken set included, is one counted query; seeds 25
    # and 29 reach that enumeration.  The simple solver's contest reads
    # each side's top price once and counts the logical queries, one
    # per side and price level, so its calls are counted on the
    # stepwise reference, whose count the contest must report too.
    calls = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(poly, "demand")
    counted(helpers, "demand")
    counted(simple, "demand_correspondence")
    barred = 0
    for s in range(20, 40):
        auction, seed = seed_instance(s)
        calls.clear()
        _, trace = run_poly(auction, seed)
        assert trace.demand_queries == sum(calls.values()), (s, calls)
        epsilon = auction.granularity() / 2
        calls.clear()
        with patch.object(SimpleSolver, "_contest", stepwise_contest):
            _, trace = run_simple(auction, seed, epsilon)
        assert trace.demand_queries == sum(calls.values()), (s, calls)
        barred += calls.get("demand_correspondence", 0)
        assert run_simple(auction, seed, epsilon)[1].demand_queries == trace.demand_queries
    assert barred > 0


def _simple_run(auction, seed, epsilon):
    """Events, demand queries and the outcome, or the deadlock message."""
    solver = SimpleSolver(auction, seed, epsilon)
    try:
        result = solver.run()
    except SolverDeadlockError as exc:
        result = str(exc)
    return solver.trace.events, solver.trace.demand_queries, result


def _same_as_stepwise(auction, seed, epsilon):
    """Runs the top-price contest and the stepwise reference and asserts
    they agree; returns the run."""
    run = _simple_run(auction, seed, epsilon)
    with patch.object(SimpleSolver, "_contest", stepwise_contest):
        assert _simple_run(auction, seed, epsilon) == run
    return run


@settings(max_examples=400, deadline=None, derandomize=True)
@given(market=mixed_seeded_markets(), quarter=st.booleans())
def test_top_price_contest_matches_the_stepwise_contest_on_mixed_markets(market, quarter):
    """All five classes with tie-heavy values, at epsilon g/2 or g/4:
    the whole run equals the run that asks both sides at every step."""
    auction, seed = market
    g = auction.granularity() or F(1)
    _same_as_stepwise(auction, seed, g / (4 if quarter else 2))


def test_top_price_contest_matches_the_stepwise_contest_on_random_explicit():
    for s in range(600):
        auction, seed = seed_instance(s)
        g = auction.granularity()
        _same_as_stepwise(auction, seed, g / (4 if s % 2 else 2))


@pytest.mark.parametrize("n", range(3, 9))
def test_top_price_contest_matches_the_stepwise_contest_on_logn_revenue(n):
    """Both contests stop on the same deadlocks with the same message."""
    auction, seed = generate("logn_revenue", n=n)
    g = auction.granularity()
    for epsilon in (g / 2, g / 4):
        _, _, result = _same_as_stepwise(auction, seed, epsilon)
        if n in (3, 4, 6, 8):
            assert "only blocked demand sets" in result


@pytest.mark.parametrize(
    "values, winner, price",
    [((2, 1), "A", F(1) + F(1, 2**12)), ((1, 1), "B", F(1))],
    ids=["winner", "tie"],
)
def test_long_contest_matches_the_stepwise_contest(values, winner, price):
    """B's seed prices the item at 1/2; A takes it and B claims it at
    epsilon 1/2^12.  The contest runs 2,049 trial steps: past B's top
    of 1 with A's at 2, or past both tops of 1 at once, when the last
    step is undone and B keeps the item.  One raise either way."""
    auction = one_item(*values)
    events, queries, out = _same_as_stepwise(auction, {"B": frozenset({"1"})}, F(1, 2**12))
    assert out.assignment == {winner: frozenset({0})}
    assert out.prices == {0: price}
    raises = [(e.old, e.new) for e in events if isinstance(e, PriceRaise)]
    assert raises == [(F(1, 2), price)]
    # 3 main-loop queries and the contest's 2 * 2049 + 1
    assert queries == 3 + 2 * 2049 + 1


@pytest.mark.xfail(
    strict=True,
    raises=ResourceLimitError,
    reason="known limit: an agent whose demand sets are all blocked lists "
    "them by enumerating the catalog's unions, capped at 20 bundles",
)
def test_simple_solves_logn_revenue_21():
    auction, seed = generate("logn_revenue", n=21)
    outcome, _ = run_simple(auction, seed, auction.granularity() / 2)
    assert is_cwe(auction, outcome)


@pytest.mark.parametrize("kind", KINDS)
def test_top_price_refuses_an_item_outside_the_valuation(kind):
    """The contested bundle holds "zz", outside A's universe: `top_price`
    refuses it as `demand` does, in Fractions and on a lattice, and
    refuses a bundle id outside the catalog."""
    universe = frozenset({"x", "y"})
    auction = Auction(items=universe, agents=(Agent("A", ONLY_X[kind](universe)),))
    lattice, scale = auction.on_lattice()
    catalog = Catalog(entries=((0, frozenset({"x", "zz"})), (1, frozenset({"y"}))))
    for source, prices in ((auction, {0: F(1), 1: F(0)}), (lattice, {0: scale, 1: 0})):
        with pytest.raises(InputError, match=r"unknown item identifiers \['zz'\]"):
            demand(source, "A", catalog, prices)
        with pytest.raises(InputError, match=r"unknown item identifiers \['zz'\]"):
            top_price(source, "A", catalog, prices, 0)
        with pytest.raises(InputError, match="^no bundle with id 7$"):
            top_price(source, "A", Catalog(entries=((1, frozenset({"y"})),)), prices, 7)


def test_exact_tie_lattice_regression():
    # this instance once drove conflict resolution in circles: every
    # maximizer of one agent was an exact tie held by another agent,
    # and each trial raise dropped both sides at once.  The hand-over
    # rule resolves it with full welfare.
    auction, _ = generate("random_explicit", m=3, n=4, seed=25)
    _, alloc = brute_force_optimal(auction)
    seed = {a: s for a, s in alloc.items() if s}
    g = auction.granularity()
    assert g == F(1, 64)
    out, trace = run_simple(auction, seed, g / 2)
    assert is_cwe(auction, out)
    assert social_welfare(auction, out) == F(147, 64)
    assert social_welfare(auction, out) == seed_welfare(auction, seed)
    assert out.prices == {0: F(45, 64), 1: F(39, 64), 2: F(3, 8)}
    assert out.assignment == {
        "r1": frozenset({0}),
        "r2": frozenset({1}),
        "r3": frozenset({2}),
    }
    assert trace.iterations == 17
    rebuilt = replay(auction, seed, trace)
    assert rebuilt.prices == out.prices
    assert rebuilt.assignment == out.assignment


def test_prices_never_decrease_and_merges_only_coarsen():
    auction, seed = generate("gap3")
    _, trace = run_simple(auction, seed, F(1, 20))
    for ev in trace.events:
        if isinstance(ev, PriceRaise):
            assert ev.new > ev.old


def test_seed_welfare_guarantee_on_generated_instances():
    for s in [3, 11, 19, 42]:
        auction, _ = generate("random_explicit", m=3, n=3, seed=s)
        _, alloc = brute_force_optimal(auction)
        seed = {a: x for a, x in alloc.items() if x}
        g = auction.granularity()
        out, _ = run_simple(auction, seed, g / 2)
        assert is_cwe(auction, out)
        assert 2 * social_welfare(auction, out) >= seed_welfare(auction, seed)


def test_rejection_only_at_nonpositive_utility():
    # the rejected agent in the symmetric run has max utility exactly 0
    auction = one_item(1, 1)
    out, trace = run_simple(auction, {"A": frozenset({"1"})}, F(1, 4))
    rejected = [e.agent for e in trace.events if isinstance(e, Reject)]
    assert rejected == ["A"]
    # at final prices the rejected agent cannot gain
    assert out.prices[0] >= F(1)


@pytest.mark.xfail(
    strict=True,
    raises=SolverDeadlockError,
    reason="known fault: every demanded set of some agent is held and each "
    "conflict is an exact tie, so the epsilon auction stops; the poly "
    "solver handles the same instance",
)
def test_deadlock_on_random_explicit_42200455():
    auction, _ = generate("random_explicit", m=4, n=5, seed=42200455)
    _, allocation = brute_force_optimal(auction)
    seed = {a: s for a, s in allocation.items() if s}
    outcome, _ = run_simple(auction, seed, auction.granularity() / 2)
    assert is_cwe(auction, outcome)
