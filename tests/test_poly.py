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
    Outcome,
    PolySolver,
    SimpleSolver,
    SingleMindedValuation,
    UnitDemandValuation,
    XosValuation,
    find_violation,
    generate,
    is_cwe,
    replay,
    run_poly,
    social_welfare,
)
from cwemarket import poly
from cwemarket.errors import SolverDeadlockError, SolverInvariantError
from cwemarket.market import allocation_welfare, lattice_violation, tie_key
from cwemarket.trace import Assign, FallbackRecord, PriceRaise, Reject, Unassign
from cwemarket.valuations import Valuation, subsets_of

from .helpers import (
    check_push_matches_oracle,
    check_push_maximality,
    cold_raise_prices,
    recorded_pushes,
    reference_initial_market,
    seed_instance,
    unit_demand_violation,
)
from .test_demand_engine import KINDS, coarse, valuations

F = Fraction


def test_three_agent_merge_run_frozen():
    auction, seed = generate("gap3")
    out, trace = run_poly(auction, seed)
    assert [(bid, sorted(items)) for bid, items in out.catalog.entries] == [
        (0, ["1"]),
        (3, ["2", "3"]),
    ]
    assert out.prices == {0: F(1, 2), 3: F(8, 5)}
    assert out.assignment == {"a1": frozenset({3})}
    assert social_welfare(auction, out) == F(21, 10)
    assert trace.iterations == 3
    assert trace.demand_queries == 6
    rebuilt = replay(auction, seed, trace)
    assert rebuilt.prices == out.prices
    assert rebuilt.assignment == out.assignment


def test_single_agent():
    items = frozenset({"x"})
    auction = Auction(
        items=items, agents=(Agent("A", UnitDemandValuation(items, {"x": F(6)})),)
    )
    out, trace = run_poly(auction, {"A": frozenset({"x"})})
    assert out.assignment == {"A": frozenset({0})}
    # the push walks the lone holder to its indifference point with leaving
    assert out.prices == {0: F(6)}
    assert trace.iterations == 1


def test_displacement_chain_uses_recorded_fallback():
    items = frozenset({"x", "y"})
    auction = Auction(
        items=items,
        agents=(
            Agent("A", UnitDemandValuation(items, {"x": F(8), "y": F(2)})),
            Agent("B", UnitDemandValuation(items, {"x": F(10), "y": F(1)})),
        ),
    )
    seed = {"A": frozenset({"y"}), "B": frozenset({"x"})}
    out, trace = run_poly(auction, seed)
    # B takes x off A, and A lands on its recorded switch-to bundle y
    assert out.assignment == {"B": frozenset({1}), "A": frozenset({0})}
    assert out.prices == {0: F(2), 1: F(10)}
    events = trace.events
    i_steal = next(
        k for k, e in enumerate(events)
        if isinstance(e, Assign) and e.agent == "B"
    )
    assert isinstance(events[i_steal + 1], Unassign)
    assert events[i_steal + 1].agent == "A"
    assert isinstance(events[i_steal + 2], Assign)
    assert events[i_steal + 2] == Assign("A", frozenset({0}))
    assert is_cwe(auction, out)
    rebuilt = replay(auction, seed, trace)
    assert rebuilt.assignment == out.assignment


def test_empty_fallback_means_rejection():
    items = frozenset({"x"})
    auction = Auction(
        items=items,
        agents=(
            Agent("A", UnitDemandValuation(items, {"x": F(8)})),
            Agent("B", UnitDemandValuation(items, {"x": F(10)})),
        ),
    )
    out, trace = run_poly(auction, {"B": frozenset({"x"})})
    assert out.assignment == {"B": frozenset({0})}
    assert out.prices == {0: F(10)}
    rejected = [e.agent for e in trace.events if isinstance(e, Reject)]
    assert rejected == ["A"]
    assert is_cwe(auction, out)


def test_margins_recomputed_after_each_removal():
    # Q's first-round margin is 1 (nothing else to switch to); once P
    # stops rising and frees its bundle, Q's margin shrinks to 1/2 and
    # the push stops at 3/2 with the freed bundle recorded
    items = frozenset({"1", "2"})
    auction = Auction(
        items=items,
        agents=(
            Agent("P", UnitDemandValuation(items, {"1": F(1, 2)})),
            Agent("Q", UnitDemandValuation(items, {"1": F(1), "2": F(2)})),
        ),
    )
    seed = {"P": frozenset({"1"}), "Q": frozenset({"2"})}
    with recorded_pushes() as reports:
        out, trace = run_poly(auction, seed)
    assert out.assignment == {"P": frozenset({0}), "Q": frozenset({1})}
    assert out.prices == {0: F(1, 2), 1: F(3, 2)}
    last = reports[-1]
    assert last.prices_before == {0: F(1, 2), 1: F(1)}
    assert last.prices_after == {0: F(1, 2), 1: F(3, 2)}
    assert last.fallbacks == {"P": frozenset(), "Q": frozenset({0})}
    assert last.removal_order == ("P", "Q")
    # exact indifference with the recorded switch-to set
    assert F(2) - out.prices[1] == F(1) - out.prices[0]


def test_push_matches_breakpoint_sweep_oracle():
    auction, seed = generate("gap3")
    with recorded_pushes() as reports:
        run_poly(auction, seed)
    assert reports
    for rep in reports:
        check_push_matches_oracle(auction, rep)
        check_push_maximality(auction, rep)


def test_never_taken_seed_bundle_keeps_half_value_price():
    items = frozenset({"x", "y"})
    auction = Auction(
        items=items,
        agents=(
            Agent("A", UnitDemandValuation(items, {"x": F(3)})),
            Agent("B", UnitDemandValuation(items, {"x": F(8), "y": F(2)})),
        ),
    )
    seed = {"A": frozenset({"x"}), "B": frozenset({"y"})}
    out, trace = run_poly(auction, seed)
    # B prices A out of x; B's own seed bundle y is never taken by
    # anyone and stays at half of B's value for it
    assert out.assignment == {"B": frozenset({0})}
    assert out.prices == {0: F(7), 1: F(1)}
    assert dict(out.catalog.entries)[1] == frozenset({"y"})
    assert is_cwe(auction, out)


def test_query_budget_and_iteration_caps_hold_on_generated_runs():
    for s in [0, 1, 2, 3]:
        auction, seed = generate("random_explicit", m=3, n=3, seed=s)
        from cwemarket import brute_force_optimal
        _, alloc = brute_force_optimal(auction)
        seed = {a: x for a, x in alloc.items() if x}
        out, trace = run_poly(auction, seed)
        n = len(auction.agents)
        assert trace.iterations <= n * n
        assert trace.demand_queries <= trace.iterations * (n + 1) * (n + 2)
        assert is_cwe(auction, out)


def _verdict_corpus():
    yield generate("gap3")
    for n in (3, 4, 5):
        yield generate("logn_revenue", n=n)
    for m in (2, 3):
        yield generate("item_pricing_xos", m=m)
    for seed in range(64):
        yield seed_instance(seed)


@pytest.mark.parametrize("simple", [False, True], ids=["poly", "simple"])
def test_seed_market_on_the_lattice_equals_initial_market(simple):
    """The solvers price each seed bundle at half its lattice value; the
    catalog, the prices and the seed welfare equal
    `reference_initial_market` and `allocation_welfare` in Fractions, also
    on the epsilon solver's finer lattice."""
    for auction, seed in _verdict_corpus():
        g = auction.granularity() or F(1)
        solver = SimpleSolver(auction, seed, g / 4) if simple else PolySolver(auction, seed)
        catalog, prices = reference_initial_market(auction, seed)
        assert solver.catalog == catalog
        assert {bid: F(p, solver.scale) for bid, p in solver.prices.items()} == prices
        assert F(solver.seed_welfare, solver.scale) == allocation_welfare(auction, seed)


def test_seed_pricing_refuses_an_odd_lattice_value():
    items = frozenset({"x"})
    auction = Auction(items=items, agents=(Agent("A", AdditiveValuation(items, {"x": F(3)})),))
    auction.__dict__["_grid"] = (1, 1)  # a lattice without the factor 2 of `on_lattice`
    with pytest.raises(SolverInvariantError, match="odd"):
        PolySolver(auction, {"A": items})


def test_final_welfare_check_reports_fractions():
    auction, seed = generate("gap3")
    solver = PolySolver(auction, seed)
    solver.seed_welfare = 10 * solver.scale
    with pytest.raises(SolverInvariantError) as caught:
        solver.run()
    assert str(caught.value) == "welfare 21/10 fell below half the seed welfare 10"


def test_final_check_on_the_run_lattice_agrees_with_find_violation():
    """Both solvers check stability on their own lattice
    (`lattice_violation`).  On each solved outcome, and on each with one
    bundle's price a lattice step lower or higher, it finds the violation
    that `find_violation` finds on the outcome, and none where that
    finds none."""
    violations = 0
    for auction, seed in _verdict_corpus():
        for solver in (
            PolySolver(auction, seed),
            SimpleSolver(auction, seed, auction.granularity() / 2),
        ):
            try:
                outcome = solver.run()
            except SolverDeadlockError:
                continue
            assert find_violation(auction, outcome) is None
            moves = [(bid, step) for bid in outcome.catalog.ids for step in (-1, 1)]
            for bid, step in [(None, 0)] + moves:
                prices = dict(solver.prices)
                if bid is not None:
                    prices[bid] += step
                    if prices[bid] < 0:
                        continue
                moved = Outcome(
                    catalog=outcome.catalog,
                    prices={b: F(p, solver.scale) for b, p in prices.items()},
                    assignment=outcome.assignment,
                )
                want = find_violation(auction, moved)
                assert lattice_violation(solver.market, solver.scale, moved, prices) == want
                violations += want is not None
    assert violations > 0


@st.composite
def mixed_seeded_markets(draw):
    """(auction, seed allocation): 3-6 items, one agent of each of the
    five classes plus up to two more, values from the tie-heavy coarse
    set."""
    items = [f"i{k}" for k in range(draw(st.integers(3, 6)))]
    universe = frozenset(items)
    kinds = list(draw(st.permutations(KINDS)))
    kinds += draw(st.lists(st.sampled_from(KINDS), max_size=2))
    agents = tuple(
        Agent(f"a{j}", draw(valuations(kind, universe, coarse)))
        for j, kind in enumerate(kinds)
    )
    # items to agents of their own, one each, the rest to nobody
    names = [a.name for a in agents]
    owners = draw(st.lists(st.sampled_from(names), min_size=2, max_size=len(items), unique=True))
    seed = {name: frozenset({item}) for item, name in zip(items, owners)}
    return Auction(items=items, agents=agents), seed


def _solved(auction, seed):
    solver = PolySolver(auction, seed)
    outcome = solver.run()
    trace = solver.trace
    return trace.events, trace.demand_queries, solver.fallback, solver.rank, outcome


@settings(max_examples=200, deadline=None, derandomize=True)
@given(market=mixed_seeded_markets())
def test_warm_push_matches_the_cold_push_on_mixed_markets(market):
    """The push extends each structured holder's answer by the released
    bundle; the cold reference asks every holder again over the whole
    available catalog.  Every push matches the breakpoint sweep, and the
    whole run equals the cold one: events, queries, fallbacks, ranks
    and outcome."""
    auction, seed = market
    with recorded_pushes() as reports:
        warm = _solved(auction, seed)
    for report in reports:
        check_push_matches_oracle(auction, report)
        check_push_maximality(auction, report)
    with patch.object(PolySolver, "raise_prices", cold_raise_prices):
        assert _solved(auction, seed) == warm


def test_logn_revenue_push_work_is_pinned_by_count():
    """`logn_revenue` ties every item for every agent.  The warm push
    values each offer once per holder and push, not once per step, ranks
    each tied offer once against the kept tie's cached rank, and still
    counts every logical query."""
    calls = {"value": 0, "key": 0}
    value = UnitDemandValuation._value

    def counted(valuation, items):
        calls["value"] += 1
        return value(valuation, items)

    def counted_key(*args):
        key = tie_key(*args)

        def ranked(bundle_set):
            calls["key"] += 1
            return key(bundle_set)

        return ranked

    auction, seed = generate("logn_revenue", n=32)
    with patch.object(UnitDemandValuation, "_value", counted), patch.object(
        poly, "tie_key", counted_key
    ):
        _, trace = run_poly(auction, seed)
    assert calls["value"] < 20_000  # 84,720 when every step asked the whole catalog
    # one per tied offer and one per fold that meets a tie; 7,700 when
    # the kept tie was ranked again at every tied offer
    assert calls["key"] == 4_280
    assert trace.demand_queries == 4_344
    auction, seed = generate("logn_revenue", n=64)
    outcome, trace = run_poly(auction, seed)
    assert trace.demand_queries == 34_120
    assert unit_demand_violation(auction, outcome) is None


def test_every_push_builds_one_key_and_one_fold_per_holder():
    """Explicit tables fold as the structured classes do, so every push,
    an all-explicit one included, builds one tie key and one fold per
    holder, and each run equals the run with the cold push."""
    built = {"keys": 0, "folds": 0}
    fold, push = Valuation.demand_fold, PolySolver.raise_prices
    holders = []

    def counted_fold(valuation, key):
        built["folds"] += 1
        return fold(valuation, key)

    def counted_key(*args):
        built["keys"] += 1
        return tie_key(*args)

    def counted_push(solver):
        before = dict(built)
        push(solver)
        assert built["keys"] == before["keys"] + 1
        assert built["folds"] == before["folds"] + len(solver.rank)
        holders.append(len(solver.rank))

    for s in range(16):
        auction, seed = seed_instance(s)
        with patch.object(Valuation, "demand_fold", counted_fold), patch.object(
            poly, "tie_key", counted_key
        ), patch.object(PolySolver, "raise_prices", counted_push):
            run = _solved(auction, seed)
        with patch.object(PolySolver, "raise_prices", cold_raise_prices):
            assert _solved(auction, seed) == run
    assert max(holders) > 1
    assert built == {"keys": len(holders), "folds": sum(holders)}


# worth 4 for {"x"}, over the universe {"x", "y"}
ONLY_X = {
    "explicit": lambda u: ExplicitValuation.from_entries(u, {frozenset({"x"}): F(4)}),
    "additive": lambda u: AdditiveValuation(u, {"x": F(4)}),
    "unit_demand": lambda u: UnitDemandValuation(u, {"x": F(4)}),
    "single_minded": lambda u: SingleMindedValuation(u, {"x"}, F(4)),
    "xos": lambda u: XosValuation(u, [{"x": F(4)}]),
}


@pytest.mark.parametrize("kind", KINDS)
def test_released_offer_outside_the_valuation_is_rejected(kind):
    """B's bundle holds "zz", an item of B's universe but not of A's.
    B leaves the push first, and A's answer must refuse the released
    bundle, as a query over the whole catalog does."""
    a_items, b_items = frozenset({"x", "y"}), frozenset({"x", "y", "zz"})
    auction = Auction(
        items=a_items,
        agents=(
            Agent("A", ONLY_X[kind](a_items)),
            Agent("B", UnitDemandValuation(b_items, {"y": F(2)})),
        ),
    )
    solver = PolySolver(auction, {"A": frozenset({"x"}), "B": frozenset({"y"})})
    solver.catalog = Catalog(entries=((0, frozenset({"x"})), (1, frozenset({"y", "zz"}))))
    solver.assignment = {"A": frozenset({0}), "B": frozenset({1})}
    # margins: A 4 - 1 = 3, B 2 - 1 = 1, so B leaves first
    solver.prices = {0: solver.scale, 1: solver.scale}
    with pytest.raises(InputError, match=r"unknown item identifiers \['zz'\]"):
        solver.raise_prices()
    assert solver.rank == {"B": 1}


def test_warm_push_matches_the_cold_push_on_paper_instances():
    """The paper's structured families, `logn_revenue` (every item alike
    to each agent) up to n = 12 among them: each whole run equals the
    run with the cold push."""
    corpus = [generate("logn_revenue", n=n) for n in range(2, 13)]
    corpus += [generate("item_pricing_um_sm", m=m) for m in (2, 3, 4)]
    corpus += [generate("item_pricing_xos", m=m) for m in (2, 3, 4)]
    for auction, seed in corpus:
        warm = _solved(auction, seed)
        with patch.object(PolySolver, "raise_prices", cold_raise_prices):
            assert _solved(auction, seed) == warm


# worth 10 for "z" and 2 for any one of "w", "y" and "x"; the XOS
# clauses list "w", "y" and "x" in the order opposite to their ids
TIED_HOLDER = {
    "explicit": lambda u: ExplicitValuation(
        u, {s: F(10 * ("z" in s) + 2 * bool(s & {"w", "y", "x"})) for s in subsets_of(u)}
    ),
    "unit_demand": lambda u: UnitDemandValuation(u, {"x": F(2), "y": F(2), "z": F(10), "w": F(2)}),
    "xos": lambda u: XosValuation(u, [{i: F(2), "z": F(10)} for i in "wyx"]),
}


@pytest.mark.parametrize("kind", sorted(TIED_HOLDER))
@pytest.mark.parametrize("unheld, switch", [(False, 0), (True, 3)])
def test_push_ties_go_to_the_smallest_key_in_any_release_order(kind, unheld, switch):
    """B leaves the push before A, so H is offered B's bundle 1 before
    A's bundle 0, both at 1 and both worth 2 to H; so is the unheld
    bundle 3 when it is on sale.  H records the tied bundle with the
    one `tie_key` ranks first: the one nobody holds, else the lower id."""
    items = frozenset("xyzw")
    auction = Auction(
        items=items,
        agents=(
            Agent("A", UnitDemandValuation(items, {"x": F(1)})),
            Agent("B", UnitDemandValuation(items, {"y": F(1)})),
            Agent("H", TIED_HOLDER[kind](items)),
        ),
    )
    entries = ((0, frozenset("x")), (1, frozenset("y")), (2, frozenset("z")))
    if unheld:
        entries += ((3, frozenset("w")),)
    pushes = []
    for push in (PolySolver.raise_prices, cold_raise_prices):
        solver = PolySolver(auction, {name: frozenset(i) for name, i in zip("ABH", "xyz")})
        solver.catalog = Catalog.selling(items, entries)
        solver.assignment = {"A": frozenset({0}), "B": frozenset({1}), "H": frozenset({2})}
        # margins before any release: A 1, B 1/2, H 10
        solver.prices = {0: 0, 1: solver.scale // 2, 2: 0, 3: solver.scale}
        push(solver)
        pushes.append((solver.rank, solver.fallback, solver.trace.events))
    assert pushes[0] == pushes[1]
    assert pushes[0][0] == {"B": 1, "A": 2, "H": 3}
    assert pushes[0][1]["H"] == frozenset({switch})
