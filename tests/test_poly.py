from fractions import Fraction

import pytest

from cwemarket import (
    Agent,
    Auction,
    Outcome,
    PolySolver,
    SimpleSolver,
    UnitDemandValuation,
    find_violation,
    generate,
    is_cwe,
    replay,
    run_poly,
    social_welfare,
)
from cwemarket.errors import SolverDeadlockError
from cwemarket.market import lattice_violation
from cwemarket.trace import Assign, FallbackRecord, PriceRaise, Reject, Unassign

from .helpers import (
    check_push_matches_oracle,
    check_push_maximality,
    recorded_pushes,
    seed_instance,
)

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
    assert out.catalog.as_dict()[1] == frozenset({"y"})
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
