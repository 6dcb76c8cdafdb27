from fractions import Fraction

import pytest

from cwemarket import (
    AdditiveValuation,
    Agent,
    Auction,
    InputError,
    SolverDeadlockError,
    SolverInvariantError,
    Trace,
    generate,
    replay,
    run_poly,
    run_simple,
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

from .helpers import reference_replay, seed_instance

F = Fraction


def replay_both(auction, seed, trace):
    """`replay`, checked against `reference_replay`: both rebuild the same
    outcome, or both refuse the trace with the same error type (the
    integer replay's error is raised)."""
    try:
        out = replay(auction, seed, trace)
    except (InputError, SolverInvariantError) as exc:
        with pytest.raises(Exception) as ref:
            reference_replay(auction, seed, trace)
        assert type(ref.value) is type(exc)
        raise
    assert reference_replay(auction, seed, trace) == out
    return out


def test_replay_reproduces_simple_run_exactly():
    auction, seed = generate("gap3")
    out, trace = run_simple(auction, seed, F(1, 20))
    rebuilt = replay_both(auction, seed, trace)
    assert rebuilt.prices == out.prices
    assert rebuilt.assignment == out.assignment
    assert dict(rebuilt.catalog.entries) == dict(out.catalog.entries)
    assert rebuilt.catalog.withheld == out.catalog.withheld


def test_replay_reproduces_poly_run_exactly():
    auction, seed = generate("gap3")
    out, trace = run_poly(auction, seed)
    rebuilt = replay_both(auction, seed, trace)
    assert rebuilt.prices == out.prices
    assert rebuilt.assignment == out.assignment
    assert dict(rebuilt.catalog.entries) == dict(out.catalog.entries)


def test_each_raise_starts_from_the_price_the_last_one_ended_on():
    """A raise's `old` equals the previous raise's `new` of its bundle,
    and the outcome's price equals the last raise's `new`."""
    auction, seed = generate("gap3")
    for out, trace in (run_simple(auction, seed, F(1, 20)), run_poly(auction, seed)):
        last = {}
        for ev in trace.events:
            if isinstance(ev, PriceRaise):
                if ev.bundle in last:
                    assert ev.old == last[ev.bundle]
                last[ev.bundle] = ev.new
        assert len(last) > 0
        for bid, price in last.items():
            if bid in out.prices:
                assert out.prices[bid] == F(price, trace.scale)


def tiny(n_agents=2, n_items=2):
    items = frozenset(str(i) for i in range(n_items))
    agents = tuple(
        Agent(
            name,
            AdditiveValuation(items, {i: F(2) for i in items}),
        )
        for name in [chr(ord("A") + k) for k in range(n_agents)]
    )
    return Auction(items=items, agents=agents)


def seed_for(auction):
    # one singleton bundle per agent, in agent order
    items = sorted(auction.item_set)
    return {
        agent: frozenset({items[k]})
        for k, agent in enumerate(auction.agent_names)
    }


def make_trace(events, iterations=None, scale=1):
    t = Trace(scale=scale)
    for ev in events:
        t.add(ev)
    t.iterations = iterations if iterations is not None else sum(
        1 for e in events if isinstance(e, IterationEnd)
    )
    return t


def test_replay_rejects_price_decrease():
    auction = tiny()
    # the seed prices of 1 are 2 on scale 2
    t = make_trace([
        PriceRaise(bundle=0, old=2, new=1),
        IterationEnd(1),
    ], scale=2)
    with pytest.raises(SolverInvariantError, match="decreased"):
        replay_both(auction, seed_for(auction), t)


def test_replay_rejects_stale_price_in_raise():
    auction = tiny()
    t = make_trace([
        PriceRaise(bundle=0, old=7, new=8),
    ])
    with pytest.raises(SolverInvariantError, match="mismatch"):
        replay_both(auction, seed_for(auction), t)


@pytest.mark.parametrize(
    "event, message",
    [
        (PriceRaise(bundle=9, old=0, new=1), "price raise on unknown bundle 9"),
        (Assign("A", frozenset({0, 9})), "assignment references unknown bundle 9"),
    ],
)
def test_replay_refuses_an_event_on_an_unknown_bundle(event, message):
    auction = tiny()
    with pytest.raises(SolverInvariantError, match=f"^{message}$"):
        replay_both(auction, seed_for(auction), make_trace([event]))


FORGED_AGENT = [PoolAdd("zz"), PoolRemove("zz"), Assign("zz", frozenset()), IterationEnd(99)]


def test_replay_refuses_a_run_extended_by_an_agent_outside_the_auction():
    auction, seed = generate("gap3")
    _, trace = run_poly(auction, seed)
    forged = make_trace(trace.events + FORGED_AGENT, scale=trace.scale)
    with pytest.raises(SolverInvariantError, match="^event names 'zz', an agent outside the auction$"):
        replay_both(auction, seed, forged)


@pytest.mark.parametrize(
    "event",
    [PoolAdd("zz"), PoolRemove("zz"), Reject("zz"), Assign("zz", frozenset({0})),
     Unassign("zz"), FallbackRecord("zz", frozenset())],
)
def test_replay_refuses_every_event_naming_an_agent_outside_the_auction(event):
    auction = tiny()
    with pytest.raises(SolverInvariantError, match="an agent outside the auction$"):
        replay_both(auction, seed_for(auction), make_trace([event]))


def test_replay_rejects_orphaned_bundle():
    # a sold bundle whose holder vanishes without anyone taking over
    auction = tiny()
    t = make_trace([
        PoolAdd("A"), PoolAdd("B"),
        PoolRemove("A"), Assign("A", frozenset({0})), IterationEnd(1),
        PoolRemove("B"), Unassign("A"), PoolAdd("A"), IterationEnd(2),
    ])
    with pytest.raises(SolverInvariantError, match="no\nholder|no holder"):
        replay_both(auction, seed_for(auction), t)


def test_replay_rejects_double_hold_at_iteration_end():
    auction = tiny()
    t = make_trace([
        Assign("A", frozenset({0})),
        Assign("B", frozenset({0})),
        IterationEnd(1),
    ])
    with pytest.raises(SolverInvariantError, match="doubly"):
        replay_both(auction, seed_for(auction), t)


def test_replay_allows_transient_double_hold_within_iteration():
    auction = tiny()
    t = make_trace([
        Assign("A", frozenset({0})),
        Assign("B", frozenset({0})),
        Unassign("A"),
        Assign("A", frozenset({1})),
        IterationEnd(1),
    ])
    out = replay_both(auction, seed_for(auction), t)
    assert out.assignment == {"B": frozenset({0}), "A": frozenset({1})}


def test_replay_rejects_rank_violation_on_steal():
    auction = tiny()
    t = make_trace([
        Assign("B", frozenset({0})),
        FallbackRecord("A", frozenset()),
        IterationEnd(1),
        # B has no recorded position, so A may not displace it
        Assign("A", frozenset({0})),
        Unassign("B"),
        IterationEnd(2),
    ])
    with pytest.raises(SolverInvariantError, match="removal order"):
        replay_both(auction, seed_for(auction), t)


def test_replay_accepts_rank_respecting_steal():
    auction = tiny()
    t = make_trace([
        Assign("A", frozenset({0})),
        FallbackRecord("A", frozenset({1})),
        IterationEnd(1),
        Assign("B", frozenset({0})),
        Unassign("A"),
        Assign("A", frozenset({1})),
        FallbackRecord("A", frozenset()),
        FallbackRecord("B", frozenset()),
        IterationEnd(2),
    ])
    out = replay_both(auction, seed_for(auction), t)
    assert out.assignment == {"B": frozenset({0}), "A": frozenset({1})}


def test_replay_rejects_a_second_fallback_in_one_iteration():
    # a push releases each holder once; a repeat would leave an unranked
    # agent no longer behind every ranked one
    auction = tiny(n_agents=3, n_items=3)
    t = make_trace([
        Assign("C", frozenset({0})),
        FallbackRecord("A", frozenset()),
        FallbackRecord("A", frozenset()),
        FallbackRecord("B", frozenset()),
        IterationEnd(1),
    ])
    with pytest.raises(SolverInvariantError, match="second fallback of 'A'"):
        replay_both(auction, seed_for(auction), t)


def test_replay_rejects_overlong_displacement_chain():
    auction = tiny(n_agents=3, n_items=3)
    t = make_trace([
        Assign("A", frozenset({0})),
        Assign("B", frozenset({1})),
        FallbackRecord("A", frozenset()),
        FallbackRecord("B", frozenset()),
        FallbackRecord("C", frozenset()),
        IterationEnd(1),
        # four steal hops in one iteration with n = 3
        Assign("C", frozenset({1})),
        Assign("C", frozenset({1})),
        Assign("C", frozenset({1})),
        Assign("C", frozenset({1})),
        IterationEnd(2),
    ])
    with pytest.raises(SolverInvariantError, match="chain"):
        replay_both(auction, seed_for(auction), t)


def test_replay_rejects_iteration_overrun_in_poly_mode():
    auction = tiny(n_agents=1, n_items=1)
    # a FallbackRecord marks a poly-solver trace, capped at n * n = 1 iteration
    t = make_trace([FallbackRecord("A", frozenset()), IterationEnd(1), IterationEnd(2)])
    with pytest.raises(SolverInvariantError, match="iterations"):
        replay_both(auction, seed_for(auction), t)


def test_replay_merge_checks():
    auction = tiny(n_agents=2, n_items=2)
    seed = seed_for(auction)
    with pytest.raises(SolverInvariantError, match="fewer than two"):
        replay_both(auction, seed, make_trace([Merge(sources=(0,), new_id=9)]))
    with pytest.raises(SolverInvariantError, match="unknown bundle"):
        replay_both(auction, seed, make_trace([Merge(sources=(0, 5), new_id=9)]))
    with pytest.raises(SolverInvariantError, match="reuses"):
        replay_both(auction, seed, make_trace([Merge(sources=(0, 1), new_id=0)]))
    with pytest.raises(SolverInvariantError, match="still assigned"):
        replay_both(auction, seed, make_trace([
            Assign("A", frozenset({0})),
            Merge(sources=(0, 1), new_id=2),
        ]))
    # a clean merge transfers the sold flag to the union bundle
    out = replay_both(auction, seed, make_trace([
        Assign("A", frozenset({0})),
        IterationEnd(1),
        Unassign("A"),
        Merge(sources=(0, 1), new_id=2),
        Assign("A", frozenset({2})),
        IterationEnd(2),
    ]))
    assert out.assignment == {"A": frozenset({2})}
    assert dict(out.catalog.entries) == {2: frozenset({"0", "1"})}
    assert out.prices == {2: F(2)}  # two seed prices of 1, summed


def test_replay_rejects_pool_remove_of_absent_agent():
    auction = tiny()
    t = make_trace([PoolRemove("A")])
    with pytest.raises(SolverInvariantError, match="absent"):
        replay_both(auction, seed_for(auction), t)


@pytest.mark.parametrize(
    "events, match",
    [
        ([PoolAdd("A"), PoolAdd("A")], "pool add of pooled agent 'A'"),
        ([Unassign("A")], "unassign of 'A', who holds nothing"),
        ([Assign("A", frozenset({0})), Reject("A")], "reject of 'A', who holds bundles"),
    ],
    ids=["pool_add_twice", "unassign_empty_handed", "reject_a_holder"],
)
def test_replay_refuses_pool_and_holding_events_no_solver_makes(events, match):
    auction = tiny()
    with pytest.raises(SolverInvariantError, match=match):
        replay_both(auction, seed_for(auction), make_trace(events))


def test_replay_refuses_an_object_that_is_no_event():
    auction = tiny()
    with pytest.raises(InputError, match="unknown trace event"):
        replay_both(auction, seed_for(auction), make_trace(["merge"]))


def test_integer_replay_matches_the_fraction_reference_on_seeded_instances():
    """Both solvers' traces on 300 seeded instances rebuild the same
    outcome in ints as in `Fraction`s (a simple run that deadlocks has
    no trace to replay)."""
    replayed = 0
    for s in range(300):
        auction, seed = seed_instance(s)
        runs = [run_poly(auction, seed)]
        try:
            runs.append(run_simple(auction, seed, auction.granularity() / 2))
        except SolverDeadlockError:
            pass
        for out, trace in runs:
            assert replay_both(auction, seed, trace) == out
            replayed += 1
    assert replayed > 590


def test_replay_refuses_a_scale_that_does_not_carry_the_start_prices():
    # gap3's seed prices are halves, so scale 1 cannot hold them
    auction, seed = generate("gap3")
    _, trace = run_poly(auction, seed)
    with pytest.raises(InputError, match="^1/2 is off the lattice of scale 1$"):
        replay(auction, seed, make_trace(trace.events, scale=1))
