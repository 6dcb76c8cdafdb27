"""Both solvers on generated mixed-class markets: each run's trace
replays to its outcome, and the outcome is stable (checked by
exhaustive enumeration from raw valuations) with at least half the
seed allocation's welfare.  Scaling every valuation parameter by a
constant scales every price and changes nothing else, and no float
enters a price.  The lattice's granularity matches its rational
reference.

`derandomize=True` fixes the examples, so the suite stays
deterministic.
"""
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwemarket import (
    AdditiveValuation,
    Agent,
    Auction,
    ExplicitValuation,
    SingleMindedValuation,
    UnitDemandValuation,
    XosValuation,
    replay,
    run_poly,
    run_simple,
    social_welfare,
)
from cwemarket.errors import SolverDeadlockError
from cwemarket.scalars import format_scalar
from cwemarket.serialize import trace_to_json
from cwemarket.trace import PriceRaise

from .helpers import brute_stability_violation, common_granularity, seed_welfare, table_of

F = Fraction

scalars = st.builds(F, st.integers(0, 12), st.sampled_from((1, 2, 3, 4)))


@st.composite
def valuations(draw, universe):
    items = sorted(universe)
    weights = st.dictionaries(st.sampled_from(items), scalars)
    kind = draw(st.sampled_from(("additive", "unit_demand", "single_minded", "xos")))
    if kind == "additive":
        return AdditiveValuation(universe, draw(weights))
    if kind == "unit_demand":
        return UnitDemandValuation(universe, draw(weights))
    if kind == "single_minded":
        desired = frozenset(draw(st.lists(st.sampled_from(items), unique=True)))
        return SingleMindedValuation(universe, desired, draw(scalars) if desired else F(0))
    return XosValuation(universe, draw(st.lists(weights, max_size=3)))


@st.composite
def seeded_markets(draw):
    """(auction, seed allocation): m, n <= 6, mixed classes, each item
    seeded to one agent or to nobody."""
    items = [f"i{k}" for k in range(draw(st.integers(1, 6)))]
    universe = frozenset(items)
    agents = tuple(
        Agent(f"a{k}", draw(valuations(universe)))
        for k in range(draw(st.integers(1, 6)))
    )
    owners = draw(
        st.lists(st.integers(-1, len(agents) - 1), min_size=len(items), max_size=len(items))
    )
    seed = {}
    for item, owner in zip(items, owners):
        if owner >= 0:
            name = agents[owner].name
            seed[name] = seed.get(name, frozenset()) | {item}
    return Auction(items=items, agents=agents), seed


def check_run(auction, seed, outcome, trace):
    rebuilt = replay(auction, seed, trace)
    assert rebuilt.catalog.entries == outcome.catalog.entries
    assert rebuilt.prices == outcome.prices
    assert rebuilt.assignment == outcome.assignment
    violation = brute_stability_violation(auction, outcome)
    assert violation is None, violation
    assert 2 * social_welfare(auction, outcome) >= seed_welfare(auction, seed)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seeded_markets())
def test_both_solvers_replay_stable_half_welfare(market):
    auction, seed = market
    check_run(auction, seed, *run_poly(auction, seed))
    g = auction.granularity()
    epsilon = g / 2 if g is not None else F(1, 2)
    check_run(auction, seed, *run_simple(auction, seed, epsilon))


@st.composite
def explicit_valuations(draw, universe):
    """A table listing a few sets, each valued at least as high as every
    listed subset, completed by `from_entries`: monotone by construction."""
    listed = draw(
        st.dictionaries(
            st.frozensets(st.sampled_from(sorted(universe)), min_size=1),
            scalars,
            max_size=4,
        )
    )
    return ExplicitValuation.from_entries(
        universe,
        {s: max(v for t, v in listed.items() if t <= s) for s in listed},
    )


@st.composite
def mixed_and_explicit_markets(draw):
    """`seeded_markets`, with some agents' valuations swapped for
    explicit tables."""
    auction, seed = draw(seeded_markets())
    agents = tuple(
        Agent(a.name, draw(explicit_valuations(auction.item_set)))
        if draw(st.booleans()) else a
        for a in auction.agents
    )
    return Auction(items=auction.items, agents=agents), seed


def times(valuation, c):
    """The same valuation class with every parameter multiplied by c."""
    items = valuation.items
    if isinstance(valuation, ExplicitValuation):
        return ExplicitValuation(items, {s: v * c for s, v in table_of(valuation).items()})
    if isinstance(valuation, SingleMindedValuation):
        return SingleMindedValuation(items, valuation.desired, valuation.weight * c)
    if isinstance(valuation, UnitDemandValuation):
        return UnitDemandValuation(items, {i: w * c for i, w in valuation.weights.items()})
    if isinstance(valuation, AdditiveValuation):
        return AdditiveValuation(items, {i: w * c for i, w in valuation.weights.items()})
    return XosValuation(
        items, [{i: w * c for i, w in clause.items()} for clause in valuation.clauses]
    )


def solved(solve):
    """(outcome, trace) of a run, or the deadlock it stopped with."""
    try:
        return solve()
    except SolverDeadlockError as exc:
        return str(exc)


def check_scaled_run(base, scaled, c):
    if isinstance(base, str):
        assert scaled == base
        return
    (outcome, trace), (outcome_c, trace_c) = base, scaled
    assert outcome_c.catalog == outcome.catalog
    assert outcome_c.assignment == outcome.assignment
    assert outcome_c.prices == {bid: p * c for bid, p in outcome.prices.items()}
    assert trace_c.demand_queries == trace.demand_queries
    assert trace_c.iterations == trace.iterations
    assert [type(ev) for ev in trace_c.events] == [type(ev) for ev in trace.events]
    for ev, ev_c in zip(trace.events, trace_c.events):
        if isinstance(ev, PriceRaise):
            assert ev_c.bundle == ev.bundle
            assert F(ev_c.old, trace_c.scale) == F(ev.old, trace.scale) * c
            assert F(ev_c.new, trace_c.scale) == F(ev.new, trace.scale) * c
        else:
            assert ev_c == ev


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mixed_and_explicit_markets(), st.integers(1, 3))
def test_scaling_every_parameter_scales_every_price(market, steps):
    """A reference run independent of the solvers' integer lattice: with
    every parameter multiplied by c = 3/7 (epsilon too), both solvers
    make the same moves and the same queries at c times the prices.
    Epsilon is g / (2 * steps), so its denominator need not divide
    twice the parameters'."""
    auction, seed = market
    c = F(3, 7)
    scaled = Auction(
        items=auction.items,
        agents=tuple(Agent(a.name, times(a.valuation, c)) for a in auction.agents),
    )
    check_scaled_run(solved(lambda: run_poly(auction, seed)),
                     solved(lambda: run_poly(scaled, seed)), c)
    g = auction.granularity()
    epsilon = (g if g is not None else F(1)) / (2 * steps)
    check_scaled_run(solved(lambda: run_simple(auction, seed, epsilon)),
                     solved(lambda: run_simple(scaled, seed, epsilon * c)), c)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mixed_and_explicit_markets(), st.sampled_from((F(1), F(0))))
@example((Auction(items=("i0",), agents=()), {}), F(1))
def test_granularity_is_the_rational_gcd_of_the_parameters(market, c):
    """`Auction.granularity`, an integer gcd on the lattice, equals
    `common_granularity` of every valuation parameter: None when all
    are zero (c = 0) or there are none (no agents)."""
    auction, _ = market
    auction = Auction(
        items=auction.items,
        agents=tuple(Agent(a.name, times(a.valuation, c)) for a in auction.agents),
    )
    values = [p for a in auction.agents for p in a.valuation.parameter_values()]
    got = auction.granularity()
    assert got == common_granularity(values)
    if not c or not auction.agents:
        assert got is None


def test_a_zero_valued_seed_set_keeps_every_price_a_fraction():
    """x is seeded with an item it values at 0, so its bundle starts at
    price 0; both solvers then raise prices.  Every price they report,
    and every price the replay rebuilds, is a Fraction; a raise carries
    ints on the trace's lattice, which its JSON form writes as "p/q"."""
    universe = frozenset({"a", "b"})
    auction = Auction(
        items=("a", "b"),
        agents=(
            Agent("x", UnitDemandValuation(universe, {"a": F(1)})),
            Agent("y", UnitDemandValuation(universe, {"a": F(1), "b": F(1, 4)})),
        ),
    )
    seed = {"x": frozenset({"b"}), "y": frozenset({"a"})}
    for outcome, trace in (run_poly(auction, seed), run_simple(auction, seed, F(1, 8))):
        raises = [ev for ev in trace.events if isinstance(ev, PriceRaise)]
        assert raises
        prices = [*outcome.prices.values(), *replay(auction, seed, trace).prices.values()]
        assert all(type(p) is Fraction for p in prices), prices
        ints = [p for ev in raises for p in (ev.old, ev.new)]
        assert all(type(p) is int for p in ints), ints
        wire = [ev for ev in trace_to_json(trace)["events"] if ev["type"] == "price_raise"]
        assert [(ev["old"], ev["new"]) for ev in wire] == [
            (format_scalar(F(ev.old, trace.scale)), format_scalar(F(ev.new, trace.scale)))
            for ev in raises
        ]
