from fractions import Fraction

import pytest
from hypothesis import given, settings

from cwemarket import (
    AdditiveValuation,
    Agent,
    Auction,
    Catalog,
    InputError,
    Outcome,
    generate,
    is_cwe,
    maximize_revenue,
    revenue_of,
    run_poly,
)

from .helpers import reference_ladder, seed_instance
from .test_poly import mixed_seeded_markets

F = Fraction


def _stable_single():
    items = frozenset({"x", "y"})
    auction = Auction(
        items=items,
        agents=(Agent("A", AdditiveValuation(items, {"x": F(4), "y": F(0)})),),
    )
    catalog = Catalog(entries=((0, frozenset({"x"})),), withheld=frozenset({"y"}))
    out = Outcome(
        catalog=catalog,
        prices={0: F(1)},
        assignment={"A": frozenset({0})},
    )
    return auction, out


def test_revenue_of_sums_assigned_prices():
    auction, out = _stable_single()
    assert revenue_of(auction, out) == F(1)
    empty = Outcome(catalog=out.catalog, prices=out.prices, assignment={})
    assert revenue_of(auction, empty) == F(0)


def test_ladder_keeps_a_holder_on_an_exact_tie():
    """At level 1 of logn_revenue n = 2, a1's value is exactly its base
    price plus the surcharge: zero utility keeps the bundle."""
    auction, seed = generate("logn_revenue", n=2)
    result = maximize_revenue(auction, seed)
    level = result.levels[1]
    (bid,) = result.base.assignment["a1"]
    value = auction.valuation("a1").value(result.base.catalog.items_of(bid))
    assert value == result.base.prices[bid] + level.sigma
    assert "a1" in level.survivors
    assert level.outcome.assignment["a1"] == frozenset({bid})


def test_ladder_frozen_values():
    auction, seed = generate("logn_revenue", n=4)
    result = maximize_revenue(auction, seed)
    assert result.k == 3
    assert result.ell == 3
    assert result.sw0 == F(11, 6)
    assert result.seed_welfare == F(25, 12)
    assert result.base.prices == {0: F(1, 2), 1: F(1, 3), 2: F(1, 3), 3: F(1, 3)}
    assert result.base.assignment == {
        "a1": frozenset({3}),
        "a2": frozenset({2}),
        "a3": frozenset({1}),
    }
    got = [
        (lv.t, lv.sigma, lv.sw, lv.rev, lv.survivors) for lv in result.levels
    ]
    assert got == [
        (0, F(0), F(11, 6), F(1), ("a1", "a2", "a3")),
        (1, F(11, 36), F(1), F(23, 36), ("a1",)),
        (2, F(11, 18), F(1), F(17, 18), ("a1",)),
        (3, F(11, 9), F(0), F(0), ()),
        (4, F(22, 9), F(0), F(0), ()),
    ]
    assert result.t_star == 0
    assert result.chosen is result.levels[0]
    assert result.max_revenue == F(1)
    assert result.max_revenue * 8 * result.ell >= result.sw0
    assert result.max_revenue * 16 * result.ell >= result.seed_welfare


def test_every_ladder_level_stays_stable():
    auction, seed = generate("logn_revenue", n=4)
    result = maximize_revenue(auction, seed)
    for level in result.levels:
        assert is_cwe(auction, level.outcome), f"level {level.t} unstable"


def test_survivors_shrink_down_the_ladder():
    auction, seed = generate("logn_revenue", n=5)
    result = maximize_revenue(auction, seed)
    prev = set(result.levels[0].survivors)
    for level in result.levels[1:]:
        cur = set(level.survivors)
        assert cur <= prev
        prev = cur
    last = result.levels[-1]
    sw0 = result.sw0
    for name in last.survivors:
        (bid,) = last.outcome.assignment[name]
        assert last.outcome.prices[bid] >= sw0


def test_empty_allocation_degenerates_to_level_zero():
    auction, _ = generate("logn_revenue", n=4)
    result = maximize_revenue(auction, {})
    assert result.k == 0
    assert result.ell == 0
    assert len(result.levels) == 1
    assert result.max_revenue == F(0)
    assert result.levels[0].survivors == ()


@pytest.mark.parametrize(
    "seed",
    [{"zz": frozenset({"1"})}, {"a1": frozenset({"nope"})}],
    ids=["unknown_agent", "unknown_item"],
)
def test_bad_seed_gets_the_solver_message(seed):
    auction, _ = generate("gap3")
    with pytest.raises(InputError) as solver:
        run_poly(auction, seed)
    with pytest.raises(InputError) as revenue:
        maximize_revenue(auction, seed)
    assert str(revenue.value) == str(solver.value)
    assert "initial allocation" in str(solver.value)


def _same_as_reference(auction, seed):
    """Every level of the int ladder equals the Fraction reference: each
    field, each outcome with its dict order, and every number a Fraction."""
    result = maximize_revenue(auction, seed)
    want = reference_ladder(auction, result.base)
    assert len(result.levels) == len(want)
    for level, (t, sigma, outcome, survivors, sw, rev) in zip(result.levels, want):
        assert level.outcome == outcome
        got = (level.t, level.sigma, level.survivors, level.sw, level.rev,
               list(level.outcome.prices.items()), list(level.outcome.assignment.items()))
        assert repr(got) == repr((t, sigma, survivors, sw, rev,
                                  list(outcome.prices.items()), list(outcome.assignment.items())))
    assert result.t_star == max(want, key=lambda level: level[5])[0]


@pytest.mark.parametrize("s", range(48))
def test_ladder_matches_the_fraction_reference_on_seeded_instances(s):
    _same_as_reference(*seed_instance(s))


@pytest.mark.parametrize("n", range(2, 9))
def test_ladder_matches_the_fraction_reference_on_logn_revenue(n):
    _same_as_reference(*generate("logn_revenue", n=n))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(market=mixed_seeded_markets())
def test_ladder_matches_the_fraction_reference_on_mixed_markets(market):
    _same_as_reference(*market)
