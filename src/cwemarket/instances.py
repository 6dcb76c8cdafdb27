"""Benchmark auctions with known optima and stability gaps.

Each builder returns (auction, allocation) where the allocation is the
seed the solvers should start from, or None when any seed works.
"""
from __future__ import annotations

import inspect
import random
from fractions import Fraction
from typing import Dict, FrozenSet, Optional, Tuple

from .errors import InputError
from .market import Agent, Auction, InitialAllocation
from .scalars import parse_scalar
from .valuations import (
    ExplicitValuation,
    SingleMindedValuation,
    UnitDemandValuation,
    XosValuation,
    subsets_of,
)

Built = Tuple[Auction, Optional[InitialAllocation]]


def gap3(epsilon: Fraction = Fraction(1, 10)) -> Built:
    """Three items, three agents; nobody's stable outcome sells all three.

    Agent i values its own item at 1 and the other two items together
    at 2 + epsilon.  The welfare optimum (value 3) gives item i to
    agent i, but no stable bundling reaches more than 2 + epsilon.
    """
    epsilon = parse_scalar(epsilon)
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    items = ("1", "2", "3")
    agents = []
    for i, own in enumerate(items, start=1):
        rest = frozenset(items) - {own}
        table = ExplicitValuation.from_entries(
            frozenset(items),
            {frozenset({own}): Fraction(1), rest: 2 + epsilon},
        )
        agents.append(Agent(name=f"a{i}", valuation=table))
    auction = Auction(items=items, agents=tuple(agents))
    allocation = {f"a{i}": frozenset({items[i - 1]}) for i in (1, 2, 3)}
    return auction, allocation


def item_pricing_um_sm(m: int, epsilon: Fraction = Fraction(1, 10)) -> Built:
    """Unit-demand bidder against a single-minded bidder wanting all m items.

    Selling items individually can reach welfare 1 + epsilon at best,
    against an optimum of m.
    """
    if m < 2:
        raise InputError("m must be at least 2")
    epsilon = parse_scalar(epsilon)
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    items = tuple(str(j) for j in range(1, m + 1))
    weights = {item: 1 + epsilon for item in items}
    b1 = Agent(name="b1", valuation=UnitDemandValuation(frozenset(items), weights))
    b2 = Agent(
        name="b2",
        valuation=SingleMindedValuation(
            frozenset(items), desired=frozenset(items), weight=Fraction(m)
        ),
    )
    auction = Auction(items=items, agents=(b1, b2))
    allocation = {"b2": frozenset(items)}
    return auction, allocation


def item_pricing_xos(m: int, delta: Fraction = Fraction(1, 8)) -> Built:
    """Unit-demand bidder against a fractionally subadditive bidder.

    Agent a2 values any k items at max(1, k/2); agent a1 values any
    single item at 1/2 - delta, with 0 < delta < 1/(2(m-1)).  Stable
    item pricings do sell two items, one to each agent: with
    delta = 1/(4(m-1)) the best stable item pricing reaches welfare
    3/2 - delta for m = 2, 3, 4 (pinned by the acceptance tests),
    against an optimum of m/2 from m = 3 on.
    """
    if m < 2:
        raise InputError("m must be at least 2")
    delta = parse_scalar(delta)
    if not (0 < delta and 2 * (m - 1) * delta < 1):
        raise InputError("delta must lie strictly between 0 and 1/(2(m-1))")
    items = tuple(str(j) for j in range(1, m + 1))
    half = Fraction(1, 2)
    a1 = Agent(
        name="a1",
        valuation=UnitDemandValuation(
            frozenset(items), {item: half - delta for item in items}
        ),
    )
    clauses = [{item: half for item in items}]
    clauses.extend({item: Fraction(1)} for item in items)
    a2 = Agent(name="a2", valuation=XosValuation(frozenset(items), clauses))
    auction = Auction(items=items, agents=(a1, a2))
    allocation = {"a2": frozenset(items)}
    return auction, allocation


def logn_revenue(n: int) -> Built:
    """Equal-revenue style market: agent i pays at most 1/i for any item.

    All n agents are unit-demand; agent i values every item at 1/i.
    Welfare grows like the harmonic number while any fixed price sells
    to a prefix, capping revenue at 1 per configuration.
    """
    if n < 1:
        raise InputError("n must be at least 1")
    items = tuple(str(j) for j in range(1, n + 1))
    agents = tuple(
        Agent(
            name=f"a{i}",
            valuation=UnitDemandValuation(
                frozenset(items), {item: Fraction(1, i) for item in items}
            ),
        )
        for i in range(1, n + 1)
    )
    auction = Auction(items=items, agents=agents)
    allocation = {f"a{i}": frozenset({items[i - 1]}) for i in range(1, n + 1)}
    return auction, allocation


def random_explicit(
    m: int,
    n: int,
    seed: int,
    denominator: int = 64,
) -> Built:
    """Random monotone explicit valuations on m items for n agents.

    Each nonempty subset draws value k/denominator with k uniform on
    0..denominator, then a running maximum over subsets enforces
    monotonicity.  Deterministic in the seed.
    """
    if m < 1 or n < 1:
        raise InputError("m and n must be at least 1")
    if m > 6:
        raise InputError("m must be at most 6 for explicit tables")
    if denominator < 1:
        raise InputError("denominator must be positive")
    rng = random.Random(seed)
    items = tuple(str(j) for j in range(1, m + 1))
    universe = frozenset(items)
    subsets = list(subsets_of(universe))
    agents = []
    for i in range(1, n + 1):
        table: Dict[FrozenSet[str], Fraction] = {frozenset(): Fraction(0)}
        for subset in subsets:
            if not subset:
                continue
            draw = Fraction(rng.randint(0, denominator), denominator)
            floor = max(table[subset - {x}] for x in subset)
            table[subset] = max(draw, floor)
        agents.append(
            Agent(name=f"r{i}", valuation=ExplicitValuation(universe, table))
        )
    auction = Auction(items=items, agents=tuple(agents))
    return auction, None


_BUILDERS = {
    "gap3": gap3,
    "item_pricing_um_sm": item_pricing_um_sm,
    "item_pricing_xos": item_pricing_xos,
    "logn_revenue": logn_revenue,
    "random_explicit": random_explicit,
}


def instance_names() -> Tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def generate(name: str, **params) -> Built:
    """Build a named benchmark, validating parameter names, that every
    required one is given, and that counts and seeds are ints, not bools."""
    if name not in _BUILDERS:
        known = ", ".join(instance_names())
        raise InputError(f"unknown instance {name!r}; expected one of {known}")
    builder = _BUILDERS[name]
    accepted = inspect.signature(builder).parameters
    for key, value in params.items():
        if key not in accepted:
            raise InputError(f"instance {name!r} does not take parameter {key!r}")
        if key in ("m", "n", "seed", "denominator") and type(value) is not int:
            raise InputError(f"parameter {key!r} must be an int, got {value!r}")
    missing = [k for k, p in accepted.items() if p.default is p.empty and k not in params]
    if missing:
        raise InputError(f"instance {name!r} needs parameter(s) {', '.join(missing)}")
    return builder(**params)
