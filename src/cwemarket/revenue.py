"""Revenue extraction on top of the query-efficient solver.

A stable outcome can be turned into revenue by a uniform price shift:
add the same surcharge to every bundle price and let each assigned
agent keep its bundle only if the new price still leaves nonnegative
utility.  Stability survives the shift because a single held bundle
loses exactly the surcharge while every competing set of one or more
bundles loses at least that much.

`maximize_revenue` walks one ladder of surcharges.  Level 0 is the
solver's outcome itself; level t >= 1 shifts it by 2**(t-1) * sw0 / (2k),
where sw0 is its welfare and k counts its assigned agents.  Keeping the
best level guarantees revenue within a logarithmic factor of sw0, hence
of the optimum.  `RevenueResult` reads sw0, k and the number of doubling
steps off its levels.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .errors import InputError, SolverInvariantError
from .market import (
    Auction,
    InitialAllocation,
    Outcome,
    allocation_welfare,
    find_violation,
    revenue_of,
    social_welfare,
)
from .poly import run_poly
from .scalars import parse_scalar
from .trace import Trace


def shift_prices(auction: Auction, outcome: Outcome, sigma: Fraction) -> Outcome:
    """Raise every bundle price by sigma, dropping agents priced out.

    Requires a stable outcome in which every assigned agent holds at
    most one bundle; an agent holding two bundles loses 2*sigma across
    its set, which breaks the argument that keeping stays optimal.
    Agents keep their bundle on ties (utility exactly zero after the
    shift).
    """
    sigma = parse_scalar(sigma)
    if sigma < 0:
        raise InputError("price shift must be nonnegative")
    for name in auction.agent_names:
        if len(outcome.assignment.get(name, frozenset())) > 1:
            raise InputError(
                f"price shift requires single-bundle assignments; "
                f"agent {name!r} holds several"
            )
    violation = find_violation(auction, outcome)
    if violation is not None:
        raise InputError(
            f"price shift applied to an unstable outcome "
            f"(agent {violation.agent!r} prefers another set)"
        )
    return _shift(auction, outcome, sigma)


def _shift(auction: Auction, outcome: Outcome, sigma: Fraction) -> Outcome:
    """`shift_prices` without its checks, for outcomes known to pass them."""
    prices = {bid: price + sigma for bid, price in outcome.prices.items()}
    assignment = {}
    for name, held in outcome.assignment.items():
        if not held:
            continue
        (bid,) = held
        value = auction.valuation(name).value(outcome.catalog.items_of(bid))
        if value >= prices[bid]:
            assignment[name] = held
    return Outcome(catalog=outcome.catalog, prices=prices, assignment=assignment)


@dataclass(frozen=True)
class LadderLevel:
    t: int
    sigma: Fraction
    outcome: Outcome
    survivors: Tuple[str, ...]
    sw: Fraction
    rev: Fraction


@dataclass(frozen=True)
class RevenueResult:
    # levels[0].outcome; a field, so that dataclasses.replace can swap it
    base: Outcome
    trace: Trace
    levels: Tuple[LadderLevel, ...]
    t_star: int
    seed_welfare: Fraction

    @property
    def sw0(self) -> Fraction:
        return self.levels[0].sw

    @property
    def k(self) -> int:
        return len(self.levels[0].survivors)

    @property
    def ell(self) -> int:
        return max(len(self.levels) - 2, 0)

    @property
    def chosen(self) -> LadderLevel:
        return self.levels[self.t_star]

    @property
    def max_revenue(self) -> Fraction:
        return self.chosen.rev


def _survivors(auction: Auction, outcome: Outcome) -> Tuple[str, ...]:
    return tuple(
        name
        for name in auction.agent_names
        if outcome.assignment.get(name, frozenset())
    )


def maximize_revenue(auction: Auction, allocation: InitialAllocation) -> RevenueResult:
    """Solve, then scan the surcharge ladder and pick the best level.

    The ladder has levels 0..ell+1, with ell = (2k - 1).bit_length()
    doubling steps, or level 0 alone when k = 0.  The best level's
    revenue is checked against sw0 / (8 * ell) and against the seed
    allocation's welfare over 16 * ell.
    """
    # run_poly validates the seed, so bad seeds get the solver's message
    base, trace = run_poly(auction, allocation)
    seed_welfare = allocation_welfare(auction, allocation)
    k = len(_survivors(auction, base))
    sw0 = social_welfare(auction, base)
    if k and sw0 <= 0:
        raise SolverInvariantError("assigned agents with nonpositive welfare")
    levels: List[LadderLevel] = []
    for t in range((2 * k - 1).bit_length() + 2 if k else 1):
        sigma = Fraction(2) ** (t - 1) * sw0 / (2 * k) if t else Fraction(0)
        # the solver's outcome passed its stability check and gives each holder one
        # bundle, so the shift needs none of shift_prices' checks
        outcome = _shift(auction, base, sigma) if t else base
        survivors = _survivors(auction, outcome)
        if levels and not set(survivors) <= set(levels[-1].survivors):
            raise SolverInvariantError("survivor set grew as the surcharge rose")
        levels.append(
            LadderLevel(
                t=t,
                sigma=sigma,
                outcome=outcome,
                survivors=survivors,
                sw=social_welfare(auction, outcome),
                rev=revenue_of(auction, outcome),
            )
        )
    result = RevenueResult(
        base=base,
        trace=trace,
        levels=tuple(levels),
        t_star=max(levels, key=lambda level: level.rev).t,
        seed_welfare=seed_welfare,
    )
    # with k = 0 the one level has no survivors and sw0 = 0, and the solver
    # keeps the seed welfare at most 2 * sw0, so every check below passes
    top = levels[-1]
    for name in top.survivors:
        (bid,) = top.outcome.assignment[name]
        if top.outcome.prices[bid] < sw0:
            raise SolverInvariantError(
                "top surcharge left a survivor paying less than the base welfare"
            )
    if result.max_revenue * 8 * result.ell < sw0:
        raise SolverInvariantError("revenue fell below the welfare ratio bound")
    if result.max_revenue * 16 * result.ell < seed_welfare:
        raise SolverInvariantError("revenue fell below the seed welfare bound")
    return result
