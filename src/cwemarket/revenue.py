"""Revenue extraction on top of the query-efficient solver.

A stable outcome can be turned into revenue by a uniform price shift:
add the same surcharge to every bundle price and let each assigned
agent keep its bundle only if the new price still leaves nonnegative
utility.  Stability survives the shift because a single held bundle
loses exactly the surcharge while every competing set of one or more
bundles loses at least that much.

Trying a geometric ladder of surcharges and keeping the best level
guarantees revenue within a logarithmic factor of the welfare of the
solver's outcome, hence of the optimum.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

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
from .poly import RaiseHook, run_poly
from .trace import Trace


def shift_prices(
    auction: Auction,
    outcome: Outcome,
    sigma: Fraction,
    verify: bool = True,
) -> Outcome:
    """Raise every bundle price by sigma, dropping agents priced out.

    Requires every assigned agent to hold at most one bundle; an agent
    holding two bundles loses 2*sigma across its set, which breaks the
    argument that keeping stays optimal.  Agents keep their bundle on
    ties (utility exactly zero after the shift).
    """
    if sigma < 0:
        raise InputError("price shift must be nonnegative")
    for name in auction.agent_names:
        if len(outcome.assignment.get(name, frozenset())) > 1:
            raise InputError(
                f"price shift requires single-bundle assignments; "
                f"agent {name!r} holds several"
            )
    if verify:
        violation = find_violation(auction, outcome)
        if violation is not None:
            raise InputError(
                f"price shift applied to an unstable outcome "
                f"(agent {violation.agent!r} prefers another set)"
            )
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
    base: Outcome
    trace: Trace
    levels: Tuple[LadderLevel, ...]
    t_star: int
    sw0: Fraction
    k: int
    ell: int
    seed_welfare: Fraction

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


def maximize_revenue(
    auction: Auction,
    allocation: InitialAllocation,
    on_raise: Optional[RaiseHook] = None,
) -> RevenueResult:
    """Solve, then scan the surcharge ladder and pick the best level.

    Level 0 is the unshifted outcome; level t >= 1 adds the surcharge
    2**(t-1) * sw0 / (2k) where k counts assigned agents and sw0 is the
    welfare of the solver's outcome.  The best level's revenue is
    checked against sw0 / (8 * ell) and against the seed allocation's
    welfare over 16 * ell, with ell the number of doubling steps.
    """
    # run_poly validates the seed, so bad seeds get the solver's message
    base, trace = run_poly(auction, allocation, on_raise=on_raise)
    seed_welfare = allocation_welfare(auction, allocation)
    survivors0 = _survivors(auction, base)
    k = len(survivors0)
    sw0 = social_welfare(auction, base)
    rev0 = revenue_of(auction, base)
    levels: List[LadderLevel] = [
        LadderLevel(
            t=0,
            sigma=Fraction(0),
            outcome=base,
            survivors=survivors0,
            sw=sw0,
            rev=rev0,
        )
    ]
    if k == 0:
        return RevenueResult(
            base=base,
            trace=trace,
            levels=tuple(levels),
            t_star=0,
            sw0=sw0,
            k=0,
            ell=0,
            seed_welfare=seed_welfare,
        )
    if sw0 <= 0:
        raise SolverInvariantError("assigned agents with nonpositive welfare")
    ell = (2 * k - 1).bit_length()
    prev = set(survivors0)
    for t in range(1, ell + 2):
        sigma = Fraction(2) ** (t - 1) * sw0 / (2 * k)
        shifted = shift_prices(auction, base, sigma, verify=False)
        names = _survivors(auction, shifted)
        if not set(names) <= prev:
            raise SolverInvariantError("survivor set grew as the surcharge rose")
        prev = set(names)
        levels.append(
            LadderLevel(
                t=t,
                sigma=sigma,
                outcome=shifted,
                survivors=names,
                sw=social_welfare(auction, shifted),
                rev=revenue_of(auction, shifted),
            )
        )
    last = levels[-1]
    for name in last.survivors:
        (bid,) = last.outcome.assignment[name]
        if last.outcome.prices[bid] < sw0:
            raise SolverInvariantError(
                "top surcharge left a survivor paying less than the base welfare"
            )
    t_star = 0
    for level in levels:
        if level.rev > levels[t_star].rev:
            t_star = level.t
    best = levels[t_star].rev
    if best * 8 * ell < sw0:
        raise SolverInvariantError("revenue fell below the welfare ratio bound")
    if best * 16 * ell < seed_welfare:
        raise SolverInvariantError("revenue fell below the seed welfare bound")
    return RevenueResult(
        base=base,
        trace=trace,
        levels=tuple(levels),
        t_star=t_star,
        sw0=sw0,
        k=k,
        ell=ell,
        seed_welfare=seed_welfare,
    )
