"""The basic ascending bundle auction: the epsilon conflict policy.

Seeding, the pool, merges and the final checks are the shared
`poly.AscendingAuction`.  Here an agent that claims a singleton bundle
someone else holds takes it, and the price of that bundle rises in
epsilon steps until one of the two gives up; the two sides' top prices
settle the whole contest at once.

Each step counts two demand queries, so the count may grow
exponentially; see the poly module for the query-efficient variant.
The final outcome is a stable bundle pricing with social welfare at
least half the seed allocation's.  Epsilon is an int on the price
lattice (README, "Solvers").
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Set, Tuple

from .errors import InputError, SolverDeadlockError, SolverInvariantError
from .market import (
    Auction,
    BundleSet,
    InitialAllocation,
    Outcome,
    demand_correspondence,
    tie_key,
    top_price,
)

# Unused here: bench/tracing.py wraps these names in every solver
# module, and its install fails if one is missing.
from .market import is_cwe, merge_bundles  # noqa: F401
from .poly import AscendingAuction
from .scalars import lattice_int, parse_scalar
from .trace import Trace


def check_epsilon(auction: Auction, epsilon: Fraction) -> None:
    """Price increments must evenly divide half the value granularity.

    With g the greatest common divisor of all valuation parameters,
    every utility the run can produce lies on the (g/2)-grid once
    prices do, provided epsilon divides g/2.  That keeps indifference
    comparisons exact and stepwise conflict escalation finite.
    """
    if epsilon <= 0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    g = auction.granularity()
    if g is None:
        return  # all values are zero; any positive step terminates
    half = g / 2
    if epsilon > half:
        raise InputError(
            f"epsilon {epsilon} exceeds half the value granularity {g}"
        )
    if (half / epsilon).denominator != 1:
        raise InputError(
            f"epsilon {epsilon} must divide half the value granularity "
            f"(g/2 = {half})"
        )


class SimpleSolver(AscendingAuction):
    def __init__(
        self,
        auction: Auction,
        allocation: InitialAllocation,
        epsilon: Fraction,
    ):
        epsilon = parse_scalar(epsilon)
        check_epsilon(auction, epsilon)
        super().__init__(auction, allocation, epsilon.denominator)
        self.epsilon = lattice_int(epsilon, self.scale)
        # conflict-guard memory: demand sets an agent must not re-claim
        # until some price or catalog movement happens
        self.blocked: Dict[str, Set[BundleSet]] = {}

    def _take(self, a: str, chosen: BundleSet) -> None:
        """A blocked `chosen` gives way to the next demanded set in
        tie-break order; the enumeration is one more demand query."""
        blocked = self.blocked.get(a, ())
        if chosen in blocked:
            self.trace.demand_queries += 1
            _, members = demand_correspondence(self.market, a, self.catalog, self.prices)
            usable = [s for s in members if s not in blocked]
            if not usable:
                raise SolverDeadlockError(
                    f"agent {a!r} has only blocked demand sets; every "
                    f"conflict at the current prices is an exact tie"
                )
            chosen = min(usable, key=tie_key(a, self.assignment))
        super()._take(a, chosen)
        if len(chosen) > 1:
            self.blocked.clear()  # the catalog moved

    def _contest(self, bundles: BundleSet, a: str, owner: str) -> None:
        """Raise the contested bundle's price by epsilon until one side
        quits, in one jump.

        Only that price moves, so `market.top_price` gives the highest
        price at which each side still demands the bundle.  The holder
        always demands it at the start: an incumbent demands its
        singleton when it takes it, a contest leaves its winner at or
        below its top price, other prices only rise, and a merge only
        removes options; so its top price is None only on a broken
        state, which raises SolverInvariantError.  The trial
        steps pass the lower top after s = (lower top - start) // epsilon
        + 1 of them, and the price moves there in one `PriceRaise`.
        `demand_queries` counts the logical queries, one per side and
        price level, 2s + 1: the incumbent alone at the start (`_take`
        merges nothing for a singleton claim, so the claimant's own
        demand query just answered there), both after each step.

        If the last step also passes the higher top, the two parties are
        exactly indifferent between keeping the bundle and walking away;
        that step is undone and the bundle changes hands instead: the
        claimant keeps it at the rolled-back price and the incumbent, who
        gives up nothing at the tie, re-enters the pool, barred from
        re-claiming this exact set until prices or the catalog move
        again.  Handing the set over rather than bouncing the claimant
        is what keeps chains of exact ties from cycling.
        """
        (bid,) = bundles
        start, step = self.prices[bid], self.epsilon
        b_top, a_top = (
            top_price(self.market, x, self.catalog, self.prices, bid) for x in (owner, a)
        )
        if b_top is None:
            raise SolverInvariantError(f"holder {owner!r} no longer demands bundle {bid}")
        steps = (min(a_top, b_top) - start) // step + 1
        self.trace.demand_queries += 2 * steps + 1
        tie = start + steps * step > max(a_top, b_top)
        end = start + (steps - tie) * step
        if end > start:
            self.prices[bid] = end
            self.trace.add(self._raised(bid, start, end))
            self.blocked.clear()
        # on a tie the claimant's top is the rolled-back price or above
        self._repool(owner if a_top >= end else a)
        if tie:
            self.blocked.setdefault(owner, set()).add(bundles)


def run_simple(
    auction: Auction,
    allocation: InitialAllocation,
    epsilon: Fraction,
) -> Tuple[Outcome, Trace]:
    solver = SimpleSolver(auction, allocation, epsilon)
    outcome = solver.run()
    return outcome, solver.trace
