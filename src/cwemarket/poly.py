"""The query-efficient ascending bundle auction.

Same skeleton as the simple solver, with two changes that bound the
work by a polynomial number of demand queries.  After every main-loop
iteration, prices of all held bundles are pushed up to the exact
breakpoints at which their holders would switch away (raise_prices),
recording for each holder the set it would switch to.  And when a
pooled agent demands a singleton bundle someone currently holds, the
bundle changes hands immediately and the displaced holder is given its
recorded switch-to set, recursively; each displacement moves strictly
earlier in the breakpoint removal order, so a chain visits an agent at
most once.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Set, Tuple

from .errors import SolverInvariantError
from .market import (
    Auction,
    BundleId,
    BundleSet,
    Catalog,
    InitialAllocation,
    Outcome,
    demand_correspondence,
    initial_market,
    is_cwe,
    merge_bundles,
    select_demanded,
    social_welfare,
    utility,
    validate_initial_allocation,
)
from .trace import (
    Assign,
    FallbackRecord,
    IterationEnd,
    Merge,
    PoolAdd,
    PoolRemove,
    PriceRaise,
    Reject,
    Trace,
    Unassign,
)

INFINITE_RANK = float("inf")


@dataclass(frozen=True)
class RaiseReport:
    """Snapshot handed to the raise hook after each price push."""

    catalog: Catalog
    prices_before: Dict[BundleId, Fraction]
    prices_after: Dict[BundleId, Fraction]
    assignment: Dict[str, BundleSet]
    fallbacks: Dict[str, BundleSet]
    removal_order: Tuple[str, ...]


RaiseHook = Callable[[RaiseReport], None]


class PolySolver:
    def __init__(
        self,
        auction: Auction,
        allocation: InitialAllocation,
        on_raise: Optional[RaiseHook] = None,
    ):
        self.auction = auction
        self.seed = validate_initial_allocation(auction, allocation)
        catalog, prices, _ = initial_market(auction, allocation)
        self.catalog: Catalog = catalog
        self.prices: Dict[BundleId, Fraction] = prices
        self.assignment: Dict[str, BundleSet] = {}
        self.pool: List[str] = list(auction.agent_names)
        self.rejected: Set[str] = set()
        self.fallback: Dict[str, BundleSet] = {}
        self.rank: Dict[str, int] = {}
        self.on_raise = on_raise
        self.trace = Trace()
        for name in self.pool:
            self.trace.add(PoolAdd(name))

    # -- helpers ------------------------------------------------------

    def _demand(
        self, agent: str, excluded: BundleSet = frozenset()
    ) -> Tuple[Fraction, List[BundleSet]]:
        self.trace.demand_queries += 1
        return demand_correspondence(
            self.auction, agent, self.catalog, self.prices, excluded
        )

    def _utility(self, agent: str, bundles: BundleSet) -> Fraction:
        return utility(self.auction, agent, bundles, self.catalog, self.prices)

    def _pop_lowest(self) -> str:
        name = min(self.pool, key=self.auction.agent_index)
        self.pool.remove(name)
        self.trace.add(PoolRemove(name))
        return name

    def _rank_of(self, agent: str):
        return self.rank.get(agent, INFINITE_RANK)

    # -- the procedure ------------------------------------------------

    def run(self) -> Outcome:
        n = len(self.auction.agents)
        while self.pool:
            self.trace.iterations += 1
            a = self._pop_lowest()
            if a in self.assignment:
                raise SolverInvariantError(f"pooled agent {a!r} already holds bundles")
            best, members = self._demand(a)
            if best <= 0:
                self.rejected.add(a)
                self.trace.add(Reject(a))
            else:
                chosen = select_demanded(members, a, self.assignment)
                self._allocate(a, chosen, depth=0)
            self.raise_prices()
            self.trace.add(IterationEnd(self.trace.iterations))
            if self.trace.iterations > n * n:
                raise SolverInvariantError(
                    f"main loop exceeded {n * n} iterations"
                )
        return self._finish()

    def _allocate(self, a: str, chosen: BundleSet, depth: int) -> None:
        n = len(self.auction.agents)
        if depth > n:
            raise SolverInvariantError("displacement chain longer than n")
        if not chosen:
            # the recorded switch-to set was empty: nothing at current
            # prices beats walking away
            self.rejected.add(a)
            self.trace.add(Reject(a))
            return
        if len(chosen) > 1:
            owners = [
                b
                for b in self.auction.agent_names
                if self.assignment.get(b) and self.assignment[b] & chosen
            ]
            for b in owners:
                self.trace.add(Unassign(b))
                del self.assignment[b]
                self.pool.append(b)
                self.trace.add(PoolAdd(b))
            price = sum(
                (self.prices.pop(bid) for bid in sorted(chosen)), Fraction(0)
            )
            self.catalog, new_id = merge_bundles(self.catalog, chosen)
            self.prices[new_id] = price
            self.trace.add(Merge(sources=tuple(sorted(chosen)), new_id=new_id))
            self.assignment[a] = frozenset({new_id})
            self.trace.add(Assign(a, frozenset({new_id})))
            return
        owner: Optional[str] = None
        for b, held in self.assignment.items():
            if held == chosen and b != a:
                owner = b
                break
        self.assignment[a] = chosen
        self.trace.add(Assign(a, chosen))
        if owner is not None:
            if not self._rank_of(owner) < self._rank_of(a):
                raise SolverInvariantError(
                    f"displacement of {owner!r} by {a!r} does not move "
                    f"earlier in the removal order"
                )
            self.trace.add(Unassign(owner))
            del self.assignment[owner]
            self._allocate(owner, self.fallback.get(owner, frozenset()), depth + 1)

    def raise_prices(self) -> None:
        """Push every held bundle's price to its holder's exact
        switching breakpoint.

        Repeatedly: for each still-active holder, compute the utility
        margin between its bundle and its best option among bundles not
        held by active holders; add the smallest margin to every active
        holder's price; the holder realizing that margin records its
        switch-to set and goes inactive.  Holders go inactive in the
        order later displacement chains must respect.
        """
        members = [n for n in self.auction.agent_names if self.assignment.get(n)]
        if not members:
            self.rank = {}
            return
        before = dict(self.prices)
        active: List[str] = list(members)
        self.rank = {}
        order: List[str] = []
        step = 0
        while active:
            margins: Dict[str, Fraction] = {}
            switches: Dict[str, BundleSet] = {}
            excluded = frozenset().union(*(self.assignment[j] for j in active))
            for i in active:
                own = self.assignment[i]
                if len(own) != 1:
                    raise SolverInvariantError(
                        f"{i!r} holds {len(own)} bundles in a price push, not one"
                    )
                best, mem = self._demand(i, excluded=excluded)
                switches[i] = select_demanded(mem, i, self.assignment)
                margin = self._utility(i, own) - best
                if margin < 0:
                    raise SolverInvariantError(
                        f"held bundle of {i!r} is no longer demanded "
                        f"before its price push"
                    )
                margins[i] = margin
            a = min(active, key=lambda i: (margins[i], self.auction.agent_index(i)))
            delta = margins[a]
            if delta > 0:
                for i in active:
                    (bid,) = self.assignment[i]
                    old = self.prices[bid]
                    self.prices[bid] = old + delta
                    self.trace.add(PriceRaise(bundle=bid, old=old, new=old + delta))
            step += 1
            self.fallback[a] = switches[a]
            self.rank[a] = step
            order.append(a)
            self.trace.add(FallbackRecord(agent=a, bundles=switches[a]))
            active.remove(a)
        if self.on_raise is not None:
            self.on_raise(
                RaiseReport(
                    catalog=self.catalog,
                    prices_before=before,
                    prices_after=dict(self.prices),
                    assignment={k: v for k, v in self.assignment.items()},
                    fallbacks={k: self.fallback[k] for k in members},
                    removal_order=tuple(order),
                )
            )

    def _finish(self) -> Outcome:
        n = len(self.auction.agents)
        limit = self.trace.iterations * (n + 1) * (n + 2)
        if self.trace.demand_queries > limit:
            raise SolverInvariantError(
                f"{self.trace.demand_queries} demand queries exceed the "
                f"{limit} budget"
            )
        outcome = Outcome(
            catalog=self.catalog,
            prices=dict(self.prices),
            assignment=dict(self.assignment),
        )
        if not is_cwe(self.auction, outcome):
            raise SolverInvariantError("final outcome is not stable")
        sw = social_welfare(self.auction, outcome)
        seed_sw = sum(
            (self.auction.valuation(n).value(s) for n, s in self.seed.items()),
            Fraction(0),
        )
        if 2 * sw < seed_sw:
            raise SolverInvariantError(
                f"welfare {sw} fell below half the seed welfare {seed_sw}"
            )
        return outcome


def run_poly(
    auction: Auction,
    allocation: InitialAllocation,
    on_raise: Optional[RaiseHook] = None,
) -> Tuple[Outcome, Trace]:
    solver = PolySolver(auction, allocation, on_raise)
    outcome = solver.run()
    return outcome, solver.trace
