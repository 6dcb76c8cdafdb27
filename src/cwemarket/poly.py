"""The ascending bundle auction: one core, two conflict policies.

`AscendingAuction` is the auction both solvers run.  Start from a seed
allocation: each nonempty seed set becomes a bundle priced at half its
owner's value.  Agents wait in a pool and are served lowest index
first.  A served agent either leaves empty-handed (no set gives
positive utility), takes its demanded set by merging the bundles in it
(price adds up, displaced owners re-enter the pool), or claims a
singleton bundle.  The final outcome is checked to be a stable bundle
pricing with social welfare at least half the seed allocation's.

The solvers differ only in how a claim on a singleton someone else
holds is settled.  The simple solver (simple module) raises its price
in epsilon steps until one side gives up, which may take exponentially
many steps.  `PolySolver`, the query-efficient variant, bounds the work
by a polynomial number of demand queries with two changes.  After every
main-loop iteration, prices of all held bundles are pushed up to the
exact breakpoints at which their holders would switch away
(raise_prices), recording for each holder the set it would switch to.
And the contested bundle changes hands immediately: the displaced
holder is given its recorded switch-to set, recursively; each
displacement moves strictly earlier in the breakpoint removal order, so
a chain visits an agent at most once.

Both run on an integer price lattice (README, "Solvers").
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import SolverInvariantError
from .market import (
    Auction,
    BundleSet,
    Catalog,
    InitialAllocation,
    Outcome,
    demand,
    induced_value,
    lattice_violation,
    merge_bundles,
    tie_key,
    validate_initial_allocation,
)
# Unused here: bench/tracing.py wraps these names in every solver
# module, and its install fails if one is missing.
from .market import demand_correspondence, is_cwe  # noqa: F401
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

class AscendingAuction:
    """State, main loop and final checks shared by both solvers.

    A subclass settles a claim on a singleton someone else holds in
    `_contest`; it may also act at the end of every iteration in
    `_end_iteration`.
    """

    def __init__(self, auction: Auction, allocation: InitialAllocation, *dens: int):
        self.auction = auction
        seed = validate_initial_allocation(auction, allocation)
        # `dens` join the lattice's scale, so quantities over them are ints
        self.market, self.scale = auction.on_lattice(*dens)
        # `initial_market` on the lattice, where every value is even
        self.catalog = Catalog.selling(auction.item_set, enumerate(seed.values()))
        values = [self.market.valuation(n).value(items) for n, items in seed.items()]
        if any(v % 2 for v in values):
            raise SolverInvariantError("a seed value is odd on the price lattice")
        self.prices = {bid: v // 2 for bid, v in enumerate(values)}
        self.seed_welfare = sum(values)
        self.assignment: Dict[str, BundleSet] = {}
        self.pool: List[str] = list(auction.agent_names)
        self.trace = Trace(scale=self.scale)
        for name in self.pool:
            self.trace.add(PoolAdd(name))

    def _demand(
        self, agent: str, excluded: BundleSet = frozenset()
    ) -> Tuple[int, BundleSet]:
        """One demand query: the max utility and the tie-broken set."""
        self.trace.demand_queries += 1
        return demand(
            self.market, agent, self.catalog, self.prices, excluded, self.assignment
        )

    def run(self) -> Outcome:
        while self.pool:
            self.trace.iterations += 1
            a = min(self.pool, key=self.auction.agent_index)
            self.pool.remove(a)
            self.trace.add(PoolRemove(a))
            if a in self.assignment:
                raise SolverInvariantError(f"pooled agent {a!r} already holds bundles")
            best, chosen = self._demand(a)
            self._take(a, chosen if best > 0 else frozenset())
            self._end_iteration()
        return self._finish()

    def _take(self, a: str, chosen: BundleSet) -> None:
        """Give `a` the set `chosen`.  The empty set means `a` walks
        away; several bundles are merged into one, their owners going
        back to the pool; a singleton someone else holds is contested.
        """
        if not chosen:
            self.trace.add(Reject(a))
            return
        if len(chosen) > 1:
            for b in self.auction.agent_names:
                if self.assignment.get(b, frozenset()) & chosen:
                    self._repool(b)
            sources = tuple(sorted(chosen))
            price = sum(self.prices.pop(bid) for bid in sources)
            self.catalog, new_id = merge_bundles(self.catalog, chosen)
            self.prices[new_id] = price
            self.trace.add(Merge(sources=sources, new_id=new_id))
            chosen = frozenset({new_id})
        owner = next(
            (b for b, held in self.assignment.items() if held == chosen and b != a),
            None,
        )
        self.assignment[a] = chosen
        self.trace.add(Assign(a, chosen))
        if owner is not None:
            self._contest(chosen, a, owner)

    def _contest(self, bundles: BundleSet, a: str, owner: str) -> None:
        """Settle `a`'s claim on the singleton `bundles`, which both `a`
        and `owner` hold when this is called."""
        raise NotImplementedError

    def _repool(self, agent: str) -> None:
        self.trace.add(Unassign(agent))
        del self.assignment[agent]
        self.pool.append(agent)
        self.trace.add(PoolAdd(agent))

    def _end_iteration(self) -> None:
        self.trace.add(IterationEnd(self.trace.iterations))

    def _finish(self) -> Outcome:
        outcome = Outcome(
            catalog=self.catalog,
            prices={bid: Fraction(p, self.scale) for bid, p in self.prices.items()},
            assignment=dict(self.assignment),
        )
        if lattice_violation(self.market, self.scale, outcome, self.prices) is not None:
            raise SolverInvariantError("final outcome is not stable")
        value = self.market.valuation
        sw = sum(induced_value(value(a), self.catalog, s) for a, s in self.assignment.items())
        if 2 * sw < self.seed_welfare:
            raise SolverInvariantError(
                f"welfare {Fraction(sw, self.scale)} fell below half the seed "
                f"welfare {Fraction(self.seed_welfare, self.scale)}"
            )
        return outcome


class PolySolver(AscendingAuction):
    def __init__(self, auction: Auction, allocation: InitialAllocation):
        super().__init__(auction, allocation)
        self.fallback: Dict[str, BundleSet] = {}
        self.rank: Dict[str, int] = {}
        self.chain = 0  # displacements in the current iteration

    def _rank_of(self, agent: str) -> int:
        # ranks run 1..n, so n + 1 stands behind every ranked agent
        return self.rank.get(agent, len(self.auction.agents) + 1)

    def _contest(self, bundles: BundleSet, a: str, owner: str) -> None:
        if not self._rank_of(owner) < self._rank_of(a):
            raise SolverInvariantError(
                f"displacement of {owner!r} by {a!r} does not move "
                f"earlier in the removal order"
            )
        self.trace.add(Unassign(owner))
        del self.assignment[owner]
        self.chain += 1
        if self.chain > len(self.auction.agents):
            raise SolverInvariantError("displacement chain longer than n")
        # an empty switch-to set: nothing at current prices beats
        # walking away
        self._take(owner, self.fallback.get(owner, frozenset()))

    def _end_iteration(self) -> None:
        self.raise_prices()
        super()._end_iteration()
        self.chain = 0
        n = len(self.auction.agents)
        if self.trace.iterations > n * n:
            raise SolverInvariantError(f"main loop exceeded {n * n} iterations")

    def raise_prices(self) -> None:
        """Push every held bundle's price to its holder's exact
        switching breakpoint.

        Repeatedly: for each still-active holder, compute the utility
        margin between its bundle and its best option among bundles not
        held by active holders; add the smallest margin to every active
        holder's price; the holder realizing that margin records its
        switch-to set and goes inactive.  Holders go inactive in the
        order later displacement chains must respect.

        The catalog, the holdings and the prices of bundles no active
        holder holds stay fixed, and each step releases one bundle at
        its final price.  So each holder's `demand_fold` just takes the
        released bundle; only explicit tables are asked again over the
        whole catalog.  Each answer counts as one demand query.
        """
        members = [n for n in self.auction.agent_names if self.assignment.get(n)]
        for i in members:
            held = len(self.assignment[i])
            if held != 1:
                raise SolverInvariantError(
                    f"{i!r} holds {held} bundles in a price push, not one"
                )
        own_value = {
            i: induced_value(self.market.valuation(i), self.catalog, self.assignment[i])
            for i in members
        }
        folds, offers = {}, []
        if any(self.market.valuation(i)._fold for i in members):
            # a holder's own bundle is never on offer to it, so counting
            # every holding ranks its ties as `demand` does
            key = tie_key(None, self.assignment)
            folds = {i: self.market.valuation(i).demand_fold(key) for i in members}
            held = frozenset().union(*self.assignment.values())
            offers = [(bid, s) for bid, s in self.catalog.entries if bid not in held]
        active: List[str] = list(members)
        self.rank = {}
        while active:
            margins: Dict[str, int] = {}
            switches: Dict[str, BundleSet] = {}
            excluded = frozenset().union(*(self.assignment[j] for j in active))
            for i in active:
                (bid,) = self.assignment[i]
                fold = folds.get(i)
                if fold is None:
                    best, switches[i] = self._demand(i, excluded=excluded)
                else:
                    fold.extend(offers, self.prices)
                    self.trace.demand_queries += 1
                    best, switches[i] = fold.answer()
                margin = own_value[i] - self.prices[bid] - best
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
                    self.trace.add(PriceRaise(bid, old, old + delta))
            self.fallback[a] = switches[a]
            self.rank[a] = len(self.rank) + 1
            self.trace.add(FallbackRecord(agent=a, bundles=switches[a]))
            active.remove(a)
            offers = [(bid, self.catalog.items_of(bid)) for bid in self.assignment[a]]

    def _finish(self) -> Outcome:
        n = len(self.auction.agents)
        limit = self.trace.iterations * (n + 1) * (n + 2)
        if self.trace.demand_queries > limit:
            raise SolverInvariantError(
                f"{self.trace.demand_queries} demand queries exceed the "
                f"{limit} budget"
            )
        return super()._finish()


def run_poly(auction: Auction, allocation: InitialAllocation) -> Tuple[Outcome, Trace]:
    solver = PolySolver(auction, allocation)
    outcome = solver.run()
    return outcome, solver.trace
