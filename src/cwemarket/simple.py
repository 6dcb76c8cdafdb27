"""The basic ascending bundle auction.

Start from a seed allocation: each nonempty seed set becomes a bundle
priced at half its owner's value.  Agents wait in a pool and are served
lowest index first.  A served agent either leaves empty-handed (no set
gives positive utility), takes its demanded set by merging the bundles
in it (price adds up, displaced owners re-enter the pool), or claims a
singleton bundle someone else holds, in which case the price of that
bundle rises in epsilon steps until one of the two gives up.

May take exponentially many steps; see the poly module for the
query-efficient variant.  The final outcome is a stable bundle pricing
with social welfare at least half the seed allocation's.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from .errors import InputError, SolverDeadlockError, SolverInvariantError
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
    IterationEnd,
    Merge,
    PoolAdd,
    PoolRemove,
    PriceRaise,
    Reject,
    Trace,
    Unassign,
)


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


class SimpleSolver:
    def __init__(
        self,
        auction: Auction,
        allocation: InitialAllocation,
        epsilon: Fraction,
    ):
        check_epsilon(auction, Fraction(epsilon))
        self.auction = auction
        self.seed = validate_initial_allocation(auction, allocation)
        self.epsilon = Fraction(epsilon)
        catalog, prices, _ = initial_market(auction, allocation)
        self.catalog: Catalog = catalog
        self.prices: Dict[BundleId, Fraction] = prices
        self.assignment: Dict[str, BundleSet] = {}
        self.pool: List[str] = list(auction.agent_names)
        self.rejected: Set[str] = set()
        # conflict-guard memory: demand sets an agent must not re-claim
        # until some price or catalog movement happens
        self.blocked: Dict[str, Set[BundleSet]] = {}
        self.trace = Trace()
        for name in self.pool:
            self.trace.add(PoolAdd(name))

    # -- helpers ------------------------------------------------------

    def _demand(self, agent: str) -> Tuple[Fraction, List[BundleSet]]:
        self.trace.demand_queries += 1
        return demand_correspondence(
            self.auction, agent, self.catalog, self.prices
        )

    def _utility(self, agent: str, bundles: BundleSet) -> Fraction:
        return utility(self.auction, agent, bundles, self.catalog, self.prices)

    def _pop_lowest(self) -> str:
        name = min(self.pool, key=self.auction.agent_index)
        self.pool.remove(name)
        self.trace.add(PoolRemove(name))
        return name

    def _repool(self, agent: str) -> None:
        self.trace.add(Unassign(agent))
        self.assignment.pop(agent, None)
        self.pool.append(agent)
        self.trace.add(PoolAdd(agent))

    def _clear_blocks(self) -> None:
        self.blocked.clear()

    # -- the procedure ------------------------------------------------

    def run(self) -> Outcome:
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
                usable = [s for s in members if s not in self.blocked.get(a, set())]
                if not usable:
                    raise SolverDeadlockError(
                        f"agent {a!r} has only blocked demand sets; every "
                        f"conflict at the current prices is an exact tie"
                    )
                chosen = select_demanded(usable, a, self.assignment)
                if len(chosen) > 1:
                    self._take_merged(a, chosen)
                else:
                    self._take_singleton(a, chosen)
            self.trace.add(IterationEnd(self.trace.iterations))
        return self._finish()

    def _take_merged(self, a: str, chosen: BundleSet) -> None:
        owners = [
            b
            for b in self.auction.agent_names
            if self.assignment.get(b) and self.assignment[b] & chosen
        ]
        for b in owners:
            self._repool(b)
        price = sum((self.prices.pop(bid) for bid in sorted(chosen)), Fraction(0))
        self.catalog, new_id = merge_bundles(self.catalog, chosen)
        self.prices[new_id] = price
        self.trace.add(Merge(sources=tuple(sorted(chosen)), new_id=new_id))
        self.assignment[a] = frozenset({new_id})
        self.trace.add(Assign(a, frozenset({new_id})))
        self._clear_blocks()

    def _take_singleton(self, a: str, chosen: BundleSet) -> None:
        owner: Optional[str] = None
        for b, held in self.assignment.items():
            if held == chosen and b != a:
                owner = b
                break
        self.assignment[a] = chosen
        self.trace.add(Assign(a, chosen))
        if owner is not None:
            self._resolve_conflict(chosen, a, owner)

    def _in_demand(self, agent: str, bundles: BundleSet) -> bool:
        best, members = self._demand(agent)
        return bundles in members

    def _resolve_conflict(self, S: BundleSet, a: str, b: str) -> None:
        """Escalate the price of the contested bundle until one side
        quits.  If a single step would push the bundle out of both
        demand correspondences at once, the two parties are exactly
        indifferent between keeping it and walking away; the trial step
        is undone and the bundle changes hands instead: the claimant
        keeps it at the rolled-back price and the incumbent, who gives
        up nothing at the tie, re-enters the pool, barred from
        re-claiming this exact set until prices or the catalog move
        again.  Handing the set over rather than bouncing the claimant
        is what keeps chains of exact ties from cycling.
        """
        (bid,) = S
        while True:
            a_wants = self._in_demand(a, S)
            b_wants = self._in_demand(b, S)
            if not (a_wants and b_wants):
                break
            old = self.prices[bid]
            self.prices[bid] = old + self.epsilon
            a_after = self._in_demand(a, S)
            b_after = self._in_demand(b, S)
            if not a_after and not b_after:
                # both would drop: undo the trial step, hand over the set
                self.prices[bid] = old
                self.assignment.pop(b, None)
                self.trace.add(Unassign(b))
                self.pool.append(b)
                self.trace.add(PoolAdd(b))
                self.blocked.setdefault(b, set()).add(S)
                return
            self.trace.add(PriceRaise(bundle=bid, old=old, new=old + self.epsilon))
            self._clear_blocks()
        loser = a if not a_wants else b
        self._repool(loser)

    def _finish(self) -> Outcome:
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


def run_simple(
    auction: Auction,
    allocation: InitialAllocation,
    epsilon: Fraction,
) -> Tuple[Outcome, Trace]:
    solver = SimpleSolver(auction, allocation, epsilon)
    outcome = solver.run()
    return outcome, solver.trace
