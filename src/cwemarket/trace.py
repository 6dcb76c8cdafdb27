"""Execution traces for the ascending-price solvers.

Every state mutation the solvers perform is recorded as one event.  A
trace can be replayed against the same auction and seed allocation to
rebuild the final outcome bit for bit, and the replay checks the
structural invariants that must hold along any run:

  * prices never decrease, and only catalog bundles are priced;
  * the catalog only coarsens (bundles merge, never split);
  * a bundle sold once stays sold: at every iteration boundary it (or
    the merged bundle that absorbed it) has a holder.

Traces from the query-efficient solver carry FallbackRecord events (the
breakpoint removal order of each price push).  For those, replay
additionally checks that every displacement hands the bundle to an
agent later in the removal order than its victim, that displacement
chains stay within n hops, and that the main loop stays within n*n
iterations.  A `PriceRaise` carries ints on the solver's lattice of
scale `Trace.scale` (README, "Solvers"), which replay checks as ints; an
event's JSON form (`serialize.event_to_json`) divides them by the scale.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, Dict, FrozenSet, List, Tuple

from .errors import InputError, SolverInvariantError
from .market import (
    Auction,
    BundleId,
    BundleSet,
    Catalog,
    InitialAllocation,
    Outcome,
    initial_market,
)
from .scalars import lattice_int


@dataclass(frozen=True)
class Merge:
    kind: ClassVar[str] = "merge"
    sources: Tuple[BundleId, ...]
    new_id: BundleId


@dataclass(frozen=True)
class PriceRaise:
    kind: ClassVar[str] = "price_raise"
    bundle: BundleId
    old: int = field(metadata={"price": True})
    new: int = field(metadata={"price": True})


@dataclass(frozen=True)
class PoolAdd:
    kind: ClassVar[str] = "pool_add"
    agent: str


@dataclass(frozen=True)
class PoolRemove:
    kind: ClassVar[str] = "pool_remove"
    agent: str


@dataclass(frozen=True)
class Reject:
    kind: ClassVar[str] = "reject"
    agent: str


@dataclass(frozen=True)
class Assign:
    kind: ClassVar[str] = "assign"
    agent: str
    bundles: BundleSet


@dataclass(frozen=True)
class Unassign:
    kind: ClassVar[str] = "unassign"
    agent: str


@dataclass(frozen=True)
class FallbackRecord:
    """A price push released this agent, recording its switch-to set."""

    kind: ClassVar[str] = "fallback"
    agent: str
    bundles: BundleSet


@dataclass(frozen=True)
class IterationEnd:
    kind: ClassVar[str] = "iteration_end"
    index: int


Event = object


@dataclass
class Trace:
    events: List[Event] = field(default_factory=list)
    iterations: int = 0
    demand_queries: int = 0
    scale: int = 1  # D of the lattice of `PriceRaise` prices: `old` / D and so on

    def add(self, event: Event) -> None:
        self.events.append(event)


def replay(auction: Auction, allocation: InitialAllocation, trace: Trace) -> Outcome:
    """Rebuild the final outcome from a trace, checking invariants.

    The removal-order checks run when the trace contains FallbackRecord
    events.  Prices are checked as ints on `trace.scale`, the seed's read
    from `initial_market` on the auction's shared lattice copy.  Raises
    SolverInvariantError on any violation (an event on an unknown bundle
    or naming an agent outside the auction among them), and InputError
    on an object that is no trace event or a scale that does not carry
    the seed's start prices.
    """
    poly = FallbackRecord in map(type, trace.events)
    n, names, scale = len(auction.agents), frozenset(auction.agent_names), trace.scale

    _, seed_scale, catalog, prices = initial_market(auction, allocation, scale)
    if seed_scale != scale:  # the seed's lattice is finer than the trace's
        prices = {bid: lattice_int(Fraction(p, seed_scale), scale) for bid, p in prices.items()}
    table: Dict[BundleId, FrozenSet[str]] = dict(catalog.entries)
    assignment: Dict[str, BundleSet] = {}
    pool: List[str] = []
    allocated: set = set()  # bundles sold at least once; must stay sold
    rank: Dict[str, int] = {}  # 0, 1, ...: an agent not in it ranks len(rank)
    pending_rank: List[str] = []
    iteration_count = 0
    chain = 0

    def merge(ev: Merge) -> None:
        ids = frozenset(ev.sources)
        if len(ids) < 2:
            raise SolverInvariantError("merge with fewer than two sources")
        for bid in ids:
            if bid not in table:
                raise SolverInvariantError(f"merge references unknown bundle {bid}")
        if ev.new_id in table:
            raise SolverInvariantError(f"merge reuses live id {ev.new_id}")
        for name, held in assignment.items():
            if held & ids:
                raise SolverInvariantError(f"merge consumed bundles still assigned to {name!r}")
        union: FrozenSet[str] = frozenset()
        price = 0
        for bid in sorted(ids):
            union |= table.pop(bid)
            price += prices.pop(bid)
        table[ev.new_id] = union
        prices[ev.new_id] = price
        if allocated & ids:
            allocated.difference_update(ids)
            allocated.add(ev.new_id)

    def price_raise(ev: PriceRaise) -> None:
        if ev.bundle not in table:
            raise SolverInvariantError(f"price raise on unknown bundle {ev.bundle}")
        if prices[ev.bundle] != ev.old:
            raise SolverInvariantError(f"price raise old value mismatch on bundle {ev.bundle}")
        if ev.new < ev.old:
            raise SolverInvariantError("price decreased")
        prices[ev.bundle] = ev.new

    def pool_add(ev: PoolAdd) -> None:
        if ev.agent in pool:
            raise SolverInvariantError(f"pool add of pooled agent {ev.agent!r}")
        pool.append(ev.agent)

    def pool_remove(ev: PoolRemove) -> None:
        if ev.agent not in pool:
            raise SolverInvariantError(f"pool remove of absent agent {ev.agent!r}")
        pool.remove(ev.agent)

    def reject(ev: Reject) -> None:
        if ev.agent in assignment:
            raise SolverInvariantError(f"reject of {ev.agent!r}, who holds bundles")

    def unassign(ev: Unassign) -> None:
        if assignment.pop(ev.agent, None) is None:
            raise SolverInvariantError(f"unassign of {ev.agent!r}, who holds nothing")

    def assign(ev: Assign) -> None:
        nonlocal chain
        for bid in ev.bundles:
            if bid not in table:
                raise SolverInvariantError(f"assignment references unknown bundle {bid}")
        holders = [b for b, held in assignment.items() if b != ev.agent and held & ev.bundles]
        if poly and holders:
            chain += 1
            if chain > n:
                raise SolverInvariantError(f"displacement chain exceeded {n} hops")
            for b in holders:
                if not rank.get(b, len(rank)) < rank.get(ev.agent, len(rank)):
                    raise SolverInvariantError(
                        f"{ev.agent!r} displaced {b!r} without moving "
                        f"earlier in the removal order"
                    )
        assignment[ev.agent] = ev.bundles
        allocated.update(ev.bundles)

    def fallback(ev: FallbackRecord) -> None:
        if ev.agent in pending_rank:
            raise SolverInvariantError(f"second fallback of {ev.agent!r} in one iteration")
        pending_rank.append(ev.agent)

    def iteration_end(ev: IterationEnd) -> None:
        nonlocal chain, iteration_count, pending_rank, rank
        iteration_count += 1
        chain = 0
        if pending_rank:
            rank = {name: k for k, name in enumerate(pending_rank)}
            pending_rank = []
        if poly and iteration_count > n * n:
            raise SolverInvariantError(f"more than {n * n} iterations in trace")
        held: set = set()
        for name, bundles in assignment.items():
            dup = held & bundles
            if dup:
                raise SolverInvariantError(
                    f"bundles {sorted(dup)} doubly assigned at "
                    f"iteration {ev.index}"
                )
            held |= bundles
        orphaned = allocated - held
        if orphaned:
            raise SolverInvariantError(
                f"bundles {sorted(orphaned)} were sold but have no "
                f"holder at iteration {ev.index}"
            )

    steps = {
        Merge: merge, PriceRaise: price_raise, PoolAdd: pool_add, PoolRemove: pool_remove,
        Reject: reject, Assign: assign, Unassign: unassign, IterationEnd: iteration_end,
        FallbackRecord: fallback,
    }
    for ev in trace.events:
        step = steps.get(type(ev))
        if step is None:
            raise InputError(f"unknown trace event {ev!r}")
        if hasattr(ev, "agent") and ev.agent not in names:
            raise SolverInvariantError(f"event names {ev.agent!r}, an agent outside the auction")
        step(ev)

    return Outcome(
        catalog=Catalog.selling(auction.item_set, sorted(table.items())),
        prices={bid: Fraction(p, scale) for bid, p in prices.items()},
        assignment=dict(assignment),
    )
