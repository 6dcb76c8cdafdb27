"""Core market model: auctions, bundle catalogs, prices, outcomes.

A catalog is an ordered collection of disjoint item bundles offered at
linear prices; items not in any bundle are withheld and cannot be
bought.  Demand is quasi-linear: an agent's utility for a set of
bundles is its value for the union of their items minus the summed
prices.  The empty set (utility 0) is always an option, so maximum
utility is never negative.

The solvers and `find_violation` run on an integer lattice (README, "Solvers").
"""
from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import (
    Callable, Collection, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional,
    Sequence, Tuple,
)

from .errors import InputError, ResourceLimitError, SolverInvariantError
from .scalars import lattice_int
from .valuations import Item, ItemSet, Valuation, members, subset_sums

BundleId = int
BundleSet = FrozenSet[BundleId]

DEMAND_BUNDLE_CAP = 20


@dataclass(frozen=True)
class Agent:
    name: str
    valuation: Valuation


class Auction:
    """Items plus one valuation per agent.

    Construction validates every valuation and requires each valuation's
    universe to cover the auction items.
    """

    def __init__(self, items: Sequence[Item], agents: Sequence[Agent]):
        if len(set(items)) != len(items):
            raise InputError("duplicate item identifiers")
        names = [a.name for a in agents]
        if len(set(names)) != len(names):
            raise InputError("duplicate agent names")
        self.items: Tuple[Item, ...] = tuple(items)
        self.item_set: ItemSet = frozenset(items)
        self.agents: Tuple[Agent, ...] = tuple(agents)
        self._index = {a.name: k for k, a in enumerate(agents)}
        # `on_lattice` copies by scale; None on a copy, which is on a lattice
        self._lattice: Optional[Dict[int, Auction]] = {}
        for agent in agents:
            if not self.item_set <= agent.valuation.items:
                missing = sorted(self.item_set - agent.valuation.items)
                raise InputError(
                    f"valuation of {agent.name!r} does not cover items {missing!r}"
                )
            defect = agent.valuation.validate()
            if defect is not None:
                raise InputError(
                    f"valuation of {agent.name!r} invalid ({defect.kind}): {defect.detail}"
                )

    @property
    def agent_names(self) -> List[str]:
        return [a.name for a in self.agents]

    def valuation(self, name: str) -> Valuation:
        return self.agents[self.agent_index(name)].valuation

    def agent_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InputError(f"unknown agent {name!r}") from None

    @cached_property
    def _grid(self) -> Tuple[int, int]:
        """(twice the lcm of the parameters' denominators, the gcd of the
        parameters times it): the lattice of the parameters alone."""
        params = [p for a in self.agents for p in a.valuation.parameter_values()]
        # unpack lists, not generators: a generator's argument tuple is built by
        # resizing, and the odd-sized tuples it leaves raised peak memory measurably
        den = lcm(*[p.denominator for p in params])
        return 2 * den, 2 * gcd(*[lattice_int(p, den) for p in params])

    @property
    def lattice_scale(self) -> int:
        """D of `on_lattice()` alone: every agent's values are ints over it."""
        return self._grid[0]

    def on_lattice(self, *dens: int) -> Tuple["Auction", int]:
        """(copy, D): this auction with every valuation `scaled` by D, the
        lcm of `dens` and of twice each parameter's denominator (so every
        value on the lattice is even, and half of it an int).  The copy is
        built once per D and kept on this auction; a copy refuses this call
        with SolverInvariantError, as its values are already scaled."""
        if self._lattice is None:
            raise SolverInvariantError("on_lattice of an auction already on a lattice")
        scale = lcm(self.lattice_scale, *dens)
        market = self._lattice.get(scale)
        if market is None:
            agents = tuple(Agent(a.name, a.valuation.scaled(scale)) for a in self.agents)
            market = self._lattice[scale] = copy.copy(self)
            market.agents, market._lattice = agents, None
        return market, scale

    def granularity(self) -> Optional[Fraction]:
        """Greatest common rational divisor of all valuation parameters:
        the gcd of their ints on the lattice, over its scale."""
        scale, g = self._grid
        return Fraction(g, scale) if g else None


@dataclass(frozen=True)
class Catalog:
    """Ordered disjoint bundles with stable integer ids, plus withheld items.

    Merging replaces the merged bundles with their union, appended at the
    end under a fresh id; all other ids are untouched.
    """

    entries: Tuple[Tuple[BundleId, ItemSet], ...]
    withheld: ItemSet = frozenset()

    def __post_init__(self):
        seen_ids = set()
        seen_items: set = set()
        for bid, items in self.entries:
            if bid in seen_ids:
                raise InputError(f"duplicate bundle id {bid}")
            seen_ids.add(bid)
            if not items:
                raise InputError("empty bundle in catalog")
            if seen_items & items:
                raise InputError("catalog bundles overlap")
            seen_items |= items
        if seen_items & self.withheld:
            raise InputError("withheld items overlap a catalog bundle")
        # id -> items, built once: the catalog is immutable
        object.__setattr__(self, "_items", dict(self.entries))

    @classmethod
    def selling(
        cls, universe: ItemSet, entries: Iterable[Tuple[BundleId, ItemSet]]
    ) -> "Catalog":
        """The catalog of `entries`, withholding every item of `universe`
        that no bundle holds."""
        entries = tuple(entries)
        sold = frozenset().union(*[items for _, items in entries])
        if not sold <= universe:
            raise InputError("catalog mentions items outside the auction")
        return cls(entries=entries, withheld=universe - sold)

    @property
    def ids(self) -> Tuple[BundleId, ...]:
        return tuple(bid for bid, _ in self.entries)

    def items_of(self, bid: BundleId) -> ItemSet:
        try:
            return self._items[bid]
        except KeyError:
            raise InputError(f"no bundle with id {bid}") from None

    def union_items(self, bundle_ids: Iterable[BundleId]) -> ItemSet:
        return frozenset().union(*[self.items_of(bid) for bid in bundle_ids])

    def fresh_id(self) -> BundleId:
        return max((bid for bid, _ in self.entries), default=-1) + 1


def merge_bundles(catalog: Catalog, bundle_ids: Iterable[BundleId]) -> Tuple[Catalog, BundleId]:
    """Coarsen the catalog by replacing `bundle_ids` with their union.

    Returns the new catalog and the fresh id of the merged bundle.
    """
    ids = frozenset(bundle_ids)
    if len(ids) < 2:
        raise InputError("merge needs at least two bundles")
    union = catalog.union_items(ids)
    new_id = catalog.fresh_id()
    kept = tuple((b, s) for b, s in catalog.entries if b not in ids)
    return Catalog(entries=kept + ((new_id, union),), withheld=catalog.withheld), new_id


PriceMap = Dict[BundleId, Fraction]


def check_agents(names: Collection[str], assignment: Mapping[str, BundleSet]) -> None:
    """Every agent the assignment names is one of `names`."""
    for name in assignment:
        if name not in names:
            raise InputError(f"assignment names unknown agent {name!r}")


def check_assignment(catalog: Catalog, assignment: Mapping[str, BundleSet]) -> None:
    """Every assigned bundle is in the catalog, and none has two holders."""
    ids = frozenset(catalog.ids)
    held: set = set()
    for name, bundles in assignment.items():
        if not isinstance(bundles, (set, frozenset)):
            raise InputError(f"assignment of {name!r} must be a set, got {type(bundles).__name__}")
        if not bundles <= ids:
            raise InputError(f"assignment of {name!r} references unknown bundles")
        if held & bundles:
            raise InputError("a bundle is assigned to two agents")
        held |= bundles


def check_prices(catalog: Catalog, prices: Mapping[BundleId, Fraction]) -> None:
    """Every bundle's price is a nonnegative int or Fraction, not a bool,
    and no id outside the catalog has one."""
    for bid, _ in catalog.entries:
        if bid not in prices:
            raise InputError(f"bundle {bid} has no price")
        price = prices[bid]
        if isinstance(price, bool) or not isinstance(price, (int, Fraction)):
            raise InputError(f"bundle {bid} has price {price!r}, not an int or a Fraction")
        if price < 0:
            raise InputError(f"bundle {bid} has negative price {price}")
    if len(prices) > len(catalog.entries):  # every catalog id is priced: a stray key
        stray = next(bid for bid in prices if bid not in catalog._items)
        raise InputError(f"price given for bundle {stray!r}, which is not in the catalog")


@dataclass(frozen=True)
class Outcome:
    """A snapshot of the market: catalog, prices, who holds which bundles."""

    catalog: Catalog
    prices: Dict[BundleId, Fraction]
    assignment: Dict[str, BundleSet]

    def __post_init__(self):
        check_prices(self.catalog, self.prices)
        check_assignment(self.catalog, self.assignment)

    def assigned_items(self, name: str) -> ItemSet:
        return self.catalog.union_items(self.assignment.get(name, frozenset()))


def induced_value(
    valuation: Valuation,
    catalog: Catalog,
    bundle_set: Iterable[BundleId],
) -> Fraction:
    """Value of a set of catalog bundles: the value of their pooled items."""
    return valuation.value(catalog.union_items(bundle_set))


def utility(
    auction: Auction,
    agent: str,
    bundle_set: Iterable[BundleId],
    catalog: Catalog,
    prices: Mapping[BundleId, Fraction],
) -> Fraction:
    """Quasi-linear utility of a set of catalog bundles."""
    bundles = frozenset(bundle_set)
    value = induced_value(auction.valuation(agent), catalog, bundles)
    return value - sum(prices[b] for b in bundles)


def _utilities(
    auction: Auction,
    agent: str,
    catalog: Catalog,
    prices: Mapping[BundleId, Fraction],
    excluded: BundleSet = frozenset(),
) -> Tuple[List[BundleId], List[Fraction]]:
    """(ids of the available bundles, utility of each union of them by
    mask); catalogs over DEMAND_BUNDLE_CAP bundles raise ResourceLimitError."""
    if len(catalog.entries) > DEMAND_BUNDLE_CAP:
        raise ResourceLimitError(
            f"catalog has {len(catalog.entries)} bundles; demand enumeration "
            f"capped at {DEMAND_BUNDLE_CAP}"
        )
    avail = [(bid, items) for bid, items in catalog.entries if bid not in excluded]
    values = auction.valuation(agent).bundle_values([items for _, items in avail])
    psums = subset_sums([prices[bid] for bid, _ in avail])
    return [bid for bid, _ in avail], [v - p for v, p in zip(values, psums)]


def demand_correspondence(
    auction: Auction,
    agent: str,
    catalog: Catalog,
    prices: Mapping[BundleId, Fraction],
    excluded: BundleSet = frozenset(),
) -> Tuple[Fraction, List[BundleSet]]:
    """All utility-maximizing bundle sets over the available catalog.

    Returns (max utility, members).  Available bundles are the catalog
    minus `excluded`; the empty set is always a candidate, so the max
    is at least 0.  Members come back in a canonical order (by size,
    then sorted ids).  All 2^k subsets of the k available bundles are
    compared exactly: values (`Valuation.bundle_values`) minus summed
    prices (ints or `Fraction`s), so the max is an int on a lattice.
    Catalogs over DEMAND_BUNDLE_CAP bundles raise ResourceLimitError.
    """
    ids, utils = _utilities(auction, agent, catalog, prices, excluded)
    best = max(utils)
    maximizers = [frozenset(members(ids, mask)) for mask, u in enumerate(utils) if u == best]
    return best, sorted(maximizers, key=lambda s: (len(s), sorted(s)))


def tie_key(
    agent: Optional[str], holdings: Optional[Mapping[str, BundleSet]]
) -> Callable[[BundleSet], Tuple[int, int, List[BundleId]]]:
    """The one order among equally good demand sets: fewest bundles held
    by agents in `holdings` other than `agent` (None: by any of them),
    then fewest bundles, then the smallest sorted ids.  A set ranks
    before each of its strict supersets.  The holdings are counted when
    the key is first called, so a query without a tie counts nothing."""
    held: Optional[Counter] = None

    def key(bundle_set: BundleSet) -> Tuple[int, int, List[BundleId]]:
        nonlocal held
        if held is None:
            held = Counter(
                bid for name, bids in (holdings or {}).items() if name != agent for bid in bids
            )
        return sum(held.get(bid, 0) for bid in bundle_set), len(bundle_set), sorted(bundle_set)

    return key


def demand(
    auction: Auction,
    agent: str,
    catalog: Catalog,
    prices: Mapping[BundleId, Fraction],
    excluded: BundleSet = frozenset(),
    others: Optional[Mapping[str, BundleSet]] = None,
) -> Tuple[Fraction, BundleSet]:
    """The max utility over the available catalog and the demanded set
    that `tie_key(agent, others)` ranks first.

    Structured valuations answer from per-bundle margins
    (`Valuation.demand_answer`); explicit tables enumerate all 2^k
    subsets through `demand_correspondence`, which caps the catalog at
    DEMAND_BUNDLE_CAP bundles.  Prices, ints or `Fraction`s, go unchecked.
    """
    key = tie_key(agent, others)
    offers = [(bid, items) for bid, items in catalog.entries if bid not in excluded]
    found = auction.valuation(agent).demand_answer(offers, prices, key)
    if found is None:
        best, tied = demand_correspondence(auction, agent, catalog, prices, excluded)
        found = best, min(tied, key=key) if len(tied) > 1 else tied[0]
    return found


def top_price(
    auction: Auction,
    agent: str,
    catalog: Catalog,
    prices: Mapping[BundleId, Fraction],
    bid: BundleId,
) -> Optional[Fraction]:
    """The highest price of bundle `bid`, every other price as given, at
    which `agent` demands {bid}; None if it does not demand {bid} now.

    Raising the price of `bid` lowers every set holding it alike and no
    other set.  So {bid}, demanded now, stays demanded exactly while its
    utility is at least A, the best utility over the catalog without
    `bid` (0 at least): up to price value({bid}) - A.  Not demanded now,
    it never is at a higher price.  Items are checked as by `demand`.
    """
    catalog.items_of(bid)  # an id outside the catalog raises InputError
    valuation, key = auction.valuation(agent), tie_key(agent, None)
    found = valuation.demand_answer(catalog.entries, prices, key)
    if found is None:
        ids, utils = _utilities(auction, agent, catalog, prices)
        bit = 1 << ids.index(bid)
        if utils[bit] < max(utils):
            return None
        # the masks without bid's bit: runs of `bit` entries, every 2 * bit
        rest = max([max(utils[j : j + bit]) for j in range(0, len(utils), 2 * bit)])
        return prices[bid] + utils[bit] - rest
    own = utility(auction, agent, {bid}, catalog, prices)
    if own < found[0]:
        return None
    others = [(b, items) for b, items in catalog.entries if b != bid]
    return prices[bid] + own - valuation.demand_answer(others, prices, key)[0]


@dataclass(frozen=True)
class CweViolation:
    agent: str
    held: BundleSet
    better: BundleSet
    held_utility: Fraction
    best_utility: Fraction

    @property
    def gap(self) -> Fraction:
        return self.best_utility - self.held_utility


def find_violation(auction: Auction, outcome: Outcome) -> Optional[CweViolation]:
    """First agent (in auction order) whose held set is not demanded.

    The outcome is a bundle-pricing equilibrium exactly when this
    returns None: every agent's assigned set maximizes its utility over
    the full catalog, withheld items are off the market, and clearance
    is not required.  The check runs on the lattice that also holds
    the outcome's prices.  An assignment naming an agent outside the
    auction raises InputError.
    """
    return next(_violations(auction, (outcome,)))


def _violations(auction: Auction, outcomes: Sequence[Outcome]) -> Iterator[Optional[CweViolation]]:
    """`lattice_violation` of each outcome, all on one lattice copy that
    holds every outcome's prices."""
    for outcome in outcomes:
        check_agents(auction._index, outcome.assignment)
    market, scale = auction.on_lattice(
        *{p.denominator for outcome in outcomes for p in outcome.prices.values()}
    )
    for outcome in outcomes:
        prices = {bid: lattice_int(p, scale) for bid, p in outcome.prices.items()}
        yield lattice_violation(market, scale, outcome, prices)


def lattice_violation(
    market: Auction, scale: int, outcome: Outcome, prices: Mapping[BundleId, int]
) -> Optional[CweViolation]:
    """`find_violation` on `market`, a lattice copy at `scale`, with the
    outcome's prices as ints on it: the solvers' final check."""
    for agent in market.agents:
        held = outcome.assignment.get(agent.name, frozenset())
        cur = utility(market, agent.name, held, outcome.catalog, prices)
        best, better = demand(
            market, agent.name, outcome.catalog, prices, others=outcome.assignment
        )
        if cur < best:
            return CweViolation(
                agent.name, held, better, Fraction(cur, scale), Fraction(best, scale)
            )
    return None


def is_cwe(auction: Auction, *outcomes: Outcome) -> bool:
    """Whether every outcome is stable (`find_violation`), checked on one
    lattice copy; stops at the first unstable one."""
    return all(v is None for v in _violations(auction, outcomes))


def social_welfare(auction: Auction, outcome: Outcome) -> Fraction:
    check_agents(auction._index, outcome.assignment)
    return allocation_welfare(
        auction, {name: outcome.assigned_items(name) for name in auction.agent_names}
    )


def revenue_of(auction: Auction, outcome: Outcome) -> Fraction:
    """Total price paid over assigned bundles."""
    check_agents(auction._index, outcome.assignment)
    held = [outcome.assignment.get(name, frozenset()) for name in auction.agent_names]
    return sum((outcome.prices[bid] for bids in held for bid in bids), Fraction(0))


InitialAllocation = Mapping[str, ItemSet]


def allocation_welfare(auction: Auction, allocation: InitialAllocation) -> Fraction:
    """Total value of an item allocation, such as a seed allocation."""
    return sum(
        (auction.valuation(name).value(items) for name, items in allocation.items()),
        Fraction(0),
    )


def validate_initial_allocation(auction: Auction, allocation: InitialAllocation) -> Dict[str, ItemSet]:
    """Normalize and check a seed allocation: known agents, items within
    the auction, pairwise disjoint.  Empty entries are dropped.
    """
    norm: Dict[str, ItemSet] = {}
    used: set = set()
    for name in allocation:
        if name not in auction._index:
            raise InputError(f"initial allocation names unknown agent {name!r}")
    for name in auction.agent_names:
        items = frozenset(allocation.get(name, frozenset()))
        if not items:
            continue
        if not items <= auction.item_set:
            raise InputError(f"initial allocation of {name!r} contains unknown items")
        if used & items:
            raise InputError("initial allocation is not disjoint")
        used |= items
        norm[name] = items
    return norm


def initial_market(
    auction: Auction, allocation: InitialAllocation
) -> Tuple[Catalog, PriceMap]:
    """Seed catalog from an initial allocation.

    Each nonempty allocated set becomes one bundle, in agent order,
    priced at half the owner's value for it.  Unallocated items are
    withheld.  Returns (catalog, prices).
    """
    norm = validate_initial_allocation(auction, allocation)
    entries = list(enumerate(norm.values()))
    prices: PriceMap = {
        bid: auction.valuation(name).value(items) / 2
        for bid, (name, items) in enumerate(norm.items())
    }
    return Catalog.selling(auction.item_set, entries), prices
