"""Desk-scale exact oracles.

Everything here is exhaustive and exact: brute-force welfare
optimization, the configuration-LP relaxation, supporting-price
feasibility (stability of a given assignment as a linear system), and
full enumeration of stably-priceable outcomes over small markets.
These functions exist to check the solvers, so they are deliberately
independent of the solver code paths and fail loudly on any input
larger than their caps, the module constants below, read at call time.

Each call reads every valuation once, into int tables from the
auction's shared lattice copy (`_tables`, at the scale D the solvers use
too), and stays in ints: welfare sums, the DP, LP objectives and
stability right-hand sides, whose scaling by D changes no pivot.  The searches
enumerate maps item -> owner or nobody: one walk sums each map's
welfare and groups the maps by int welfare level, and a level's
candidates are built and sorted only when a search, going down from
the highest level, reaches it.

Three exact screens skip LP work whose answer is known.  Every
LP passes through `_stable_prices`, which first asks the brute-force
DP for a reallocation of the held bundles with more welfare than the
holding; by the first welfare theorem over sold bundles no prices then
make the holding stable, and the DP's witness is re-checked in ints.
`max_cwe_revenue` also skips a candidate whose revenue bound
(`_revenue_bound`, stability against every bundle set with IR capping
its price) cannot beat the best revenue found.
`config_lp_fractional_opt` builds the column of (agent i, bundle set
S) only when v_i(S) > v_i(S - j) for every bundle j in S, which leaves
the optimum as it is.  Primal: the weight on a dropped S moves to an
S - j worth at least as much, which uses no more of any bundle row,
and again until it reaches a kept set or nothing.  Dual: with p >= 0,
u_i + p(S) >= u_i + p(S - j) >= v_i(S - j) >= v_i(S), by induction on
the size of S, so the smaller LP's optimal dual is feasible for every
dropped column too.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import ResourceLimitError, SolverInvariantError
from .lp import INFEASIBLE, OPTIMAL, LpSolution, solve_lp
from .market import (
    Auction, BundleId, BundleSet, Catalog, Outcome, allocation_welfare, check_agents,
    check_assignment,
)
# Unused here: bench/tracing.py counts partitions through this name.
from .partitions import set_partitions  # noqa: F401
from .valuations import ItemSet, members, subset_sums

BRUTE_MAX_ITEMS = 8
BRUTE_MAX_AGENTS = 6
LP_MAX_BUNDLES = 6
LP_MAX_AGENTS = 6
SEARCH_MAX_ITEMS = 5
SEARCH_MAX_AGENTS = 5

# tables[i][mask]: agent i's value of the union of the bundles in mask
Tables = List[List[int]]


def _cap(value: int, bound: int, what: str) -> None:
    if value > bound:
        raise ResourceLimitError(f"{what} = {value} exceeds oracle cap {bound}")


def _require_optimal(sol: LpSolution, what: str) -> None:
    if sol.status != OPTIMAL:
        raise SolverInvariantError(f"{what} LP ended {sol.status}, not optimal")


def singleton_catalog(auction: Auction) -> Catalog:
    """Every item on sale individually, nothing withheld."""
    return Catalog(
        entries=tuple((k, frozenset({it})) for k, it in enumerate(auction.items)),
    )


def _tables(
    auction: Auction, bundles: Optional[Sequence[ItemSet]] = None
) -> Tuple[Tables, int]:
    """Each agent's value of every union of `bundles` (by default the single
    items), indexed by mask as in `Valuation.bundle_values`, read from the
    auction's lattice copy at D = `lattice_scale`; returns (tables in agent
    order, D)."""
    if bundles is None:
        bundles = [frozenset({it}) for it in auction.items]
    market, den = auction.on_lattice()
    return [a.valuation.bundle_values(bundles) for a in market.agents], den


def _partition(tables: Tables, full: int) -> Tuple[int, List[int]]:
    """Max total value over disjoint awards of the units in mask `full`
    to the agents of `tables`.

    Units may stay unawarded.  Returns (welfare over D, each agent's
    mask in agent order, 0 for nothing).  Deterministic: first-found
    maximum wins, scanning agents in order and submasks in decreasing
    numeric order.
    """
    n = len(tables)
    subs = [mask for mask in range(full + 1) if mask | full == full]
    # best[i][mask]: welfare over D of agents i.. with units `mask` free
    best = [[0] * (full + 1) for _ in range(n + 1)]
    pick = [[0] * (full + 1) for _ in range(n)]
    for i in range(n - 1, -1, -1):
        values, rest, here, chosen = tables[i], best[i + 1], best[i], pick[i]
        # agent 0 starts with every unit free
        for mask in subs if i else (full,):
            b = rest[mask]
            choice = 0
            sub = mask
            while sub:
                cand = values[sub] + rest[mask ^ sub]
                if cand > b:
                    b = cand
                    choice = sub
                sub = (sub - 1) & mask
            here[mask] = b
            chosen[mask] = choice
    shares: List[int] = []
    free = full
    for chosen in pick:
        shares.append(chosen[free])
        free ^= shares[-1]
    return best[0][full], shares


def brute_force_optimal(auction: Auction) -> Tuple[Fraction, Dict[str, ItemSet]]:
    """Exact welfare-maximizing allocation of individual items.

    Leftover items are folded into the first agent's award, which keeps
    the welfare unchanged (monotone valuations, total already maximal)
    and makes the returned allocation exhaustive: every item is owned
    whenever there is at least one agent.
    """
    _cap(len(auction.items), BRUTE_MAX_ITEMS, "item count")
    _cap(len(auction.agents), BRUTE_MAX_AGENTS, "agent count")
    items = auction.items
    tables, den = _tables(auction)
    scaled, shares = _partition(tables, (1 << len(items)) - 1)
    welfare = Fraction(scaled, den)
    allocation = {
        a.name: frozenset(members(items, got)) for a, got in zip(auction.agents, shares) if got
    }
    leftover = auction.item_set.difference(*allocation.values())
    if leftover and auction.agents:
        first = auction.agents[0].name
        allocation[first] = allocation.get(first, frozenset()) | leftover
        if allocation_welfare(auction, allocation) != welfare:
            raise SolverInvariantError("absorbing leftovers changed the optimum")
    return welfare, allocation


def config_lp_fractional_opt(auction: Auction, catalog: Catalog) -> Fraction:
    """Optimum of the fractional relaxation over the given catalog.

    One variable per (agent, nonempty bundle-subset) pair, unit row per
    agent and per bundle; maximizes total fractional value.  A pair
    (i, S) gets its variable only if v_i(S) > v_i(S - j) for every
    bundle j in S (the third screen of the module docstring).
    """
    k = len(catalog.entries)
    n = len(auction.agents)
    _cap(k, LP_MAX_BUNDLES, "bundle count")
    _cap(n, LP_MAX_AGENTS, "agent count")
    tables, den = _tables(auction, [items for _, items in catalog.entries])
    bits = [1 << j for j in range(k)]
    cols = [
        (i, mask)
        for i, table in enumerate(tables)
        for mask in range(1, 1 << k)
        if all(table[mask ^ bit] < table[mask] for bit in bits if mask & bit)
    ]
    c = [tables[i][mask] for i, mask in cols]
    rows = [[1 if ci == i else 0 for ci, _ in cols] for i in range(n)]
    rows += [[mask >> j & 1 for _, mask in cols] for j in range(k)]
    sol = solve_lp(c, rows, [1] * (n + k))
    _require_optimal(sol, "configuration")
    return sol.value / den


def _stability_rows(
    tables: Tables, owns: Sequence[int], k: int
) -> Tuple[List[List[int]], List[int]]:
    """Linear constraints on k bundle prices making an assignment stable.

    `tables[i][mask]` is agent i's value of the bundles in `mask` and
    `owns[i]` the mask it holds.  For every agent i and every bundle
    subset S != X_i:  p(X_i) - p(S) <= v_i(X_i) - v_i(S).  Row
    feasibility with p >= 0 is exactly stability (the S = empty row
    gives individual rationality).
    """
    bits = [[mask >> j & 1 for j in range(k)] for mask in range(1 << k)]
    rows: List[List[int]] = []
    rhs: List[int] = []
    for table, own in zip(tables, owns):
        v_own = table[own]
        for mask in range(1 << k):
            if mask != own:
                rows.append([a - b for a, b in zip(bits[own], bits[mask])])
                rhs.append(v_own - table[mask])
    return rows, rhs


def _reallocation_beats(tables: Tables, owns: Sequence[int]) -> bool:
    """Whether some reallocation of the held bundles has strictly more
    welfare than the holding, which then admits no stable prices.

    Prices are >= 0 and every held bundle is paid for, so summing agent
    i's stability row against its share Y_i of a reallocation gives
    sum v(X) >= sum v(Y) + p(held) - p(Y) >= sum v(Y): the first
    welfare theorem over the sold bundles.  Unsold bundles stay out of
    it, for their prices may be high.  A beating reallocation from the
    DP is re-checked in ints before it is believed.
    """
    held = 0
    for own in owns:
        held |= own
    welfare = sum(table[own] for table, own in zip(tables, owns))
    best, shares = _partition(tables, held)
    if best <= welfare:
        return False
    taken = 0
    for share in shares:
        if share & taken or share | held != held:
            raise SolverInvariantError(
                "reallocation witness is not disjoint within the held bundles"
            )
        taken |= share
    if sum(table[share] for table, share in zip(tables, shares)) <= welfare:
        raise SolverInvariantError("reallocation witness does not beat the holding")
    return True


def _stable_prices(
    tables: Tables, den: int, owns: Sequence[int], c: List[int]
) -> Optional[Tuple[Fraction, List[Fraction]]]:
    """Max c.p over the stability rows, divided back by den: (optimum,
    prices), or None when no prices make the assignment stable."""
    if _reallocation_beats(tables, owns):
        return None
    sol = solve_lp(c, *_stability_rows(tables, owns, len(c)))
    if sol.status == INFEASIBLE:
        return None
    return sol.value / den, [x / den for x in sol.x]


def _catalog_prices(
    auction: Auction, catalog: Catalog, assignment: Dict[str, BundleSet], revenue: bool
) -> Optional[Tuple[Fraction, Dict[BundleId, Fraction]]]:
    """Max revenue (or 0) over the price maps making the assignment
    stable, with one such map; None when there is none."""
    _cap(len(catalog.entries), LP_MAX_BUNDLES, "bundle count")
    _cap(len(auction.agents), LP_MAX_AGENTS, "agent count")
    owns = dict.fromkeys(auction.agent_names, 0)  # held masks
    check_agents(owns, assignment)
    check_assignment(catalog, assignment)
    pos = {bid: j for j, (bid, _) in enumerate(catalog.entries)}
    for name, bundles in assignment.items():
        owns[name] = sum(1 << pos[bid] for bid in bundles)
    held = set().union(*assignment.values())
    tables, den = _tables(auction, [items for _, items in catalog.entries])
    c = [1 if revenue and bid in held else 0 for bid in pos]
    got = _stable_prices(tables, den, list(owns.values()), c)
    return None if got is None else (got[0], dict(zip(pos, got[1])))


def supporting_prices(
    auction: Auction,
    catalog: Catalog,
    assignment: Dict[str, BundleSet],
) -> Optional[Dict[BundleId, Fraction]]:
    """A price map making the assignment stable, or None.

    Existence of such prices is exactly the statement that the
    assignment (with suitable prices) forms an equilibrium over the
    catalog.
    """
    got = _catalog_prices(auction, catalog, assignment, revenue=False)
    return None if got is None else got[1]


def revenue_maximizing_prices(
    auction: Auction,
    catalog: Catalog,
    assignment: Dict[str, BundleSet],
) -> Optional[Tuple[Fraction, Dict[BundleId, Fraction]]]:
    """Highest total price of assigned bundles over all stabilizing
    price maps, with a price map reaching it, or None when the
    assignment cannot be stabilized."""
    return _catalog_prices(auction, catalog, assignment, revenue=True)


def stable_singleton_outcomes(
    auction: Auction,
) -> Iterator[Tuple[Dict[str, ItemSet], Dict[BundleId, Fraction]]]:
    """All stably priceable unbundled outcomes.

    The catalog is every item sold separately with nothing withheld;
    assignments range over every function item -> agent-or-nobody.
    Yields (allocation by items, witness prices) for each assignment
    that admits supporting prices.  The call checks the caps and reads
    the tables; the scan runs as the result is consumed.
    """
    _cap(len(auction.items), LP_MAX_BUNDLES, "item count")
    _cap(len(auction.agents), LP_MAX_AGENTS, "agent count")
    items = auction.items
    names = auction.agent_names
    # bundle j of the singleton catalog is item j, under id j
    tables, den = _tables(auction)

    def scan() -> Iterator[Tuple[Dict[str, ItemSet], Dict[BundleId, Fraction]]]:
        for combo in itertools.product(range(len(names) + 1), repeat=len(items)):
            owns = [0] * (len(names) + 1)
            for j, who in enumerate(combo):
                owns[who] |= 1 << j
            got = _stable_prices(tables, den, owns[1:], [0] * len(items))
            if got is not None:
                # agents in the order of their first item
                allocation = {
                    names[w - 1]: frozenset(members(items, owns[w])) for w in combo if w
                }
                yield allocation, dict(enumerate(got[1]))

    return scan()


Pairs = Tuple[Tuple[str, Tuple[str, ...]], ...]
# (-welfare over D, ((agent, sorted items), ...), ((agent index, items mask), ...))
Candidate = Tuple[int, Pairs, Tuple[Tuple[int, int], ...]]


def _bundled_candidates(auction: Auction) -> Tuple[Tables, int, Iterator[Candidate]]:
    """The item tables, D, and every way to sell a bundling of some
    items: one candidate per map item -> agent-or-nobody, an agent's
    bundle being the items mapped to it.  Sorted by welfare descending
    then pairs, which list the bundles by agent name.  Items mapped to
    nobody are withheld; withholding them loses nothing for stability.
    The call checks the caps and walks the maps once into int welfare
    levels; the iterator builds and sorts a level's candidates only on
    reaching it, so a search that stops early builds no lower level."""
    _cap(len(auction.items), SEARCH_MAX_ITEMS, "item count")
    _cap(len(auction.agents), SEARCH_MAX_AGENTS, "agent count")
    tables, den = _tables(auction)
    items = auction.items
    names = auction.agent_names
    order = sorted(range(len(names)), key=names.__getitem__)
    # (-welfare over D, masks of the agents so far in name order, free
    # items), agent by agent over the submasks of the free items
    maps = [(0, (), (1 << len(items)) - 1)]
    for i in order:
        table, grown = tables[i], []
        for neg_sw, masks, free in maps:
            sub = free
            while True:
                grown.append((neg_sw - table[sub], masks + (sub,), free ^ sub))
                if not sub:
                    break
                sub = (sub - 1) & free
        maps = grown
    levels: Dict[int, List[Tuple[int, ...]]] = {}
    for neg_sw, masks, _ in maps:
        levels.setdefault(neg_sw, []).append(masks)

    def by_level() -> Iterator[Candidate]:
        for neg_sw in sorted(levels):
            owned = [tuple((i, x) for i, x in zip(order, masks) if x) for masks in levels[neg_sw]]
            yield from sorted(
                (neg_sw, tuple((names[i], tuple(sorted(members(items, x)))) for i, x in o), o)
                for o in owned
            )

    return tables, den, by_level()


def _candidate_market(
    tables: Tables, owned: Sequence[Tuple[int, int]]
) -> Tuple[Tables, List[int]]:
    """A candidate's market for `_stable_prices`: (tables over its
    bundles, held masks), where bundle j is the j-th of `owned`, held by
    its agent."""
    unions = subset_sums([mask for _, mask in owned])
    owns = [0] * len(tables)
    for j, (i, _) in enumerate(owned):
        owns[i] = 1 << j
    return [[table[u] for u in unions] for table in tables], owns


def _revenue_bound(tables: Tables, owners: Sequence[int]) -> int:
    """An upper bound over D on a candidate market's stable revenue,
    where bundle j is held by agent owners[j] alone.

    Agent i = owners[j] prefers bundle j to any bundle set S without j,
    and IR caps each bundle of S at its owner's value, so
    p_j <= v_i(j) - v_i(S) + sum over l in S of v_owners[l](l).  The
    bound sums the minima over S; S = {} gives the welfare.
    """
    caps = subset_sums([tables[i][1 << j] for j, i in enumerate(owners)])
    bound = 0
    for j, i in enumerate(owners):
        table, bit = tables[i], 1 << j
        bound += table[bit] + min(
            caps[s] - table[s] for s in range(len(caps)) if not s & bit
        )
    return bound


def _candidate_outcome(auction: Auction, pairs: Pairs, prices: List[Fraction]) -> Outcome:
    entries = [(j, frozenset(bundle)) for j, (_, bundle) in enumerate(pairs)]
    return Outcome(
        catalog=Catalog.selling(auction.item_set, entries),
        prices=dict(enumerate(prices)),
        assignment={name: frozenset({j}) for j, (name, _) in enumerate(pairs)},
    )


def max_cwe_welfare(auction: Auction) -> Tuple[Fraction, Outcome]:
    """Highest social welfare over every stably priceable bundled
    outcome, with a priced witness.  Exhaustive over every map of the
    items to agents or nobody."""
    tables, den, candidates = _bundled_candidates(auction)
    for neg_sw, pairs, owned in candidates:
        lp_tables, owns = _candidate_market(tables, owned)
        got = _stable_prices(lp_tables, den, owns, [0] * len(owned))
        if got is not None:
            return Fraction(-neg_sw, den), _candidate_outcome(auction, pairs, got[1])
    raise SolverInvariantError("no stable candidate, not even selling nothing")


def max_cwe_revenue(auction: Auction) -> Tuple[Fraction, Outcome]:
    """Highest revenue over every stably priceable bundled outcome.

    Revenue of a candidate is bounded by its welfare (buyers never pay
    above value), so the welfare-descending scan can stop once the best
    found revenue meets the remaining welfare bound.  A candidate whose
    `_revenue_bound` does not exceed the best found revenue cannot
    replace it, so its LP is skipped.
    """
    tables, den, candidates = _bundled_candidates(auction)
    best_rev = Fraction(0)
    best: Optional[Outcome] = None
    # floor(best_rev * D): an int over D is <= best_rev iff it is <= cut
    cut = 0
    for neg_sw, pairs, owned in candidates:
        if best is not None and -neg_sw <= cut:
            break
        lp_tables, owns = _candidate_market(tables, owned)
        if best is not None and _revenue_bound(lp_tables, [i for i, _ in owned]) <= cut:
            continue
        got = _stable_prices(lp_tables, den, owns, [1] * len(owned))
        if got is None:
            continue
        rev, prices = got
        if best is None or rev > best_rev:
            best_rev = rev
            cut = rev.numerator * den // rev.denominator
            best = _candidate_outcome(auction, pairs, prices)
    if best is None:
        raise SolverInvariantError("no stable candidate, not even selling nothing")
    return best_rev, best
