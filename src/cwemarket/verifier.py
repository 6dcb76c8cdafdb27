"""Desk-scale exact oracles.

Everything here is exhaustive and exact: brute-force welfare
optimization, the configuration-LP relaxation, supporting-price
feasibility (stability of a given assignment as a linear system), and
full enumeration of stably-priceable outcomes over small markets.
These functions exist to check the solvers, so they are deliberately
independent of the solver code paths and fail loudly on any input
larger than their caps, the module constants below, read at call time.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import InputError, ResourceLimitError, SolverInvariantError
from .lp import INFEASIBLE, OPTIMAL, LpSolution, solve_lp
from .market import Auction, BundleId, BundleSet, Catalog, Outcome, allocation_welfare
from .partitions import set_partitions
from .valuations import ItemSet, subset_unions

BRUTE_MAX_ITEMS = 8
BRUTE_MAX_AGENTS = 6
LP_MAX_BUNDLES = 6
LP_MAX_AGENTS = 6
SEARCH_MAX_ITEMS = 5
SEARCH_MAX_AGENTS = 5


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


def _best_partition(
    auction: Auction, units: Sequence[ItemSet]
) -> Tuple[Fraction, Dict[str, int]]:
    """Max total value over disjoint awards of `units` to agents.

    Units may stay unawarded.  Returns (welfare, agent name -> unit
    mask).  Deterministic: first-found maximum wins, scanning agents in
    order and submasks in increasing numeric order.
    """
    k = len(units)
    n = len(auction.agents)
    full = (1 << k) - 1
    unions = subset_unions(units)
    # best[i][mask]: welfare achievable by agents i.. with units `mask` free
    best = [[Fraction(0)] * (1 << k) for _ in range(n + 1)]
    pick = [[0] * (1 << k) for _ in range(n)]
    for i in range(n - 1, -1, -1):
        val = auction.agents[i].valuation
        values = [val.value(items) for items in unions]
        for mask in range(full + 1):
            b = best[i + 1][mask]
            choice = 0
            sub = mask
            while True:
                if sub:
                    cand = values[sub] + best[i + 1][mask ^ sub]
                    if cand > b:
                        b = cand
                        choice = sub
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            best[i][mask] = b
            pick[i][mask] = choice
    masks: Dict[str, int] = {}
    free = full
    for i, agent in enumerate(auction.agents):
        got = pick[i][free]
        if got:
            masks[agent.name] = got
            free ^= got
    return best[0][full], masks


def brute_force_optimal(auction: Auction) -> Tuple[Fraction, Dict[str, ItemSet]]:
    """Exact welfare-maximizing allocation of individual items.

    Leftover items are folded into the first agent's award, which keeps
    the welfare unchanged (monotone valuations, total already maximal)
    and makes the returned allocation exhaustive: every item is owned
    whenever there is at least one agent.
    """
    _cap(len(auction.items), BRUTE_MAX_ITEMS, "item count")
    _cap(len(auction.agents), BRUTE_MAX_AGENTS, "agent count")
    units = [frozenset({it}) for it in auction.items]
    welfare, masks = _best_partition(auction, units)
    allocation: Dict[str, ItemSet] = {}
    used = 0
    for name, mask in masks.items():
        allocation[name] = frozenset(
            auction.items[j] for j in range(len(units)) if mask >> j & 1
        )
        used |= mask
    leftover = frozenset(
        auction.items[j] for j in range(len(units)) if not used >> j & 1
    )
    if leftover and auction.agents:
        first = auction.agents[0].name
        allocation[first] = allocation.get(first, frozenset()) | leftover
        if allocation_welfare(auction, allocation) != welfare:
            raise SolverInvariantError("absorbing leftovers changed the optimum")
    return welfare, allocation


def brute_force_optimal_over_catalog(
    auction: Auction, catalog: Catalog
) -> Tuple[Fraction, Dict[str, BundleSet]]:
    """Exact welfare maximum when only whole catalog bundles may move."""
    _cap(len(catalog.entries), BRUTE_MAX_ITEMS, "bundle count")
    _cap(len(auction.agents), BRUTE_MAX_AGENTS, "agent count")
    units = [items for _, items in catalog.entries]
    ids = [bid for bid, _ in catalog.entries]
    welfare, masks = _best_partition(auction, units)
    assignment = {
        name: frozenset(ids[j] for j in range(len(ids)) if mask >> j & 1)
        for name, mask in masks.items()
    }
    return welfare, assignment


def config_lp_fractional_opt(auction: Auction, catalog: Catalog) -> Fraction:
    """Optimum of the fractional relaxation over the given catalog.

    One variable per (agent, nonempty bundle-subset) pair, unit row per
    agent and per bundle; maximizes total fractional value.
    """
    k = len(catalog.entries)
    n = len(auction.agents)
    _cap(k, LP_MAX_BUNDLES, "bundle count")
    _cap(n, LP_MAX_AGENTS, "agent count")
    unions = subset_unions([items for _, items in catalog.entries])
    cols: List[Tuple[int, int]] = []  # (agent index, bundle mask)
    c: List[Fraction] = []
    for i, agent in enumerate(auction.agents):
        for mask in range(1, 1 << k):
            cols.append((i, mask))
            c.append(agent.valuation.value(unions[mask]))
    rows = [[1 if ci == i else 0 for ci, _ in cols] for i in range(n)]
    rows += [[mask >> j & 1 for _, mask in cols] for j in range(k)]
    sol = solve_lp(c, rows, [1] * (n + k))
    _require_optimal(sol, "configuration")
    return sol.value


def _stability_rows(
    auction: Auction,
    catalog: Catalog,
    assignment: Dict[str, BundleSet],
) -> Tuple[List[List[int]], List[Fraction]]:
    """Linear constraints on bundle prices making `assignment` stable.

    Variables are prices in catalog order.  For every agent i and every
    bundle subset S != X_i:  p(X_i) - p(S) <= v_i(X_i) - v_i(S).
    Row feasibility with p >= 0 is exactly stability (the S = empty row
    gives individual rationality).
    """
    ids = [bid for bid, _ in catalog.entries]
    pos = {bid: j for j, bid in enumerate(ids)}
    k = len(ids)
    table = catalog.as_dict()
    held: set = set()
    for name, bundles in assignment.items():
        if name not in auction.agent_names:
            raise InputError(f"assignment names unknown agent {name!r}")
        for bid in bundles:
            if bid not in table:
                raise InputError(f"assignment references unknown bundle {bid}")
            if bid in held:
                raise InputError("a bundle is assigned twice")
            held.add(bid)
    unions = subset_unions([table[bid] for bid in ids])
    rows: List[List[int]] = []
    rhs: List[Fraction] = []
    for agent in auction.agents:
        val = agent.valuation
        own = assignment.get(agent.name, frozenset())
        own_mask = 0
        for bid in own:
            own_mask |= 1 << pos[bid]
        v_own = val.value(unions[own_mask])
        for mask in range(1 << k):
            if mask == own_mask:
                continue
            rows.append([(own_mask >> j & 1) - (mask >> j & 1) for j in range(k)])
            rhs.append(v_own - val.value(unions[mask]))
    return rows, rhs


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
    _cap(len(catalog.entries), LP_MAX_BUNDLES, "bundle count")
    rows, rhs = _stability_rows(auction, catalog, assignment)
    k = len(catalog.entries)
    sol = solve_lp([0] * k, rows, rhs)
    if sol.status == INFEASIBLE:
        return None
    _require_optimal(sol, "supporting-price")
    return {bid: sol.x[j] for j, (bid, _) in enumerate(catalog.entries)}


def supporting_prices_exist(
    auction: Auction,
    catalog: Catalog,
    assignment: Dict[str, BundleSet],
) -> bool:
    return supporting_prices(auction, catalog, assignment) is not None


def revenue_maximizing_prices(
    auction: Auction,
    catalog: Catalog,
    assignment: Dict[str, BundleSet],
) -> Optional[Tuple[Fraction, Dict[BundleId, Fraction]]]:
    """Highest total price of assigned bundles over all stabilizing
    price maps, with a price map reaching it, or None when the
    assignment cannot be stabilized."""
    _cap(len(catalog.entries), LP_MAX_BUNDLES, "bundle count")
    rows, rhs = _stability_rows(auction, catalog, assignment)
    assigned: set = set()
    for bundles in assignment.values():
        assigned |= bundles
    c = [1 if bid in assigned else 0 for bid, _ in catalog.entries]
    sol = solve_lp(c, rows, rhs)
    if sol.status == INFEASIBLE:
        return None
    # assigned prices are capped by the owners' values, so no ray
    # can improve the objective
    _require_optimal(sol, "revenue")
    prices = {bid: sol.x[j] for j, (bid, _) in enumerate(catalog.entries)}
    return sol.value, prices


def stable_singleton_outcomes(
    auction: Auction,
) -> Iterator[Tuple[Dict[str, ItemSet], Dict[BundleId, Fraction]]]:
    """All stably priceable unbundled outcomes.

    The catalog is every item sold separately with nothing withheld;
    assignments range over every function item -> agent-or-nobody.
    Yields (allocation by items, witness prices) for each assignment
    that admits supporting prices.
    """
    _cap(len(auction.items), LP_MAX_BUNDLES, "item count")
    cat = singleton_catalog(auction)
    names = auction.agent_names
    m = len(auction.items)
    for combo in itertools.product(range(len(names) + 1), repeat=m):
        assignment: Dict[str, BundleSet] = {}
        for j, who in enumerate(combo):
            if who:
                name = names[who - 1]
                assignment[name] = assignment.get(name, frozenset()) | {j}
        prices = supporting_prices(auction, cat, assignment)
        if prices is None:
            continue
        allocation = {
            name: frozenset(auction.items[j] for j in bundles)
            for name, bundles in assignment.items()
        }
        yield allocation, prices


def max_stable_singleton_welfare(auction: Auction) -> Fraction:
    best = Fraction(0)
    for allocation, _ in stable_singleton_outcomes(auction):
        sw = allocation_welfare(auction, allocation)
        if sw > best:
            best = sw
    return best


def max_stable_singleton_items_sold(auction: Auction) -> int:
    best = 0
    for allocation, _ in stable_singleton_outcomes(auction):
        sold = sum(len(s) for s in allocation.values())
        if sold > best:
            best = sold
    return best


Candidate = Tuple[Fraction, Tuple[Tuple[str, Tuple[str, ...]], ...]]


def _bundled_candidates(auction: Auction) -> List[Candidate]:
    """Every way to sell a bundling of some items: deduplicated
    (welfare, ((agent, sorted items), ...)) pairs, sorted by welfare
    descending then canonical form.  Bundles never offered to anyone
    are dropped; withholding them loses nothing for stability."""
    items = list(auction.items)
    names = auction.agent_names
    seen: set = set()
    out: List[Candidate] = []
    for blocks in set_partitions(items):
        k = len(blocks)
        for owners in itertools.product(range(len(names) + 1), repeat=k):
            chosen = [w for w in owners if w]
            if len(chosen) != len(set(chosen)):
                continue
            pairs = tuple(
                sorted(
                    (names[w - 1], tuple(sorted(blocks[j])))
                    for j, w in enumerate(owners)
                    if w
                )
            )
            if pairs in seen:
                continue
            seen.add(pairs)
            sw = sum(
                (
                    auction.valuation(name).value(frozenset(bundle))
                    for name, bundle in pairs
                ),
                Fraction(0),
            )
            out.append((sw, pairs))
    out.sort(key=lambda cand: (-cand[0], cand[1]))
    return out


def _candidate_market(
    auction: Auction, pairs: Tuple[Tuple[str, Tuple[str, ...]], ...]
) -> Tuple[Catalog, Dict[str, BundleSet]]:
    entries: List[Tuple[BundleId, ItemSet]] = []
    assignment: Dict[str, BundleSet] = {}
    for j, (name, bundle) in enumerate(pairs):
        entries.append((j, frozenset(bundle)))
        assignment[name] = frozenset({j})
    return Catalog.selling(auction.item_set, entries), assignment


def max_cwe_welfare(auction: Auction) -> Tuple[Fraction, Outcome]:
    """Highest social welfare over every stably priceable bundled
    outcome, with a priced witness.  Exhaustive over all partitions of
    the items and all ways to award blocks to distinct agents."""
    _cap(len(auction.items), SEARCH_MAX_ITEMS, "item count")
    _cap(len(auction.agents), SEARCH_MAX_AGENTS, "agent count")
    for sw, pairs in _bundled_candidates(auction):
        catalog, assignment = _candidate_market(auction, pairs)
        prices = supporting_prices(auction, catalog, assignment)
        if prices is None:
            continue
        return sw, Outcome(catalog=catalog, prices=prices, assignment=assignment)
    raise SolverInvariantError("no stable candidate, not even selling nothing")


def max_cwe_revenue(auction: Auction) -> Tuple[Fraction, Outcome]:
    """Highest revenue over every stably priceable bundled outcome.

    Revenue of a candidate is bounded by its welfare (buyers never pay
    above value), so the welfare-descending scan can stop once the best
    found revenue meets the remaining welfare bound.
    """
    _cap(len(auction.items), SEARCH_MAX_ITEMS, "item count")
    _cap(len(auction.agents), SEARCH_MAX_AGENTS, "agent count")
    best_rev = Fraction(0)
    best: Optional[Outcome] = None
    for sw, pairs in _bundled_candidates(auction):
        if sw <= best_rev and best is not None:
            break
        catalog, assignment = _candidate_market(auction, pairs)
        got = revenue_maximizing_prices(auction, catalog, assignment)
        if got is None:
            continue
        rev, prices = got
        if best is None or rev > best_rev:
            best_rev = rev
            best = Outcome(catalog=catalog, prices=prices, assignment=assignment)
    if best is None:
        raise SolverInvariantError("no stable candidate, not even selling nothing")
    return best_rev, best
