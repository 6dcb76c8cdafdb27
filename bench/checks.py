"""Output checks computed apart from the program.

Nothing here calls the library's demand, pricing, welfare, replay or
oracle code.  Values come from raw `valuation.value` calls, prices
from the program's reported numbers, and every maximum from explicit
enumeration over bundle subsets or item-to-agent maps.  Each check
returns a list of problems; an empty list means the output is right.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

ItemSet = FrozenSet[str]
Problems = List[str]


@dataclass(frozen=True)
class Market:
    """A priced bundling: bundles by position, parallel prices, and
    the positions each agent holds (agents holding nothing omitted)."""

    bundles: Tuple[ItemSet, ...]
    prices: Tuple[Fraction, ...]
    holding: Dict[str, FrozenSet[int]]


@dataclass(frozen=True)
class Level:
    """One surcharge level of a revenue ladder, as the program stated it."""

    t: int
    sigma: Fraction
    survivors: Tuple[str, ...]
    sw: Fraction
    rev: Fraction
    market: Optional[Market] = None  # the level outcome, when the program returns it


def _no_float(text: str) -> Fraction:
    raise ValueError(f"float literal {text!r} in program output")


def parse_json(text: str) -> Any:
    return json.loads(text, parse_float=_no_float)


def market_from_report(obj: Mapping[str, Any]) -> Market:
    holding = {
        name: frozenset(positions)
        for name, positions in obj["assignment"].items()
        if positions
    }
    return Market(
        bundles=tuple(frozenset(b) for b in obj["catalog"]),
        prices=tuple(Fraction(p) for p in obj["prices"]),
        holding=holding,
    )


def market_from_outcome(outcome) -> Market:
    """Checker form of a library outcome; positions follow catalog order."""
    ids = [bid for bid, _ in outcome.catalog.entries]
    position = {bid: k for k, bid in enumerate(ids)}
    return Market(
        bundles=tuple(items for _, items in outcome.catalog.entries),
        prices=tuple(outcome.prices[bid] for bid in ids),
        holding={
            name: frozenset(position[bid] for bid in held)
            for name, held in outcome.assignment.items()
            if held
        },
    )


def items_of(market: Market, positions) -> ItemSet:
    out: ItemSet = frozenset()
    for k in positions:
        out |= market.bundles[k]
    return out


def welfare(auction, market: Market) -> Fraction:
    return sum(
        (
            auction.valuation(name).value(items_of(market, held))
            for name, held in market.holding.items()
        ),
        Fraction(0),
    )


def revenue(market: Market) -> Fraction:
    return sum(
        (market.prices[k] for held in market.holding.values() for k in held),
        Fraction(0),
    )


def seed_welfare(auction, allocation: Mapping[str, ItemSet]) -> Fraction:
    return sum(
        (auction.valuation(name).value(items) for name, items in allocation.items()),
        Fraction(0),
    )


def structure_problems(auction, market: Market, tag: str) -> Problems:
    """Disjoint nonempty bundles of auction items, nonnegative prices,
    and every held position owned by exactly one known agent."""
    problems: Problems = []
    seen: set = set()
    for bundle in market.bundles:
        if not bundle or bundle & seen or not bundle <= auction.item_set:
            problems.append(f"{tag}: catalog bundle {sorted(bundle)} is empty, "
                            f"overlaps another or names unknown items")
        seen |= bundle
    if len(market.prices) != len(market.bundles):
        problems.append(f"{tag}: {len(market.prices)} prices for "
                        f"{len(market.bundles)} bundles")
    if any(p < 0 for p in market.prices):
        problems.append(f"{tag}: negative price")
    held: set = set()
    names = set(auction.agent_names)
    for name, positions in market.holding.items():
        if name not in names:
            problems.append(f"{tag}: unknown agent {name!r} holds bundles")
        if positions & held or any(not 0 <= k < len(market.bundles) for k in positions):
            problems.append(f"{tag}: bad or doubly held positions for {name!r}")
        held |= positions
    return problems


class ValueTable:
    """Every agent's value for every union of the given bundles.

    Values come from one raw `valuation.value` call per agent and
    subset.  Stability checks then run on integers scaled by a common
    denominator, so a whole ladder of price vectors is cheap to test.
    """

    def __init__(self, auction, bundles: Sequence[ItemSet]):
        self.agents = list(auction.agent_names)
        k = len(bundles)
        unions: List[ItemSet] = [frozenset()] * (1 << k)
        for mask in range(1, 1 << k):
            low = mask & -mask
            unions[mask] = unions[mask ^ low] | bundles[low.bit_length() - 1]
        self.k = k
        self.values: Dict[str, List[Fraction]] = {
            name: [auction.valuation(name).value(u) for u in unions]
            for name in self.agents
        }
        self._denominator = lcm(
            *(v.denominator for vals in self.values.values() for v in vals)
        )

    def unstable(
        self, prices: Sequence[Fraction], holding: Mapping[str, FrozenSet[int]]
    ) -> List[Tuple[str, Fraction, Fraction]]:
        """Agents whose held set is not a utility maximum over all
        bundle subsets: (agent, held utility, best utility)."""
        d = lcm(self._denominator, *(p.denominator for p in prices))
        scaled = [p.numerator * (d // p.denominator) for p in prices]
        psum = [0] * (1 << self.k)
        for mask in range(1, 1 << self.k):
            low = mask & -mask
            psum[mask] = psum[mask ^ low] + scaled[low.bit_length() - 1]
        out = []
        for name in self.agents:
            utils = [
                v.numerator * (d // v.denominator) - p
                for v, p in zip(self.values[name], psum)
            ]
            held = 0
            for k in holding.get(name, frozenset()):
                held |= 1 << k
            best = max(utils)
            if utils[held] < best:
                out.append((name, Fraction(utils[held], d), Fraction(best, d)))
        return out


def stability_problems(table: ValueTable, market: Market, tag: str) -> Problems:
    return [
        f"{tag}: {name} holds utility {held} but can get {best}"
        for name, held, best in table.unstable(market.prices, market.holding)
    ]


def optimal_welfare(auction) -> Fraction:
    """Welfare optimum by enumerating every map from items to agents.

    With monotone values some optimum sells every item, so maps that
    leave items unsold never need to be tried.
    """
    items = list(auction.items)
    names = auction.agent_names
    values = []
    for name in names:
        val = auction.valuation(name)
        row = []
        for mask in range(1 << len(items)):
            row.append(val.value(frozenset(
                it for j, it in enumerate(items) if mask >> j & 1
            )))
        values.append(row)
    best = Fraction(0)
    for owners in itertools.product(range(len(names)), repeat=len(items)):
        masks = [0] * len(names)
        for j, who in enumerate(owners):
            masks[who] |= 1 << j
        total = sum((values[i][mask] for i, mask in enumerate(masks)), Fraction(0))
        if total > best:
            best = total
    return best


def optimum_problems(auction, opt: Fraction, allocation, tag: str) -> Problems:
    """The program's brute-force optimum against the checker's own
    enumeration, and its allocation against its stated welfare."""
    problems: Problems = []
    own = optimal_welfare(auction)
    if opt != own:
        problems.append(f"{tag}: optimum {opt} but enumeration gives {own}")
    used: set = set()
    for items in allocation.values():
        if used & items:
            problems.append(f"{tag}: optimal allocation is not disjoint")
        used |= items
    if seed_welfare(auction, allocation) != opt:
        problems.append(f"{tag}: optimal allocation is not worth {opt}")
    return problems


def poly_budget_problems(auction, iterations: int, demand_queries: int, tag: str) -> Problems:
    n = len(auction.agents)
    problems: Problems = []
    if iterations > n * n:
        problems.append(f"{tag}: {iterations} iterations exceed n^2 = {n * n}")
    if demand_queries > iterations * (n + 1) * (n + 2):
        problems.append(f"{tag}: {demand_queries} demand queries exceed the "
                        f"budget {iterations * (n + 1) * (n + 2)}")
    return problems


def solver_problems(
    auction, table: ValueTable, market: Market, seed_sw: Fraction, tag: str
) -> Problems:
    """A solver outcome: well formed, stable, and at least half the
    seed welfare."""
    problems = structure_problems(auction, market, tag)
    if problems:
        return problems
    problems += stability_problems(table, market, tag)
    if 2 * welfare(auction, market) < seed_sw:
        problems.append(f"{tag}: welfare below half the seed welfare {seed_sw}")
    return problems


def ladder_problems(
    auction,
    table: ValueTable,
    base: Market,
    levels: Sequence[Level],
    t_star: int,
    max_revenue: Fraction,
    tag: str,
) -> Problems:
    """Recompute the surcharge ladder from the base outcome and check
    every level: surcharges, survivors, welfare and revenue, stability,
    revenue at most welfare, and the best level within 8*ell of sw0."""
    problems: Problems = []
    holders = [name for name in auction.agent_names if name in base.holding]
    k = len(holders)
    sw0 = welfare(auction, base)
    if any(len(base.holding[name]) != 1 for name in holders):
        return [f"{tag}: base outcome gives an agent several bundles"]
    ell = (2 * k - 1).bit_length() if k else 0
    sigmas = [Fraction(0)]
    if k:
        sigmas += [Fraction(2) ** (t - 1) * sw0 / (2 * k) for t in range(1, ell + 2)]
    if [lv.t for lv in levels] != list(range(len(sigmas))):
        return [f"{tag}: ladder has levels {[lv.t for lv in levels]}, "
                f"expected 0..{len(sigmas) - 1}"]
    for level, sigma in zip(levels, sigmas):
        name = f"{tag} level {level.t}"
        if level.sigma != sigma:
            problems.append(f"{name}: surcharge {level.sigma}, expected {sigma}")
            continue
        prices = tuple(p + sigma for p in base.prices)
        survivors = tuple(
            who for who in holders
            if auction.valuation(who).value(items_of(base, base.holding[who]))
            >= prices[next(iter(base.holding[who]))]
        )
        shifted = Market(
            bundles=base.bundles,
            prices=prices,
            holding={who: base.holding[who] for who in survivors},
        )
        if level.survivors != survivors:
            problems.append(f"{name}: survivors {level.survivors}, expected {survivors}")
        if level.market is not None and level.market != shifted:
            problems.append(f"{name}: level outcome is not the shifted base outcome")
        sw, rev = welfare(auction, shifted), revenue(shifted)
        if (level.sw, level.rev) != (sw, rev):
            problems.append(f"{name}: sw/rev {level.sw}/{level.rev}, expected {sw}/{rev}")
        if rev > sw:
            problems.append(f"{name}: revenue {rev} above welfare {sw}")
        problems += stability_problems(table, shifted, name)
    best = max(level.rev for level in levels)
    if max_revenue != best or levels[t_star].rev != best:
        problems.append(f"{tag}: max revenue {max_revenue} (level {t_star}) "
                        f"is not the best level revenue {best}")
    if k and max_revenue * 8 * ell < sw0:
        problems.append(f"{tag}: revenue {max_revenue} below sw0/(8 ell) = "
                        f"{sw0 / (8 * ell)}")
    return problems


def replay_trace_json(auction, allocation: Mapping[str, ItemSet], trace: Mapping[str, Any]) -> Market:
    """Rebuild the final outcome from a dumped event log.

    The seed market is one bundle per nonempty seed set in agent order,
    priced at half its owner's value; merges append the union under
    the stated id, so final positions follow increasing ids.
    """
    bundles: Dict[int, ItemSet] = {}
    prices: Dict[int, Fraction] = {}
    for name in auction.agent_names:
        items = allocation.get(name)
        if items:
            bid = len(bundles)
            bundles[bid] = items
            prices[bid] = auction.valuation(name).value(items) / 2
    holding: Dict[str, FrozenSet[int]] = {}
    for ev in trace["events"]:
        kind = ev["type"]
        if kind == "merge":
            union: ItemSet = frozenset()
            price = Fraction(0)
            for bid in ev["sources"]:
                union |= bundles.pop(bid)
                price += prices.pop(bid)
            bundles[ev["new_id"]] = union
            prices[ev["new_id"]] = price
        elif kind == "price_raise":
            if prices[ev["bundle"]] != Fraction(ev["old"]) or Fraction(ev["new"]) < Fraction(ev["old"]):
                raise ValueError(f"price raise {ev} does not follow the replayed prices")
            prices[ev["bundle"]] = Fraction(ev["new"])
        elif kind == "assign":
            holding[ev["agent"]] = frozenset(ev["bundles"])
        elif kind in ("unassign", "reject"):
            holding.pop(ev["agent"], None)
    ids = sorted(bundles)
    position = {bid: k for k, bid in enumerate(ids)}
    return Market(
        bundles=tuple(bundles[bid] for bid in ids),
        prices=tuple(prices[bid] for bid in ids),
        holding={
            name: frozenset(position[bid] for bid in held)
            for name, held in holding.items()
            if held
        },
    )


def _levels_from_report(report: Mapping[str, Any]) -> List[Level]:
    return [
        Level(
            t=row["t"],
            sigma=Fraction(row["sigma"]),
            survivors=tuple(row["survivors"]),
            sw=Fraction(row["sw"]),
            rev=Fraction(row["rev"]),
        )
        for row in report["ladder"]
    ]


BASE_FIELDS = ("catalog", "prices", "assignment", "withheld", "sw", "revenue",
               "cwe", "iterations", "demand_queries", "half_welfare_bound")


def check_cli_session(auction, allocation, out: Mapping[str, Any]) -> Problems:
    """One `solve` / `verify` / `revenue` session on one instance file."""
    if out["exit_codes"] != [0, 0, 0]:
        return [f"exit codes {out['exit_codes']}; stderr {out['stderr']!r}"]
    solve = parse_json(out["solve"])
    verdict = parse_json(out["verify"])
    rev = parse_json(out["revenue"])
    trace = parse_json(out["trace"])
    base = market_from_report(solve)
    problems = structure_problems(auction, base, "solve")
    if problems:
        return problems
    sold = items_of(base, range(len(base.bundles)))
    if sorted(auction.item_set - sold) != solve["withheld"]:
        problems.append("solve: withheld list is not the unsold items")
    if set(solve["assignment"]) != set(auction.agent_names):
        problems.append("solve: assignment does not list every agent")
    seed_sw = seed_welfare(auction, allocation)
    table = ValueTable(auction, base.bundles)
    problems += solver_problems(auction, table, base, seed_sw, "solve")
    stable = not table.unstable(base.prices, base.holding)
    if solve["cwe"] is not True:
        problems.append(f"solve: cwe is {solve['cwe']}")
    if verdict.get("cwe") is not stable:
        problems.append(f"verify says cwe={verdict.get('cwe')}, checker says {stable}")
    if Fraction(solve["sw"]) != welfare(auction, base):
        problems.append(f"solve: sw {solve['sw']} is not the held value")
    if Fraction(solve["revenue"]) != revenue(base):
        problems.append(f"solve: revenue {solve['revenue']} is not the price sum")
    if Fraction(solve["half_welfare_bound"]) != seed_sw / 2:
        problems.append(f"solve: half_welfare_bound is not {seed_sw / 2}")
    problems += poly_budget_problems(
        auction, solve["iterations"], solve["demand_queries"], "solve"
    )
    if (trace["iterations"], trace["demand_queries"]) != (
        solve["iterations"], solve["demand_queries"]
    ):
        problems.append("trace counts differ from the solve report")
    try:
        replayed = replay_trace_json(auction, allocation, trace)
    except (KeyError, ValueError) as exc:
        problems.append(f"trace does not replay: {exc}")
    else:
        if replayed != base:
            problems.append("trace replay does not rebuild the reported outcome")
    for key in BASE_FIELDS:
        if rev.get(key) != solve[key]:
            problems.append(f"revenue report field {key!r} differs from solve")
    problems += ladder_problems(
        auction, table, base, _levels_from_report(rev), rev["t_star"],
        Fraction(rev["max_revenue"]), "revenue",
    )
    return problems


def _plain_assignment(assignment) -> Dict[str, FrozenSet[int]]:
    return {name: frozenset(held) for name, held in assignment.items() if held}


def check_explicit_sweep(auction, out: Mapping[str, Any]) -> Problems:
    """Brute-force seed, revenue ladder, simple solver and both replays."""
    problems = optimum_problems(auction, out["opt"], out["allocation"], "brute force")
    seed = {name: items for name, items in out["allocation"].items() if items}
    seed_sw = seed_welfare(auction, seed)
    result = out["revenue"]
    base = market_from_outcome(result.base)
    table = ValueTable(auction, base.bundles)
    problems += solver_problems(auction, table, base, seed_sw, "poly")
    problems += poly_budget_problems(
        auction, result.trace.iterations, result.trace.demand_queries, "poly"
    )
    if result.sw0 != welfare(auction, base) or result.seed_welfare != seed_sw:
        problems.append("poly: sw0 or seed welfare misreported")
    levels = [
        Level(
            t=lv.t, sigma=lv.sigma, survivors=lv.survivors, sw=lv.sw, rev=lv.rev,
            market=market_from_outcome(lv.outcome),
        )
        for lv in result.levels
    ]
    problems += ladder_problems(
        auction, table, base, levels, result.t_star, result.max_revenue, "ladder"
    )
    simple = market_from_outcome(out["simple"])
    problems += solver_problems(
        auction, ValueTable(auction, simple.bundles), simple, seed_sw, "simple"
    )
    for tag, rebuilt, outcome in (
        ("poly replay", out["poly_replay"], result.base),
        ("simple replay", out["simple_replay"], out["simple"]),
    ):
        if rebuilt.prices != outcome.prices or _plain_assignment(
            rebuilt.assignment
        ) != _plain_assignment(outcome.assignment):
            problems.append(f"{tag} does not rebuild the solver outcome")
    return problems


def _witness_problems(auction, outcome, tag: str) -> Tuple[Problems, Market]:
    market = market_from_outcome(outcome)
    problems = structure_problems(auction, market, tag)
    if not problems:
        problems = stability_problems(ValueTable(auction, market.bundles), market, tag)
    return problems, market


def check_support_audit(auction, out: Mapping[str, Any]) -> Problems:
    """Criterion 4: the unbundled optimum is priceable exactly when the
    configuration LP over single items is tight."""
    problems = optimum_problems(auction, out["opt"], out["allocation"], "brute force")
    lp, opt, prices = out["lp_opt"], out["opt"], out["prices"]
    if lp < opt:
        problems.append(f"configuration LP {lp} below the optimum {opt}")
    if (prices is not None) != (lp == opt):
        problems.append(f"supporting prices {'found' if prices is not None else 'absent'} "
                        f"but LP {lp} vs optimum {opt}")
    if prices is not None:
        bundles = tuple(frozenset({it}) for it in auction.items)
        position = {it: j for j, it in enumerate(auction.items)}
        market = Market(
            bundles=bundles,
            prices=tuple(prices[j] for j in range(len(bundles))),
            holding={
                name: frozenset(position[it] for it in items)
                for name, items in out["allocation"].items()
                if items
            },
        )
        problems += structure_problems(auction, market, "supporting prices")
        problems += stability_problems(ValueTable(auction, bundles), market, "supporting prices")
    return problems


def check_search_audit(
    auction,
    out: Mapping[str, Any],
    opt_is: Optional[Fraction] = None,
    max_welfare_is: Optional[Fraction] = None,
    max_revenue_at_most: Optional[Fraction] = None,
) -> Problems:
    """Exhaustive best stable welfare and revenue: witnesses stable and
    worth what is claimed, opt/2 <= welfare <= opt, and the closed
    forms the paper's families are built to show."""
    opt = optimal_welfare(auction)
    problems: Problems = []
    if out["opt"] != opt:
        problems.append(f"optimum {out['opt']} but enumeration gives {opt}")
    best_sw, w_outcome = out["max_cwe_welfare"]
    best_rev, r_outcome = out["max_cwe_revenue"]
    w_problems, w_market = _witness_problems(auction, w_outcome, "welfare witness")
    r_problems, r_market = _witness_problems(auction, r_outcome, "revenue witness")
    problems += w_problems + r_problems
    if welfare(auction, w_market) != best_sw:
        problems.append(f"welfare witness is not worth {best_sw}")
    if revenue(r_market) != best_rev:
        problems.append(f"revenue witness does not raise {best_rev}")
    if not opt / 2 <= best_sw <= opt:
        problems.append(f"max stable welfare {best_sw} outside [opt/2, opt] with opt {opt}")
    if not best_rev <= welfare(auction, r_market) <= best_sw:
        problems.append("revenue witness pays more than its welfare or beats the welfare maximum")
    if opt_is is not None and opt != opt_is:
        problems.append(f"optimum {opt}, the closed form says {opt_is}")
    if max_welfare_is is not None and best_sw != max_welfare_is:
        problems.append(f"max stable welfare {best_sw}, the closed form says {max_welfare_is}")
    if max_revenue_at_most is not None and best_rev > max_revenue_at_most:
        problems.append(f"max stable revenue {best_rev} above {max_revenue_at_most}")
    return problems


def check_singleton_scan(
    auction, witnesses, best_welfare: Optional[Fraction] = None
) -> Problems:
    """Unbundled stability scan: every witness stable at its prices,
    selling nothing among them, best welfare at most the optimum (and
    equal to the family's closed form when one is given)."""
    bundles = tuple(frozenset({it}) for it in auction.items)
    position = {it: j for j, it in enumerate(auction.items)}
    table = ValueTable(auction, bundles)
    problems: Problems = []
    best = Fraction(0)
    sells_nothing = False
    for allocation, prices in witnesses:
        market = Market(
            bundles=bundles,
            prices=tuple(prices[j] for j in range(len(bundles))),
            holding={
                name: frozenset(position[it] for it in items)
                for name, items in allocation.items()
                if items
            },
        )
        problems += structure_problems(auction, market, "scan witness")
        problems += stability_problems(table, market, "scan witness")
        best = max(best, welfare(auction, market))
        sells_nothing = sells_nothing or not market.holding
    if not sells_nothing:
        problems.append("scan misses the sell-nothing outcome")
    opt = optimal_welfare(auction)
    if best > opt:
        problems.append(f"scan welfare {best} above the optimum {opt}")
    if best_welfare is not None and best != best_welfare:
        problems.append(f"best unbundled welfare {best}, the closed form says {best_welfare}")
    return problems
