"""Shared fixtures and independent checkers for the test suite.

Everything here recomputes results from raw valuations and explicit
enumeration, deliberately avoiding the library's demand and pricing
helpers, so that agreement between the two is evidence rather than
tautology.
"""
import copy
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from cwemarket import (
    Auction,
    Catalog,
    ExplicitValuation,
    InputError,
    Outcome,
    PolySolver,
    SolverInvariantError,
    brute_force_optimal,
    generate,
    revenue_of,
    social_welfare,
)
from cwemarket.lp import INFEASIBLE, OPTIMAL, LpSolution
from cwemarket.market import demand, induced_value, initial_market, utility
from cwemarket.partitions import set_partitions
from cwemarket.scalars import lattice_int, parse_scalar
from cwemarket.trace import (
    Assign, FallbackRecord, IterationEnd, Merge, PoolAdd, PoolRemove, PriceRaise, Reject,
    Trace, Unassign,
)
from cwemarket.valuations import Valuation, ValuationDefect, subset_unions, subsets_of

BundleSet = FrozenSet[int]


def seed_instance(seed: int):
    """Deterministic small random instance plus a welfare-optimal seed.

    Sizes cycle through m in 2..5 and n in 2..5 as the seed grows, so a
    contiguous seed range covers the whole grid.
    """
    m = 2 + seed % 4
    n = 2 + (seed // 4) % 4
    auction, _ = generate("random_explicit", m=m, n=n, seed=seed)
    _, alloc = brute_force_optimal(auction)
    seed_alloc = {a: s for a, s in alloc.items() if s}
    return auction, seed_alloc


def seed_welfare(auction: Auction, allocation) -> Fraction:
    return sum(
        (auction.valuation(a).value(s) for a, s in allocation.items()),
        Fraction(0),
    )


def rational_gcd(a: Fraction, b: Fraction) -> Fraction:
    # gcd(p1/q1, p2/q2) = gcd(p1, p2) / lcm(q1, q2) for reduced fractions
    return Fraction(gcd(a.numerator, b.numerator), lcm(a.denominator, b.denominator))


def common_granularity(values: Iterable[Fraction]) -> Optional[Fraction]:
    """Greatest rational g such that every nonzero input is an integer
    multiple of g, by pairwise rational gcds: the reference for
    `Auction.granularity`.  None when there is no nonzero input.
    """
    g: Optional[Fraction] = None
    for v in values:
        if v == 0:
            continue
        v = abs(v)
        g = v if g is None else rational_gcd(g, v)
    return g


def raw_utility(
    auction: Auction,
    agent: str,
    bundle_set,
    catalog: Catalog,
    prices,
) -> Fraction:
    """Utility computed straight from the valuation and a price sum."""
    items = frozenset()
    total = Fraction(0)
    for bid, bundle_items in catalog.entries:
        if bid in bundle_set:
            items |= bundle_items
            total += prices[bid]
    return auction.valuation(agent).value(items) - total


def best_avoiding(
    auction: Auction,
    agent: str,
    catalog: Catalog,
    prices,
    banned,
) -> Tuple[Fraction, List[BundleSet]]:
    """Exhaustive demand: max utility and all argmax bundle sets over
    bundles outside `banned`.  The empty set always competes, so the
    max is at least zero.
    """
    ids = [bid for bid, _ in catalog.entries if bid not in banned]
    best = Fraction(0)
    table: List[Tuple[BundleSet, Fraction]] = [(frozenset(), Fraction(0))]
    for r in range(1, len(ids) + 1):
        for combo in combinations(ids, r):
            s = frozenset(combo)
            u = raw_utility(auction, agent, s, catalog, prices)
            table.append((s, u))
            if u > best:
                best = u
    members = [s for s, u in table if u == best]
    members.sort(key=lambda s: (len(s), sorted(s)))
    return best, members


def pick_preferred(candidates, agent: str, assignment) -> BundleSet:
    """The deterministic choice among tied demand sets: fewest bundles
    held by other agents, then fewest bundles, then smallest ids.
    """

    def key(s):
        overlap = sum(
            len(s & held)
            for name, held in assignment.items()
            if name != agent
        )
        return (overlap, len(s), sorted(s))

    return min(candidates, key=key)


@dataclass(frozen=True)
class RaiseReport:
    """One price push of the poly solver, as `recorded_pushes` sees it."""

    catalog: Catalog
    prices_before: Dict[int, Fraction]
    prices_after: Dict[int, Fraction]
    assignment: Dict[str, BundleSet]
    fallbacks: Dict[str, BundleSet]
    removal_order: Tuple[str, ...]


@contextmanager
def recorded_pushes():
    """Collect a `RaiseReport` for every price push with held bundles.

    Wraps `PolySolver.raise_prices` for the duration of the block and
    rebuilds each report from the solver's prices, removal ranks and
    recorded switch-to sets.  The solver's prices are ints on its
    lattice; the report divides them by its scale.
    """
    reports: List[RaiseReport] = []
    push = PolySolver.raise_prices

    def prices(solver) -> Dict[int, Fraction]:
        return {bid: Fraction(p, solver.scale) for bid, p in solver.prices.items()}

    def recording_push(solver):
        before = prices(solver)
        push(solver)
        if solver.rank:
            order = tuple(sorted(solver.rank, key=solver.rank.__getitem__))
            reports.append(
                RaiseReport(
                    catalog=solver.catalog,
                    prices_before=before,
                    prices_after=prices(solver),
                    assignment=dict(solver.assignment),
                    fallbacks={a: solver.fallback[a] for a in order},
                    removal_order=order,
                )
            )

    PolySolver.raise_prices = recording_push
    try:
        yield reports
    finally:
        PolySolver.raise_prices = push


def cold_raise_prices(solver) -> None:
    """`PolySolver.raise_prices` asking every active holder again over
    the whole available catalog at every step: the reference for the
    warm-started push, which must match it event for event and query
    for query.  Swap it in with
    `patch.object(PolySolver, "raise_prices", cold_raise_prices)`.
    """
    members = [n for n in solver.auction.agent_names if solver.assignment.get(n)]
    if not members:
        solver.rank = {}
        return
    for i in members:
        held = len(solver.assignment[i])
        if held != 1:
            raise SolverInvariantError(
                f"{i!r} holds {held} bundles in a price push, not one"
            )
    own_value = {
        i: induced_value(solver.market.valuation(i), solver.catalog, solver.assignment[i])
        for i in members
    }
    active: List[str] = list(members)
    solver.rank = {}
    step = 0
    while active:
        margins: Dict[str, int] = {}
        switches: Dict[str, BundleSet] = {}
        excluded = frozenset().union(*(solver.assignment[j] for j in active))
        for i in active:
            (bid,) = solver.assignment[i]
            best, switches[i] = solver._demand(i, excluded=excluded)
            margin = own_value[i] - solver.prices[bid] - best
            if margin < 0:
                raise SolverInvariantError(
                    f"held bundle of {i!r} is no longer demanded "
                    f"before its price push"
                )
            margins[i] = margin
        a = min(active, key=lambda i: (margins[i], solver.auction.agent_index(i)))
        delta = margins[a]
        if delta > 0:
            for i in active:
                (bid,) = solver.assignment[i]
                old = solver.prices[bid]
                solver.prices[bid] = old + delta
                solver.trace.add(PriceRaise(bid, old, old + delta))
        step += 1
        solver.fallback[a] = switches[a]
        solver.rank[a] = step
        solver.trace.add(FallbackRecord(agent=a, bundles=switches[a]))
        active.remove(a)


def stepwise_contest(solver, bundles: BundleSet, a: str, owner: str) -> None:
    """`SimpleSolver._contest` asking each side again at every price
    level whether `bundles` is demanded, its utility the max: the
    reference for the top-price contest, which must match it event for
    event and query for query.  Each `demand` call here is one counted
    demand query.  Its steps are recorded as one `PriceRaise`, from the
    starting price to the last level kept.  Swap it in with
    `patch.object(SimpleSolver, "_contest", stepwise_contest)`.
    """

    def wants(agent: str) -> bool:
        solver.trace.demand_queries += 1
        market, catalog, prices = solver.market, solver.catalog, solver.prices
        best, _ = demand(market, agent, catalog, prices)
        return utility(market, agent, bundles, catalog, prices) == best

    (bid,) = bundles
    start = solver.prices[bid]
    a_wants, b_wants = True, wants(owner)
    while a_wants and b_wants:
        old = solver.prices[bid]
        solver.prices[bid] = old + solver.epsilon
        a_wants = wants(a)
        b_wants = wants(owner)
        if not (a_wants or b_wants):
            solver.prices[bid] = old
            break
        solver.blocked.clear()
    if solver.prices[bid] > start:
        solver.trace.add(PriceRaise(bid, start, solver.prices[bid]))
    if not (a_wants or b_wants):
        solver._repool(owner)
        solver.blocked.setdefault(owner, set()).add(bundles)
    else:
        solver._repool(owner if a_wants else a)


def sweep_raise_oracle(auction: Auction, report: RaiseReport):
    """Continuous-time reconstruction of one price push.

    All bundles held by still-active agents rise at unit rate, so each
    holder's margin over its best fixed-price option falls at unit rate
    and hits zero at a breakpoint equal to the margin itself.  The
    earliest breakpoint (ties to the lowest agent index) freezes that
    holder: its bundle stops rising, it records its switch-to set, and
    the sweep continues with one fewer riser.  Returns the final
    prices, the recorded switch-to sets, and the freeze order.
    """
    catalog = report.catalog
    prices = dict(report.prices_before)
    assignment = {a: frozenset(s) for a, s in report.assignment.items()}
    active = [a for a in auction.agent_names if a in assignment]
    order: List[str] = []
    fallbacks: Dict[str, BundleSet] = {}
    while active:
        banned = frozenset().union(*(assignment[a] for a in active))
        margins: Dict[str, Fraction] = {}
        choices: Dict[str, BundleSet] = {}
        for a in active:
            own = assignment[a]
            u_own = raw_utility(auction, a, own, catalog, prices)
            best, members = best_avoiding(auction, a, catalog, prices, banned)
            assert u_own >= best, (a, u_own, best)
            margins[a] = u_own - best
            choices[a] = pick_preferred(members, a, assignment)
        leaver = min(
            active, key=lambda a: (margins[a], auction.agent_index(a))
        )
        dt = margins[leaver]
        if dt > 0:
            for a in active:
                (bid,) = tuple(assignment[a])
                prices[bid] = prices[bid] + dt
        fallbacks[leaver] = choices[leaver]
        order.append(leaver)
        active.remove(leaver)
    return prices, fallbacks, tuple(order)


def check_push_matches_oracle(auction: Auction, report: RaiseReport) -> None:
    prices, fallbacks, order = sweep_raise_oracle(auction, report)
    assert prices == report.prices_after, (prices, report.prices_after)
    assert fallbacks == report.fallbacks, (fallbacks, report.fallbacks)
    assert order == report.removal_order, (order, report.removal_order)


def check_push_maximality(auction: Auction, report: RaiseReport) -> None:
    """After a push, every holder's utility equals the best it could do
    with any bundle set avoiding its own bundle (or zero).
    """
    for agent, own in report.assignment.items():
        u_own = raw_utility(auction, agent, own, report.catalog, report.prices_after)
        best, _ = best_avoiding(
            auction, agent, report.catalog, report.prices_after, frozenset(own)
        )
        assert u_own == best, (agent, u_own, best)


def reference_shift(auction: Auction, outcome: Outcome, sigma: Fraction) -> Outcome:
    """Every price raised by sigma in Fractions; each holder of one bundle
    keeps it while its value still covers the new price."""
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


def reference_ladder(auction: Auction, base: Outcome) -> list:
    """The surcharge ladder over a solved base, level by level in
    Fractions: (t, sigma, outcome, survivors, sw, rev), with each level
    shifted from the base by `reference_shift` and read back with
    `social_welfare` and `revenue_of`."""

    def survivors(outcome):
        return tuple(n for n in auction.agent_names if outcome.assignment.get(n))

    k = len(survivors(base))
    sw0 = social_welfare(auction, base)
    levels = []
    for t in range((2 * k - 1).bit_length() + 2 if k else 1):
        sigma = Fraction(2) ** (t - 1) * sw0 / (2 * k) if t else Fraction(0)
        outcome = reference_shift(auction, base, sigma) if t else base
        levels.append((
            t, sigma, outcome, survivors(outcome),
            social_welfare(auction, outcome), revenue_of(auction, outcome),
        ))
    return levels


def brute_stability_violation(auction: Auction, outcome) -> Optional[str]:
    """Exhaustive stability check from raw valuations: every agent's
    held set must attain its exhaustive maximum utility over bundle
    sets not held by others, with the empty set always available.
    Returns a description of a violation, or None.
    """
    held_by = {}
    for agent, bundles in outcome.assignment.items():
        for bid in bundles:
            held_by[bid] = agent
    for agent in auction.agent_names:
        own = frozenset(outcome.assignment.get(agent, frozenset()))
        banned = frozenset(
            bid for bid, holder in held_by.items() if holder != agent
        )
        u_own = raw_utility(auction, agent, own, outcome.catalog, outcome.prices)
        best, _ = best_avoiding(
            auction, agent, outcome.catalog, outcome.prices, banned
        )
        if u_own < best:
            return f"{agent} gets {u_own} but could get {best}"
    return None


def unit_demand_violation(auction: Auction, outcome) -> Optional[str]:
    """Stability of an all-unit-demand market in closed form.

    A unit-demand agent values a set of bundles at the largest weight
    among their items and pays for every bundle, so nothing beats the
    better of walking away and one bundle alone: each agent's held
    utility must reach max(0, its best single-bundle margin) over the
    whole catalog.  Returns a description of a violation, or None.
    """
    bundles = dict(outcome.catalog.entries)

    def worth(weights, items) -> Fraction:
        return max((weights.get(i, Fraction(0)) for i in items), default=Fraction(0))

    for agent in auction.agent_names:
        weights = auction.valuation(agent).weights
        held = outcome.assignment.get(agent, frozenset())
        held_items = frozenset().union(*(bundles[bid] for bid in held))
        u_held = worth(weights, held_items) - sum(
            (outcome.prices[bid] for bid in held), Fraction(0)
        )
        best = max(
            [Fraction(0)]
            + [worth(weights, b) - outcome.prices[bid] for bid, b in bundles.items()]
        )
        if u_held < best:
            return f"{agent} gets {u_held} but one bundle gives {best}"
    return None


# The reference's third answer: `solve_lp` raises SolverInvariantError
# where the reference finds an improving ray.
UNBOUNDED = "unbounded"


class _Dictionary:
    """Slack-form dictionary.

    Row i reads  x_basis[i] = const[i] + sum_j coef[i][j] * x_nonbasis[j]
    and the objective reads  z = z0 + sum_j zcoef[j] * x_nonbasis[j].
    """

    def __init__(self, basis, nonbasis, const, coef, z0, zcoef):
        self.basis: List[int] = basis
        self.nonbasis: List[int] = nonbasis
        self.const: List[Fraction] = const
        self.coef: List[List[Fraction]] = coef
        self.z0: Fraction = z0
        self.zcoef: List[Fraction] = zcoef

    def pivot(self, row: int, col: int) -> None:
        piv = self.coef[row][col]
        if piv == 0:
            raise SolverInvariantError("pivot on a zero coefficient")
        enter = self.nonbasis[col]
        leave = self.basis[row]
        # solve row for the entering variable
        inv = Fraction(-1) / piv
        new_row = [c * inv for c in self.coef[row]]
        new_row[col] = Fraction(1) / piv
        new_const = self.const[row] * inv
        # substitute into the other rows
        for i in range(len(self.basis)):
            if i == row:
                continue
            factor = self.coef[i][col]
            if factor == 0:
                continue
            self.const[i] += factor * new_const
            old = self.coef[i]
            for j in range(len(old)):
                if j == col:
                    old[j] = factor * new_row[j]
                else:
                    old[j] += factor * new_row[j]
        zfac = self.zcoef[col]
        if zfac != 0:
            self.z0 += zfac * new_const
            for j in range(len(self.zcoef)):
                if j == col:
                    self.zcoef[j] = zfac * new_row[j]
                else:
                    self.zcoef[j] += zfac * new_row[j]
        self.const[row] = new_const
        self.coef[row] = new_row
        self.basis[row] = enter
        self.nonbasis[col] = leave

    def bland_step(self) -> Optional[str]:
        """One simplex step.  Returns None if pivoted, OPTIMAL or
        UNBOUNDED when finished."""
        col = None
        best_var = None
        for j, var in enumerate(self.nonbasis):
            if self.zcoef[j] > 0 and (best_var is None or var < best_var):
                best_var = var
                col = j
        if col is None:
            return OPTIMAL
        row = None
        best_ratio: Optional[Fraction] = None
        leave_var = None
        for i in range(len(self.basis)):
            a = self.coef[i][col]
            if a >= 0:
                continue
            ratio = -self.const[i] / a
            if (
                best_ratio is None
                or ratio < best_ratio
                or (ratio == best_ratio and self.basis[i] < leave_var)
            ):
                best_ratio = ratio
                row = i
                leave_var = self.basis[i]
        if row is None:
            return UNBOUNDED
        self.pivot(row, col)
        return None

    def run(self) -> str:
        while True:
            res = self.bland_step()
            if res is not None:
                return res


def reference_solve_lp(c, A, b) -> LpSolution:
    """Maximize c.x subject to A x <= b, x >= 0 by the dictionary
    simplex in Fraction arithmetic that `solve_lp` must match pivot
    for pivot: same Bland rule, same phase one, same answers."""
    n = len(c)
    m = len(A)
    if len(b) != m:
        raise InputError("rhs length does not match row count")
    for row in A:
        if len(row) != n:
            raise InputError("matrix row length does not match objective length")
    c = [Fraction(v) for v in c]
    b = [Fraction(v) for v in b]
    A = [[Fraction(v) for v in row] for row in A]

    # slack variable ids n .. n+m-1, auxiliary id n+m
    basis = list(range(n, n + m))
    nonbasis = list(range(n))
    const = list(b)
    coef = [[-A[i][j] for j in range(n)] for i in range(m)]

    need_phase1 = any(v < 0 for v in b)
    if need_phase1:
        aux = n + m
        for i in range(m):
            coef[i].append(Fraction(1))
        nonbasis.append(aux)
        d = _Dictionary(
            basis, nonbasis, const, coef,
            Fraction(0), [Fraction(0)] * n + [Fraction(-1)],
        )
        # special first pivot: bring the auxiliary in on the worst row
        worst = min(range(m), key=lambda i: (const[i], basis[i]))
        d.pivot(worst, n)
        status = d.run()
        if status != OPTIMAL:  # phase-1 objective is bounded above by 0
            raise SolverInvariantError(f"phase one ended {status}")
        if d.z0 != 0:
            return LpSolution(status=INFEASIBLE, x=None, value=None)
        if aux in d.basis:
            row = d.basis.index(aux)
            # degenerate: value must be 0; pivot it out on any usable column
            if d.const[row] != 0:
                raise SolverInvariantError(
                    "auxiliary variable left basic at a nonzero value"
                )
            col = None
            for j, var in enumerate(d.nonbasis):
                if d.coef[row][j] != 0:
                    col = j
                    break
            if col is None:
                raise SolverInvariantError(
                    "no column to pivot the auxiliary variable out on"
                )
            d.pivot(row, col)
        keep = [j for j, var in enumerate(d.nonbasis) if var != aux]
        d.nonbasis = [d.nonbasis[j] for j in keep]
        d.coef = [[r[j] for j in keep] for r in d.coef]
        # restore the real objective through the current basis
        z0 = Fraction(0)
        zcoef = [Fraction(0)] * len(d.nonbasis)
        for var in range(n):
            cv = c[var]
            if cv == 0:
                continue
            if var in d.basis:
                i = d.basis.index(var)
                z0 += cv * d.const[i]
                for j in range(len(d.nonbasis)):
                    zcoef[j] += cv * d.coef[i][j]
            else:
                j = d.nonbasis.index(var)
                zcoef[j] += cv
        d.z0 = z0
        d.zcoef = zcoef
    else:
        d = _Dictionary(basis, nonbasis, const, coef, Fraction(0), list(c))

    status = d.run()
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED, x=None, value=None)
    x = [Fraction(0)] * n
    for i, var in enumerate(d.basis):
        if var < n:
            x[var] = d.const[i]
    return LpSolution(status=OPTIMAL, x=x, value=d.z0)


def reference_from_entries(items, entries) -> Dict[FrozenSet[str], Fraction]:
    """The table `ExplicitValuation.from_entries` builds, by its first
    algorithm: each unlisted subset scans every listed one for the best
    value at or below it (0 when none is above 0), in O(2^m x listed)."""
    listed = {frozenset(s): Fraction(v) for s, v in entries.items()}
    table: Dict[FrozenSet[str], Fraction] = {}
    for s in subsets_of(frozenset(items)):
        if s in listed:
            table[s] = listed[s]
            continue
        best = Fraction(0)
        for t, v in listed.items():
            if t <= s and v > best:
                best = v
        table[s] = best
    return table


class ReferenceExplicitValuation(Valuation):
    """`ExplicitValuation` as a dict keyed by one frozenset per subset, as
    it was before its values became one list indexed by item mask: every
    read hashes a subset, and `bundle_values` is the base class's, which
    builds each union as a frozenset."""

    kind = "explicit"

    def __init__(self, items, table):
        self.items = frozenset(items)
        self.table: Dict[FrozenSet[str], Fraction] = {}
        for s, v in table.items():
            key = frozenset(s)
            if not key <= self.items:
                raise InputError(f"table key {sorted(key)!r} outside item universe")
            self.table[key] = parse_scalar(v)
        missing = [s for s in subsets_of(self.items) if s not in self.table]
        if missing:
            raise InputError(
                f"explicit table missing {len(missing)} subsets, "
                f"first {sorted(missing[0])!r}"
            )

    @classmethod
    def from_entries(cls, items, entries) -> "ReferenceExplicitValuation":
        # the listed entries go in again so that a stray key is refused
        return cls(items, {**reference_from_entries(items, entries), **entries})

    def _value(self, s):
        return self.table[s]

    def parameter_values(self):
        return iter(self.table.values())

    def scaled(self, scale: int) -> "ReferenceExplicitValuation":
        out = copy.copy(self)
        out.table = {s: lattice_int(v, scale) for s, v in self.table.items()}
        out.zero = 0
        return out

    def validate(self) -> Optional[ValuationDefect]:
        if self.table[frozenset()] != 0:
            return ValuationDefect(
                kind="normalization",
                detail=f"value of the empty set is {self.table[frozenset()]}, not 0",
            )
        for s in subsets_of(self.items):
            for extra in sorted(self.items - s):
                t = s | {extra}
                if self.table[t] < self.table[s]:
                    return ValuationDefect(
                        kind="monotonicity",
                        detail=f"value drops from {sorted(s)!r} to {sorted(t)!r}",
                    )
        return None


def table_of(valuation: ExplicitValuation) -> Dict[FrozenSet[str], Fraction]:
    """An explicit valuation's values by subset, in `subsets_of` order,
    built from `rows()`."""
    return {frozenset(items): value for items, value in valuation.rows()}


def count_table_reads(monkeypatch) -> List[int]:
    """Patch `ExplicitValuation` to append the number of table entries
    each read returns: the length of every `bundle_values` table and 1
    per `_value` call.  Their sum is the number of entries read."""
    reads: List[int] = []
    tabulate, value = ExplicitValuation.bundle_values, ExplicitValuation._value

    def counted_tabulate(valuation, bundles):
        table = tabulate(valuation, bundles)
        reads.append(len(table))
        return table

    def counted_value(valuation, s):
        reads.append(1)
        return value(valuation, s)

    monkeypatch.setattr(ExplicitValuation, "bundle_values", counted_tabulate)
    monkeypatch.setattr(ExplicitValuation, "_value", counted_value)
    return reads


# -- references for the exhaustive oracles ------------------------------
#
# The `verifier` oracles as they were before they read each valuation
# once into an integer table: one `value` call per agent and subset on
# every LP, `Fraction` right-hand sides and welfare sums, and candidates
# from every set partition with deduplication.  Each function returns
# what its `verifier` namesake returns, in the same order.


def reference_best_partition(auction: Auction, units) -> Tuple[Fraction, Dict[str, int]]:
    k = len(units)
    n = len(auction.agents)
    full = (1 << k) - 1
    unions = subset_unions(units)
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


def reference_brute_force_optimal(auction: Auction):
    items = auction.items
    welfare, masks = reference_best_partition(auction, [frozenset({it}) for it in items])
    allocation = {
        name: frozenset(items[j] for j in range(len(items)) if mask >> j & 1)
        for name, mask in masks.items()
    }
    leftover = auction.item_set.difference(*allocation.values())
    if leftover and auction.agents:
        first = auction.agents[0].name
        allocation[first] = allocation.get(first, frozenset()) | leftover
    return welfare, allocation


def reference_stability_rows(auction: Auction, catalog: Catalog, assignment):
    ids = [bid for bid, _ in catalog.entries]
    pos = {bid: j for j, bid in enumerate(ids)}
    k = len(ids)
    unions = subset_unions([items for _, items in catalog.entries])
    rows: List[List[int]] = []
    rhs: List[Fraction] = []
    for agent in auction.agents:
        val = agent.valuation
        own_mask = 0
        for bid in assignment.get(agent.name, frozenset()):
            own_mask |= 1 << pos[bid]
        v_own = val.value(unions[own_mask])
        for mask in range(1 << k):
            if mask == own_mask:
                continue
            rows.append([(own_mask >> j & 1) - (mask >> j & 1) for j in range(k)])
            rhs.append(v_own - val.value(unions[mask]))
    return rows, rhs


def reference_supporting_prices(auction: Auction, catalog: Catalog, assignment):
    rows, rhs = reference_stability_rows(auction, catalog, assignment)
    sol = reference_solve_lp([0] * len(catalog.entries), rows, rhs)
    if sol.status == INFEASIBLE:
        return None
    return {bid: sol.x[j] for j, (bid, _) in enumerate(catalog.entries)}


def reference_revenue_maximizing_prices(auction: Auction, catalog: Catalog, assignment):
    rows, rhs = reference_stability_rows(auction, catalog, assignment)
    assigned = frozenset().union(*assignment.values())
    c = [1 if bid in assigned else 0 for bid, _ in catalog.entries]
    sol = reference_solve_lp(c, rows, rhs)
    if sol.status == INFEASIBLE:
        return None
    return sol.value, {bid: sol.x[j] for j, (bid, _) in enumerate(catalog.entries)}


def reference_config_lp_rows(auction: Auction, catalog: Catalog):
    """(c, A, b) of the configuration LP with every (agent, nonempty
    bundle set) column, c in `Fraction`."""
    k = len(catalog.entries)
    n = len(auction.agents)
    unions = subset_unions([items for _, items in catalog.entries])
    cols = [(i, mask) for i in range(n) for mask in range(1, 1 << k)]
    c = [auction.agents[i].valuation.value(unions[mask]) for i, mask in cols]
    rows = [[1 if ci == i else 0 for ci, _ in cols] for i in range(n)]
    rows += [[mask >> j & 1 for _, mask in cols] for j in range(k)]
    return c, rows, [1] * (n + k)


def reference_config_lp(auction: Auction, catalog: Catalog) -> Fraction:
    return reference_solve_lp(*reference_config_lp_rows(auction, catalog)).value


def reference_stable_singleton_outcomes(auction: Auction) -> list:
    cat = Catalog(entries=tuple((k, frozenset({it})) for k, it in enumerate(auction.items)))
    names = auction.agent_names
    out = []
    for combo in product(range(len(names) + 1), repeat=len(auction.items)):
        assignment: Dict[str, BundleSet] = {}
        for j, who in enumerate(combo):
            if who:
                name = names[who - 1]
                assignment[name] = assignment.get(name, frozenset()) | {j}
        prices = reference_supporting_prices(auction, cat, assignment)
        if prices is not None:
            allocation = {
                name: frozenset(auction.items[j] for j in bundles)
                for name, bundles in assignment.items()
            }
            out.append((allocation, prices))
    return out


def reference_bundled_candidates(auction: Auction) -> list:
    """(welfare, ((agent, sorted items), ...)) for every way to sell a
    bundling of some items, from every set partition and every award of
    its blocks to distinct agents, deduplicated and sorted."""
    names = auction.agent_names
    seen: set = set()
    out = []
    for blocks in set_partitions(list(auction.items)):
        for owners in product(range(len(names) + 1), repeat=len(blocks)):
            chosen = [w for w in owners if w]
            if len(chosen) != len(set(chosen)):
                continue
            pairs = tuple(sorted(
                (names[w - 1], tuple(sorted(blocks[j])))
                for j, w in enumerate(owners)
                if w
            ))
            if pairs in seen:
                continue
            seen.add(pairs)
            sw = sum(
                (auction.valuation(name).value(frozenset(bundle)) for name, bundle in pairs),
                Fraction(0),
            )
            out.append((sw, pairs))
    out.sort(key=lambda cand: (-cand[0], cand[1]))
    return out


def _reference_candidate_market(auction: Auction, pairs):
    entries = tuple((j, frozenset(bundle)) for j, (_, bundle) in enumerate(pairs))
    assignment = {name: frozenset({j}) for j, (name, _) in enumerate(pairs)}
    return Catalog.selling(auction.item_set, entries), assignment


def reference_max_cwe_welfare(auction: Auction):
    for sw, pairs in reference_bundled_candidates(auction):
        catalog, assignment = _reference_candidate_market(auction, pairs)
        prices = reference_supporting_prices(auction, catalog, assignment)
        if prices is not None:
            return sw, Outcome(catalog=catalog, prices=prices, assignment=assignment)
    raise SolverInvariantError("no stable candidate")


def reference_max_cwe_revenue(auction: Auction):
    best_rev = Fraction(0)
    best = None
    for sw, pairs in reference_bundled_candidates(auction):
        if sw <= best_rev and best is not None:
            break
        catalog, assignment = _reference_candidate_market(auction, pairs)
        got = reference_revenue_maximizing_prices(auction, catalog, assignment)
        if got is None:
            continue
        rev, prices = got
        if best is None or rev > best_rev:
            best_rev = rev
            best = Outcome(catalog=catalog, prices=prices, assignment=assignment)
    return best_rev, best


def reference_replay(auction: Auction, allocation, trace: Trace) -> Outcome:
    """`trace.replay` with every price a `Fraction`: the start prices of
    `initial_market`, each `PriceRaise` read as its ints over
    `trace.scale`, and the merges' sums.  The reference for the integer
    replay, which must rebuild the same outcome and refuse the same
    traces with the same error type."""
    poly = FallbackRecord in map(type, trace.events)
    n, names = len(auction.agents), frozenset(auction.agent_names)

    catalog, start_prices = initial_market(auction, allocation)
    table: Dict[int, FrozenSet[str]] = dict(catalog.entries)
    prices: Dict[int, Fraction] = dict(start_prices)
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
        price = Fraction(0)
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
        old, new = Fraction(ev.old, trace.scale), Fraction(ev.new, trace.scale)
        if prices[ev.bundle] != old:
            raise SolverInvariantError(f"price raise old value mismatch on bundle {ev.bundle}")
        if new < old:
            raise SolverInvariantError("price decreased")
        prices[ev.bundle] = new

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
        prices=dict(prices),
        assignment=dict(assignment),
    )
