"""Revenue extraction on top of the query-efficient solver.

A stable outcome can be turned into revenue by a uniform price shift:
add the same surcharge to every bundle price and let each assigned
agent keep its bundle only if the new price still leaves nonnegative
utility.  Stability survives the shift because a single held bundle
loses exactly the surcharge while every competing set of one or more
bundles loses at least that much.

`maximize_revenue` walks one ladder of surcharges.  Level 0 is the
solver's outcome itself; level t >= 1 shifts it by 2**(t-1) * sw0 / (2k),
where sw0 is its welfare and k counts its assigned agents.  Keeping the
best level guarantees revenue within a logarithmic factor of sw0, hence
of the optimum.  `RevenueResult` reads sw0, k and the number of doubling
steps off its levels.  The scan runs in ints (README, "Solvers").
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import SolverInvariantError
from .market import Auction, InitialAllocation, Outcome, allocation_welfare
# Unused here: bench/tracing.py wraps this name in the revenue module,
# and its install fails if it is missing.
from .market import find_violation  # noqa: F401
from .poly import run_poly
from .scalars import lattice_int
from .trace import Trace


@dataclass(frozen=True)
class LadderLevel:
    t: int
    sigma: Fraction
    outcome: Outcome
    survivors: Tuple[str, ...]
    sw: Fraction
    rev: Fraction


@dataclass(frozen=True)
class RevenueResult:
    # levels[0].outcome; a field, so that dataclasses.replace can swap it
    base: Outcome
    trace: Trace
    levels: Tuple[LadderLevel, ...]
    t_star: int
    seed_welfare: Fraction

    @property
    def sw0(self) -> Fraction:
        return self.levels[0].sw

    @property
    def k(self) -> int:
        return len(self.levels[0].survivors)

    @property
    def ell(self) -> int:
        return max(len(self.levels) - 2, 0)

    @property
    def chosen(self) -> LadderLevel:
        return self.levels[self.t_star]

    @property
    def max_revenue(self) -> Fraction:
        return self.chosen.rev


def maximize_revenue(auction: Auction, allocation: InitialAllocation) -> RevenueResult:
    """Solve, then scan the surcharge ladder and pick the best level.

    The ladder has levels 0..ell+1, with ell = (2k - 1).bit_length()
    doubling steps, or level 0 alone when k = 0.  The best level's
    revenue is checked against sw0 / (8 * ell) and against the seed
    allocation's welfare over 16 * ell.  The base prices and the values
    are ints over the auction's lattice scale D, so on 2k * D the first
    surcharge sw0 / (2k), which level t shifts left by t - 1, is an int
    too; each level's Fractions are built once.
    """
    # run_poly validates the seed, so bad seeds get the solver's message
    base, trace = run_poly(auction, allocation)
    seed_welfare = allocation_welfare(auction, allocation)
    held = {}  # holder -> (its one bundle, its value for it), in agent order
    for name in auction.agent_names:
        if base.assignment.get(name):
            (bid,) = base.assignment[name]
            held[name] = (bid, auction.valuation(name).value(base.catalog.items_of(bid)))
    k = len(held)
    sw0 = sum((v for _, v in held.values()), Fraction(0))
    if k and sw0 <= 0:
        raise SolverInvariantError("assigned agents with nonpositive welfare")
    scale = 2 * max(k, 1) * auction.lattice_scale
    prices = {bid: lattice_int(p, scale) for bid, p in base.prices.items()}
    owned = {n: (prices[bid], lattice_int(v, scale)) for n, (bid, v) in held.items()}
    total = lattice_int(sw0, scale)
    first = total // (2 * k) if k else 0
    levels, revs, survivors = [], [], tuple(owned)
    for t in range((2 * k - 1).bit_length() + 2 if k else 1):
        sigma = first << (t - 1) if t else 0
        # level 0 passed the solver's stability check, so it keeps every holder
        kept = tuple(n for n, (p, v) in owned.items() if v >= p + sigma)
        if not set(kept) <= set(survivors):
            raise SolverInvariantError("survivor set grew as the surcharge rose")
        survivors = kept
        revs.append(sum(owned[n][0] + sigma for n in survivors))
        outcome = base if not t else Outcome(
            catalog=base.catalog,
            prices={bid: Fraction(p + sigma, scale) for bid, p in prices.items()},
            assignment={n: b for n, b in base.assignment.items() if n in survivors},
        )
        sw = Fraction(sum(owned[n][1] for n in survivors), scale)
        levels.append(LadderLevel(
            t, Fraction(sigma, scale), outcome, survivors, sw, Fraction(revs[-1], scale)
        ))
    # with k = 0 the one level has no survivors and sw0 = 0, and the solver
    # keeps the seed welfare at most 2 * sw0, so every check below passes
    if any(owned[n][0] + sigma < total for n in survivors):
        raise SolverInvariantError(
            "top surcharge left a survivor paying less than the base welfare"
        )
    t_star = max(range(len(revs)), key=revs.__getitem__)
    result = RevenueResult(base, trace, tuple(levels), t_star, seed_welfare)
    if revs[t_star] * 8 * result.ell < total:
        raise SolverInvariantError("revenue fell below the welfare ratio bound")
    if result.max_revenue * 16 * result.ell < seed_welfare:
        raise SolverInvariantError("revenue fell below the seed welfare bound")
    return result
