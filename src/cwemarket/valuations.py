"""Valuation classes over indivisible items.

Every valuation is monotone with value(empty) == 0, defined over an
explicit finite item universe.  Supported classes:

  explicit       full table over all subsets of the universe, one list of
                 values indexed by item mask (bit j: the j-th sorted item)
  additive       per-item weights, value = sum (XOS with one clause)
  unit_demand    per-item weights, value = max
  single_minded  a desired set and a weight
  xos            max over additive clauses

`validate()` checks the class constraints and returns the first defect
found (None when the valuation is well formed).  `bundle_values()`
tabulates the value of every union of a few disjoint bundles, one read
per union (on an explicit table, one list entry per union mask).
`demand_candidates()` answers a demand query over priced disjoint
bundles from per-bundle margins, folding in a batch of bundles at a
time (`demand_fold`); explicit tables have no such rule.  `scaled(D)` is
the copy with int parameters that the solvers' lattice uses (README,
"Solvers"), so its values are ints where all others are `Fraction`s.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from typing import (
    Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence,
    Tuple,
)

from .errors import InputError
from .scalars import lattice_int, parse_scalar

Item = str
ItemSet = FrozenSet[str]
# (id, items) of one priced bundle, and the answer to a demand query over
# such offers: the maximum utility and sets of offer ids (see
# Valuation.demand_candidates)
Offer = Tuple[Hashable, ItemSet]
DemandAnswer = Tuple[Fraction, List[FrozenSet[Hashable]]]

EXPLICIT_ITEM_CAP = 12


def _itemset(items: Iterable[Item]) -> ItemSet:
    s = frozenset(items)
    if not all(isinstance(i, str) for i in s):
        raise InputError("item identifiers must be strings")
    return s


def members(labels: Sequence, mask: int) -> List:
    """The labels whose bit is set in `mask`: bit j stands for labels[j]."""
    return [label for j, label in enumerate(labels) if mask >> j & 1]


def subsets_of(items: ItemSet) -> Iterator[ItemSet]:
    """All subsets, by increasing size then sorted-lexicographic order."""
    unions = subset_unions([frozenset({i}) for i in sorted(items)])
    return (unions[mask] for mask in _mask_order(len(items)))


def subset_unions(bundles: Sequence[ItemSet]) -> List[ItemSet]:
    """Union of `bundles[i]` over the set bits i of every mask below 2^k.

    The table doubles once per bundle: entry mask + 2^i is entry mask
    joined with bundles[i].
    """
    unions: List[ItemSet] = [frozenset()]
    for b in bundles:
        unions += [u | b for u in unions]
    return unions


def subset_sums(weights: Sequence[int]) -> List[int]:
    """Sum of `weights[i]` over the set bits i of every mask, built the
    same way as `subset_unions`."""
    table = [0]
    for w in weights:
        table += [t + w for t in table]
    return table


@dataclass(frozen=True)
class ValuationDefect:
    """First constraint violation found by validate()."""

    kind: str  # "normalization" | "monotonicity" | "negative_weight" | "empty_desired"
    detail: str


class Valuation:
    """Abstract base.  Subclasses set `items` and implement `_value`."""

    items: ItemSet
    kind: str = "abstract"
    # the `DemandFold` subclass of the class's demand rule, if it has one
    _fold: Optional[type] = None
    # the int 0 on a `scaled` copy, so its results stay ints
    zero: Fraction = Fraction(0)

    def value(self, bundle: Iterable[Item]) -> Fraction:
        s = frozenset(bundle)
        if not s <= self.items:
            self._check_bundles((s,))  # raises
        return self._value(s)

    def _value(self, s: ItemSet) -> Fraction:
        raise NotImplementedError

    def _check_bundles(self, sets: Sequence[ItemSet]) -> None:
        """Refuse items outside the universe first, then overlapping sets."""
        union = frozenset().union(*sets)
        unknown = union - self.items
        if unknown:
            raise InputError(
                f"unknown item identifiers {sorted(unknown)!r} for this valuation"
            )
        if sum(map(len, sets)) != len(union):
            raise InputError("bundles overlap")

    def bundle_values(self, bundles: Sequence[Iterable[Item]]) -> List[Fraction]:
        """Value of every union of the given disjoint bundles.

        Entry `mask` is the value of the union of the bundles whose bit
        is set in `mask` (bit i stands for bundles[i]), so the table has
        2^k entries: ints on a `scaled` copy, `Fraction`s otherwise.
        """
        sets = [frozenset(b) for b in bundles]
        self._check_bundles(sets)
        return [self._value(u) for u in subset_unions(sets)]

    def demand_candidates(
        self, offers: Sequence[Offer], prices: Mapping[Hashable, Fraction]
    ) -> Optional[DemandAnswer]:
        """Demand over the unions of disjoint priced bundles, from margins.

        `offers` are (id, items) pairs and `prices[id]` is the price of
        each, an int or a `Fraction`.  A set of offers has utility equal
        to the value of its pooled items minus its summed prices; the
        empty set (utility 0) always competes.  Returns (max utility,
        candidates), where every candidate is a set of ids with the max
        utility and every set with the max utility contains a candidate.
        So an order that ranks each set before its strict supersets
        (such as `market.tie_break_key`) ranks first, among all
        maximizers, a candidate.  With a max of 0 the only candidate is
        the empty set.

        This runs the class's `demand_fold` over the offers; a class with
        none returns None, and the caller enumerates `bundle_values`.
        """
        fold = self.demand_fold()
        if fold is None:
            return None
        fold.extend(offers, prices)
        return fold.answer()

    def demand_fold(self, key=None) -> Optional["DemandFold"]:
        """A demand query that takes offers in batches; None if it has none."""
        return None if self._fold is None else self._fold(self, key)

    def parameter_values(self) -> Iterator[Fraction]:
        """All scalar parameters, for granularity computation."""
        raise NotImplementedError

    def scaled(self, scale: int) -> "Valuation":
        """A copy with each parameter p the int p * scale; `scale` must be
        a multiple of every p's denominator."""
        raise NotImplementedError

    def validate(self) -> Optional[ValuationDefect]:
        raise NotImplementedError


def _weight_sum(weights: Mapping[Item, Fraction], s: Iterable[Item]) -> Fraction:
    """Sum of the weights of the items of `s`; unweighted items add 0."""
    return sum(weights[i] for i in s if i in weights)


def _check_weights(weights: Mapping[Item, Fraction]) -> Optional[ValuationDefect]:
    for item in sorted(weights):
        if weights[item] < 0:
            return ValuationDefect(
                kind="negative_weight",
                detail=f"weight of item {item!r} is {weights[item]}",
            )
    return None


class DemandFold:
    """`demand_candidates` fed offers in batches (`extend`, through a
    subclass's `_extend`) and read at any point (`answer`).  Given a `key` that
    ranks sets before their strict supersets, it keeps the maximizer ranked first."""

    def __init__(self, valuation: Valuation, key=None):
        self.valuation, self.key = valuation, key

    def extend(self, offers: Sequence[Offer], prices: Mapping) -> None:
        """Add `offers`, disjoint (id, items) pairs priced by `prices`."""
        self.valuation._check_bundles([items for _, items in offers])
        self._extend(offers, prices)


class _BestBundle(DemandFold):
    """Unit demand: a set is worth its best bundle but pays for all of
    them, so that bundle alone does at least as well as the set."""

    def __init__(self, valuation: Valuation, key=None):
        super().__init__(valuation, key)
        self.best, self.sets = valuation.zero, [frozenset()]
        self.rank = None  # key of the kept tie, once a later tie asks for it

    def _extend(self, offers, prices):
        value, key = self.valuation._value, self.key
        for bid, items in offers:
            score = value(items) - prices[bid]
            if score > self.best:
                self.best, self.sets, self.rank = score, [frozenset({bid})], None
            elif score == self.best and score > 0:
                ids = frozenset({bid})
                if key is None:
                    self.sets.append(ids)
                    continue
                if self.rank is None:
                    self.rank = key(self.sets[0])
                rank = key(ids)
                if rank < self.rank:
                    self.sets, self.rank = [ids], rank

    def answer(self) -> DemandAnswer:
        return self.best, self.sets


class _Cover(DemandFold):
    """Single-minded: disjoint bundles cover the desired set exactly when
    every bundle meeting it is taken and together they hold all of it;
    any other bundle only adds to the price."""

    def __init__(self, valuation: Valuation, key=None):
        super().__init__(valuation, key)
        self.need, self.covered, self.cost = [], 0, 0

    def _extend(self, offers, prices):
        desired = self.valuation.desired
        for bid, items in offers:
            met = len(items & desired)
            if met:
                self.need.append(bid)
                self.covered += met
                self.cost += prices[bid]

    def answer(self) -> DemandAnswer:
        v = self.valuation
        if self.covered == len(v.desired) and v.weight > self.cost:
            return v.weight - self.cost, [frozenset(self.need)]
        return v.zero, [frozenset()]


class _PositiveParts(DemandFold):
    """The max of additive clauses.  Under one clause margins add up, so
    its best set takes every positive margin (a maximizer may add zero
    ones).  A maximizer of the max reaches it under some clause and so
    holds all of that clause's positive-margin offers."""

    def __init__(self, valuation: Valuation, key=None):
        super().__init__(valuation, key)
        self.parts = [[valuation.zero, []] for _ in valuation.clauses]

    def _extend(self, offers, prices):
        for clause, part in zip(self.valuation.clauses, self.parts):
            for bid, items in offers:
                margin = _weight_sum(clause, items) - prices[bid]
                if margin > 0:
                    part[0] += margin
                    part[1].append(bid)

    def answer(self) -> DemandAnswer:
        zero = self.valuation.zero
        best = max([zero] + [total for total, _ in self.parts])
        if best == 0:
            return zero, [frozenset()]
        tied = [frozenset(taken) for total, taken in self.parts if total == best]
        return best, tied if self.key is None else [min(tied, key=self.key)]


class ExplicitValuation(Valuation):
    """Valuation given by a full subset table, held as one list of values
    indexed by item mask: bit j stands for the j-th item of sorted(items)."""

    kind = "explicit"

    def __init__(self, items: Iterable[Item], table: Mapping[ItemSet, Fraction]):
        values = self._listed(items, table)
        missing = [mask for mask in _mask_order(len(self._bit)) if values[mask] is None]
        if missing:
            raise InputError(
                f"explicit table missing {len(missing)} subsets, "
                f"first {members(sorted(self.items), missing[0])!r}"
            )
        self._values: List[Fraction] = values

    def _listed(
        self, items: Iterable[Item], table: Mapping[ItemSet, Fraction]
    ) -> List[Optional[Fraction]]:
        """Set the universe and return the stated values by mask, None
        where a subset is not listed."""
        self.items = self._universe(items)
        self._bit = _item_bits(tuple(sorted(self.items)))
        values: List[Optional[Fraction]] = [None] * (1 << len(self.items))
        for s, v in table.items():
            key = frozenset(s)
            if not key <= self.items:
                raise InputError(f"table key {sorted(key)!r} outside item universe")
            mask = self._mask(key)
            if values[mask] is not None:
                raise InputError(f"duplicate explicit entry for {sorted(key)!r}")
            values[mask] = parse_scalar(v)
        return values

    @staticmethod
    def _universe(items: Iterable[Item]) -> ItemSet:
        """The table's items, refused beyond EXPLICIT_ITEM_CAP before
        any of their 2^m subsets is listed."""
        universe = _itemset(items)
        if len(universe) > EXPLICIT_ITEM_CAP:
            raise InputError(
                f"explicit valuation over {len(universe)} items exceeds the "
                f"cap of {EXPLICIT_ITEM_CAP}"
            )
        return universe

    @classmethod
    def from_entries(
        cls,
        items: Iterable[Item],
        entries: Mapping[ItemSet, Fraction],
    ) -> "ExplicitValuation":
        """Build a full table from a partial one.

        Listed subsets keep their stated value.  Every unlisted subset S
        gets the minimal monotone completion max{v(T) : listed T <= S}
        (0 when no listed subset fits).  A listed pair that violates
        monotonicity is preserved as stated and will fail validate(); a
        listed subset outside the universe, or listed twice, raises
        InputError.
        """
        valuation = cls.__new__(cls)
        values = valuation._listed(items, entries)
        if None in values:
            # below[S]: the max of 0 and the listed values at or below S,
            # from the one-item-smaller subsets, which have smaller masks
            below: List[Fraction] = []
            for mask, stated in enumerate(values):
                carried = max(
                    [below[mask ^ bit] for bit in valuation._bit.values() if mask & bit],
                    default=Fraction(0),
                )
                values[mask] = carried if stated is None else stated
                below.append(max(carried, values[mask]))
        valuation._values = values
        return valuation

    def _mask(self, s: Iterable[Item]) -> int:
        bit, mask = self._bit, 0
        for i in s:
            mask |= bit[i]
        return mask

    def rows(self) -> Iterator[Tuple[List[Item], Fraction]]:
        """(sorted items, value) of every subset, in `subsets_of` order."""
        order = sorted(self.items)
        for mask in _mask_order(len(order)):
            yield members(order, mask), self._values[mask]

    def _value(self, s: ItemSet) -> Fraction:
        return self._values[self._mask(s)]

    def bundle_values(self, bundles: Sequence[Iterable[Item]]) -> List[Fraction]:
        """As `Valuation.bundle_values`: one list read per union mask."""
        masks, union = [], 0
        try:
            for b in bundles:
                mask = self._mask(b)
                if mask & union:
                    break
                masks.append(mask)
                union |= mask
        except KeyError:
            pass
        if len(masks) < len(bundles):
            self._check_bundles([frozenset(b) for b in bundles])  # raises
        values = self._values
        return [values[u] for u in subset_sums(masks)]

    def parameter_values(self) -> Iterator[Fraction]:
        return iter(self._values)

    def scaled(self, scale: int) -> Valuation:
        try:
            ints = [lattice_int(v, scale) for v in self._values]
        except InputError:
            for _, v in self.rows():  # refuse the first entry in `subsets_of` order
                lattice_int(v, scale)
            raise
        return _replaced(self, _values=ints)

    def validate(self) -> Optional[ValuationDefect]:
        values = self._values
        if values[0] != 0:
            return ValuationDefect(
                kind="normalization",
                detail=f"value of the empty set is {values[0]}, not 0",
            )
        # single-item extension steps imply full monotonicity, compared as
        # ints over one denominator; the first drop is named in `subsets_of` order
        den = lcm(*[v.denominator for v in values])
        ints = [lattice_int(v, den) for v in values]
        bits, order = self._bit.values(), sorted(self.items)
        for mask in _mask_order(len(bits)):
            for bit in bits:
                if not mask & bit and ints[mask | bit] < ints[mask]:
                    return ValuationDefect(
                        kind="monotonicity",
                        detail=f"value drops from {members(order, mask)!r} "
                        f"to {members(order, mask | bit)!r}",
                    )
        return None


@lru_cache(maxsize=64)
def _item_bits(order: Tuple[Item, ...]) -> Dict[Item, int]:
    """Bit j for the j-th item of a sorted universe, shared by every table
    over it."""
    return {item: 1 << j for j, item in enumerate(order)}


@lru_cache(maxsize=None)
def _mask_order(m: int) -> Tuple[int, ...]:
    """The 2^m item masks in `subsets_of` order."""
    return tuple(
        sum(1 << j for j in combo) for k in range(m + 1) for combo in combinations(range(m), k)
    )


def _scaled_map(weights: Mapping[Hashable, Fraction], scale: int) -> Dict[Hashable, int]:
    return {key: lattice_int(w, scale) for key, w in weights.items()}


def _replaced(valuation: Valuation, **fields) -> Valuation:
    """A shallow copy of `valuation` with `fields` set, on the lattice."""
    out = copy.copy(valuation)
    out.__dict__.update(fields, zero=0)
    return out


class UnitDemandValuation(Valuation):
    kind = "unit_demand"
    _fold = _BestBundle

    def __init__(self, items: Iterable[Item], weights: Mapping[Item, Fraction]):
        self.items = _itemset(items)
        self.weights = {i: parse_scalar(w) for i, w in weights.items()}
        if not frozenset(self.weights) <= self.items:
            raise InputError("weight map mentions items outside the universe")

    def _value(self, s: ItemSet) -> Fraction:
        best = self.zero
        for i in s:
            if i in self.weights and self.weights[i] > best:
                best = self.weights[i]
        return best

    def parameter_values(self) -> Iterator[Fraction]:
        return iter(self.weights.values())

    def scaled(self, scale: int) -> Valuation:
        return _replaced(self, weights=_scaled_map(self.weights, scale))

    def validate(self) -> Optional[ValuationDefect]:
        return _check_weights(self.weights)


class SingleMindedValuation(Valuation):
    kind = "single_minded"
    _fold = _Cover

    def __init__(self, items: Iterable[Item], desired: Iterable[Item], weight: Fraction):
        self.items = _itemset(items)
        self.desired = _itemset(desired)
        self.weight = parse_scalar(weight)
        if not self.desired <= self.items:
            raise InputError("desired set outside the item universe")

    def _value(self, s: ItemSet) -> Fraction:
        return self.weight if self.desired <= s else self.zero

    def parameter_values(self) -> Iterator[Fraction]:
        yield self.weight

    def scaled(self, scale: int) -> Valuation:
        return _replaced(self, weight=lattice_int(self.weight, scale))

    def validate(self) -> Optional[ValuationDefect]:
        if self.weight < 0:
            return ValuationDefect(
                kind="negative_weight", detail=f"weight is {self.weight}"
            )
        if not self.desired and self.weight != 0:
            # v(empty) would equal weight, breaking normalization
            return ValuationDefect(
                kind="empty_desired",
                detail="empty desired set with nonzero weight",
            )
        return None


class XosValuation(Valuation):
    """Max over additive clauses; value(S) = max_c sum_{i in S} c[i]."""

    kind = "xos"
    _fold = _PositiveParts

    def __init__(
        self,
        items: Iterable[Item],
        clauses: Iterable[Mapping[Item, Fraction]],
    ):
        self.items = _itemset(items)
        self.clauses: Tuple[Dict[Item, Fraction], ...] = tuple(
            {i: parse_scalar(w) for i, w in clause.items()} for clause in clauses
        )
        for clause in self.clauses:
            if not frozenset(clause) <= self.items:
                raise InputError("clause mentions items outside the universe")

    def _value(self, s: ItemSet) -> Fraction:
        best = self.zero
        for clause in self.clauses:
            total = _weight_sum(clause, s)
            if total > best:
                best = total
        return best

    def parameter_values(self) -> Iterator[Fraction]:
        for clause in self.clauses:
            yield from clause.values()

    def scaled(self, scale: int) -> Valuation:
        return _replaced(self, clauses=tuple(_scaled_map(c, scale) for c in self.clauses))

    def validate(self) -> Optional[ValuationDefect]:
        for clause in self.clauses:
            defect = _check_weights(clause)
            if defect is not None:
                return defect
        return None


class AdditiveValuation(XosValuation):
    """Per-item weights, value = sum: the XOS valuation with one clause."""

    kind = "additive"

    def __init__(self, items: Iterable[Item], weights: Mapping[Item, Fraction]):
        super().__init__(items, [weights])

    @property
    def weights(self) -> Dict[Item, Fraction]:
        return self.clauses[0]
