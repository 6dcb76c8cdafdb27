"""Valuation classes over indivisible items.

Every valuation is monotone with value(empty) == 0, defined over an
explicit finite item universe.  Supported classes:

  explicit       full table over all subsets of the universe
  additive       per-item weights, value = sum
  unit_demand    per-item weights, value = max
  single_minded  a desired set and a weight
  xos            max over additive clauses

`validate()` checks the class constraints and returns the first defect
found (None when the valuation is well formed).  `bundle_values()`
tabulates the value of every union of a few disjoint bundles as exact
integers over one common denominator; the structured classes build that
table with integer recurrences instead of one `value()` call per union.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from .errors import InputError

Item = str
ItemSet = FrozenSet[str]

EXPLICIT_ITEM_CAP = 12


def _itemset(items: Iterable[Item]) -> ItemSet:
    s = frozenset(items)
    if not all(isinstance(i, str) for i in s):
        raise InputError("item identifiers must be strings")
    return s


def subsets_of(items: ItemSet) -> Iterator[ItemSet]:
    """All subsets, by increasing size then sorted-lexicographic order."""
    order = sorted(items)
    for k in range(len(order) + 1):
        for combo in combinations(order, k):
            yield frozenset(combo)


def over_common_denominator(values: Sequence[Fraction]) -> Tuple[List[int], int]:
    """Integer numerators of `values` over their least common denominator."""
    # unpack a list, not a generator: a generator's argument tuple is
    # built by resizing, and the odd-sized tuples it leaves on the
    # interpreter's free lists raised peak memory measurably
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


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


def subset_maxima(weights: Sequence[int]) -> List[int]:
    """Max of 0 and `weights[i]` over the set bits i of every mask."""
    table = [0]
    for w in weights:
        table += [t if t > w else w for t in table]
    return table


@dataclass(frozen=True)
class ValuationDefect:
    """First constraint violation found by validate()."""

    kind: str  # "normalization" | "monotonicity" | "negative_weight" | "empty_desired"
    detail: str
    small: Optional[ItemSet] = None
    large: Optional[ItemSet] = None
    value_small: Optional[Fraction] = None
    value_large: Optional[Fraction] = None


class Valuation:
    """Abstract base.  Subclasses set `items` and implement `_value`."""

    items: ItemSet
    kind: str = "abstract"

    def value(self, bundle: Iterable[Item]) -> Fraction:
        s = frozenset(bundle)
        unknown = s - self.items
        if unknown:
            raise InputError(
                f"unknown item identifiers {sorted(unknown)!r} for this valuation"
            )
        return self._value(s)

    def _value(self, s: ItemSet) -> Fraction:
        raise NotImplementedError

    def bundle_values(self, bundles: Sequence[Iterable[Item]]) -> Tuple[List[int], int]:
        """Value of every union of the given disjoint bundles.

        Returns (ints, den): entry `mask` of `ints` over `den` is the
        value of the union of the bundles whose bit is set in `mask`
        (bit i stands for bundles[i]), so the table has 2^k entries.
        """
        sets = [frozenset(b) for b in bundles]
        union = frozenset().union(*sets)
        unknown = union - self.items
        if unknown:
            raise InputError(
                f"unknown item identifiers {sorted(unknown)!r} for this valuation"
            )
        if sum(map(len, sets)) != len(union):
            raise InputError("bundles overlap")
        return self._bundle_values(sets)

    def _bundle_values(self, bundles: List[ItemSet]) -> Tuple[List[int], int]:
        return over_common_denominator([self.value(u) for u in subset_unions(bundles)])

    def parameter_values(self) -> Iterator[Fraction]:
        """All scalar parameters, for granularity computation."""
        raise NotImplementedError

    def validate(self) -> Optional[ValuationDefect]:
        raise NotImplementedError


def _weight_sum(weights: Mapping[Item, Fraction], s: Iterable[Item]) -> Fraction:
    """Sum of the weights of the items of `s`; unweighted items add 0."""
    return sum((weights[i] for i in s if i in weights), Fraction(0))


def _check_weights(weights: Mapping[Item, Fraction]) -> Optional[ValuationDefect]:
    for item in sorted(weights):
        if weights[item] < 0:
            return ValuationDefect(
                kind="negative_weight",
                detail=f"weight of item {item!r} is {weights[item]}",
            )
    return None


class ExplicitValuation(Valuation):
    """Valuation given by a full subset table."""

    kind = "explicit"

    def __init__(self, items: Iterable[Item], table: Mapping[ItemSet, Fraction]):
        self.items = _itemset(items)
        if len(self.items) > EXPLICIT_ITEM_CAP:
            raise InputError(
                f"explicit valuation over {len(self.items)} items exceeds the "
                f"cap of {EXPLICIT_ITEM_CAP}"
            )
        tab: Dict[ItemSet, Fraction] = {}
        for s, v in table.items():
            key = frozenset(s)
            if not key <= self.items:
                raise InputError(f"table key {sorted(key)!r} outside item universe")
            tab[key] = Fraction(v)
        missing = [s for s in subsets_of(self.items) if s not in tab]
        if missing:
            raise InputError(
                f"explicit table missing {len(missing)} subsets, "
                f"first {sorted(missing[0])!r}"
            )
        self.table: Dict[ItemSet, Fraction] = tab

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
        monotonicity is preserved as stated and will fail validate().
        """
        universe = _itemset(items)
        listed = {frozenset(s): Fraction(v) for s, v in entries.items()}
        table: Dict[ItemSet, Fraction] = {}
        for s in subsets_of(universe):
            if s in listed:
                table[s] = listed[s]
                continue
            best = Fraction(0)
            for t, v in listed.items():
                if t <= s and v > best:
                    best = v
            table[s] = best
        return cls(universe, table)

    def _value(self, s: ItemSet) -> Fraction:
        return self.table[s]

    def parameter_values(self) -> Iterator[Fraction]:
        return iter(self.table.values())

    def validate(self) -> Optional[ValuationDefect]:
        empty = frozenset()
        if self.table[empty] != 0:
            return ValuationDefect(
                kind="normalization",
                detail=f"value of the empty set is {self.table[empty]}, not 0",
                small=empty,
                value_small=self.table[empty],
            )
        # single-item extension steps imply full monotonicity
        for s in subsets_of(self.items):
            for extra in sorted(self.items - s):
                t = s | {extra}
                if self.table[t] < self.table[s]:
                    return ValuationDefect(
                        kind="monotonicity",
                        detail=f"value drops from {sorted(s)!r} to {sorted(t)!r}",
                        small=s,
                        large=t,
                        value_small=self.table[s],
                        value_large=self.table[t],
                    )
        return None


class AdditiveValuation(Valuation):
    kind = "additive"

    def __init__(self, items: Iterable[Item], weights: Mapping[Item, Fraction]):
        self.items = _itemset(items)
        self.weights = {i: Fraction(w) for i, w in weights.items()}
        if not frozenset(self.weights) <= self.items:
            raise InputError("weight map mentions items outside the universe")

    def _value(self, s: ItemSet) -> Fraction:
        return _weight_sum(self.weights, s)

    def _bundle_values(self, bundles: List[ItemSet]) -> Tuple[List[int], int]:
        ints, den = over_common_denominator([self._value(b) for b in bundles])
        return subset_sums(ints), den

    def parameter_values(self) -> Iterator[Fraction]:
        return iter(self.weights.values())

    def validate(self) -> Optional[ValuationDefect]:
        return _check_weights(self.weights)


class UnitDemandValuation(Valuation):
    kind = "unit_demand"

    def __init__(self, items: Iterable[Item], weights: Mapping[Item, Fraction]):
        self.items = _itemset(items)
        self.weights = {i: Fraction(w) for i, w in weights.items()}
        if not frozenset(self.weights) <= self.items:
            raise InputError("weight map mentions items outside the universe")

    def _value(self, s: ItemSet) -> Fraction:
        best = Fraction(0)
        for i in s:
            if i in self.weights and self.weights[i] > best:
                best = self.weights[i]
        return best

    def _bundle_values(self, bundles: List[ItemSet]) -> Tuple[List[int], int]:
        ints, den = over_common_denominator([self._value(b) for b in bundles])
        return subset_maxima(ints), den

    def parameter_values(self) -> Iterator[Fraction]:
        return iter(self.weights.values())

    def validate(self) -> Optional[ValuationDefect]:
        return _check_weights(self.weights)


class SingleMindedValuation(Valuation):
    kind = "single_minded"

    def __init__(self, items: Iterable[Item], desired: Iterable[Item], weight: Fraction):
        self.items = _itemset(items)
        self.desired = _itemset(desired)
        self.weight = Fraction(weight)
        if not self.desired <= self.items:
            raise InputError("desired set outside the item universe")

    def _value(self, s: ItemSet) -> Fraction:
        return self.weight if self.desired <= s else Fraction(0)

    def _bundle_values(self, bundles: List[ItemSet]) -> Tuple[List[int], int]:
        # disjoint bundles cover the desired set exactly when every bundle
        # meeting it is taken and together those bundles hold all of it
        need = 0
        reached: ItemSet = frozenset()
        for i, b in enumerate(bundles):
            if b & self.desired:
                need |= 1 << i
                reached |= b
        n_masks = 1 << len(bundles)
        if not self.desired <= reached:
            return [0] * n_masks, 1
        w = self.weight.numerator
        table = [w if mask & need == need else 0 for mask in range(n_masks)]
        return table, self.weight.denominator

    def parameter_values(self) -> Iterator[Fraction]:
        yield self.weight

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

    def __init__(
        self,
        items: Iterable[Item],
        clauses: Iterable[Mapping[Item, Fraction]],
    ):
        self.items = _itemset(items)
        self.clauses: Tuple[Dict[Item, Fraction], ...] = tuple(
            {i: Fraction(w) for i, w in clause.items()} for clause in clauses
        )
        for clause in self.clauses:
            if not frozenset(clause) <= self.items:
                raise InputError("clause mentions items outside the universe")

    def _value(self, s: ItemSet) -> Fraction:
        best = Fraction(0)
        for clause in self.clauses:
            total = _weight_sum(clause, s)
            if total > best:
                best = total
        return best

    def _bundle_values(self, bundles: List[ItemSet]) -> Tuple[List[int], int]:
        k = len(bundles)
        per_clause = [_weight_sum(clause, b) for clause in self.clauses for b in bundles]
        ints, den = over_common_denominator(per_clause)
        best = [0] * (1 << k)
        for c in range(len(self.clauses)):
            sums = subset_sums(ints[c * k:(c + 1) * k])
            best = [t if t > u else u for t, u in zip(best, sums)]
        return best, den

    def parameter_values(self) -> Iterator[Fraction]:
        for clause in self.clauses:
            yield from clause.values()

    def validate(self) -> Optional[ValuationDefect]:
        for clause in self.clauses:
            defect = _check_weights(clause)
            if defect is not None:
                return defect
        return None
