from fractions import Fraction
from functools import partial
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwemarket import (
    AdditiveValuation,
    ExplicitValuation,
    InputError,
    SingleMindedValuation,
    UnitDemandValuation,
    XosValuation,
)
from cwemarket import valuations
from cwemarket.market import tie_break_key
from cwemarket.valuations import EXPLICIT_ITEM_CAP, subsets_of

from .helpers import reference_from_entries

F = Fraction


def test_subsets_size_then_lex_order():
    got = [tuple(sorted(s)) for s in subsets_of(frozenset({"b", "a", "c"}))]
    assert got == [
        (),
        ("a",), ("b",), ("c",),
        ("a", "b"), ("a", "c"), ("b", "c"),
        ("a", "b", "c"),
    ]


def test_explicit_requires_full_table():
    with pytest.raises(InputError, match="missing"):
        ExplicitValuation(["x", "y"], {frozenset(): F(0), frozenset({"x"}): F(1)})
    with pytest.raises(InputError, match="outside"):
        ExplicitValuation(["x"], {frozenset(): F(0), frozenset({"z"}): F(1), frozenset({"x"}): F(1)})


def test_explicit_from_entries_monotone_completion():
    v = ExplicitValuation.from_entries(
        ["1", "2", "3"],
        {frozenset({"1"}): F(1), frozenset({"2", "3"}): F(21, 10)},
    )
    assert v.value([]) == 0
    assert v.value(["2"]) == 0  # no listed subset fits
    assert v.value(["1", "2"]) == 1  # best listed subset is {1}
    assert v.value(["1", "2", "3"]) == F(21, 10)
    assert v.validate() is None


def test_from_entries_refuses_a_listed_subset_outside_the_universe():
    """As the constructor does, with some subsets listed or all of them."""
    stray = {frozenset({"1"}): F(1), frozenset({"1", "zz"}): F(7)}
    with pytest.raises(InputError, match="outside item universe"):
        ExplicitValuation.from_entries(["1", "2"], stray)
    full = {s: F(len(s)) for s in subsets_of(frozenset({"1", "2"}))}
    with pytest.raises(InputError, match="outside item universe"):
        ExplicitValuation.from_entries(["1", "2"], {**full, **stray})


def test_explicit_listed_values_are_authoritative():
    # a listed non-monotone pair survives construction and fails validate
    v = ExplicitValuation.from_entries(
        ["1", "2"],
        {frozenset({"1"}): F(2), frozenset({"1", "2"}): F(1)},
    )
    assert v.value(["1"]) == 2
    assert v.value(["1", "2"]) == 1
    defect = v.validate()
    assert defect is not None and defect.kind == "monotonicity"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_from_entries_matches_the_scan_of_every_listed_subset(data):
    """The size-order completion gives the reference's table bit for bit:
    the same keys in the same order, the same Fractions.  Listed values
    may break monotonicity, be negative, or sit on the empty set."""
    items = [f"i{k}" for k in range(data.draw(st.integers(0, 6)))]
    keys = st.frozensets(st.sampled_from(items)) if items else st.just(frozenset())
    values = st.builds(F, st.integers(-2, 12), st.sampled_from((1, 2, 3, 4)))
    entries = data.draw(st.dictionaries(keys, values, max_size=40))
    got = ExplicitValuation.from_entries(items, entries).table
    want = reference_from_entries(items, entries)
    assert list(got.items()) == list(want.items())
    assert all(type(v) is F for v in got.values())


def test_explicit_normalization_defect():
    v = ExplicitValuation.from_entries(["1"], {frozenset(): F(1)})
    defect = v.validate()
    assert defect is not None and defect.kind == "normalization"


def test_explicit_item_cap():
    items = [str(i) for i in range(EXPLICIT_ITEM_CAP + 1)]
    with pytest.raises(InputError, match="cap"):
        ExplicitValuation.from_entries(items, {})


def test_explicit_item_cap_is_checked_before_the_table_is_filled(monkeypatch):
    """A table over too many items is refused before any of its 2^m
    subsets is listed, so 40 items fail at once."""

    def no_subsets(items):
        raise AssertionError(f"listed the subsets of {len(items)} items")

    monkeypatch.setattr(valuations, "subsets_of", no_subsets)
    items = [f"i{k}" for k in range(40)]
    with pytest.raises(InputError, match=f"40 items exceeds the cap of {EXPLICIT_ITEM_CAP}"):
        ExplicitValuation.from_entries(items, {frozenset({"i0"}): F(1)})


def test_additive():
    v = AdditiveValuation(["x", "y", "z"], {"x": F(1), "y": F(2)})
    assert v.value(["x", "y", "z"]) == 3
    assert v.value(["z"]) == 0
    assert v.validate() is None
    bad = AdditiveValuation(["x"], {"x": F(-1)})
    assert bad.validate().kind == "negative_weight"
    with pytest.raises(InputError):
        AdditiveValuation(["x"], {"w": F(1)})
    with pytest.raises(InputError):
        v.value(["nope"])


def test_unit_demand():
    v = UnitDemandValuation(["x", "y"], {"x": F(3), "y": F(5)})
    assert v.value(["x"]) == 3
    assert v.value(["x", "y"]) == 5
    assert v.value([]) == 0
    assert v.validate() is None


def test_single_minded():
    v = SingleMindedValuation(["x", "y", "z"], ["x", "y"], F(7))
    assert v.value(["x"]) == 0
    assert v.value(["x", "y"]) == 7
    assert v.value(["x", "y", "z"]) == 7
    assert v.validate() is None
    assert SingleMindedValuation(["x"], [], F(1)).validate().kind == "empty_desired"
    assert SingleMindedValuation(["x"], [], F(0)).validate() is None
    with pytest.raises(InputError):
        SingleMindedValuation(["x"], ["y"], F(1))


def test_xos():
    v = XosValuation(
        ["1", "2"],
        [{"1": F(1, 2), "2": F(1, 2)}, {"1": F(3, 4)}],
    )
    assert v.value(["1"]) == F(3, 4)
    assert v.value(["2"]) == F(1, 2)
    assert v.value(["1", "2"]) == 1
    assert v.value([]) == 0
    assert v.validate() is None
    bad = XosValuation(["1"], [{"1": F(-2)}])
    assert bad.validate().kind == "negative_weight"


def test_parameter_values_feed_granularity():
    v = UnitDemandValuation(["x", "y"], {"x": F(1, 2), "y": F(1, 3)})
    assert set(v.parameter_values()) == {F(1, 2), F(1, 3)}
    x = XosValuation(["1"], [{"1": F(1, 4)}, {"1": F(1, 8)}])
    assert sorted(x.parameter_values()) == [F(1, 8), F(1, 4)]


def test_bundle_values_table_is_indexed_by_mask():
    v = XosValuation(["1", "2", "3"], [{"1": F(1, 2), "2": F(1, 3)}, {"3": F(1)}])
    values = v.bundle_values([["1"], ["2", "3"]])
    assert values == [0, F(1, 2), 1, 1]  # {}, {1}, {2,3}, {1,2,3}
    assert [type(x) for x in values] == [F] * 4
    assert v.bundle_values([]) == [0]


def test_bundle_values_rejects_overlap_and_unknown_items():
    v = AdditiveValuation(["1", "2"], {"1": F(1)})
    with pytest.raises(InputError, match="overlap"):
        v.bundle_values([["1"], ["1", "2"]])
    with pytest.raises(InputError, match="unknown item"):
        v.bundle_values([["1"], ["9"]])


def test_unit_demand_fold_keeps_the_smallest_key_tie_in_any_order():
    """The unit-demand fold caches the key of the tie it keeps.  Fed the
    offers one at a time in every order, it keeps the smallest-key
    bundle among those of the best margin: two tied at 2, four at 3,
    whose keys run 3 < 4 < 5 < 2 (bundle 2 is held by another agent)."""
    items = frozenset("abcdef")
    valuation = UnitDemandValuation(items, dict(zip("abcdef", map(F, (2, 2, 3, 3, 3, 3)))))
    key = partial(tie_break_key, held_elsewhere={2: 1})
    offers = [(bid, frozenset(item)) for bid, item in enumerate("abcdef")]
    prices = dict.fromkeys(range(6), F(0))
    for order in permutations(offers):
        fold = valuation.demand_fold(key)
        for offer in order:
            fold.extend([offer], prices)
        assert fold.answer() == (F(3), [frozenset({3})])
