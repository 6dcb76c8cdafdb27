from fractions import Fraction

import pytest

from cwemarket import (
    AdditiveValuation,
    ExplicitValuation,
    InputError,
    SingleMindedValuation,
    UnitDemandValuation,
    XosValuation,
)
from cwemarket import valuations
from cwemarket.valuations import EXPLICIT_ITEM_CAP, subsets_of

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
    ints, den = v.bundle_values([["1"], ["2", "3"]])
    assert den == 2  # the least common denominator of the values
    assert ints == [0, 1, 2, 2]  # {}, {1}, {2,3}, {1,2,3}: 0, 1/2, 1, 1
    assert v.bundle_values([]) == ([0], 1)


def test_bundle_values_rejects_overlap_and_unknown_items():
    v = AdditiveValuation(["1", "2"], {"1": F(1)})
    with pytest.raises(InputError, match="overlap"):
        v.bundle_values([["1"], ["1", "2"]])
    with pytest.raises(InputError, match="unknown item"):
        v.bundle_values([["1"], ["9"]])
