import gc
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwemarket import (
    AdditiveValuation,
    Agent,
    Auction,
    ExplicitValuation,
    InputError,
    SingleMindedValuation,
    UnitDemandValuation,
    XosValuation,
    generate,
)
from cwemarket import valuations
from cwemarket.market import tie_break_key
from cwemarket.valuations import EXPLICIT_ITEM_CAP, subsets_of

from .helpers import ReferenceExplicitValuation, reference_from_entries, table_of

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
    got = table_of(ExplicitValuation.from_entries(items, entries))
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
    with pytest.raises(InputError, match="^weight map mentions items outside the universe$"):
        UnitDemandValuation(["x"], {"x": F(1), "y": F(2)})


def test_single_minded():
    v = SingleMindedValuation(["x", "y", "z"], ["x", "y"], F(7))
    assert v.value(["x"]) == 0
    assert v.value(["x", "y"]) == 7
    assert v.value(["x", "y", "z"]) == 7
    assert v.validate() is None
    assert SingleMindedValuation(["x"], [], F(1)).validate().kind == "empty_desired"
    # a negative weight is reported first
    negative = SingleMindedValuation(["x"], [], F(-1)).validate()
    assert (negative.kind, negative.detail) == ("negative_weight", "weight is -1")
    assert SingleMindedValuation(["x"], [], F(0)).validate() is None
    with pytest.raises(InputError):
        SingleMindedValuation(["x"], ["y"], F(1))


def test_item_identifiers_must_be_strings():
    for build in (
        lambda: AdditiveValuation(["x", 1], {}),
        lambda: SingleMindedValuation(["x"], [2], F(1)),
        lambda: ExplicitValuation.from_entries(["x", None], {}),
    ):
        with pytest.raises(InputError, match="^item identifiers must be strings$"):
            build()


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


@pytest.mark.parametrize("build", [ExplicitValuation, ExplicitValuation.from_entries])
def test_a_subset_listed_twice_is_refused(build):
    """Two keys naming one subset in different orders are refused, not
    resolved by whichever comes last."""
    table = {(): 0, ("a",): 1, ("b",): 1, ("a", "b"): 2, ("b", "a"): 3}
    with pytest.raises(InputError, match=r"duplicate explicit entry for \['a', 'b'\]"):
        build(["a", "b"], table)


# names whose sorted order is neither their numeric nor their listed order
NAMES = ("b", "a10", "a2", "z", "c", "m1")


def _outcome(call):
    """What call() returns with its type (a list's entry types), or the
    InputError it raises with its message."""
    try:
        got = call()
    except InputError as exc:
        return InputError, str(exc)
    return got, [type(x) for x in got] if isinstance(got, list) else type(got)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_mask_table_matches_the_frozenset_reference(data):
    """The mask list answers as the frozenset-keyed table did: values and
    their types, each tabulation, the lattice copy, the first defect in
    `subsets_of` order, the completion, and every refusal's message."""
    items = data.draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=5))
    universe = frozenset(items)
    subsets = list(subsets_of(universe))
    values = st.builds(F, st.integers(-1, 9), st.sampled_from((1, 2, 3, 4)))
    table = {}
    monotone = data.draw(st.booleans())
    for s in subsets:
        v = data.draw(values)
        table[s] = max([v] + [table[s - {x}] for x in s]) if monotone and s else v
    if monotone and data.draw(st.booleans()):
        table[frozenset()] = F(0)
    got, ref = ExplicitValuation(items, table), ReferenceExplicitValuation(items, table)
    assert list(table_of(got).items()) == list(ref.table.items())
    assert got.validate() == ref.validate()
    for s in subsets:
        assert _outcome(lambda: got.value(s)) == _outcome(lambda: ref.value(s))

    # disjoint bundles in a drawn order, then one stray item and one overlap
    slots = data.draw(st.lists(st.integers(-1, 2), min_size=len(items), max_size=len(items)))
    bundles = [[i for i, k in zip(items, slots) if k == b] for b in range(3)]
    lcm_den = lcm(*[v.denominator for v in table.values()])
    scale = lcm_den * data.draw(st.integers(1, 3))
    cases = [bundles, bundles + [["zz"]], bundles + [items[:1]], [items[:1], ["zz"], items[:1]]]
    for view in (lambda v: v, lambda v: v.scaled(scale)):
        for case in cases:
            assert _outcome(lambda: view(got).bundle_values(case)) == _outcome(
                lambda: view(ref).bundle_values(case)
            )
    assert list(table_of(got.scaled(scale)).items()) == list(ref.scaled(scale).table.items())
    assert sorted(got.parameter_values()) == sorted(ref.parameter_values())
    if lcm_den > 1:
        off = lcm_den // data.draw(st.sampled_from([p for p in (2, 3) if lcm_den % p == 0]))
        assert _outcome(lambda: got.scaled(off)) == _outcome(lambda: ref.scaled(off))

    # some subsets listed in a drawn order: completed by `from_entries`,
    # refused as incomplete by the constructor unless all are there
    order = data.draw(st.permutations(subsets))
    entries = {s: table[s] for s in order[:data.draw(st.integers(0, len(order)))]}
    for build, reference in (
        (ExplicitValuation.from_entries, ReferenceExplicitValuation.from_entries),
        (ExplicitValuation, ReferenceExplicitValuation),
    ):
        got_part = _outcome(lambda: list(table_of(build(items, entries)).items()))
        ref_part = _outcome(lambda: sorted(
            reference(items, entries).table.items(), key=lambda kv: subsets.index(kv[0])))
        assert got_part == ref_part


def _kept_bytes(build, seeds) -> int:
    """Bytes still allocated, as `tracemalloc` counts them in this process,
    after `build(seed)` for every seed, with the results held."""
    gc.collect()
    tracemalloc.start()
    try:
        held = [build(seed) for seed in seeds]
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
        del held
        return kept
    finally:
        tracemalloc.stop()


def test_mask_tables_keep_at_most_60_percent_of_the_frozenset_layout():
    """Random explicit auctions (m = 5, n = 5) hold their tables as value
    lists; the same auctions with frozenset-keyed tables hold much more."""

    def masks(seed):
        return generate("random_explicit", m=5, n=5, seed=seed)[0]

    def frozensets(seed):
        auction = masks(seed)
        return Auction(auction.items, [
            Agent(a.name, ReferenceExplicitValuation(a.valuation.items, table_of(a.valuation)))
            for a in auction.agents
        ])

    seeds = range(1, 41)
    assert frozensets(1).agents[0].valuation.table == table_of(masks(1).agents[0].valuation)
    mask_bytes, frozenset_bytes = _kept_bytes(masks, seeds), _kept_bytes(frozensets, seeds)
    assert mask_bytes <= 0.6 * frozenset_bytes, (mask_bytes, frozenset_bytes)
