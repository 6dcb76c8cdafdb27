from fractions import Fraction

import pytest

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
    run_simple,
)
from cwemarket.scalars import format_scalar, lattice_int, parse_scalar

from .helpers import common_granularity, rational_gcd

F = Fraction


def test_parse_int_and_strings():
    assert parse_scalar(3) == Fraction(3)
    assert parse_scalar("-7") == Fraction(-7)
    assert parse_scalar("21/10") == Fraction(21, 10)
    assert parse_scalar(" 1/2 ") == Fraction(1, 2)
    assert parse_scalar(Fraction(5, 3)) == Fraction(5, 3)


def test_parse_rejects_floats_and_bools():
    with pytest.raises(InputError):
        parse_scalar(0.5)
    with pytest.raises(InputError):
        parse_scalar(True)
    with pytest.raises(InputError):
        parse_scalar("0.5.1")
    with pytest.raises(InputError):
        parse_scalar("1/0")
    with pytest.raises(InputError):
        parse_scalar(None)


def test_format_round_trip():
    for x in [Fraction(0), Fraction(-3, 7), Fraction(22, 11), Fraction(1, 128)]:
        assert parse_scalar(format_scalar(x)) == x
    assert format_scalar(Fraction(2, 4)) == "1/2"
    assert format_scalar(Fraction(4)) == "4"


def test_rational_gcd():
    assert rational_gcd(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 6)
    assert rational_gcd(Fraction(3, 4), Fraction(9, 8)) == Fraction(3, 8)
    assert rational_gcd(Fraction(5), Fraction(10)) == Fraction(5)
    # every input is an integer multiple of the result
    a, b = Fraction(21, 10), Fraction(1)
    g = rational_gcd(a, b)
    assert (a / g).denominator == 1 and (b / g).denominator == 1


def test_common_granularity():
    assert common_granularity([]) is None
    assert common_granularity([Fraction(0), Fraction(0)]) is None
    assert common_granularity([Fraction(1, 2)]) == Fraction(1, 2)
    g = common_granularity([Fraction(1), Fraction(21, 10), Fraction(0)])
    assert g == Fraction(1, 10)
    assert common_granularity([Fraction(-1, 4), Fraction(1, 6)]) == Fraction(1, 12)


def test_lattice_int_refuses_to_floor():
    assert lattice_int(F(3, 4), 8) == 6
    assert lattice_int(F(-5), 3) == -15
    with pytest.raises(InputError, match="off the lattice"):
        lattice_int(F(1, 3), 8)


X = frozenset({"x"})


def _held_x():
    """One agent valuing item x at 2 (granularity 2), seeded with it."""
    auction = Auction(items=("x",), agents=(Agent("a", AdditiveValuation(X, {"x": F(2)})),))
    return auction, {"a": X}


ENTRY_POINTS = {
    "explicit": lambda v: ExplicitValuation(X, {frozenset(): F(0), X: v}),
    "from_entries": lambda v: ExplicitValuation.from_entries(X, {X: v}),
    "unit_demand": lambda v: UnitDemandValuation(X, {"x": v}),
    "additive": lambda v: AdditiveValuation(X, {"x": v}),
    "xos": lambda v: XosValuation(X, [{"x": v}]),
    "single_minded": lambda v: SingleMindedValuation(X, X, v),
    "gap3": lambda v: generate("gap3", epsilon=v),
    "item_pricing_um_sm": lambda v: generate("item_pricing_um_sm", m=2, epsilon=v),
    "item_pricing_xos": lambda v: generate("item_pricing_xos", m=2, delta=v),
    "run_simple": lambda v: run_simple(*_held_x(), v),
}


@pytest.mark.parametrize("bad", [0.25, True])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_refuse_floats_and_bools(entry, bad):
    """A float or a bool is refused where it enters the library, as in
    a file, not stored as a binary fraction or as 1; an exact quarter
    is taken."""
    ENTRY_POINTS[entry](F(1, 4))
    with pytest.raises(InputError, match="float scalar|not a scalar"):
        ENTRY_POINTS[entry](bad)
