import re
from fractions import Fraction

import pytest

from cwemarket import InputError, generate, instance_names
from cwemarket.serialize import instance_to_json

from .helpers import common_granularity

F = Fraction

DEFAULT_PARAMS = {
    "gap3": {},
    "item_pricing_um_sm": {"m": 3},
    "item_pricing_xos": {"m": 3},
    "logn_revenue": {"n": 4},
    "random_explicit": {"m": 3, "n": 3, "seed": 7},
}


def test_catalog_of_names_is_complete():
    assert set(instance_names()) == set(DEFAULT_PARAMS)


@pytest.mark.parametrize("name", sorted(DEFAULT_PARAMS))
def test_generators_validate_and_reproduce(name):
    params = DEFAULT_PARAMS[name]
    auction, seed = generate(name, **params)
    for agent in auction.agents:
        assert agent.valuation.validate() is None
    for bundle in (seed or {}).values():
        assert bundle <= auction.item_set
    again_auction, again_seed = generate(name, **params)
    assert instance_to_json(again_auction, again_seed) == instance_to_json(
        auction, seed
    )


def test_random_tables_vary_with_seed_but_not_rerun():
    a0, _ = generate("random_explicit", m=3, n=3, seed=0)
    a1, _ = generate("random_explicit", m=3, n=3, seed=1)
    assert instance_to_json(a0, None) != instance_to_json(a1, None)


def test_random_tables_keep_coarse_granularity():
    for s in range(8):
        auction, _ = generate("random_explicit", m=3, n=3, seed=s)
        values = []
        for agent in auction.agents:
            values.extend(agent.valuation.parameter_values())
        g = common_granularity(values)
        assert g is not None and g >= F(1, 64)


def test_parameter_bounds_are_enforced():
    with pytest.raises(InputError, match="at least 2"):
        generate("item_pricing_um_sm", m=1)
    with pytest.raises(InputError, match="positive"):
        generate("item_pricing_um_sm", m=3, epsilon=F(0))
    with pytest.raises(InputError, match="strictly between"):
        generate("item_pricing_xos", m=3, delta=F(1, 4))
    with pytest.raises(InputError, match="strictly between"):
        generate("item_pricing_xos", m=3, delta=F(0))
    with pytest.raises(InputError, match="at least 1"):
        generate("logn_revenue", n=0)
    with pytest.raises(InputError, match="at most 6"):
        generate("random_explicit", m=7, n=2, seed=0)
    with pytest.raises(InputError, match="positive"):
        generate("random_explicit", m=2, n=2, seed=0, denominator=0)
    with pytest.raises(InputError, match="^epsilon must be positive$"):
        generate("gap3", epsilon=F(0))
    with pytest.raises(InputError, match="^m must be at least 2$"):
        generate("item_pricing_xos", m=1)
    for m, n in ((0, 2), (2, 0)):
        with pytest.raises(InputError, match="^m and n must be at least 1$"):
            generate("random_explicit", m=m, n=n, seed=0)


@pytest.mark.parametrize(
    "name, params",
    [
        ("logn_revenue", {"n": 2.5}),
        ("logn_revenue", {"n": True}),
        ("item_pricing_um_sm", {"m": "2"}),
        ("item_pricing_xos", {"m": False}),
        ("random_explicit", {"m": 2, "n": 2, "seed": "7"}),
        ("random_explicit", {"m": 2, "n": 2, "seed": 1.0}),
        ("random_explicit", {"m": 2, "n": 2, "seed": 0, "denominator": True}),
        ("random_explicit", {"m": 2, "n": 2, "seed": 0, "denominator": F(64)}),
    ],
)
def test_counts_and_seeds_must_be_ints(name, params):
    """A bool, a float, a string or a Fraction for m, n, seed or
    denominator is bad input naming the parameter, not a TypeError or a
    bool read as 0 or 1."""
    key, value = list(params.items())[-1]
    message = f"parameter {key!r} must be an int, got {value!r}"
    with pytest.raises(InputError, match=re.escape(message)):
        generate(name, **params)


def test_unknown_names_and_parameters_rejected():
    with pytest.raises(InputError, match="unknown instance"):
        generate("nope")
    with pytest.raises(InputError, match="does not take parameter"):
        generate("gap3", m=3)
