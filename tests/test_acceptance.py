"""End-to-end contract checks, one test per guarantee.

Every comparison is exact rational arithmetic; there are no float
tolerances anywhere in this file.
"""
import random
import time
from fractions import Fraction

import pytest

from cwemarket import (
    brute_force_optimal,
    generate,
    is_cwe,
    max_cwe_revenue,
    max_cwe_welfare,
    maximize_revenue,
    replay,
    run_poly,
    run_simple,
    social_welfare,
)
from cwemarket.market import allocation_welfare
from cwemarket.verifier import (
    config_lp_fractional_opt,
    singleton_catalog,
    stable_singleton_outcomes,
    supporting_prices,
)

from .helpers import (
    check_push_matches_oracle,
    check_push_maximality,
    common_granularity,
    recorded_pushes,
    reference_shift,
)

F = Fraction


def _sweep_instance(s):
    m = 2 + s % 4
    n = 2 + (s // 4) % 4
    auction, _ = generate("random_explicit", m=m, n=n, seed=s)
    opt, alloc = brute_force_optimal(auction)
    seed = {a: x for a, x in alloc.items() if x}
    return auction, opt, seed


@pytest.fixture(scope="module")
def poly_sweep():
    # one pass serves the welfare, revenue, maximality and replay checks
    t0 = time.monotonic()
    runs = []
    for s in range(200):
        auction, opt, seed = _sweep_instance(s)
        with recorded_pushes() as reports:
            result = maximize_revenue(auction, seed)
        runs.append((s, auction, opt, seed, result, reports))
    return time.monotonic() - t0, runs


@pytest.fixture(scope="module")
def simple_sweep():
    t0 = time.monotonic()
    runs = []
    for s in range(50):
        auction, opt, seed = _sweep_instance(s)
        values = []
        for agent in auction.agents:
            values.extend(agent.valuation.parameter_values())
        g = common_granularity(values)
        eps = g / 2 if g is not None else F(1, 2)
        outcome, trace = run_simple(auction, seed, eps)
        runs.append((s, auction, opt, seed, outcome, trace))
    return time.monotonic() - t0, runs


def test_criterion_01_half_welfare(poly_sweep, simple_sweep):
    poly_elapsed, poly_runs = poly_sweep
    for s, auction, opt, _, result, _ in poly_runs:
        out = result.base
        assert is_cwe(auction, out), f"seed {s}: unstable"
        assert 2 * social_welfare(auction, out) >= opt, f"seed {s}: lost welfare"
    simple_elapsed, simple_runs = simple_sweep
    for s, auction, opt, _, outcome, _ in simple_runs:
        assert is_cwe(auction, outcome), f"seed {s}: unstable (simple)"
        assert 2 * social_welfare(auction, outcome) >= opt, f"seed {s}"
    assert poly_elapsed + simple_elapsed < 60
    print("criterion 1 (half welfare, 200 + 50 instances): PASS")


def test_criterion_02_bundling_gap():
    t0 = time.monotonic()
    auction, _ = generate("gap3")
    opt, _ = brute_force_optimal(auction)
    best, _ = max_cwe_welfare(auction)
    assert opt == F(3)
    assert best == F(21, 10)
    assert best / opt == F(7, 10)
    assert time.monotonic() - t0 < 10
    print("criterion 2 (stability costs 2+eps over 3): PASS")


def _best_unbundled_welfare(auction):
    """The highest welfare of a stably priced outcome selling single items."""
    return max(allocation_welfare(auction, a) for a, _ in stable_singleton_outcomes(auction))


def test_criterion_03_unbundled_welfare_floor():
    t0 = time.monotonic()
    for m in (2, 3, 4, 5):
        auction, _ = generate("item_pricing_um_sm", m=m)
        opt, _ = brute_force_optimal(auction)
        assert opt == F(m)
        best = _best_unbundled_welfare(auction)
        assert best == F(11, 10), f"m={m}: best unbundled stable welfare {best}"
    assert time.monotonic() - t0 < 30
    print("criterion 3 (unbundled stable welfare stuck at 11/10): PASS")


@pytest.mark.xfail(
    strict=True,
    reason="the unbundled stability scan finds a stable two-item outcome "
    "on this family, so the claimed one-item cap does not hold",
)
def test_criterion_03_xos_single_item_cap():
    auction, _ = generate("item_pricing_xos", m=3, delta=F(1, 8))
    sold = max(sum(map(len, alloc.values())) for alloc, _ in stable_singleton_outcomes(auction))
    print(f"criterion 3 (xos unbundled cap): FAIL, {sold} items sold stably")
    assert sold <= 1


def test_criterion_03_xos_unbundled_welfare():
    """What stable item pricing does reach on the XOS family: one item
    to each agent, welfare 3/2 - delta, against an optimum of m/2 from
    m = 3 on."""
    for m, welfare in ((2, F(5, 4)), (3, F(11, 8)), (4, F(17, 12))):
        delta = F(1, 4 * (m - 1))
        auction, _ = generate("item_pricing_xos", m=m, delta=delta)
        assert _best_unbundled_welfare(auction) == welfare == F(3, 2) - delta
        opt, _ = brute_force_optimal(auction)
        assert opt == max(F(m, 2), welfare)


def test_criterion_04_integrality_characterization():
    t0 = time.monotonic()
    seen = {True: 0, False: 0}
    for s in range(100):
        m = 2 + s % 3
        n = 2 + (s // 3) % 3
        auction, _ = generate("random_explicit", m=m, n=n, seed=1000 + s)
        cat = singleton_catalog(auction)
        idx = {items: bid for bid, items in cat.entries}
        opt, alloc = brute_force_optimal(auction)
        assignment = {
            a: frozenset(idx[frozenset({it})] for it in items)
            for a, items in alloc.items()
            if items
        }
        priceable = supporting_prices(auction, cat, assignment) is not None
        integral = config_lp_fractional_opt(auction, cat) == opt
        assert priceable == integral, f"seed {1000 + s}: {priceable} vs {integral}"
        seen[priceable] += 1
    assert seen[True] and seen[False], "sweep never exercised both directions"
    assert time.monotonic() - t0 < 60
    print("criterion 4 (unbundled equilibrium iff relaxation is tight): PASS")


def test_criterion_05_uniform_shift_preserves_stability():
    for s in range(100):
        auction, _, seed = _sweep_instance(s)
        out, _ = run_poly(auction, seed)
        maxval = max(
            [auction.valuation(a.name).value(auction.item_set) for a in auction.agents]
            + [F(1)]
        )
        rng = random.Random(7000 + s)
        sigma = F(rng.randint(0, 128), 64) * maxval
        shifted = reference_shift(auction, out, sigma)
        assert is_cwe(auction, shifted), f"seed {s}, sigma {sigma}"
    print("criterion 5 (shifted outcomes stay stable, 100 pairs): PASS")


def test_criterion_06_revenue_ratio(poly_sweep):
    _, runs = poly_sweep
    for s, auction, opt, _, result, _ in runs:
        k = sum(
            1 for bs in result.base.assignment.values() if bs
        )
        best = result.max_revenue
        if k == 0:
            assert best == 0
            continue
        ell = (2 * k - 1).bit_length()
        sw0 = social_welfare(auction, result.base)
        assert best * 8 * ell >= sw0, f"seed {s}"
        assert best * 16 * ell >= opt, f"seed {s}"
    print("criterion 6 (ladder revenue within log factor): PASS")


def test_criterion_07_revenue_gap_on_log_family():
    t0 = time.monotonic()
    auction, _ = generate("logn_revenue", n=4)
    opt, _ = brute_force_optimal(auction)
    assert opt == F(25, 12)
    rev, _ = max_cwe_revenue(auction)
    assert rev <= F(1)
    assert time.monotonic() - t0 < 120
    print("criterion 7 (best stable revenue 1 vs welfare 25/12): PASS")


def test_criterion_08_push_stops_at_indifference(poly_sweep):
    _, runs = poly_sweep
    checked = 0
    for _, auction, _, _, _, reports in runs:
        for rep in reports:
            check_push_maximality(auction, rep)
            checked += 1
    assert checked > 0
    print(f"criterion 8 (held bundles priced to indifference, {checked} pushes): PASS")


def test_criterion_09_replay_validates_every_trace(poly_sweep, simple_sweep):
    _, poly_runs = poly_sweep
    for s, auction, _, seed, result, _ in poly_runs:
        rebuilt = replay(auction, seed, result.trace)
        assert rebuilt.prices == result.base.prices, f"seed {s}"
        assert rebuilt.assignment == result.base.assignment, f"seed {s}"
    _, simple_runs = simple_sweep
    for s, auction, _, seed, outcome, trace in simple_runs:
        rebuilt = replay(auction, seed, trace)
        assert rebuilt.prices == outcome.prices, f"seed {s} (simple)"
        assert rebuilt.assignment == outcome.assignment, f"seed {s} (simple)"
    print("criterion 9 (structural invariants hold on every trace): PASS")


def test_criterion_10_push_matches_breakpoint_sweep():
    checked = 0
    for s in range(50):
        m = 2 + s % 4
        n = 2 + (s // 4) % 2
        auction, _ = generate("random_explicit", m=m, n=n, seed=3000 + s)
        _, alloc = brute_force_optimal(auction)
        seed = {a: x for a, x in alloc.items() if x}
        with recorded_pushes() as reports:
            run_poly(auction, seed)
        for rep in reports:
            check_push_matches_oracle(auction, rep)
            checked += 1
    assert checked > 0
    print(f"criterion 10 (discrete push equals continuous sweep, {checked} pushes): PASS")
