from copy import deepcopy
from fractions import Fraction
from itertools import combinations
from math import lcm
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from cwemarket import InputError, SolverInvariantError, generate, verifier
from cwemarket.lp import (
    INFEASIBLE,
    OPTIMAL,
    _certify_infeasible,
    _certify_optimal,
    solve_lp,
)
from .helpers import UNBOUNDED, reference_config_lp_rows, reference_solve_lp

F = Fraction


def on_ints(c, A, b):
    """(L, (c, A, b) times L as ints), L the lcm of every denominator:
    scaling the whole LP by one positive factor moves no pivot, keeps
    x and multiplies the optimum by L."""
    L = lcm(*[F(v).denominator for row in (c, *A, b) for v in row])

    def scale(row):
        return [int(v * L) for v in row]

    return L, (scale(c), [scale(row) for row in A], scale(b))


def test_simple_maximum():
    # max x + y st x <= 2, y <= 3, x + y <= 4
    sol = solve_lp([1, 1], [[1, 0], [0, 1], [1, 1]], [2, 3, 4])
    assert sol.status == OPTIMAL
    assert sol.value == 4
    x, y = sol.x
    assert x + y == 4 and 0 <= x <= 2 and 0 <= y <= 3


def test_exact_fractions():
    # max 3x + 5y st 2x + 4y <= 1, 3x + y <= 1/2, on ints times L = 2
    L, lp = on_ints([3, 5], [[2, 4], [3, 1]], [1, F(1, 2)])
    assert lp == ([6, 10], [[4, 8], [6, 2]], [2, 1])
    sol = solve_lp(*lp)
    assert sol.status == OPTIMAL
    x, y = sol.x
    assert 2 * x + 4 * y <= 1 and 3 * x + y <= F(1, 2)
    assert sol.value == L * (3 * x + 5 * y)
    assert sol.value == L * F(13, 10)


def test_infeasible():
    # x <= -1 with x >= 0
    sol = solve_lp([1], [[1], [-1]], [-1, -2])
    assert sol.status == INFEASIBLE
    assert sol.x is None and sol.value is None


def test_unbounded():
    # every LP the package builds is bounded, so a ray is a broken invariant
    with pytest.raises(SolverInvariantError, match="unbounded"):
        solve_lp([1], [[-1]], [1])


def test_negative_rhs_phase_one():
    # feasible despite b < 0: x >= 1 encoded as -x <= -1, max -x
    sol = solve_lp([-1], [[-1], [1]], [-1, 5])
    assert sol.status == OPTIMAL
    assert sol.x == [F(1)]
    assert sol.value == -1


def test_degenerate_does_not_cycle():
    # classic degenerate vertex at the origin, on ints times L = 2
    L, lp = on_ints(
        [10, -57, -9, -24],
        [
            [F(1, 2), F(-11, 2), F(-5, 2), 9],
            [F(1, 2), F(-3, 2), F(-1, 2), 1],
            [1, 0, 0, 0],
        ],
        [0, 0, 1],
    )
    sol = solve_lp(*lp)
    assert sol.status == OPTIMAL
    assert sol.value == L * 1


def test_input_validation():
    with pytest.raises(InputError):
        solve_lp([1], [[1, 2]], [1])
    with pytest.raises(InputError):
        solve_lp([1], [[1]], [1, 2])


@pytest.mark.parametrize("where", ["c", "A", "b"])
@pytest.mark.parametrize("bad", [0.1, 1.0, "1", F(1, 3), F(2), True])
def test_only_ints_and_fractions_enter(where, bad):
    """Only ints enter: a Fraction, even a whole one, is refused like a
    float, a string or a bool.  The name predates the int-only
    contract and is kept so that the test's ids stay stable."""
    c, A, b = [1, 2], [[1, 3]], [1]
    if where == "c":
        c[0] = bad
    elif where == "A":
        A[0][1] = bad
    else:
        b[0] = bad
    with pytest.raises(InputError, match="is not an int"):
        solve_lp(c, A, b)


# Certificates of three tiny LPs, in the integer form the solver checks
# them in.  max x + y st x <= 2, y <= 3, x + y <= 4: the point (2, 2)
# and the dual (0, 0, 1) both reach 4.
OPT_A, OPT_B, OPT_C = [[1, 0], [0, 1], [1, 1]], [2, 3, 4], [1, 1]


def test_optimal_certificate():
    _certify_optimal(OPT_A, OPT_B, OPT_C, 1, [2, 2], [0, 0, 1], 4)
    # the same answer over the common denominator 3
    _certify_optimal(OPT_A, OPT_B, OPT_C, 3, [6, 6], [0, 0, 3], 12)


@pytest.mark.parametrize(
    "x, y, z",
    [
        ([2, 2], [0, 0, 2], 4),  # dual value 8, not 4
        ([2, 2], [1, 0, 0], 4),  # y A = (1, 0) misses c in column 2
        ([2, 2], [-1, 0, 2], 4),  # negative dual entry
        ([3, 1], [0, 0, 1], 4),  # x = 3 breaks the row x <= 2
        ([-1, 5], [0, 0, 1], 4),  # negative primal entry
        ([1, 2], [0, 0, 1], 4),  # primal value 3, not 4
        ([2, 2], [0, 0, 1], 5),  # claimed optimum reached by neither
    ],
)
def test_corrupted_optimal_certificate_is_caught(x, y, z):
    with pytest.raises(SolverInvariantError, match="certificate"):
        _certify_optimal(OPT_A, OPT_B, OPT_C, 1, x, y, z)


# x <= -1 and -x <= -2 with x >= 0: y = (1, 0) gives 0 <= y A x <= y b = -1
INF_A, INF_B = [[1], [-1]], [-1, -2]


def test_farkas_certificate():
    _certify_infeasible(INF_A, INF_B, 1, [1, 0])
    _certify_infeasible(INF_A, INF_B, 1, [1, 1])


@pytest.mark.parametrize(
    "y",
    [
        [0, 1],  # y A = -1 < 0
        [0, 0],  # y b = 0, not negative
        [-1, 0],  # negative entry
    ],
)
def test_corrupted_farkas_certificate_is_caught(y):
    with pytest.raises(SolverInvariantError, match="certificate"):
        _certify_infeasible(INF_A, INF_B, 1, y)


def brute_vertex_opt(c, A, b):
    """Enumerate basic feasible points from all constraint intersections."""
    n = len(c)
    rows = [list(r) for r in A] + [
        [F(1) if j == i else F(0) for j in range(n)] for i in range(n)
    ]
    rhs = list(b) + [F(0)] * n
    best = None
    for idx in combinations(range(len(rows)), n):
        # solve the n x n system by gaussian elimination
        M = [rows[i][:] + [rhs[i]] for i in idx]
        x = gauss(M, n)
        if x is None:
            continue
        if any(xi < 0 for xi in x):
            continue
        if any(
            sum(A[i][j] * x[j] for j in range(n)) > b[i] for i in range(len(A))
        ):
            continue
        val = sum(c[j] * x[j] for j in range(n))
        if best is None or val > best:
            best = val
    return best


def gauss(M, n):
    M = [row[:] for row in M]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if M[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        inv = F(1) / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * bb for a, bb in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def test_random_cross_check_against_vertex_enumeration():
    rng = random.Random(7)
    checked = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        c = [rng.randint(-4, 6) for _ in range(n)]
        A = [[rng.randint(-3, 5) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(0, 6) for _ in range(m)]  # origin feasible
        if reference_solve_lp(c, A, b).status == UNBOUNDED:
            # the origin is feasible, so the LP has no optimum for
            # vertex enumeration to compare, and solve_lp raises
            with pytest.raises(SolverInvariantError, match="unbounded"):
                solve_lp(c, A, b)
            continue
        sol = solve_lp(c, A, b)
        assert sol.status == OPTIMAL
        assert sol.value == brute_vertex_opt(c, A, b)
        x = sol.x
        assert all(xi >= 0 for xi in x)
        assert all(sum(A[i][j] * x[j] for j in range(n)) <= b[i] for i in range(m))
        checked += 1
    assert checked >= 20


coefficient = st.one_of(
    st.integers(-4, 6),
    st.fractions(min_value=-4, max_value=6, max_denominator=6),
)


@st.composite
def lps(draw):
    """Small LPs with any sign of right-hand side, mixed int and
    Fraction entries over mixed denominators, and degenerate rows:
    all-zero rows, repeated rows and zero right-hand sides.  "Floor"
    rows (a x >= |b| with a >= 0) keep many negative right-hand sides
    feasible, so phase one often hands over to phase two, and "cap"
    rows (a x <= |b|) often bound the objective."""
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0, 5))
    row = st.lists(coefficient, min_size=n, max_size=n)
    c = draw(row)
    A = draw(st.lists(row, min_size=m, max_size=m))
    b = draw(st.lists(st.one_of(st.just(0), coefficient), min_size=m, max_size=m))
    for i in range(m):
        shape = draw(st.sampled_from(["free", "floor", "cap", "zero", "repeat"]))
        if shape == "floor":
            A[i] = [-abs(v) for v in A[i]]
            b[i] = -abs(b[i])
        elif shape == "cap":
            A[i] = [abs(v) for v in A[i]]
            b[i] = abs(b[i])
        elif shape == "zero":
            A[i] = [0] * n
        elif shape == "repeat" and i:
            A[i] = list(A[i - 1])
    return c, A, b


@settings(derandomize=True, max_examples=400, deadline=None)
@given(lps())
# infeasible: x <= -1
@example(([1], [[1]], [-1]))
# unbounded after phase one: x >= 1, max x
@example(([1], [[-1]], [-1]))
# the auxiliary variable stays basic at zero and is pivoted out
@example(([0, 1], [[1, -1], [-1, 1], [0, 0]], [-1, 1, 0]))
# phase one brings in x and y, both priced by c, and phase two pivots
# on: x >= 1, y >= 2, x + y <= 5, max 2x + 3y
@example(([2, 3], [[-1, 0], [0, -1], [1, 1]], [-1, -2, 5]))
# the auxiliary stays basic at zero while y, priced by c, entered in
# phase one; the carried objective then prices two phase-two pivots
@example(([1, 3], [[1, -1], [-1, 1], [1, 1]], [-1, 1, 3]))
@example(([F(1, 2), 1], [[1, -1], [-1, 1], [1, 0]], [-1, 1, 2]))
# mixed ints and Fractions with unrelated denominators
@example(([F(1, 3), 2], [[F(2, 7), 1], [1, F(-5, 4)]], [F(3, 5), -1]))
# empty shapes: columns but no rows (optimal at 0, or unbounded), and
# rows but no columns (infeasible when some b < 0, else optimal)
@example(([0, 0], [], []))
@example(([1], [], []))
@example(([], [[], []], [1, -1]))
@example(([], [[], []], [0, 2]))
# the pivot's column updates, with P the pivot entry, p = |P| and b a
# column's pivot-row entry.  p == d == 1: the first pivot (P = 1) has
# b = 1, -2 and -1, and the second (P = -1) has b = 2 and 1
@example(([-1, -1], [[-1, 2], [-1, 0]], [-1, 0]))
# p == d == 2 after a p != d pivot (P = -2 over d = 1): P = -2 with
# b = 2, and two columns of b = 0 skipped
@example(([-1, -1], [[0, -2], [-1, 0]], [-2, 0]))
# p == d == 2 after the same p != d pivot: P = -2 with b = -1 and 1,
# then the auxiliary pivoted out on P = 2 with b = 2
@example(([-2, -1], [[-1, -2], [1, 0]], [-1, 0]))
# p != d in both directions: P = -2 over d = 1, then the auxiliary
# pivoted out on P = 1 over d = 2, with b = 1 and a right-hand side of
# b = 0 in the same pivot
@example(([1, 2], [[-1, 0], [1, 1]], [-1, 1]))
def test_matches_the_reference_simplex(lp):
    """The reference on the rational LP and `solve_lp` on it times L
    reach the same answer: the same x, and L times the optimum."""
    want = reference_solve_lp(*lp)
    L, ints = on_ints(*lp)
    if want.status == UNBOUNDED:
        with pytest.raises(SolverInvariantError, match="unbounded"):
            solve_lp(*ints)
        return
    got = solve_lp(*ints)
    assert (got.status, got.x) == (want.status, want.x)
    assert got.value == (None if want.value is None else L * want.value)


@pytest.mark.parametrize(
    "lp",
    [
        ([1, 1], [[1, 0], [0, 1], [1, 1]], [2, 3, 4]),  # optimal from the origin
        ([2, 3], [[-1, 0], [0, -1], [1, 1]], [-1, -2, 5]),  # optimal after phase one
        ([1], [[1], [-1]], [-1, -2]),  # infeasible
    ],
)
def test_solve_lp_leaves_its_inputs_unchanged(lp):
    """The certificates check the answer against c, A and b after the
    pivots, so the tableau must not share a list with them."""
    before = deepcopy(lp)
    solve_lp(*lp)
    assert lp == before


def test_oracle_scale_lps_match_the_reference_simplex(monkeypatch):
    """The LPs the oracles build on random m = 4 markets: the stability
    rows of the singleton scan and of the revenue search, up to 60 rows
    by 4 columns, and the configuration LPs, plus each market's
    configuration LP with every column, 8 rows by 60: the sizes the
    exhaustive oracles solve, where the generated LPs above have at
    most 5 rows and 4 columns.  The oracle's own configuration LPs are
    narrower, as it drops the columns a smaller set matches."""
    seen = []

    def record(c, A, b):
        seen.append((c, A, b))
        return solve_lp(c, A, b)

    monkeypatch.setattr(verifier, "solve_lp", record)
    for seed in range(3):
        auction, _ = generate("random_explicit", m=4, n=4, seed=seed)
        catalog = verifier.singleton_catalog(auction)
        list(verifier.stable_singleton_outcomes(auction))
        verifier.max_cwe_revenue(auction)
        before = len(seen)
        verifier.config_lp_fractional_opt(auction, catalog)
        (config,) = seen[before:]
        _, full = on_ints(*reference_config_lp_rows(auction, catalog))
        assert len(full[1]) == len(config[1]) == 8
        assert len(config[0]) < len(full[0]) == 60
        seen.append(full)
    assert {(len(A), len(c)) for c, A, _ in seen} >= {(60, 4), (8, 60)}
    statuses = set()
    for lp in seen:
        got = solve_lp(*lp)
        assert got == reference_solve_lp(*lp)
        statuses.add(got.status)
    assert statuses == {OPTIMAL, INFEASIBLE}
