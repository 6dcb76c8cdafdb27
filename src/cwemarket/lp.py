"""Exact linear programming over rationals.

A small two-phase simplex, sufficient for the desk-scale verification
problems in this package (tens of rows, hundreds of columns).
Problems are given in the standard inequality form

    maximize c . x   subject to  A x <= b,  x >= 0,

with every coefficient an `int`; anything else (a `Fraction`, a float,
a bool) is rejected with InputError.  Callers with rational data
scale it to ints first: a positive factor on b or on c changes no
pivot, as Bland's entering rule reads only the signs of the objective
row and the ratio test compares ratios of b to A.

Integers throughout.  The dictionary is kept as integer columns over
one common denominator d (Edmonds/Bareiss pivoting), the right-hand
side last: a pivot on the entry P in row r of the pivot column f, with
p = |P|, sets each other column a, whose entry in row r is b, to
(p*a_i - sign(P)*f_i*b) // d in every row i != r and to -sign(P)*b in
row r, and then d = p.  The division is exact because every entry is a
minor of the input.  When p == d a column with b == 0 is unchanged and
skipped, so a pivot rewrites only the columns its pivot row touches.
No `Fraction` is built before the answer.

Bland's rule is used for both entering and leaving variables (the
ratio test compares by cross-multiplying), so the method terminates
without cycling.  One dictionary, real objective row included, serves
both starts.  When b has a negative entry, phase one adds a single
auxiliary column (1 in each constraint row, 0 in the objective), as in
the classic textbook construction, appends its own objective row (one
more entry in every column) below the real one and brings the
auxiliary in on the row with the most negative right-hand side.  Every
phase-one pivot carries the real objective as an ordinary row, so
phase two starts once the phase-one row and the auxiliary column are
dropped.

There are two answers, optimal and infeasible.  Every LP the package
builds is bounded: each priced bundle is capped by its holder's
individual-rationality row, and each configuration variable by its
agent's row.  So an entering column that no row bounds raises
SolverInvariantError.  Every answer is certified in integers against
the input before it is returned, and a failed check raises
SolverInvariantError too:

- optimal: the primal point is feasible, the dual y read off the
  objective row at the slack columns is dual feasible, and both reach
  the same value;
- infeasible: a Farkas vector y >= 0 from the phase-one objective row
  with y A >= 0 and y b < 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub
from typing import List, Optional, Sequence

from .errors import InputError, SolverInvariantError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LpSolution:
    status: str
    x: Optional[List[Fraction]]
    value: Optional[Fraction]


class _Tableau:
    """Slack-form dictionary in integers over one common denominator,
    stored by columns.

    With N nonbasic columns, cols[N] is the right-hand side, the basis
    rows come first and row i reads
        d * x_basis[i] = cols[N][i] + sum_j cols[j][i] * x_nonbasis[j];
    the rows below the basis rows are objectives,
        d * z = cols[N][k] + sum_j cols[j][k] * x_nonbasis[j],
    which every pivot carries along; `run` prices from the last one.
    The denominator d stays positive.
    """

    def __init__(self, basis: List[int], nonbasis: List[int], cols: List[List[int]]):
        self.basis = basis
        self.nonbasis = nonbasis
        self.cols = cols
        self.d = 1

    def pivot(self, r: int, s: int) -> None:
        cols = self.cols
        pcol = cols[s]
        P = pcol[r]
        if P == 0:
            raise SolverInvariantError("pivot on a zero coefficient")
        d = self.d
        p = P if P > 0 else -P
        # g = -sign(P) * pivot column, except that g[r] turns each
        # pivot-row entry b into -sign(P) * b
        if P > 0:
            g = [-f for f in pcol]
            g[r] = -p - d
        else:
            g = list(pcol)
            g[r] = d - p
        for j, col in enumerate(cols):
            b = col[r]
            if j == s or (b == 0 and p == d):
                continue  # (d*a + g*0) // d == a
            if p != d:
                cols[j] = [(p * a + f * b) // d for a, f in zip(col, g)]
            elif d != 1:  # (d*a + g*b) // d == a + g*b // d
                cols[j] = [a + f * b // d for a, f in zip(col, g)]
            elif b == 1:
                cols[j] = list(map(add, col, g))
            elif b == -1:
                cols[j] = list(map(sub, col, g))
            else:
                cols[j] = [a + f * b for a, f in zip(col, g)]
        new = [-f for f in g]
        new[r] = d if P > 0 else -d
        cols[s] = new
        self.d = p
        self.basis[r], self.nonbasis[s] = self.nonbasis[s], self.basis[r]

    def run(self) -> None:
        """Bland steps until the last row prices no column in."""
        cols = self.cols
        basis = self.basis
        m = len(basis)
        while True:
            col = -1
            best_var = -1
            for j, var in enumerate(self.nonbasis):
                if cols[j][-1] > 0 and (col < 0 or var < best_var):
                    best_var = var
                    col = j
            if col < 0:
                return
            # ratio of row i is last[i] / -pcol[i]
            pcol, last = cols[col], cols[-1]
            row = -1
            num = den = 0
            for i in range(m):
                a = pcol[i]
                if a >= 0:
                    continue
                rhs = last[i]
                if row >= 0:
                    lhs, cur = rhs * den, num * -a
                    if lhs > cur or (lhs == cur and basis[i] > basis[row]):
                        continue
                row, num, den = i, rhs, -a
            if row < 0:
                raise SolverInvariantError("LP is unbounded")
            self.pivot(row, col)

    def slack_duals(self, n: int) -> List[int]:
        """d * y: minus the objective row at the nonbasic slack columns."""
        m = len(self.basis)
        y = [0] * m
        for j, var in enumerate(self.nonbasis):
            if n <= var < n + m:
                y[var - n] = -self.cols[j][-1]
        return y

    def point(self, n: int) -> List[int]:
        """d * x, the basic solution on the first n variables."""
        x = [0] * n
        for var, v in zip(self.basis, self.cols[-1]):
            if var < n:
                x[var] = v
        return x


def _fail(what: str) -> None:
    raise SolverInvariantError(f"LP certificate check failed: {what}")


def _dual_products(A: Sequence[Sequence[int]], y: List[int], n: int) -> List[int]:
    """y A over n columns, after checking y >= 0."""
    if any(v < 0 for v in y):
        _fail("dual vector has a negative entry")
    out = [0] * n
    for row, yi in zip(A, y):
        if yi:
            for j, a in enumerate(row):
                if a:
                    out[j] += yi * a
    return out


def _certify_optimal(
    A: Sequence[Sequence[int]],
    b: Sequence[int],
    c: Sequence[int],
    d: int,
    x: List[int],
    y: List[int],
    z: int,
) -> None:
    """x / d is feasible with value z / d, and y / d >= 0 is a dual
    solution (y A >= c) of the same value, so both are optimal."""
    if any(v < 0 for v in x):
        _fail("primal point has a negative entry")
    if any(sum(map(mul, row, x)) > d * bi for row, bi in zip(A, b)):
        _fail("primal point violates a row")
    for yA, cj in zip(_dual_products(A, y, len(c)), c):
        if yA < d * cj:
            _fail("dual vector violates a column")
    if sum(yi * bi for yi, bi in zip(y, b)) != z:
        _fail("dual value differs from the optimum")
    if sum(cj * xj for cj, xj in zip(c, x)) != z:
        _fail("primal value differs from the optimum")


def _certify_infeasible(
    A: Sequence[Sequence[int]], b: Sequence[int], n: int, y: List[int]
) -> None:
    """Farkas: y >= 0, y A >= 0 over the n columns and y b < 0 rule
    out A x <= b, x >= 0."""
    if any(v < 0 for v in _dual_products(A, y, n)):
        _fail("Farkas vector has y A < 0 in a column")
    if sum(yi * bi for yi, bi in zip(y, b)) >= 0:
        _fail("Farkas vector has y b >= 0")


def solve_lp(
    c: Sequence[int], A: Sequence[Sequence[int]], b: Sequence[int]
) -> LpSolution:
    """Maximize c.x subject to A x <= b, x >= 0, exactly."""
    n = len(c)
    m = len(A)
    if len(b) != m:
        raise InputError("rhs length does not match row count")
    for row in A:
        if len(row) != n:
            raise InputError("matrix row length does not match objective length")
    odd = [v for row in (*A, b, c) for v in row if type(v) is not int]
    if odd:
        raise InputError(f"LP coefficient {odd[0]!r} is not an int")
    cols = [[-row[j] for row in A] + [cj] for j, cj in enumerate(c)]
    cols.append([*b, 0])
    # slack variable ids n .. n+m-1, auxiliary id n+m
    t = _Tableau(list(range(n, n + m)), list(range(n)), cols)
    if any(v < 0 for v in b):
        aux = n + m
        t.nonbasis.append(aux)
        for col in cols:
            col.append(0)
        cols.insert(n, [1] * m + [0, -1])
        # special first pivot: bring the auxiliary in on the worst row
        worst = min(range(m), key=lambda i: (cols[-1][i], t.basis[i]))
        t.pivot(worst, n)
        t.run()
        if cols[-1][-1] != 0:
            _certify_infeasible(A, b, n, t.slack_duals(n))
            return LpSolution(status=INFEASIBLE, x=None, value=None)
        if aux in t.basis:
            r = t.basis.index(aux)
            # degenerate: value must be 0; pivot it out on the first
            # usable nonbasis position
            if cols[-1][r] != 0:
                raise SolverInvariantError(
                    "auxiliary variable left basic at a nonzero value"
                )
            s = next((j for j in range(len(t.nonbasis)) if cols[j][r] != 0), None)
            if s is None:
                raise SolverInvariantError(
                    "no column to pivot the auxiliary variable out on"
                )
            t.pivot(r, s)
        drop = t.nonbasis.index(aux)
        del t.nonbasis[drop]
        del cols[drop]
        for col in cols:
            col.pop()

    t.run()
    d = t.d
    x = t.point(n)
    z = cols[-1][-1]
    _certify_optimal(A, b, c, d, x, t.slack_duals(n), z)
    return LpSolution(
        status=OPTIMAL,
        x=[Fraction(v, d) for v in x],
        value=Fraction(z, d),
    )
