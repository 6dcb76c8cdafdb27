"""Exact linear programming over rationals.

A small two-phase simplex on Fraction arithmetic, sufficient for the
desk-scale verification problems in this package (tens of rows and
columns).  Problems are given in the standard inequality form

    maximize c . x   subject to  A x <= b,  x >= 0.

Bland's rule is used for both entering and leaving variables, so the
method terminates without cycling.  Phase one introduces a single
auxiliary variable added to every row, as in the classic textbook
construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from .errors import InputError, SolverInvariantError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpSolution:
    status: str
    x: Optional[List[Fraction]]
    value: Optional[Fraction]


class _Dictionary:
    """Slack-form dictionary.

    Row i reads  x_basis[i] = const[i] + sum_j coef[i][j] * x_nonbasis[j]
    and the objective reads  z = z0 + sum_j zcoef[j] * x_nonbasis[j].
    """

    def __init__(self, basis, nonbasis, const, coef, z0, zcoef):
        self.basis: List[int] = basis
        self.nonbasis: List[int] = nonbasis
        self.const: List[Fraction] = const
        self.coef: List[List[Fraction]] = coef
        self.z0: Fraction = z0
        self.zcoef: List[Fraction] = zcoef

    def pivot(self, row: int, col: int) -> None:
        piv = self.coef[row][col]
        if piv == 0:
            raise SolverInvariantError("pivot on a zero coefficient")
        enter = self.nonbasis[col]
        leave = self.basis[row]
        # solve row for the entering variable
        inv = Fraction(-1) / piv
        new_row = [c * inv for c in self.coef[row]]
        new_row[col] = Fraction(1) / piv
        new_const = self.const[row] * inv
        # substitute into the other rows
        for i in range(len(self.basis)):
            if i == row:
                continue
            factor = self.coef[i][col]
            if factor == 0:
                continue
            self.const[i] += factor * new_const
            old = self.coef[i]
            for j in range(len(old)):
                if j == col:
                    old[j] = factor * new_row[j]
                else:
                    old[j] += factor * new_row[j]
        zfac = self.zcoef[col]
        if zfac != 0:
            self.z0 += zfac * new_const
            for j in range(len(self.zcoef)):
                if j == col:
                    self.zcoef[j] = zfac * new_row[j]
                else:
                    self.zcoef[j] += zfac * new_row[j]
        self.const[row] = new_const
        self.coef[row] = new_row
        self.basis[row] = enter
        self.nonbasis[col] = leave

    def bland_step(self) -> Optional[str]:
        """One simplex step.  Returns None if pivoted, OPTIMAL or
        UNBOUNDED when finished."""
        col = None
        best_var = None
        for j, var in enumerate(self.nonbasis):
            if self.zcoef[j] > 0 and (best_var is None or var < best_var):
                best_var = var
                col = j
        if col is None:
            return OPTIMAL
        row = None
        best_ratio: Optional[Fraction] = None
        leave_var = None
        for i in range(len(self.basis)):
            a = self.coef[i][col]
            if a >= 0:
                continue
            ratio = -self.const[i] / a
            if (
                best_ratio is None
                or ratio < best_ratio
                or (ratio == best_ratio and self.basis[i] < leave_var)
            ):
                best_ratio = ratio
                row = i
                leave_var = self.basis[i]
        if row is None:
            return UNBOUNDED
        self.pivot(row, col)
        return None

    def run(self) -> str:
        while True:
            res = self.bland_step()
            if res is not None:
                return res


def solve_lp(
    c: Sequence[Fraction],
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
) -> LpSolution:
    """Maximize c.x subject to A x <= b, x >= 0, exactly."""
    n = len(c)
    m = len(A)
    if len(b) != m:
        raise InputError("rhs length does not match row count")
    for row in A:
        if len(row) != n:
            raise InputError("matrix row length does not match objective length")
    c = [Fraction(v) for v in c]
    b = [Fraction(v) for v in b]
    A = [[Fraction(v) for v in row] for row in A]

    # slack variable ids n .. n+m-1, auxiliary id n+m
    basis = list(range(n, n + m))
    nonbasis = list(range(n))
    const = list(b)
    coef = [[-A[i][j] for j in range(n)] for i in range(m)]

    need_phase1 = any(v < 0 for v in b)
    if need_phase1:
        aux = n + m
        for i in range(m):
            coef[i].append(Fraction(1))
        nonbasis.append(aux)
        d = _Dictionary(
            basis, nonbasis, const, coef,
            Fraction(0), [Fraction(0)] * n + [Fraction(-1)],
        )
        # special first pivot: bring the auxiliary in on the worst row
        worst = min(range(m), key=lambda i: (const[i], basis[i]))
        d.pivot(worst, n)
        status = d.run()
        if status != OPTIMAL:  # phase-1 objective is bounded above by 0
            raise SolverInvariantError(f"phase one ended {status}")
        if d.z0 != 0:
            return LpSolution(status=INFEASIBLE, x=None, value=None)
        if aux in d.basis:
            row = d.basis.index(aux)
            # degenerate: value must be 0; pivot it out on any usable column
            if d.const[row] != 0:
                raise SolverInvariantError(
                    "auxiliary variable left basic at a nonzero value"
                )
            col = None
            for j, var in enumerate(d.nonbasis):
                if d.coef[row][j] != 0:
                    col = j
                    break
            if col is None:
                raise SolverInvariantError(
                    "no column to pivot the auxiliary variable out on"
                )
            d.pivot(row, col)
        keep = [j for j, var in enumerate(d.nonbasis) if var != aux]
        d.nonbasis = [d.nonbasis[j] for j in keep]
        d.coef = [[r[j] for j in keep] for r in d.coef]
        # restore the real objective through the current basis
        z0 = Fraction(0)
        zcoef = [Fraction(0)] * len(d.nonbasis)
        for var in range(n):
            cv = c[var]
            if cv == 0:
                continue
            if var in d.basis:
                i = d.basis.index(var)
                z0 += cv * d.const[i]
                for j in range(len(d.nonbasis)):
                    zcoef[j] += cv * d.coef[i][j]
            else:
                j = d.nonbasis.index(var)
                zcoef[j] += cv
        d.z0 = z0
        d.zcoef = zcoef
    else:
        d = _Dictionary(basis, nonbasis, const, coef, Fraction(0), list(c))

    status = d.run()
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED, x=None, value=None)
    x = [Fraction(0)] * n
    for i, var in enumerate(d.basis):
        if var < n:
            x[var] = d.const[i]
    return LpSolution(status=OPTIMAL, x=x, value=d.z0)
