"""Guarded precision, decimal I/O and the linear solve (LU factors kept for
many right-hand sides), on top of mpmath.

Precision is tracked in decimal digits everywhere user-facing. The pipeline
holds vectors and matrices as tuples of raw mpmath numbers; LUFactors takes
rows and a precision and works inside an explicit guarded working-precision
context. CVector, CMatrix and solve_linear keep only what the benchmark's
self-check calls.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import mpmath as mp

from .errors import SingularMatrixError

# Pipeline stages request 20% more digits than the consumer needs.
GUARD_FRACTION = 0.2
MIN_GUARD_DIGITS = 10


def guarded(digits: int) -> int:
    """Working digits for a stage that must deliver `digits` to its consumer."""
    return digits + max(MIN_GUARD_DIGITS, math.ceil(GUARD_FRACTION * digits))


def format_decimal(x, digits: int) -> str:
    """Serialize to `digits` significant decimal digits; round-trips to the
    stated precision with parse_decimal."""
    with mp.workdps(digits + 5):
        return mp.nstr(mp.mpf(x), digits, strip_zeros=False)


def parse_decimal(s: str, digits: int) -> mp.mpf:
    with mp.workdps(guarded(digits)):
        return mp.mpf(s)


def significant_digits(s: str) -> int:
    """Digits of a decimal string's mantissa from its first nonzero one; 0
    for zero and for text that is no decimal. A loader refuses a declared
    precision above what its decimals store before parsing at it."""
    mantissa = s.lower().partition("e")[0]
    return len("".join(c for c in mantissa if c.isdigit()).lstrip("0"))


class CVector:
    """Dense complex vector with uniform declared precision; entries are raw
    mpmath numbers."""

    __slots__ = ("entries", "prec")

    def __init__(self, entries: Iterable, prec: int):
        # convert under guarded precision: mpc() rounds to the *ambient*
        # context, which silently truncates high-precision inputs
        with mp.workdps(guarded(prec)):
            self.entries: tuple = tuple(mp.mpc(e) for e in entries)
        self.prec = prec

    def __len__(self) -> int:
        return len(self.entries)

    def __sub__(self, other: "CVector") -> "CVector":
        prec = min(self.prec, other.prec)
        with mp.workdps(guarded(prec)):
            return CVector([a - b for a, b in zip(self.entries, other.entries)], prec)

    def max_abs(self):
        with mp.workdps(guarded(self.prec)):
            return max(abs(e) for e in self.entries)


class CMatrix:
    """Dense complex matrix, row-major, uniform declared precision."""

    __slots__ = ("rows", "nrows", "ncols", "prec")

    def __init__(self, rows: Sequence[Sequence], prec: int):
        with mp.workdps(guarded(prec)):
            self.rows: tuple = tuple(tuple(mp.mpc(e) for e in row) for row in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged rows")
        self.prec = prec

    @classmethod
    def identity(cls, n: int, prec: int) -> "CMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], prec)

    def matvec(self, v: CVector) -> CVector:
        prec = min(self.prec, v.prec)
        with mp.workdps(guarded(prec)):
            return CVector([mp.fsum(a * b for a, b in zip(row, v.entries))
                            for row in self.rows], prec)


class LinearSolution(NamedTuple):
    x: CVector
    residual: mp.mpf      # max-norm of Bx - v at working precision
    condition: mp.mpf     # pivot-growth estimate, order of magnitude only


class LUFactors:
    """Gaussian elimination with partial pivoting of one square matrix, kept
    to solve against many right-hand sides: row-permuted B = L U, with the
    unit lower factor's multipliers below the diagonal of `lu` and U on and
    above it. Solving repeats exactly the operations of eliminating B with
    the right-hand side carried along."""

    __slots__ = ("prec", "perm", "lu", "pivots")

    def __init__(self, rows: Sequence[Sequence], prec: int):
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("LU factors need a square matrix")
        self.prec = prec
        with mp.workdps(guarded(prec)):
            # mpc() at the guarded precision: Python ints stay exact, and
            # no pivot's reciprocal becomes a float
            a = [[mp.mpc(e) for e in row] for row in rows]
            perm = list(range(n))
            floor = mp.mpf(10) ** (-(guarded(prec) - 5)) \
                * max(max(abs(e) for row in a for e in row), mp.mpf(1))
            pivots = []
            for col in range(n):
                piv = max(range(col, n), key=lambda r: abs(a[r][col]))
                if abs(a[piv][col]) < floor:
                    raise SingularMatrixError(
                        f"pivot {col} below precision floor")
                if piv != col:
                    a[col], a[piv] = a[piv], a[col]
                    perm[col], perm[piv] = perm[piv], perm[col]
                pivots.append(abs(a[col][col]))
                inv = 1 / a[col][col]
                for r in range(col + 1, n):
                    f = a[r][col] * inv
                    a[r][col] = f
                    if f == 0:
                        continue
                    for c in range(col + 1, n):
                        a[r][c] -= f * a[col][c]
        self.perm, self.lu, self.pivots = perm, a, pivots

    def solve(self, v) -> list:
        """x with B x = v, for v a sequence of n numbers."""
        a, n = self.lu, len(self.lu)
        with mp.workdps(guarded(self.prec)):
            b = [v[i] for i in self.perm]
            for col in range(n):
                for r in range(col + 1, n):
                    if a[r][col] != 0:
                        b[r] -= a[r][col] * b[col]
            x = [mp.mpc(0)] * n
            for r in range(n - 1, -1, -1):
                s = b[r] - mp.fsum(a[r][c] * x[c] for c in range(r + 1, n))
                x[r] = s / a[r][r]
        return x


def solve_linear(B: CMatrix, v: CVector, prec: int | None = None) -> LinearSolution:
    """Solve Bx = v by Gaussian elimination with partial pivoting.

    Raises SingularMatrixError when the best available pivot is below the
    precision floor; the reported condition number is the max/min pivot
    magnitude ratio, a cheap growth estimate rather than a true kappa.
    """
    if len(v) != B.nrows:
        raise ValueError("solve_linear needs a square system")
    if prec is None:
        prec = min(B.prec, v.prec)
    lu = LUFactors(B.rows, prec)
    sol = CVector(lu.solve(v.entries), prec)
    with mp.workdps(guarded(prec)):
        res = (B.matvec(sol) - v).max_abs()
        cond = max(lu.pivots) / min(lu.pivots)
    return LinearSolution(sol, res, cond)
