"""Guarded precision and decimal I/O on top of mpmath, the squared modulus
and cached powers of ten that numeric decisions compare, and one dense
linear solve.

Precision is tracked in decimal digits everywhere user-facing. The pipeline
holds vectors and matrices as tuples of raw mpmath numbers and solves no
dense system; CVector, CMatrix and solve_linear keep only what the
benchmark's self-check calls, and solve_linear works inside an explicit
guarded working-precision context.
"""

from __future__ import annotations

import functools
import math
from operator import mul
from typing import Iterable, NamedTuple, Sequence

import mpmath as mp

from .errors import SingularMatrixError

# Pipeline stages request 20% more digits than the consumer needs.
GUARD_FRACTION = 0.2
MIN_GUARD_DIGITS = 10


def guarded(digits: int) -> int:
    """Working digits for a stage that must deliver `digits` to its consumer."""
    return digits + max(MIN_GUARD_DIGITS, math.ceil(GUARD_FRACTION * digits))


def abs2(z) -> mp.mpf:
    """|z|^2 = re^2 + im^2, summed exactly and rounded once to the working
    precision. A closeness test compares it with a squared threshold and so
    takes no square root."""
    re, im = z.real, z.imag
    return mp.fdot(((re, re), (im, im)))


@functools.cache
def ten_to(k: int, digits: int) -> mp.mpf:
    """10^k rounded to `digits` digits, computed once per pair."""
    with mp.workdps(digits):
        return mp.mpf(10) ** k


def format_decimal(x, digits: int) -> str:
    """Serialize to `digits` significant decimal digits; round-trips to the
    stated precision with parse_decimal."""
    with mp.workdps(digits + 5):
        return mp.nstr(mp.mpf(x), digits, strip_zeros=False)


def parse_decimal(s: str, digits: int) -> mp.mpf:
    with mp.workdps(guarded(digits)):
        return mp.mpf(s)


def significant_digits(s: str) -> int:
    """Digits of a decimal string's mantissa from its first nonzero one, 0
    for zero; for other text, its digit characters before any e, from the
    first nonzero one. A loader refuses a declared precision above what its
    decimals store before parsing at it."""
    mantissa = s.lower().partition("e")[0]
    # a sign, one point and leading zeros off a decimal leave its digits
    digits = mantissa.lstrip("+-").replace(".", "", 1).lstrip("0")
    if digits.isdigit() or not digits:
        return len(digits)
    # other text: every digit character, as for a decimal
    return len("".join(filter(str.isdigit, mantissa)).lstrip("0"))


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


class LinearSolution(NamedTuple):
    x: CVector
    residual: mp.mpf      # max-norm of Bx - v at working precision
    condition: mp.mpf     # pivot-growth estimate, order of magnitude only


def solve_linear(B: CMatrix, v: CVector, prec: int | None = None) -> LinearSolution:
    """Solve Bx = v by Gaussian elimination with partial pivoting, the
    right-hand side carried along as one more column, then back
    substitution.

    Raises SingularMatrixError when the best available pivot is below the
    precision floor; the reported condition number is the max/min pivot
    magnitude ratio, a cheap growth estimate rather than a true kappa.
    """
    n = B.nrows
    if len(v) != n or B.ncols != n:
        raise ValueError("solve_linear needs a square system")
    if prec is None:
        prec = min(B.prec, v.prec)
    with mp.workdps(guarded(prec)):
        a = [list(row) + [y] for row, y in zip(B.rows, v.entries)]
        floor = mp.mpf(10) ** (-(guarded(prec) - 5)) \
            * max([abs(e) for row in B.rows for e in row] + [mp.mpf(1)])
        pivots = []
        for col in range(n):
            piv = max(range(col, n), key=lambda r: abs(a[r][col]))
            if abs(a[piv][col]) < floor:
                raise SingularMatrixError(f"pivot {col} below precision floor")
            a[col], a[piv] = a[piv], a[col]
            pivots.append(abs(a[col][col]))
            for r in range(col + 1, n):
                f = a[r][col] / a[col][col]
                if f != 0:
                    for c in range(col + 1, n + 1):
                        a[r][c] -= f * a[col][c]
        x = [mp.mpc(0)] * n
        for r in range(n - 1, -1, -1):
            x[r] = (a[r][n] - mp.fsum(a[r][c] * x[c]
                                      for c in range(r + 1, n))) / a[r][r]
        res = max(abs(mp.fsum(map(mul, row, x)) - y)
                  for row, y in zip(B.rows, v.entries))
        return LinearSolution(CVector(x, prec), res, max(pivots) / min(pivots))
