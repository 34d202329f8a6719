"""Weyl-Heisenberg index formulas, symplectic unitaries and overlap tables.

Conventions, fixed once here and relied on everywhere downstream:
  X|r> = |r+1>,  Z|r> = w^r |r>,  w = exp(2 pi i/d),  tau = -exp(i pi/d),
  D_p = tau^(p1 p2) X^p1 Z^p2, so (D_p)_{r,s} = tau^(p1 p2 + 2 p2 s) for
  r = s + p1 mod d. Then D_p D_q = tau^<p,q> D_{p+q} with <p,q> = p2 q1 - p1 q2,
  and D_p^dagger = D_{-p}. Indices live mod d' (= d for odd d, 2d for even d).

A displacement is never built as a matrix: each row of D_p has one nonzero
entry, so it enters as that index formula, read off the one tau table
tau_powers. Applied to a vector it is a phased cyclic shift
(fidsearch.displace), conjugating a projector twists its overlap table by a
phase (OverlapTable.displaced), and a sum over D_p with overlap coefficients
is operator_rows. The one dense operator is the symplectic unitary U_F, a
tuple of row tuples, which the double-precision seed search diagonalizes.

Overlaps are chi_p = Tr(D_p Pi) = <psi|D_p|psi> for Pi = |psi><psi|; the
adjoint index flip chi_{-p} = conj(chi_p) is what operator reconstruction
uses.
"""

from __future__ import annotations

import math
from functools import cache

import mpmath as mp

from .bignum import abs2, guarded
from .modring import ModMatrix, dprime
from .numfield import dot


@cache
def tau_powers(d: int, prec: int) -> tuple:
    """(tau^0 .. tau^{2d-1}) at guarded precision, built once per pair."""
    with mp.workdps(guarded(prec)):
        t = -mp.expjpi(mp.mpf(1) / d)
        tab = [mp.mpc(1)]
        for _ in range(2 * d - 1):
            tab.append(tab[-1] * t)
    return tuple(tab)


def _canonical_scale(d: int, prec: int):
    """e^{i theta}/sqrt(d) with the phase that puts all entries in Q(tau):
    1, i, e^{i pi/4} for d = 1, 3 mod 4 and even d respectively."""
    with mp.workdps(guarded(prec)):
        if d % 2 == 0:
            ph = mp.expjpi(mp.mpf(1) / 4)
        elif d % 4 == 1:
            ph = mp.mpc(1)
        else:
            ph = mp.mpc(0, 1)
        return ph / mp.sqrt(d)


def _uf_direct(F: ModMatrix, d: int, prec: int) -> tuple:
    """Direct formula, valid iff gcd(beta, d') = 1."""
    dp = dprime(d)
    a, b, c, dd = F.entries
    binv = pow(b, -1, dp)
    taus = tau_powers(d, prec)
    scale = _canonical_scale(d, prec)
    n = 2 * d
    with mp.workdps(guarded(prec)):
        return tuple(tuple(scale * taus[(binv * (dd * r * r - 2 * r * s
                                                 + a * s * s)) % n]
                           for s in range(d)) for r in range(d))


def split_symplectic(F: ModMatrix) -> tuple[ModMatrix, ModMatrix]:
    """Write F = A*B with gcd(beta(A), m) = gcd(beta(B), m) = 1.

    Right factors [[0,-1],[1,k]] are tried first; they leave beta(A) = alpha(F)
    and so fail whenever gcd(alpha, m) > 1 too, in which case a left factor
    [[0,-1],[1,k]] works: beta(B) = k*beta + delta hits a unit mod m for some
    k because delta is a unit mod every prime dividing gcd(beta, m).
    """
    m = F.m
    for k in range(m):
        right = ModMatrix(0, -1, 1, k, m)
        left_part = F * right.inv()
        if math.gcd(left_part.b, m) == 1:
            return left_part, right
    for k in range(m):
        left = ModMatrix(0, -1, 1, k, m)
        right_part = left.inv() * F
        if math.gcd(right_part.b, m) == 1:
            return left, right_part
    raise AssertionError(f"no two-factor splitting for {F!r}")  # unreachable


@cache
def symplectic_unitary(F: ModMatrix, d: int, precision: int) -> tuple:
    """The unitary U_F of a symplectic F as a tuple of row tuples, built once
    per argument triple. F must arrive mod d': a mod-d matrix for even d has
    no canonical mod-2d lift, so that is the caller's mistake, not something
    to guess. When gcd(beta, d') > 1, U_F is the product of the two factors'
    direct unitaries, each entry one fsum at guarded precision."""
    dp = dprime(d)
    if F.m != dp:
        raise ValueError(f"matrix modulus {F.m} != d' = {dp}")
    if F.det() != 1:
        raise ValueError("symplectic matrix must have det 1 mod d'")
    if math.gcd(F.b, dp) == 1:
        return _uf_direct(F, d, precision)
    A, B = split_symplectic(F)
    cols = list(zip(*_uf_direct(B, d, precision)))
    with mp.workdps(guarded(precision)):
        return tuple(tuple(mp.fsum(a * b for a, b in zip(row, col))
                           for col in cols)
                     for row in _uf_direct(A, d, precision))


# ---------------------------------------------------------------------------
# overlaps


class OverlapTable:
    """chi_p over p in (Z/d')^2; chi_0 is pinned to exactly 1 for tables
    sourced from a state vector."""

    __slots__ = ("d", "precision", "values")

    def __init__(self, d: int, precision: int, values: dict, normalized: bool = True):
        self.d = d
        self.precision = precision
        dp = dprime(d)
        if len(values) != dp * dp:
            raise ValueError(f"need {dp * dp} entries, got {len(values)}")
        if normalized:
            z0 = values[(0, 0)]
            with mp.workdps(guarded(precision)):
                values = {p: v / z0 for p, v in values.items()}
            values[(0, 0)] = mp.mpc(1)
        self.values = values

    def chi(self, p: tuple):
        dp = dprime(self.d)
        return self.values[(p[0] % dp, p[1] % dp)]

    def items(self):
        return self.values.items()

    def sic_error(self):
        """max over p not = 0 mod d of |(d+1)|chi_p|^2 - 1|."""
        d = self.d
        with mp.workdps(guarded(self.precision)):
            worst = mp.mpf(0)
            for (p1, p2), v in self.values.items():
                if p1 % d == 0 and p2 % d == 0:
                    continue
                worst = max(worst, abs((d + 1) * abs2(v) - 1))
        return worst

    def displaced(self, s: tuple) -> "OverlapTable":
        """Overlaps of D_s Pi D_s^dagger: chi'_q = w^{<q,s>} chi_q."""
        d, dp = self.d, dprime(self.d)
        taus = tau_powers(d, self.precision)
        out = {}
        with mp.workdps(guarded(self.precision)):
            for (q1, q2), v in self.values.items():
                e = (2 * (q2 * s[0] - q1 * s[1])) % (2 * d)
                out[(q1, q2)] = taus[e] * v
        return OverlapTable(d, self.precision, out, normalized=False)


def _overlap_sums(psi: list, d: int, taus, m: int) -> dict:
    """Raw chi_p = sum_s conj(psi_{s+p1}) tau^(p1 p2 + 2 p2 s) psi_s for p in
    (Z/m)^2; runs in the caller's context. Each first product
    conj(psi_j) tau^k is computed once, for all of the m^2 d terms."""
    n = 2 * d
    conj_psi = [mp.conj(x) for x in psi]
    first = {(j, k): conj_psi[j] * taus[k] for j in range(d) for k in range(n)}
    return {(p1, p2): mp.fsum((first[(s + p1) % d, (p1 * p2 + 2 * p2 * s) % n]
                               * psi[s] for s in range(d)), absolute=False)
            for p1 in range(m) for p2 in range(m)}


def overlaps(fid, d: int | None = None, precision: int | None = None) -> OverlapTable:
    """chi_p = Tr(D_p Pi) for all p mod d'. Accepts a Fiducial, or a
    sequence of entries with an explicit precision (d defaults to its
    length)."""
    if hasattr(fid, "vector"):
        v, d, precision = fid.vector, fid.d, fid.precision
    else:
        v = fid
        if precision is None:
            raise ValueError("overlaps of raw entries need a precision")
        d = len(v) if d is None else d
    with mp.workdps(guarded(precision)):
        values = _overlap_sums(v, d, tau_powers(d, precision), dprime(d))
    return OverlapTable(d, precision, values, normalized=True)


def operator_rows(chi, d: int, taus, inv_d) -> list:
    """Rows of A = (1/d) sum_{p in (Z/d)^2} chi_{-p} D_p, one period only, in
    any arithmetic with + and *: chi maps indices mod d' to values, taus holds
    tau^0 .. tau^{2d-1} and inv_d is 1/d. Entry (r, s) is the sum of the d
    terms with p1 = r - s mod d, taken by numfield.dot: reduced once for
    tower elements."""
    dp, n = dprime(d), 2 * d
    rows = []
    for r in range(d):
        row = []
        for s in range(d):
            p1 = (r - s) % d
            row.append(dot([chi[(-p1 % dp, -p2 % dp)] for p2 in range(d)],
                           [taus[(p1 * p2 + 2 * p2 * s) % n]
                            for p2 in range(d)]) * inv_d)
        rows.append(row)
    return rows
