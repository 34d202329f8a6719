"""Integer-relation detection via exact-integer LLL.

One engine serves three jobs: raw relations among real/complex numbers,
minimal polynomials, and relations m_0 x = sum m_j b_j that express a number
over a known basis (numfield.relation_element reads the element off them).
The reduction is the all-integer variant (Gram determinants d_i
and scaled Gram-Schmidt coefficients lambda_{i,j}), so no precision is lost
inside the lattice step itself.

A relation lattice [I | C] (C: the one or two scaled value columns) is fed
gradually (van Hoeij-Novocin, "Gradual sub-lattice reduction", 2010): it is
first reduced with only the top FEED_BITS bits of C, then the identity block
U of the result is kept and [U | U*(C >> shift)] is reduced again with
FEED_BITS more bits, until the full columns are in. U is unimodular, so the
last rung spans the input lattice and is LLL-reduced like a direct reduction.
Callers with an acceptance gate stop earlier: once the shortest coefficient
row is the same on two consecutive rungs and the gate, which checks the
rows against the full-precision values, accepts that rung. A scoring caller
with a norm bound also stops once that row's norm reaches the bound. Floating
point enters only through the scaled columns and those gates, and the gate
decides on squares: a row's exact integer sum of squared coefficients
against an integer loose^2, and, only for a row that would beat the best so
far, its residual's squared modulus against tight^2. The scale and the
thresholds are computed once per precision (and lattice dimension), so a
gate call takes no square root and no transcendental power.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import mpmath as mp

from .bignum import abs2, guarded, ten_to

# Lovasz parameter delta = SWAP_P / SWAP_Q; 0.99 trades a little speed for
# shorter vectors, which matters when the true relation is barely inside the
# detection radius.
SWAP_P = 99
SWAP_Q = 100

# Bits of the value columns added per rung of the gradual feeding.
FEED_BITS = 64

# Residual must beat 10^(-TIGHT*prec) while the relation norm stays below
# 10^(LOOSE*prec); the gap between the two is the spurious-relation margin
# (_gate_bounds).
TIGHT = 0.7
LOOSE = 0.3


def scaling_guard(prec: int) -> int:
    return max(20, prec // 10)


# ---------------------------------------------------------------------------
# exact-integer LLL


def lll_reduce(rows: Sequence[Sequence[int]], *,
               stop: Callable[[list], object] | None = None,
               bound: mp.mpf | None = None) -> list[list[int]]:
    """LLL-reduce integer row vectors; returns a new list of reduced rows.

    All arithmetic is exact. Input rows must be linearly independent. A
    relation lattice [I | C] is fed FEED_BITS bits of C at a time (module
    docstring); any other basis is reduced directly. `stop` is a relation
    caller's gate on the reduced rows: when the shortest coefficient row is
    unchanged from the previous rung and `stop(rows)` is truthy, that rung's
    coefficient block U is returned as [U | U*C], which lies in the input
    lattice but need not be LLL-reduced. With a norm `bound`, the same
    happens on the first rung whose shortest coefficient row has norm at
    least `bound`, repeated or not.
    """
    n = len(rows)
    if not rows or not all(
            len(r) > n and all(x == int(i == j) for j, x in enumerate(r[:n]))
            for i, r in enumerate(rows)):
        return _lll_integral(rows)
    cols = [r[n:] for r in rows]
    shift = max(abs(x).bit_length() for c in cols for x in c)
    u = [list(r[:n]) for r in rows]
    prev = None
    bound2 = None if bound is None else bound * bound
    while True:
        shift = max(0, shift - FEED_BITS)
        reduced = _lll_integral(_fed_rows(u, cols, shift))
        if shift == 0:
            return reduced
        u = [r[:n] for r in reduced]
        if stop is not None or bound is not None:
            cur = _shortest(u, n)
            if (stop is not None and cur == prev and stop(reduced)) or (
                    bound2 is not None and sum(c * c for c in cur) >= bound2):
                return _fed_rows(u, cols, 0)
            prev = cur


def _fed_rows(u, cols, shift):
    """[U | U*(C >> shift)] for the coefficient block U and value columns C."""
    fed = [[x >> shift for x in c] for c in cols]
    return [ui + [sum(a * c[j] for a, c in zip(ui, fed))
                  for j in range(len(fed[0]))] for ui in u]


def _shortest(rows, n):
    """Coefficient block of the shortest nonzero coefficient row, its first
    nonzero entry made positive (the first such row on a tie)."""
    best = None
    for row in rows:
        coeffs = row[:n]
        norm = sum(c * c for c in coeffs)
        if norm and (best is None or norm < best[0]):
            best = (norm, coeffs)
    coeffs = best[1]
    return [-c for c in coeffs] if next(c for c in coeffs if c) < 0 else coeffs


def _lll_integral(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The exact-integer LLL loop (Cohen, GTM 138, Alg. 2.6.7)."""
    p, q = SWAP_P, SWAP_Q
    b = [list(r) for r in rows]
    n = len(b)
    if n == 0:
        return []
    d = [1] * (n + 1)  # d[i] = Gram determinant of first i rows, d[0] = 1
    lam = [[0] * n for _ in range(n)]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def red(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            r = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - r * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= r * d[l + 1]
            for i in range(l):
                lam[k][i] -= r * lam[l][i]

    def swap(k):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lam_ = lam[k][k - 1]
        bb = (d[k - 1] * d[k + 1] + lam_ * lam_) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lam_ * t) // d[k]
            lam[i][k - 1] = (bb * t + lam_ * lam[i][k]) // d[k + 1]
        d[k] = bb

    kmax = 0
    # incremental Gram-Schmidt for row 0
    d[1] = dot(b[0], b[0])
    if d[1] == 0:
        raise ValueError("zero row in lattice basis")
    k = 1
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = dot(b[k], b[j])
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    if u == 0:
                        raise ValueError("rows not linearly independent")
                    d[k + 1] = u
        red(k, k - 1)
        if q * d[k + 1] * d[k - 1] < p * d[k] * d[k] - q * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return b


# ---------------------------------------------------------------------------
# relation detection


@dataclass(frozen=True)
class RelationResult:
    """Integers m_0..m_n with m_0*x_0 - sum_{j>=1} m_j*x_j ~ 0; accepted
    when the relation passes integer_relation's acceptance gate."""
    coefficients: tuple
    residual: mp.mpf
    precision: int
    accepted: bool = True

    def __iter__(self):
        return iter(self.coefficients)


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, ascending coefficients, content 1, positive leading
    coefficient."""
    coeffs: tuple

    def __post_init__(self):
        c = list(self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        g = math.gcd(*(abs(x) for x in c)) if any(c) else 1
        c = [x // g for x in c]
        if c[-1] < 0:
            c = [-x for x in c]
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = mp.mpf(0) if not isinstance(x, (mp.mpc, complex)) else mp.mpc(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def _prepare(xs, precision):
    # conversion must happen above working precision or mpc() rounds the
    # inputs to the ambient (possibly default-15-digit) context
    with mp.workdps(guarded(precision) + 15):
        return [mp.mpc(v) for v in xs]


def _candidate_rows(vals, prec):
    """Relation lattice: identity block plus one (real) or two (complex)
    scaled value columns. The scale is 10^(prec-g); an imaginary part above
    10^-(prec-g) makes the input complex."""
    e = prec - scaling_guard(prec)
    scale, imag_floor = ten_to(e, prec + 10), ten_to(-e, prec + 10)
    n = len(vals)
    with mp.workdps(prec + 10):
        complex_input = any(abs(v.imag) > imag_floor for v in vals)
        rows = []
        for i, v in enumerate(vals):
            row = [1 if j == i else 0 for j in range(n)]
            row.append(int(mp.nint(v.real * scale)))
            if complex_input:
                row.append(int(mp.nint(v.imag * scale)))
            rows.append(row)
    return rows


@functools.cache
def _gate_bounds(n, prec):
    """The acceptance gate's thresholds for n values at prec digits: tight^2
    on a residual's squared modulus, and the integer loose^2, rounded up, on
    a coefficient row's exact squared norm (for an integer N, N < loose^2
    exactly when N < ceil(loose^2)). The residual must beat
    10^(-TIGHT*prec); the norm must stay below 10^(LOOSE*prec) and below the
    junk-floor cap of _scan_reduced."""
    junk_floor = (prec - scaling_guard(prec)) / n
    cap_digits = junk_floor - max(5.0, 0.15 * junk_floor)
    with mp.workdps(prec + 10):
        tight = mp.mpf(10) ** (-TIGHT * prec)
        loose = min(mp.mpf(10) ** (LOOSE * prec), mp.mpf(10) ** cap_digits)
        return tight * tight, int(mp.ceil(loose * loose))


def _scan_reduced(reduced, vals, n, prec):
    """Pick the smallest acceptable relation among reduced rows, as (squared
    norm, coefficients), or None.

    Junk relations (they always exist) have height around 10^((prec-g)/n);
    accepted relations must sit several orders of magnitude below that floor,
    on top of the blanket 10^(LOOSE*prec) cap. When the floor leaves no room,
    nothing is accepted and the caller sees an honest None.

    Rows are compared by their exact integer squared norms against the
    cached loose^2, so no square root is taken. The residual, the one
    floating-point sum, is evaluated only for a row whose squared norm beats
    the best so far, and its squared modulus is compared with tight^2; on
    a tie the first such row stays.
    """
    tight2, loose2 = _gate_bounds(n, prec)
    best = None
    with mp.workdps(prec + 10):
        for row in reduced:
            coeffs = row[:n]
            norm2 = sum(c * c for c in coeffs)
            if not norm2 or norm2 >= loose2 or (
                    best is not None and norm2 >= best[0]):
                continue
            resid = mp.fsum((c * v for c, v in zip(coeffs, vals)),
                            absolute=False)
            if abs2(resid) < tight2:
                best = (norm2, coeffs)
    return best


def _gated_reduce(rows, gate):
    """lll_reduce with `gate` as its stop; returns the gate's result on the
    rung that stopped (its coefficient block is what lll_reduce returns), or
    on the final rows when none did."""
    accepted = []

    def stop(reduced):
        got = gate(reduced)
        if got is not None:
            accepted.append(got)
        return got

    reduced = lll_reduce(rows, stop=stop)
    return accepted[0] if accepted else gate(reduced)


def _normalize(coeffs):
    g = math.gcd(*(abs(c) for c in coeffs))
    if g > 1:
        coeffs = [c // g for c in coeffs]
    lead = next(c for c in coeffs if c != 0)
    if lead < 0:
        coeffs = [-c for c in coeffs]
    return coeffs


def integer_relation(xs, precision: int) -> RelationResult | None:
    """Find integers m with m_0*x_0 = sum_{j>=1} m_j*x_j, or None."""
    vals = _prepare(xs, precision)
    prec = precision
    n = len(vals)
    if n < 2:
        raise ValueError("need at least two numbers")

    # the acceptance gate, which also lets the fed reduction stop early
    def gate(rows):
        return _scan_reduced(rows, vals, n, prec)

    best = _gated_reduce(_candidate_rows(vals, prec), gate)
    if best is None:
        return None
    coeffs = _normalize(best[1])
    # store in the m_0*x_0 - sum m_j*x_j convention
    signed = [coeffs[0]] + [-c for c in coeffs[1:]]
    with mp.workdps(prec + 10):
        resid = abs(mp.fsum((c * v for c, v in zip(coeffs, vals)), absolute=False))
    return RelationResult(tuple(signed), resid, prec)


def relation_lattice(xs, precision: int) -> tuple:
    """The integer rows raw_relation and integer_relation reduce for xs, as
    a tuple of tuples: two value lists with equal rows reduce alike."""
    vals = _prepare(xs, precision)
    return tuple(map(tuple, _candidate_rows(vals, precision)))


def raw_relation(xs, precision: int,
                 bound: mp.mpf | None = None) -> RelationResult:
    """Best-effort relation for comparative scoring: the minimum-norm nonzero
    coefficient row of the fully reduced lattice, accepted when
    integer_relation's gate passes that row.

    When the xs are real and no true relation exists, the norm sits near
    the junk floor 10^((prec-g)/n), so score ratios between candidate
    hypotheses stay meaningful even though the losing rows are never
    accepted. A non-real
    x_0 over a real basis is the exception: no small relation can involve
    x_0, so one reduced row keeps x_0's large imaginary entry beside a tiny
    coefficient block such as (1, 0, ..., 0), and the shortest coefficient
    row's norm, often 1, says nothing. Callers scoring such a target rule
    it out before calling.

    With a norm `bound`, feeding stops at the rung that decides the verdict:
    where the shortest coefficient row repeats and the gate accepts it, or
    where its norm reaches `bound`. An accepted row is the relation full
    feeding finds, since a relation over a basis independent over Q is
    unique up to scale. A row at the bound is returned unaccepted, its norm
    a lower bound on the fully fed one: more bits only lengthen junk rows.
    """
    vals = _prepare(xs, precision)
    prec = precision
    n = len(vals)
    if n < 2:
        raise ValueError("need at least two numbers")

    def gate(rows):
        return _scan_reduced([_shortest(rows, n)], vals, n, prec) is not None

    shortest = _shortest(lll_reduce(_candidate_rows(vals, prec),
                                    stop=None if bound is None else gate,
                                    bound=bound), n)
    accepted = _scan_reduced([shortest], vals, n, prec) is not None
    coeffs = _normalize(shortest)
    with mp.workdps(prec + 10):
        signed = [coeffs[0]] + [-c for c in coeffs[1:]]
        resid = abs(mp.fsum((c * v for c, v in zip(coeffs, vals)), absolute=False))
    return RelationResult(tuple(signed), resid, prec, accepted)


def relation_norm(rel: RelationResult) -> mp.mpf:
    return mp.sqrt(mp.fsum(mp.mpf(c) ** 2 for c in rel.coefficients))


def verify_relation(rel: RelationResult, xs, precision: int) -> bool:
    """Re-check a relation against (higher-precision) values of the same
    numbers; threshold scales with the verification precision."""
    vals = _prepare(xs, precision)
    m = rel.coefficients
    with mp.workdps(precision + 10):
        resid = abs(mp.fsum([m[0] * vals[0]] + [-c * v for c, v in zip(m[1:], vals[1:])],
                            absolute=False))
        bound = mp.mpf(10) ** (-TIGHT * precision) * max(1, max(abs(c) for c in m))
    return resid < bound


def minimal_polynomial(a, max_degree: int, precision: int
                       ) -> IntPolynomial | None:
    """Lowest-degree integer polynomial vanishing at `a`, or None.

    Searches degrees in ascending order, so an accepted polynomial admits no
    lower-degree integer factor vanishing at `a`; together with the residual
    gate that is the irreducibility guarantee for genuinely algebraic input.
    """
    prec = precision
    val = _prepare([a], prec)[0]

    # acceptance gate of one degree step, which also lets its fed
    # reduction stop early
    def gate(xs, rows):
        best = _scan_reduced(rows, xs, len(xs), prec)
        if best is None:
            return None
        coeffs = _normalize(best[1])
        if coeffs[-1] == 0:
            return None  # degenerate: really a lower-degree relation
        poly = IntPolynomial(tuple(coeffs))
        # confirmation pass at the input's native precision
        if abs(poly(val)) < mp.mpf(10) ** (-0.8 * prec) * max(
                abs(c) for c in poly.coeffs):
            return poly
        return None

    with mp.workdps(guarded(prec)):
        powers = [mp.mpc(1)]
        for _ in range(max_degree):
            powers.append(powers[-1] * val)
        for deg in range(1, max_degree + 1):
            xs = powers[:deg + 1]
            poly = _gated_reduce(_candidate_rows(xs, prec),
                                 functools.partial(gate, xs))
            if poly is not None:
                return poly
    return None
