"""Exact 2x2 matrix arithmetic over Z/mZ and the finite group machinery built
on top of it: Zauner and F_a matrices, centralizers, the chi splitting
isomorphism for d = 3n (n = 1 mod 3), maximal Abelian subgroups, and orbits of
index pairs under a matrix group.

Everything here is exact integer arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator

# Largest modulus of a brute-force group sweep. centralizer's takes about
# m^2 steps when F's entry f_b is a unit mod m (0.04 s at m = 100 for a
# Zauner matrix) and m^4 for a scalar F.
MAX_BRUTE_MODULUS = 100

# Largest group MatGroup.generated enumerates.
MAX_GENERATED_ORDER = 2_000_000


def dprime(d: int) -> int:
    """d for odd d, 2d for even d (the modulus of the displacement index)."""
    if d < 4:
        raise ValueError(f"dimension must be >= 4, got {d}")
    return d if d % 2 else 2 * d


def nprime(n: int) -> int:
    return n if n % 2 else 2 * n


@dataclass(frozen=True, order=True)
class ModMatrix:
    """Immutable 2x2 matrix [[a, b], [c, d]] over Z/mZ.

    Ordering is lexicographic on (a, b, c, d); the modulus never varies inside
    one computation so it is excluded from comparisons by sorting last.
    """

    a: int
    b: int
    c: int
    d: int
    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"modulus must be >= 2, got {self.m}")
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, getattr(self, name) % self.m)

    @classmethod
    def identity(cls, m: int) -> "ModMatrix":
        return cls(1, 0, 0, 1, m)

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.m

    def trace(self) -> int:
        return (self.a + self.d) % self.m

    def is_identity(self) -> bool:
        return self.entries == (1 % self.m, 0, 0, 1 % self.m)

    def is_invertible(self) -> bool:
        return gcd(self.det(), self.m) == 1

    def __mul__(self, other: "ModMatrix") -> "ModMatrix":
        if self.m != other.m:
            raise ValueError("modulus mismatch")
        return ModMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self.m,
        )

    def __add__(self, other: "ModMatrix") -> "ModMatrix":
        if self.m != other.m:
            raise ValueError("modulus mismatch")
        return ModMatrix(self.a + other.a, self.b + other.b,
                         self.c + other.c, self.d + other.d, self.m)

    def __neg__(self) -> "ModMatrix":
        return ModMatrix(-self.a, -self.b, -self.c, -self.d, self.m)

    def scale(self, r: int) -> "ModMatrix":
        return ModMatrix(r * self.a, r * self.b, r * self.c, r * self.d, self.m)

    def inv(self) -> "ModMatrix":
        det_inv = pow(self.det(), -1, self.m)  # raises if not invertible
        return ModMatrix(det_inv * self.d, -det_inv * self.b,
                         -det_inv * self.c, det_inv * self.a, self.m)

    def __pow__(self, k: int) -> "ModMatrix":
        base = self if k >= 0 else self.inv()
        k = abs(k)
        result = ModMatrix.identity(self.m)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def apply(self, p: tuple[int, int]) -> tuple[int, int]:
        """Matrix action on an index pair, p -> Fp mod m."""
        return ((self.a * p[0] + self.b * p[1]) % self.m,
                (self.c * p[0] + self.d * p[1]) % self.m)

    def reduced(self, m: int) -> "ModMatrix":
        """Reduction to a divisor modulus."""
        if self.m % m:
            raise ValueError(f"{m} does not divide modulus {self.m}")
        return ModMatrix(self.a, self.b, self.c, self.d, m)

    def __repr__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]] mod {self.m}"


class MatGroup:
    """Explicit finite group of invertible ModMatrix over a common modulus.

    Elements are stored deduplicated in lexicographic order on (a, b, c, d),
    which fixes orbit labels and serialization across runs.
    """

    def __init__(self, elements: Iterable[ModMatrix]):
        elems = sorted(set(elements))
        if not elems:
            raise ValueError("empty group")
        m = elems[0].m
        if any(e.m != m for e in elems):
            raise ValueError("mixed moduli")
        self.modulus = m
        self.elements: tuple[ModMatrix, ...] = tuple(elems)
        self._set = frozenset(elems)

    @classmethod
    def generated(cls, gens: Iterable[ModMatrix]) -> "MatGroup":
        gens = list(gens)
        seen = {ModMatrix.identity(gens[0].m)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = x * g
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
                        if len(seen) > MAX_GENERATED_ORDER:
                            raise ValueError("generated group exceeds limit")
            frontier = nxt
        return cls(seen)

    def __iter__(self) -> Iterator[ModMatrix]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: ModMatrix) -> bool:
        return x in self._set

    def __eq__(self, other) -> bool:
        return isinstance(other, MatGroup) and self._set == other._set

    def __hash__(self) -> int:
        return hash(self._set)

    def __le__(self, other: "MatGroup") -> bool:
        return self._set <= other._set

    def __lt__(self, other: "MatGroup") -> bool:
        return self._set < other._set

    def is_abelian(self) -> bool:
        es = self.elements
        return all(x * y == y * x for i, x in enumerate(es) for y in es[i + 1:])

    def cosets(self, sub: "MatGroup") -> list[list[ModMatrix]]:
        """Left cosets g*sub, each sorted, ordered by smallest element."""
        seen: set[ModMatrix] = set()
        out = []
        for g in self.elements:
            if g in seen:
                continue
            coset = sorted(g * h for h in sub)
            seen.update(coset)
            out.append(coset)
        return out

    def __repr__(self) -> str:
        return f"MatGroup(|G|={len(self)}, mod {self.modulus})"


def greedy_generators(elements: Iterable[ModMatrix],
                      m: int) -> tuple[list[ModMatrix], MatGroup]:
    """Generators, taken greedily in order, of the group mod m that the
    elements generate, and that group: an element joins when the ones
    before it do not generate it. No elements give the identity alone."""
    gens, span = [], MatGroup([ModMatrix.identity(m)])
    for F in elements:
        if F not in span:
            gens.append(F)
            span = MatGroup.generated(gens)
    return gens, span


def zauner_matrix(d: int) -> ModMatrix:
    """F_z = [[0, d-1], [d+1, d-1]] mod d'; order 3 for odd d, 6 for even."""
    m = dprime(d)
    return ModMatrix(0, d - 1, d + 1, d - 1, m)


def fa_matrix(d: int) -> ModMatrix:
    """The extra order-3 symmetry [[1, d+3], [(4d-3)/3, d-2]] mod d',
    defined for d = 3 mod 9."""
    if d % 9 != 3:
        raise ValueError(f"fa_matrix requires d = 3 mod 9, got {d}")
    m = dprime(d)
    F = ModMatrix(1, d + 3, (4 * d - 3) // 3, d - 2, m)
    if F.det() != 1:
        raise AssertionError(f"fa_matrix determinant {F.det()} != 1 mod {m}")
    return F


def fa_bar_matrix(d: int) -> ModMatrix:
    """First chi component of fa_matrix: [[1, n+9], [(4n-1)/3, n-2]] mod n'."""
    if d % 9 != 3:
        raise ValueError(f"fa_bar_matrix requires d = 3 mod 9, got {d}")
    n = d // 3
    return ModMatrix(1, n + 9, (4 * n - 1) // 3, n - 2, nprime(n))


def chi_iso(M: ModMatrix, d: int) -> tuple[ModMatrix, ModMatrix]:
    """Split M mod d' into (conjugated reduction mod n', reduction mod 3).

    For d = 3n with n = 1 mod 3 the map
        [[a, b], [c, d]] -> ([[a, 3b], [(2n+1)c/3, d]] mod n', M mod 3)
    is a group isomorphism; (2n+1)/3 is the inverse of 3 mod n', so the first
    component is conjugation by diag(3, 1) composed with reduction.
    """
    if d % 9 != 3:
        raise ValueError(f"chi_iso requires d = 3 mod 9, got {d}")
    n = d // 3
    if M.m != dprime(d):
        raise ValueError(f"matrix modulus {M.m} != d' = {dprime(d)}")
    if (2 * n + 1) * M.c % 3:
        raise ValueError("(2n+1)*c not divisible by 3")
    np_ = nprime(n)
    first = ModMatrix(M.a, 3 * M.b, (2 * n + 1) // 3 * M.c, M.d, np_)
    second = M.reduced(3)
    return first, second


def chi_inv(pair: tuple[ModMatrix, ModMatrix], d: int) -> ModMatrix:
    """Inverse of chi_iso: CRT-reconstruct M mod d' from (mod n', mod 3)."""
    if d % 9 != 3:
        raise ValueError(f"chi_inv requires d = 3 mod 9, got {d}")
    n = d // 3
    np_, dp = nprime(n), dprime(d)
    A, B = pair
    if A.m != np_ or B.m != 3:
        raise ValueError("component moduli must be (n', 3)")
    inv3 = pow(3, -1, np_)
    # undo the diag(3,1) conjugation mod n'
    a1, b1, c1, d1 = A.a, A.b * inv3 % np_, A.c * 3 % np_, A.d
    # CRT per entry: x = u mod n', x = v mod 3
    k = pow(np_, -1, 3)

    def crt(u: int, v: int) -> int:
        return (u + np_ * ((v - u) * k % 3)) % dp

    return ModMatrix(crt(a1, B.a), crt(b1, B.b), crt(c1, B.c), crt(d1, B.d), dp)


def span_group(X: ModMatrix) -> MatGroup:
    """{ rI + sX : r, s in Z/mZ, invertible }, deduplicated."""
    m = X.m
    out = set()
    for r in range(m):
        for s in range(m):
            M = ModMatrix(r + s * X.a, s * X.b, s * X.c, r + s * X.d, m)
            if M.is_invertible():
                out.add(M)
    return MatGroup(out)


def h2_group(d: int) -> MatGroup:
    """The group { rI + sF_a : invertible } mod d', for d = 3 mod 9. It is
    also the span of H_2 = ((2n+1)/3) F_a + ((4n-1)/3) I with d = 3n, since
    I + 3 H_2 = F_a, and it contains the whole symmetry of the family."""
    return span_group(fa_matrix(d))


def _hbar_generators() -> dict[int, ModMatrix]:
    return {
        4: ModMatrix(1, 0, 0, -1, 3),
        6: ModMatrix(-1, 0, 1, -1, 3),
        8: ModMatrix(1, -1, 1, 1, 3),
    }


def hbar_groups() -> dict[int, MatGroup]:
    """The three maximal Abelian subgroups of GL(2, Z/3Z), orders 4, 6, 8."""
    return {j: span_group(X) for j, X in _hbar_generators().items()}


def maximal_abelian_subgroups(d: int) -> tuple[MatGroup, MatGroup, MatGroup]:
    """The pullbacks H_j = chi^{-1}(C(F_a bar) x Hbar_j) for j = 4, 6, 8.

    Each contains F_a and the whole of h2_group(d).
    """
    C = centralizer(fa_bar_matrix(d))
    out = []
    for j in (4, 6, 8):
        Hbar = hbar_groups()[j]
        out.append(MatGroup(chi_inv((A, B), d) for A in C for B in Hbar))
    return tuple(out)


def centralizer(F: ModMatrix) -> MatGroup:
    """All invertible G = [[a, b], [c, d]] with GF = FG mod F's modulus m.

    GF = FG is three congruences (the fourth repeats the first):
    b f_c = f_b c, f_b d = f_b a - b (f_a - f_d) and
    f_c (d - a) = c (f_d - f_a). The sweep runs over the (a, b, c) that meet
    the first, solves the second for d, and keeps each solution that meets
    the third and has a unit determinant. The rI + sF span is a subset
    always; for F conjugate to a Zauner matrix it is the whole centralizer.
    """
    m = F.m
    if m > MAX_BRUTE_MODULUS:
        raise ValueError(f"modulus {m} above brute-force bound {MAX_BRUTE_MODULUS}")
    fa, fb, fc, fd = F.entries
    solving = {}  # r -> every x in [0, m) with f_b x = r mod m
    for x in range(m):
        solving.setdefault(fb * x % m, []).append(x)
    out = []
    for b in range(m):
        for c in solving.get(b * fc % m, ()):
            for a in range(m):
                for d in solving.get((fb * a - b * (fa - fd)) % m, ()):
                    if (fc * (d - a) - c * (fd - fa)) % m == 0 \
                            and gcd(a * d - b * c, m) == 1:
                        out.append(ModMatrix(a, b, c, d, m))
    return MatGroup(out)


def symmetry_image(F: ModMatrix) -> ModMatrix:
    """(det F) * F; maps a stability group element to its S(Pi) twin."""
    det = F.det()
    if det == F.m - 1:
        return -F
    if det == 1 % F.m:
        return F
    raise ValueError(f"determinant {det} is not +-1 mod {F.m}")


def orbits(G: MatGroup) -> list[list[tuple[int, int]]]:
    """Partition of (Z/mZ)^2 into G-orbits, m the group's modulus.

    Orbits are sorted internally and listed by their lexicographically
    smallest representative, so labels are stable across runs.
    """
    m = G.modulus
    seen = [[False] * m for _ in range(m)]
    parts = []
    for p1 in range(m):
        for p2 in range(m):
            if seen[p1][p2]:
                continue
            orbit = sorted({M.apply((p1, p2)) for M in G})
            for q1, q2 in orbit:
                seen[q1][q2] = True
            parts.append(orbit)
    return parts


def gl2_group(m: int) -> MatGroup:
    """All of GL(2, Z/mZ); only sensible for small m (tests)."""
    if m > 8:
        raise ValueError("gl2_group is for small moduli only")
    out = [ModMatrix(a, b, c, d_, m)
           for a in range(m) for b in range(m)
           for c in range(m) for d_ in range(m)
           if gcd((a * d_ - b * c) % m, m) == 1]
    return MatGroup(out)


def esl2_elements(m: int) -> list[ModMatrix]:
    """All 2x2 matrices with determinant +-1 mod m, lexicographically sorted."""
    out = []
    for a in range(m):
        for b in range(m):
            for c in range(m):
                for d_ in range(m):
                    det = (a * d_ - b * c) % m
                    if det == 1 % m or det == (m - 1) % m:
                        out.append(ModMatrix(a, b, c, d_, m))
    return out
