"""Exact arithmetic in towers of number fields with chosen complex embeddings.

A tower is Q = L_0 < L_1 < ... < L_n where each step adjoins one root of a
polynomial over the previous level. Elements are nested polynomial
representations with exact rational leaves; every element also has a complex
embedding fixed by the root choices, so numeric and exact computations can
cross-check each other. Automorphisms are found by reassigning generators to
conjugate roots and verified exactly before being returned.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

import mpmath as mp

from .bignum import format_decimal, guarded, parse_decimal
from .errors import FieldError
from .lattice import express_in_basis


def squarefree_part(n: int) -> int:
    """Largest squarefree divisor d of n with n/d a perfect square (sign kept)."""
    if n == 0:
        return 0
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    f = 2
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e % 2:
            out *= f
        f += 1
    return sign * out * n


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to a rational")


class FieldLevel:
    """One extension step: a generator with its monic minimal polynomial over
    the previous level (nested-rational coefficients, ascending, without the
    leading 1) and the chosen embedding root."""

    __slots__ = ("tag", "minpoly", "degree", "root_index", "embedding")

    def __init__(self, tag, minpoly, root_index, embedding):
        self.tag = tag
        self.minpoly = minpoly          # tuple of nested reps over the parent
        self.degree = len(minpoly)
        self.root_index = root_index
        self.embedding = embedding      # raw mpc at the tower's precision

    def __eq__(self, other):
        return (isinstance(other, FieldLevel)
                and self.tag == other.tag
                and self.minpoly == other.minpoly
                and self.root_index == other.root_index)

    def __hash__(self):
        return hash((self.tag, self.minpoly, self.root_index))


class FieldTower:
    """Immutable after construction; all arithmetic is exact, with embeddings
    available at the tower's stated precision."""

    def __init__(self, levels=(), precision=80):
        self.levels = tuple(levels)
        self.precision = precision
        self._basis_cache = None
        self._inv_cache = {}

    @classmethod
    def rationals(cls, precision=80) -> "FieldTower":
        return cls((), precision)

    @property
    def degree(self) -> int:
        out = 1
        for lv in self.levels:
            out *= lv.degree
        return out

    # -- nested representation helpers -----------------------------------

    def _zero(self, L: int):
        if L == 0:
            return Fraction(0)
        return tuple(self._zero(L - 1) for _ in range(self.levels[L - 1].degree))

    def _const(self, q: Fraction, L: int):
        if L == 0:
            return q
        m = self.levels[L - 1].degree
        return tuple([self._const(q, L - 1)]
                     + [self._zero(L - 1) for _ in range(m - 1)])

    def _lift(self, u, from_L: int, to_L: int):
        """View an element of the sub-tower at level from_L inside level to_L."""
        for L in range(from_L, to_L):
            m = self.levels[L].degree
            u = tuple([u] + [self._zero(L) for _ in range(m - 1)])
        return u

    def _add(self, u, v, L: int):
        if L == 0:
            return u + v
        return tuple(self._add(a, b, L - 1) for a, b in zip(u, v))

    def _neg(self, u, L: int):
        if L == 0:
            return -u
        return tuple(self._neg(a, L - 1) for a in u)

    def _is_zero(self, u, L: int) -> bool:
        if L == 0:
            return u == 0
        return all(self._is_zero(a, L - 1) for a in u)

    def _mul(self, u, v, L: int):
        if L == 0:
            return u * v
        m = self.levels[L - 1].degree
        prod = [self._zero(L - 1) for _ in range(2 * m - 1)]
        for i, a in enumerate(u):
            if self._is_zero(a, L - 1):
                continue
            for j, b in enumerate(v):
                if self._is_zero(b, L - 1):
                    continue
                prod[i + j] = self._add(prod[i + j], self._mul(a, b, L - 1), L - 1)
        P = self.levels[L - 1].minpoly
        for i in range(2 * m - 2, m - 1, -1):
            c = prod[i]
            if self._is_zero(c, L - 1):
                continue
            # x^i = -x^(i-m) * sum P_j x^j  (minpoly is monic)
            for j in range(m):
                prod[i - m + j] = self._add(
                    prod[i - m + j],
                    self._neg(self._mul(c, P[j], L - 1), L - 1), L - 1)
        return tuple(prod[:m])

    def _inv(self, u, L: int):
        if L == 0:
            if u == 0:
                raise ZeroDivisionError("division by zero field element")
            return 1 / u
        key = (L, u)
        hit = self._inv_cache.get(key)
        if hit is not None:
            return hit
        if self._is_zero(u, L):
            raise ZeroDivisionError("division by zero field element")
        # extended Euclid on (minpoly, u) over level L-1
        m = self.levels[L - 1].degree
        P = list(self.levels[L - 1].minpoly) + [self._const(Fraction(1), L - 1)]
        A = list(u)
        while A and self._is_zero(A[-1], L - 1):
            A.pop()
        r0, r1 = P, A
        s0 = [self._zero(L - 1)]
        s1 = [self._const(Fraction(1), L - 1)]
        while True:
            if len(r1) == 1:
                c = self._inv(r1[0], L - 1)
                inv = [self._mul(c, x, L - 1) for x in s1]
                inv += [self._zero(L - 1)] * (m - len(inv))
                out = tuple(inv[:m])
                self._inv_cache[key] = out
                return out
            q, r = self._pdivmod(r0, r1, L - 1)
            while r and self._is_zero(r[-1], L - 1):
                r.pop()
            if not r:
                raise FieldError("minimal polynomial is not irreducible "
                                 "(gcd with element is nontrivial)")
            # s_{k+1} = s_{k-1} - q s_k
            qs = self._pmul_nored(q, s1, L - 1)
            s2 = [self._add(a, self._neg(b, L - 1), L - 1)
                  for a, b in itertools.zip_longest(
                      s0, qs, fillvalue=self._zero(L - 1))]
            r0, r1, s0, s1 = r1, r, s1, s2

    def _pmul_nored(self, A, B, L: int):
        out = [self._zero(L) for _ in range(len(A) + len(B) - 1)]
        for i, a in enumerate(A):
            for j, b in enumerate(B):
                out[i + j] = self._add(out[i + j], self._mul(a, b, L), L)
        return out

    def _pdivmod(self, A, B, L: int):
        """Polynomial division over the level-L field; B nonzero."""
        A = list(A)
        binv = self._inv(B[-1], L)
        q = [self._zero(L)] * max(0, len(A) - len(B) + 1)
        for i in range(len(A) - len(B), -1, -1):
            c = self._mul(A[i + len(B) - 1], binv, L)
            q[i] = c
            if self._is_zero(c, L):
                continue
            for j, b in enumerate(B):
                A[i + j] = self._add(A[i + j], self._neg(self._mul(c, b, L), L), L)
        return q, A[:len(B) - 1]

    def _embed(self, u, L: int):
        """Numeric value of a nested rep; caller provides the context."""
        if L == 0:
            return mp.mpf(u.numerator) / u.denominator
        g = self.levels[L - 1].embedding
        acc = mp.mpc(0)
        for c in reversed(u):
            acc = acc * g + self._embed(c, L - 1)
        return acc

    # -- public element constructors --------------------------------------

    def zero(self) -> "AlgebraicNumber":
        return AlgebraicNumber(self, self._zero(len(self.levels)))

    def one(self) -> "AlgebraicNumber":
        return self.rational(1)

    def rational(self, q) -> "AlgebraicNumber":
        return AlgebraicNumber(
            self, self._const(_as_fraction(q), len(self.levels)))

    def generator(self, k: int) -> "AlgebraicNumber":
        """The level-k generator (1-based) as an element of this tower."""
        if not 1 <= k <= len(self.levels):
            raise FieldError(f"no level {k} in a {len(self.levels)}-level tower")
        m = self.levels[k - 1].degree
        nested = tuple(
            self._const(Fraction(1 if j == 1 else 0), k - 1) for j in range(m))
        return AlgebraicNumber(self, self._lift(nested, k, len(self.levels)))

    def element(self, flat_coeffs) -> "AlgebraicNumber":
        flat = [_as_fraction(c) for c in flat_coeffs]
        if len(flat) != self.degree:
            raise FieldError(f"need {self.degree} coefficients, got {len(flat)}")
        return AlgebraicNumber(self, self._from_flat(flat, len(self.levels)))

    def _from_flat(self, flat, L: int):
        if L == 0:
            return flat[0]
        m = self.levels[L - 1].degree
        step = len(flat) // m
        # lex order: lower-level exponents are more significant, the top
        # generator's exponent varies fastest
        return tuple(self._from_flat([flat[i * m + j] for i in range(step)], L - 1)
                     for j in range(m))

    def _to_flat(self, u, L: int):
        if L == 0:
            return [u]
        subs = [self._to_flat(c, L - 1) for c in u]
        out = []
        for i in range(len(subs[0])):
            for s in subs:
                out.append(s[i])
        return out

    # -- basis -------------------------------------------------------------

    def basis_exponents(self) -> list[tuple[int, ...]]:
        ranges = [range(lv.degree) for lv in self.levels]
        return sorted(itertools.product(*ranges)) if ranges else [()]

    def basis_values(self) -> list:
        """Embeddings of the power-product basis, lex exponent order."""
        if self._basis_cache is None:
            with mp.workdps(guarded(self.precision)):
                gens = [lv.embedding for lv in self.levels]
                vals = []
                for expo in self.basis_exponents():
                    acc = mp.mpc(1)
                    for g, e in zip(gens, expo):
                        acc *= g ** e
                    vals.append(acc)
            self._basis_cache = vals
        return self._basis_cache

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        def enc(u, L):
            if L == 0:
                return f"{u.numerator}/{u.denominator}"
            return [enc(c, L - 1) for c in u]

        levels = []
        for k, lv in enumerate(self.levels):
            with mp.workdps(guarded(self.precision)):
                emb = (f"{format_decimal(lv.embedding.real, self.precision)} "
                       f"{format_decimal(lv.embedding.imag, self.precision)}")
            levels.append({"tag": lv.tag,
                           "minpoly": [enc(c, k) for c in lv.minpoly],
                           "root_index": lv.root_index,
                           "embedding": emb})
        return json.dumps({"format": "SIC-TOWER v1",
                           "precision": self.precision, "levels": levels})

    @classmethod
    def from_json(cls, text: str) -> "FieldTower":
        doc = json.loads(text)
        if doc.get("format") != "SIC-TOWER v1":
            raise ValueError("not a tower document")
        prec = doc["precision"]

        def dec(node, L):
            if L == 0:
                return Fraction(node)
            return tuple(dec(c, L - 1) for c in node)

        levels = []
        for k, lv in enumerate(doc["levels"]):
            re_s, im_s = lv["embedding"].split()
            with mp.workdps(guarded(prec)):
                emb = mp.mpc(parse_decimal(re_s, prec), parse_decimal(im_s, prec))
            levels.append(FieldLevel(lv["tag"],
                                     tuple(dec(c, k) for c in lv["minpoly"]),
                                     lv["root_index"], emb))
        tower = cls(levels, prec)
        # embeddings must satisfy their polynomials
        for k in range(1, len(levels) + 1):
            sub = cls(levels[:k], prec)
            with mp.workdps(guarded(prec)):
                g = levels[k - 1].embedding
                acc = g ** levels[k - 1].degree
                for j, c in enumerate(levels[k - 1].minpoly):
                    acc += sub._embed(c, k - 1) * g ** j
                if abs(acc) > mp.mpf(10) ** -(prec - 10):
                    raise FieldError(
                        f"level {k} embedding violates its minimal polynomial")
        return tower

    def __eq__(self, other):
        return (isinstance(other, FieldTower)
                and self.precision == other.precision
                and self.levels == other.levels)

    def __repr__(self):
        tags = ".".join(lv.tag for lv in self.levels) or "Q"
        return f"FieldTower({tags}, degree {self.degree}, {self.precision} digits)"


class AlgebraicNumber:
    """Exact element of a tower; hashable and immutable."""

    __slots__ = ("tower", "nested", "_hash")

    def __init__(self, tower: FieldTower, nested):
        self.tower = tower
        self.nested = nested
        self._hash = None

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """Rational coordinates over the power-product basis, lex order."""
        return tuple(self.tower._to_flat(self.nested, len(self.tower.levels)))

    def embed(self):
        """Numeric value at the tower's precision (raw mpc)."""
        with mp.workdps(guarded(self.tower.precision)):
            return self.tower._embed(self.nested, len(self.tower.levels))

    def _peer(self, other) -> "AlgebraicNumber":
        if isinstance(other, AlgebraicNumber):
            if other.tower.levels != self.tower.levels:
                raise FieldError("elements of different towers")
            return other
        return self.tower.rational(other)

    def __add__(self, other):
        o = self._peer(other)
        L = len(self.tower.levels)
        return AlgebraicNumber(self.tower,
                               self.tower._add(self.nested, o.nested, L))

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicNumber(
            self.tower, self.tower._neg(self.nested, len(self.tower.levels)))

    def __sub__(self, other):
        return self + (-self._peer(other))

    def __rsub__(self, other):
        return (-self) + self._peer(other)

    def __mul__(self, other):
        o = self._peer(other)
        L = len(self.tower.levels)
        return AlgebraicNumber(self.tower,
                               self.tower._mul(self.nested, o.nested, L))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._peer(other)
        L = len(self.tower.levels)
        return AlgebraicNumber(
            self.tower, self.tower._mul(self.nested,
                                        self.tower._inv(o.nested, L), L))

    def __rtruediv__(self, other):
        return self._peer(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return 1 / self ** (-e)
        out = self.tower.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def is_zero(self) -> bool:
        return self.tower._is_zero(self.nested, len(self.tower.levels))

    def __eq__(self, other):
        if not isinstance(other, AlgebraicNumber):
            try:
                other = self._peer(other)
            except (TypeError, FieldError):
                return NotImplemented
        return (self.tower.levels == other.tower.levels
                and self.nested == other.nested)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((len(self.tower.levels), self.nested))
        return self._hash

    def to_json(self) -> str:
        return json.dumps(
            [f"{c.numerator}/{c.denominator}" for c in self.coefficients])

    @classmethod
    def from_json(cls, tower: FieldTower, text: str) -> "AlgebraicNumber":
        return tower.element([Fraction(s) for s in json.loads(text)])

    def __repr__(self):
        vals = [f"{c.numerator}/{c.denominator}" for c in self.coefficients]
        return f"AlgebraicNumber([{', '.join(vals)}])"


# ---------------------------------------------------------------------------
# adjoining roots


def _monic_with_roots(tower: FieldTower, coeffs):
    """Coerce a polynomial into the tower and monicize it. Returns its
    coefficients (ascending, without the leading 1) and its numeric roots."""
    poly = []
    for c in coeffs:
        if isinstance(c, AlgebraicNumber):
            if c.tower.levels != tower.levels:
                raise FieldError("polynomial coefficients from a different tower")
            poly.append(c)
        else:
            poly.append(tower.rational(c))
    while len(poly) > 1 and poly[-1].is_zero():
        poly.pop()
    if len(poly) < 2:
        raise FieldError("polynomial must have positive degree")
    monic = [c / poly[-1] for c in poly[:-1]]
    with mp.workdps(guarded(tower.precision)):
        numeric = [tower._embed(c.nested, len(tower.levels)) for c in monic]
    return monic, _poly_roots(numeric, tower.precision)


def _poly_roots(values: list, prec: int) -> list:
    """Roots of a monic polynomial given numeric coefficients (ascending,
    without the leading 1), sorted by (re, im) for determinism."""
    with mp.workdps(guarded(prec) + 20):
        coeffs = [mp.mpc(1)] + [mp.mpc(v) for v in reversed(values)]
        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=prec)
        return sorted((mp.mpc(r) for r in roots),
                      key=lambda z: (z.real, z.imag))


def _certified_factor(tower: FieldTower, monic: list[AlgebraicNumber],
                      roots: list, subsets: list, precisions) -> list | None:
    """Search for a monic factor whose roots are one of the given root
    subsets: at each recognition precision in turn, the subsets' symmetric
    functions are recognized in the tower, and a candidate counts only if it
    divides the polynomial exactly. Returns the factor's coefficients
    (ascending, without the leading 1), or None."""
    L = len(tower.levels)
    one = tower._const(Fraction(1), L)
    P = [c.nested for c in monic] + [one]
    for attempt in precisions:
        for subset in subsets:
            rec = []
            for v in _subset_product_coeffs(roots, subset, tower.precision):
                got = recognize(tower, v, precision=attempt)
                if got is None:
                    break
                rec.append(got)
            else:
                _q, rem = tower._pdivmod(P, [c.nested for c in rec] + [one], L)
                if all(tower._is_zero(r, L) for r in rem):
                    return rec
    return None


def _squarefree(tower: FieldTower, monic: list[AlgebraicNumber]) -> bool:
    """Exact gcd(P, P') test; a repeated factor means P is reducible."""
    L = len(tower.levels)
    one = tower._const(Fraction(1), L)
    P = [c.nested for c in monic] + [one]
    dP = [tower._mul(tower._const(Fraction(i), L), c, L)
          for i, c in enumerate(P) if i]
    r0, r1 = P, dP
    while True:
        while r1 and tower._is_zero(r1[-1], L):
            r1.pop()
        if not r1:
            return False  # gcd has positive degree
        if len(r1) == 1:
            return True
        _q, r = tower._pdivmod(r0, r1, L)
        r0, r1 = r1, list(r)


def _subset_product_coeffs(roots: list, subset, prec: int) -> list:
    """Coefficients (ascending, below the leading 1) of prod (x - roots[i])."""
    with mp.workdps(guarded(prec)):
        out = [mp.mpc(1)]  # ascending, leading coefficient last
        for i in subset:
            r = roots[i]
            nxt = [mp.mpc(0)] * (len(out) + 1)
            for j, c in enumerate(out):
                nxt[j + 1] += c
                nxt[j] -= c * r
            out = nxt
        return out[:-1]


def adjoin(tower: FieldTower, coeffs, root_selector,
           tag: str | None = None) -> FieldTower:
    """Extend the tower by a root of the given polynomial (coefficients over
    the tower, ascending; non-monic input is monicized). root_selector is an
    approximate complex value choosing the embedding; the nearest root must
    lie within 1e-4 of it."""
    monic, roots = _monic_with_roots(tower, coeffs)
    prec = tower.precision
    deg = len(monic)
    if deg > 1:
        if not _squarefree(tower, monic):
            raise FieldError("polynomial is reducible: repeated factor")
        # a reducible polynomial has a factor of degree <= deg/2
        subsets = [s for k in range(1, deg // 2 + 1)
                   for s in itertools.combinations(range(deg), k)]
        factor = _certified_factor(tower, monic, roots, subsets,
                                   [_guess_precision(tower, None)])
        if factor is not None:
            raise FieldError(
                f"polynomial is reducible: found a degree-{len(factor)} factor")
    with mp.workdps(guarded(prec)):
        sel = mp.mpc(root_selector)
        dists = sorted(range(len(roots)), key=lambda i: abs(roots[i] - sel))
        idx = dists[0]
        best = abs(roots[idx] - sel)
        # the selector must pick one root unambiguously
        if best > mp.mpf("0.3") * (1 + abs(sel)):
            raise FieldError(
                f"no root near selector {mp.nstr(sel, 8)}")
        if len(dists) > 1 and best > mp.mpf("0.5") * abs(roots[dists[1]] - sel):
            raise FieldError(
                f"selector {mp.nstr(sel, 8)} is ambiguous between roots")
    level = FieldLevel(tag or f"g{len(tower.levels) + 1}",
                       tuple(c.nested for c in monic), idx, roots[idx])
    return FieldTower(tower.levels + (level,), prec)


# ---------------------------------------------------------------------------
# recognition and automorphisms


def recognize(tower: FieldTower, value,
              precision: int | None = None) -> AlgebraicNumber | None:
    """Express a numeric value in the tower's power-product basis, or None."""
    prec = min(precision or tower.precision, tower.precision)
    got = express_in_basis(value, tower.basis_values(), precision=prec)
    if got is None:
        return None
    coeffs, _res = got
    return tower.element(coeffs)


class EmbeddingAutomorphism:
    """A field automorphism presented by the exact images of the tower
    generators; application substitutes images into the power-product basis,
    so it commutes with arithmetic exactly."""

    __slots__ = ("tower", "images", "_basis_images")

    def __init__(self, tower: FieldTower, images):
        self.tower = tower
        self.images = tuple(images)
        self._basis_images = None

    def _basis(self):
        if self._basis_images is None:
            out = []
            for expo in self.tower.basis_exponents():
                acc = self.tower.one()
                for img, e in zip(self.images, expo):
                    if e:
                        acc = acc * img ** e
                out.append(acc)
            self._basis_images = out
        return self._basis_images

    def __call__(self, x: AlgebraicNumber) -> AlgebraicNumber:
        if x.tower.levels != self.tower.levels:
            raise FieldError("element from a different tower")
        out = self.tower.zero()
        for c, b in zip(x.coefficients, self._basis()):
            if c:
                out = out + b * c
        return out

    def is_identity(self) -> bool:
        return all(img == self.tower.generator(k + 1)
                   for k, img in enumerate(self.images))

    def compose(self, other: "EmbeddingAutomorphism") -> "EmbeddingAutomorphism":
        """self after other."""
        return EmbeddingAutomorphism(
            self.tower, tuple(self(img) for img in other.images))

    def __eq__(self, other):
        return (isinstance(other, EmbeddingAutomorphism)
                and self.tower.levels == other.tower.levels
                and self.images == other.images)

    def __hash__(self):
        return hash(tuple(img.nested for img in self.images))

    def __repr__(self):
        arrows = ", ".join(
            f"{lv.tag} -> {mp.nstr(img.embed(), 8)}"
            for lv, img in zip(self.tower.levels, self.images))
        return f"EmbeddingAutomorphism({arrows})"


def _substitute(tower: FieldTower, nested, L: int,
                images: list[AlgebraicNumber]) -> AlgebraicNumber:
    """Apply generator images to a level-L nested rep (uses only the first L
    images); exact."""
    if L == 0:
        return tower.rational(nested)
    g = images[L - 1]
    acc = tower.zero()
    for c in reversed(nested):
        acc = acc * g + _substitute(tower, c, L - 1, images)
    return acc


def _minpoly_image(tower: FieldTower, k: int,
                   images: list[AlgebraicNumber]) -> list[AlgebraicNumber]:
    """Coefficients of the level-k minimal polynomial (ascending, without the
    leading 1) after applying the (partial) automorphism given by the images
    of the first k-1 generators; exact."""
    lv = tower.levels[k - 1]
    return [_substitute(tower, c, k - 1, images) for c in lv.minpoly]


def _verify_root(tower: FieldTower, img_coeffs: list[AlgebraicNumber],
                 cand: AlgebraicNumber) -> bool:
    acc = tower.one()
    val = tower.zero()
    for c in img_coeffs:
        val = val + c * acc
        acc = acc * cand
    return (val + acc).is_zero()


def _guess_precision(tower: FieldTower, precision: int | None) -> int:
    # recognition only proposes candidates (exact verification follows), so a
    # few hundred digits suffice and keep the lattice reduction cheap
    if precision is not None:
        return min(precision, tower.precision)
    return min(tower.precision, max(160, 12 * tower.degree))


def automorphisms(tower: FieldTower, fixing_level: int = 0,
                  precision: int | None = None) -> list[EmbeddingAutomorphism]:
    """All automorphisms of the tower (as an abstract field mapped into its
    own embedding) fixing levels 1..fixing_level pointwise. Images are found
    by matching conjugate roots numerically, then verified exactly."""
    n = len(tower.levels)
    rel_degree = 1
    for lv in tower.levels[fixing_level:]:
        rel_degree *= lv.degree
    if rel_degree > 64:
        raise FieldError("relative degree beyond desk scale (max 64)")
    prec = _guess_precision(tower, precision)
    partials: list[list[AlgebraicNumber]] = [
        [tower.generator(k + 1) for k in range(fixing_level)]]
    for k in range(fixing_level + 1, n + 1):
        nxt = []
        for images in partials:
            img_coeffs = _minpoly_image(tower, k, images)
            roots = _poly_roots([c.embed() for c in img_coeffs],
                                tower.precision)
            for r in roots:
                cand = recognize(tower, r, precision=prec)
                if cand is None:
                    continue
                if not _verify_root(tower, img_coeffs, cand):
                    continue
                nxt.append(images + [cand])
        partials = nxt
    return [EmbeddingAutomorphism(tower, imgs) for imgs in partials]


def lift_element(tower: FieldTower, x: AlgebraicNumber) -> AlgebraicNumber:
    """View an element of a prefix sub-tower inside the larger tower."""
    k = len(x.tower.levels)
    if tuple(tower.levels[:k]) != tuple(x.tower.levels):
        raise FieldError("element's tower is not a prefix of the target tower")
    return AlgebraicNumber(tower, tower._lift(x.nested, k, len(tower.levels)))


def cyclotomic_polynomial(m: int) -> list[int]:
    """Integer coefficients (ascending) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError("m must be positive")
    # divide x^m - 1 by the cyclotomics of the proper divisors
    num = [-1] + [0] * (m - 1) + [1]
    for k in range(1, m):
        if m % k:
            continue
        phi_k = cyclotomic_polynomial(k)
        out = [0] * (len(num) - len(phi_k) + 1)
        rem = list(num)
        for i in range(len(out) - 1, -1, -1):
            c = rem[i + len(phi_k) - 1]
            out[i] = c
            if c:
                for j, pc in enumerate(phi_k):
                    rem[i + j] -= c * pc
        if any(rem[:len(phi_k) - 1]):
            raise ArithmeticError("cyclotomic division left a remainder")
        num = out
    return num


def factor_over_tower(tower: FieldTower, coeffs, root_selector,
                      ) -> list[AlgebraicNumber]:
    """Monic factor of the polynomial over the tower whose roots include the
    one nearest root_selector, with the lowest degree that admits tower
    coefficients. Ascending coefficients below the leading 1; candidates are
    recognized numerically, then certified by exact polynomial division. When
    nothing proper divides, the whole (monicized) polynomial is returned."""
    monic, roots = _monic_with_roots(tower, coeffs)
    deg = len(monic)
    if deg > 12:
        raise FieldError("factoring bounded to degree 12")
    prec = tower.precision
    with mp.workdps(guarded(prec)):
        sel = mp.mpc(root_selector)
        target = min(range(deg), key=lambda i: abs(roots[i] - sel))
    others = [i for i in range(deg) if i != target]
    subsets = [(target,) + extra for k in range(1, deg)
               for extra in itertools.combinations(others, k - 1)]
    # Guess-precision pass first; full precision only if that finds nothing.
    # Coefficients of a true factor can have coordinate heights near the
    # tower's own (e.g. plain integers with huge power-basis coordinates),
    # which the cheap screen cannot see. Exact division certifies either way.
    ladder = sorted({_guess_precision(tower, None), prec})
    return _certified_factor(tower, monic, roots, subsets, ladder) or monic
