"""Exact arithmetic in towers of number fields with chosen complex embeddings.

A tower is Q = L_0 < L_1 < ... < L_n where each step adjoins one root of a
polynomial over the previous level. An element is its vector: an integer
coordinate tuple u with one positive denominator, kept reduced, over the
power-product basis of the generators, in lex exponent order with the top
generator varying fastest, so for a level-L element u[j::m] is the numerator
of its coefficient of g_L^j over level L-1, where m = deg(level L). The
rational coordinates are AlgebraicNumber.coefficients.

A level-L product is one big-integer multiply: both numerator tuples are
packed (Kronecker substitution) into the box of exponent sums, where level
k's digit runs over 2 m_k - 1 values, so no slot carries into the next. The
product's box slots are then unpacked and sent to the basis by an integer
matrix over one denominator, built once per tower prefix and held on the
prefix's top level with its packing plans. A sum of products (`dot`) is
reduced once: each product is taken packed, scaled to the terms' common
denominator and summed while still packed, and only the sum is unpacked
and sent to the basis. When both factors (for a sum, all of them) lie in
level L-1, the product is taken there and placed back, recursively, so
arithmetic in a subfield costs the subfield's degree, not the tower's. An
automorphism is likewise an integer matrix, built from the images of the
generators level by level, and each image is checked with the columns
already built: the transported minimal-polynomial coefficients are integer
combinations of them.

Every element also has a complex embedding fixed by the root choices, so
numeric and exact computations can cross-check each other; `nearest_root`
is the one rule that matches a value to a root. Every automorphism is
built by `automorphism`, which checks its generator images exactly. The
lift proposes one image per conjugate root by interpolation over its
coefficient field (`exactify`); `automorphisms` proposes them by
recognizing each conjugate root in the whole tower.

The exact algebra over a tower is written once, here: `horner` evaluates a
polynomial in any arithmetic (embeddings, enclosure balls, the lift's tower
elements), `divides` is monic long division, and `_first_dependency` is the
one exact elimination, fraction-free over integer coordinate vectors: it
finds an element's rational minimal polynomial among its powers
(`_rational_minpoly`), and its inverse among its products with the basis
(`FieldTower._inv`, after descending to the least level that holds it).

A numeric value becomes an element through one integer relation
m_0 x = sum m_j b_j over the tower's basis values b: `relation_element`
reads the vector off it as the numerators m[1:] over the denominator m[0],
for `recognize` and for the lift's scoring relations alike.

Whether a tower is a field is decided exactly, with no numerics, by
`is_field`: an element of full degree must have an irreducible minimal
polynomial over the rationals, which Zassenhaus's algorithm proves or
refutes over the integers (`factor_mod_p` modulo small primes, Hensel
lifting, recombination by exact division). `adjoin` rejects every
extension that is not a field this way, on the extension with no root
chosen (`_probe`), before it seeks the roots numerically.

`degree_one_primes` lists the odd primes p over which a field tower has a
prime of degree one, found as a chain of simple roots modulo p through its
levels, which Hensel's lemma lifts to an embedding into the p-adic numbers.
The Frobenius of such a prime maps an m-th root of unity zeta, for p not
dividing m, to zeta^p, so p mod m lies in the Galois group of the tower's
extension by zeta; `exactify` reads tau's degree over the overlap field off
these residues and calls `is_field` only when they fall short.
"""

from __future__ import annotations

import itertools
import json
import re
import struct
from fractions import Fraction
from functools import reduce
from math import comb, gcd, isfinite, isqrt, lcm
from operator import add, itemgetter, lshift, mul, sub

import mpmath as mp

from .bignum import abs2, format_decimal, guarded, parse_decimal, \
    significant_digits
from .errors import FieldError, RelationError
from .lattice import integer_relation


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
    raise TypeError(f"cannot coerce {type(x).__name__} to a rational")


def _ratio(x: Fraction) -> str:
    """A tower document's spelling of a rational: n/d, also when d = 1."""
    return f"{x.numerator}/{x.denominator}"


_RATIONAL = re.compile("-?[0-9]+(/[0-9]+)?")


def parse_rational(s) -> Fraction:
    """The rational that s writes as n or n/d in ASCII digits, FieldError
    for any other value, so no exponent, underscore or space reaches
    Fraction. Whether s is the writer's spelling is one_spelling's check."""
    if not (isinstance(s, str) and _RATIONAL.fullmatch(s)):
        raise FieldError(f"{s!r} is not a rational written n or n/d")
    return Fraction(s)


def one_spelling(doc, written, path: str):
    """FieldError naming the first path at which doc, a parsed JSON value,
    differs from written, the writer's value for what was loaded from doc.
    Scalars compare by == (1 == 1.0 == true): the loader checks types."""
    if doc == written:
        return
    kind = type(doc)
    if kind is not type(written) or kind not in (dict, list):
        raise FieldError(f"{path} is not written as the writer writes it")
    if kind is list:
        doc, written = dict(enumerate(doc)), dict(enumerate(written))
    # ... stands for a missing entry, as no JSON value is Ellipsis
    key = next(k for k in {**doc, **written}
               if doc.get(k, ...) != written.get(k, ...))
    one_spelling(doc.get(key, ...), written.get(key, ...),
                 path + (f"[{key}]" if kind is list else f".{key}"))


def unique_keys(pairs) -> dict:
    """json's object_pairs_hook: the object, FieldError if a key repeats."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise FieldError(f"the key {key!r} is written twice in one object")
        obj[key] = value
    return obj


# -- vectors: (integer numerator tuple, positive denominator), reduced -------


def _reduced(num: tuple, den: int):
    """The vector num/den, for a positive den, with den made coprime to the
    numerators."""
    if den == 1:
        return num, 1
    g = gcd(den, *num)
    if g == 1:
        return num, den
    return tuple([x // g for x in num]), den // g


def _combine(a, b, op):
    """a op b for op add or sub."""
    (u, du), (v, dv) = a, b
    if du == dv:
        return _reduced(tuple(map(op, u, v)), du)
    g = gcd(du, dv)
    su, sv = dv // g, du // g
    return _reduced(tuple([op(x * su, y * sv) for x, y in zip(u, v)]),
                    du * su)


def _scale(a, q):
    """a times the rational (int or Fraction) q."""
    u, du = a
    n = q.numerator
    return _reduced(tuple([x * n for x in u]), du * q.denominator)


def _from_fractions(coords):
    """The vector with the given rational coordinates."""
    return _join([((c.numerator,), c.denominator) for c in coords])


def _fractions(a) -> tuple:
    u, den = a
    return tuple(Fraction(x, den) for x in u)


def horner(coeffs, z):
    """coeffs[0] + coeffs[1] z + ... (ascending, nonempty) by Horner's rule,
    in any arithmetic with + and *: the one polynomial evaluation of tower
    elements, their embeddings and complex balls."""
    *rest, acc = coeffs
    for c in reversed(rest):
        acc = acc * z + c
    return acc


def _interleave(parts):
    """The coordinate tuple u with u[j::len(parts)] == parts[j]."""
    return tuple(itertools.chain.from_iterable(zip(*parts)))


def _common(vecs):
    """The numerator tuples of vecs over their least common denominator,
    and that denominator."""
    den = lcm(*(d for _u, d in vecs))
    return [u if d == den else tuple([x * (den // d) for x in u])
            for u, d in vecs], den


def _join(parts):
    """The vector whose coefficient of the top generator's j-th power is the
    one-level-down vector parts[j]."""
    nums, den = _common(parts)
    return _reduced(_interleave(nums), den)


def _columns(cols):
    """Integer rows over one denominator of the matrix whose i-th column is
    the vector cols[i]."""
    nums, den = _common(cols)
    return tuple(zip(*nums)), den


class FieldLevel:
    """One extension step: a generator with its monic minimal polynomial over
    the previous level (ascending, without the leading 1; each coefficient is
    a vector of the previous level) and the chosen embedding root. box holds
    the product data of the prefix this level tops, built on first use;
    roots, when the level was built from them, is the minimal polynomial's
    sorted root list from _poly_roots at the tower's precision."""

    __slots__ = ("tag", "minpoly", "degree", "root_index", "embedding", "box",
                 "roots")

    def __init__(self, tag, minpoly, root_index, embedding, roots=None):
        self.tag = tag
        self.minpoly = minpoly          # tuple of parent vectors
        self.degree = len(minpoly)
        self.root_index = root_index
        self.embedding = embedding      # raw mpc at the tower's precision
        self.box = None
        self.roots = roots

    def __eq__(self, other):
        return (isinstance(other, FieldLevel)
                and self.tag == other.tag
                and self.minpoly == other.minpoly
                and self.root_index == other.root_index)

    def __hash__(self):
        return hash((self.tag, self.minpoly, self.root_index))


class _Box:
    """Product data of the tower prefix of L levels. pos[i] is basis
    monomial i's slot in the box of exponent sums, a mixed-radix number whose
    level-k digit runs over 2 m_k - 1 values (level 1 most significant);
    cols[p] is box monomial p as a reduced vector, and rows, den the same
    matrix over one denominator, each row as the indices and values of its
    nonzero entries; reads holds each row as a getter of its slots and its
    values. A level's box is built from the one below it, its minimal
    polynomial and products one level down. plans holds the packing plan of
    each slot width used so far (see _plan)."""

    __slots__ = ("below", "dim", "size", "pos", "cols", "rows", "den",
                 "reads", "plans")

    def __init__(self, tower: "FieldTower | None", L: int):
        self.below = tower.levels[:L - 1] if L else ()
        self.plans = {}
        if L == 0:
            self.dim = self.size = 1
            self.pos, self.cols = (0,), [((1,), 1)]
            self.rows, self.den = (((0,), (1,)),), 1
        else:
            self._build(tower, L)
        # a second index keeps a getter's result a tuple for a row of one
        # entry; map(mul, vals, ...) stops at the end of vals
        self.reads = tuple((itemgetter(*idx, idx[0]), vals)
                           for idx, vals in self.rows)

    def _build(self, tower: "FieldTower", L: int):
        low, lv = tower._box(L - 1), tower.levels[L - 1]
        m, radix = lv.degree, 2 * lv.degree - 1
        zero, one = tower._zero(L - 1), tower._const(1, L - 1)
        # g^s for s < radix, as its m coefficients over level L-1:
        # g^(s+1) = sum_j c_j g^(j+1), and g^m = -sum_j P_j g^j
        powers = [(one,) + (zero,) * (m - 1)]
        for _ in range(radix - 1):
            *rest, top = powers[-1]
            powers.append(tuple(
                _combine(c, tower._mul(top, p, L - 1), sub)
                for c, p in zip((zero, *rest), lv.minpoly)))
        self.dim, self.size = low.dim * m, low.size * radix
        self.pos = tuple(p * radix + j for p in low.pos for j in range(m))
        # box monomial col * g^s: for s < m, g^s is a basis monomial and
        # col sits at its slot; above, col times each coefficient of g^s
        self.cols = [_join([zero] * s + [col] + [zero] * (m - 1 - s)) if s < m
                     else _join([tower._mul(col, c, L - 1) for c in powers[s]])
                     for col in low.cols for s in range(radix)]
        rows, self.den = _columns(self.cols)
        self.rows = tuple((tuple(p for p, x in enumerate(row) if x),
                           tuple(x for x in row if x)) for row in rows)

    def _plan(self, k: int) -> tuple:
        """The packing for slots of 64 k bits, built on first use: each
        basis monomial's shift, the offset that raises every slot by the
        half-word 2^(64 k - 1), so that a slot of absolute value below it
        reads as a nonnegative number, the Struct that unpacks the words,
        and the half-word."""
        plan = self.plans.get(k)
        if plan is None:
            plan = self.plans[k] = (
                [64 * k * p for p in self.pos],
                int.from_bytes((bytes(8 * k - 1) + b"\x80") * self.size,
                               "little"),
                struct.Struct(f"<{k * self.size}Q"),
                1 << (64 * k - 1))
        return plan

    def product(self, u, v) -> tuple:
        """Numerators of u * v over self.den: u and v are packed, one slot
        of 64 k bits per box monomial, and multiplied once (_reduce)."""
        k = (max(map(int.bit_length, u)) + max(map(int.bit_length, v))
             + self.dim.bit_length()) // 64 + 1  # |slot| < 2^(64 k - 1)
        shifts = self._plan(k)[0]
        return self._reduce(sum(map(lshift, u, shifts))
                            * sum(map(lshift, v, shifts)), k)

    def dot(self, terms) -> tuple:
        """Numerators of sum c u v over self.den, for the triples (u, v, c)
        with c a positive integer: each product is packed and multiplied
        once, scaled by its c and summed while still packed, and the sum is
        reduced once (_reduce)."""
        k = (max(max(map(int.bit_length, u)) + max(map(int.bit_length, v))
                 + c.bit_length() for u, v, c in terms)
             + self.dim.bit_length() + len(terms).bit_length()) // 64 + 1
        shifts = self._plan(k)[0]
        return self._reduce(sum([sum(map(lshift, u, shifts)) * c
                                 * sum(map(lshift, v, shifts))
                                 for u, v, c in terms]), k)

    def _reduce(self, packed: int, k: int) -> tuple:
        """Numerators over self.den of the element whose box slots, each of
        absolute value below the half-word 2^(64 k - 1), are packed in slots
        of 64 k bits: unpacked with the plan's offset added, taken back
        slot by slot, and sent to the basis by the rows."""
        _shifts, offset, words, half = self.plans[k]
        slots = words.unpack((packed + offset).to_bytes(words.size, "little"))
        if k > 1:
            joined = slots[::k]
            for j in range(1, k):
                joined = map(add, joined, map(lshift, slots[j::k],
                                              itertools.repeat(64 * j)))
            slots = joined
        slots = list(map(sub, slots, itertools.repeat(half)))
        return tuple([sum(map(mul, vals, read(slots)))
                      for read, vals in self.reads])


_Q_BOX = _Box(None, 0)


class FieldTower:
    """Immutable after construction; all arithmetic is exact, with embeddings
    available at the tower's stated precision. A level-L element is a vector
    (u, den) of [L_L : Q] integer numerators and one denominator; u[j::m] is
    the numerator of its coefficient of g_L^j over level L-1, where m is
    level L's degree."""

    def __init__(self, levels=(), precision=80):
        self.levels = tuple(levels)
        self.precision = precision
        self._dims = [1]
        for lv in self.levels:
            self._dims.append(self._dims[-1] * lv.degree)
        self._basis_cache = None

    @classmethod
    def rationals(cls, precision=80) -> "FieldTower":
        return cls((), precision)

    @property
    def degree(self) -> int:
        return self._dims[-1]

    # -- vectors ------------------------------------------------------------

    def _zero(self, L: int):
        return (0,) * self._dims[L], 1

    def _const(self, q, L: int):
        return (q.numerator,) + (0,) * (self._dims[L] - 1), q.denominator

    def _lift(self, a, from_L: int, to_L: int):
        """View a vector of the sub-tower at level from_L inside level to_L:
        the generators above from_L have exponent 0."""
        out = [0] * self._dims[to_L]
        out[::self._dims[to_L] // self._dims[from_L]] = a[0]
        return tuple(out), a[1]

    def _box(self, L: int) -> _Box:
        """The product data of the first L levels: held on level L, so every
        tower sharing that level object with the same levels below it shares
        them, and built here on first use."""
        if L == 0:
            return _Q_BOX
        lv = self.levels[L - 1]
        if lv.box is None or lv.box.below != self.levels[:L - 1]:
            lv.box = _Box(self, L)
        return lv.box

    def _mul(self, a, b, L: int):
        """a * b at level L; when both lie in level L-1 (no power of g_L
        above the zeroth), the product is taken there and placed back."""
        (u, du), (v, dv) = a, b
        if not (any(u) and any(v)):
            return self._zero(L)
        if L == 0:
            return _reduced((u[0] * v[0],), du * dv)
        m = self.levels[L - 1].degree
        if not any(any(w[j::m]) for w in (u, v) for j in range(1, m)):
            return self._lift(self._mul((u[::m], du), (v[::m], dv), L - 1),
                              L - 1, L)
        box = self._box(L)
        return _reduced(box.product(u, v), du * dv * box.den)

    def _dot(self, pairs, L: int):
        """sum a * b over the pairs (a, b) of level-L vectors, reduced once:
        the products are summed packed over the least common denominator of
        their factors (_Box.dot). When every factor lies in level L-1, the
        sum is taken there and placed back."""
        pairs = [(a, b) for a, b in pairs if any(a[0]) and any(b[0])]
        if not pairs:
            return self._zero(L)
        m = self.levels[L - 1].degree if L else 1
        if m > 1 and not any(any(w[j::m]) for a, b in pairs
                             for w in (a[0], b[0]) for j in range(1, m)):
            return self._lift(self._dot([((u[::m], du), (v[::m], dv))
                                         for (u, du), (v, dv) in pairs],
                                        L - 1), L - 1, L)
        den = lcm(*(du * dv for (_u, du), (_v, dv) in pairs))
        box = self._box(L)
        return _reduced(box.dot([(u, v, den // (du * dv))
                                 for (u, du), (v, dv) in pairs]),
                        den * box.den)

    def _inv(self, a, L: int):
        """1/a at level L. When a lies in level L-1 it is inverted there and
        placed back; otherwise the inverse is read off the first dependence
        among a b_0, ..., a b_(n-1), 1, for the basis monomials b_j, from the
        regular representation (Cohen, GTM 138, ch. 4): a sum c_j b_j = -c_n.
        A dependence that misses 1 makes a a zero divisor, a FieldError."""
        u, den = a
        if not any(u):
            raise ZeroDivisionError("division by zero field element")
        if L == 0:
            return (den if u[0] > 0 else -den,), abs(u[0])
        m = self.levels[L - 1].degree
        if not any(any(u[j::m]) for j in range(1, m)):
            return self._lift(self._inv((u[::m], den), L - 1), L - 1, L)
        n = self._dims[L]
        products = (self._mul(a, ((0,) * j + (1,) + (0,) * (n - 1 - j), 1), L)
                    for j in range(n))
        *c, cn = _first_dependency(
            itertools.chain(products, [self._const(1, L)]), n)
        if len(c) < n:
            raise FieldError("the element is a zero divisor: the level's "
                             "minimal polynomial is not irreducible")
        return _reduced(tuple([-x for x in c]), cn)

    def evaluate(self, u, L: int, leaf, gens):
        """Value of the level-L numerator tuple u in any arithmetic with +
        and *: leaf maps an integer numerator into it, and gens[k-1] stands
        for the level-k generator. Horner's rule in g_L over level L-1."""
        if L == 0:
            return leaf(u[0])
        m = self.levels[L - 1].degree
        return horner([self.evaluate(u[j::m], L - 1, leaf, gens)
                       for j in range(m)], gens[L - 1])

    def _embed(self, a, L: int):
        """Numeric value of the level-L vector a at the tower's precision:
        each coordinate is divided by the denominator before the sums, as
        its rational coordinate would round."""
        u, den = a
        with mp.workdps(guarded(self.precision)):
            return self.evaluate(u, L, lambda n: mp.mpf(n) / den,
                                 [lv.embedding for lv in self.levels])

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
        u = [0] * self._dims[k]
        if self.levels[k - 1].degree > 1:
            u[1] = 1
        return AlgebraicNumber(self, self._lift((tuple(u), 1), k,
                                                len(self.levels)))

    def element(self, coords) -> "AlgebraicNumber":
        u = [_as_fraction(c) for c in coords]
        if len(u) != self.degree:
            raise FieldError(f"need {self.degree} coefficients, got {len(u)}")
        return AlgebraicNumber(self, _from_fractions(u))

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
    # SIC-TOWER v1 writes a level-L coordinate tuple as nested lists, one
    # list per level, the coefficient of g_L^j at position j

    def to_obj(self) -> dict:
        """The tower document the writer writes, as a JSON value."""
        def enc(u, L):
            if L == 0:
                return _ratio(u[0])
            m = self.levels[L - 1].degree
            return [enc(u[j::m], L - 1) for j in range(m)]

        levels = []
        for k, lv in enumerate(self.levels):
            with mp.workdps(guarded(self.precision)):
                emb = (f"{format_decimal(lv.embedding.real, self.precision)} "
                       f"{format_decimal(lv.embedding.imag, self.precision)}")
            levels.append({"tag": lv.tag,
                           "minpoly": [enc(_fractions(c), k)
                                       for c in lv.minpoly],
                           "root_index": lv.root_index,
                           "embedding": emb})
        return {"format": "SIC-TOWER v1", "precision": self.precision,
                "levels": levels}

    def to_json(self) -> str:
        return json.dumps(self.to_obj())

    @classmethod
    def from_json(cls, text: str) -> "FieldTower":
        """The tower of a document that is what to_json writes for it."""
        doc = json.loads(text, object_pairs_hook=unique_keys)
        tower = cls.from_obj(doc)
        one_spelling(doc, tower.to_obj(), "tower")
        return tower

    @classmethod
    def from_obj(cls, doc) -> "FieldTower":
        """The tower a parsed document describes, checked as arithmetic needs
        it; its spelling is the caller's to check (one_spelling)."""
        if doc.get("format") != "SIC-TOWER v1":
            raise ValueError("not a tower document")
        prec = doc["precision"]
        # an honest writer stores `precision` significant digits of every
        # nonzero embedding part, so a larger claim is refused before any
        # parsing at that precision
        stored = [n for lv in doc["levels"] if isinstance(lv["embedding"], str)
                  for n in map(significant_digits, lv["embedding"].split())
                  if n]
        if doc["levels"] and (not stored or prec > min(stored)):
            raise FieldError(f"tower precision {prec} exceeds the "
                             f"{min(stored, default=0)} significant digits "
                             "its embeddings store")
        levels = []

        def dec(node, L):
            if L == 0:
                return (parse_rational(node),)
            if not (isinstance(node, list)
                    and len(node) == levels[L - 1].degree):
                raise FieldError(f"level {len(levels) + 1} minimal polynomial "
                                 "does not nest as the level degrees")
            return _interleave([dec(c, L - 1) for c in node])

        for k, lv in enumerate(doc["levels"]):
            tag, minpoly, root, emb = (lv["tag"], lv["minpoly"],
                                       lv["root_index"], lv["embedding"])
            if not (isinstance(tag, str) and type(root) is int
                    and isinstance(emb, str)
                    and isinstance(minpoly, list) and minpoly):
                raise FieldError(f"level {k + 1} is not a tag, a minimal "
                                 "polynomial, a root index and an embedding")
            if not 0 <= root < len(minpoly):
                raise FieldError(f"level {k + 1} root index {root} is "
                                 f"outside [0, {len(minpoly)})")
            re_x, im_x = (parse_decimal(s, prec) for s in emb.split())
            with mp.workdps(guarded(prec)):
                emb = mp.mpc(re_x, im_x)
            levels.append(FieldLevel(
                tag, tuple(_from_fractions(dec(c, k)) for c in minpoly),
                root, emb))
        tower = cls(levels, prec)
        # embeddings must satisfy their polynomials
        with mp.workdps(guarded(prec)):
            for k, lv in enumerate(levels):
                acc = horner([tower._embed(c, k) for c in lv.minpoly]
                             + [mp.mpc(1)], lv.embedding)
                if not abs(acc) <= mp.mpf(10) ** -(prec - 10):
                    raise FieldError(
                        f"level {k + 1} embedding violates its minimal "
                        "polynomial")
        return tower

    def __eq__(self, other):
        return (isinstance(other, FieldTower)
                and self.precision == other.precision
                and self.levels == other.levels)

    def __repr__(self):
        tags = ".".join(lv.tag for lv in self.levels) or "Q"
        return f"FieldTower({tags}, degree {self.degree}, {self.precision} digits)"


class AlgebraicNumber:
    """Exact element of a tower, stored as its vector (u, den): integer
    numerators over the power-product basis, lex order with the top generator
    fastest, and one positive denominator coprime to them, so equal elements
    have equal vectors. coefficients is the view as rational coordinates.
    Hashable and immutable."""

    __slots__ = ("tower", "vec", "_hash")

    def __init__(self, tower: FieldTower, vec: tuple):
        self.tower = tower
        self.vec = vec
        self._hash = None

    @property
    def coefficients(self) -> tuple:
        """The rational coordinates, as Fractions."""
        return _fractions(self.vec)

    def embed(self):
        """Numeric value at the tower's precision (raw mpc)."""
        return self.tower._embed(self.vec, len(self.tower.levels))

    def _peer(self, other) -> "AlgebraicNumber":
        if isinstance(other, AlgebraicNumber):
            if other.tower.levels != self.tower.levels:
                raise FieldError("elements of different towers")
            return other
        return self.tower.rational(other)

    def __add__(self, other):
        return AlgebraicNumber(self.tower,
                               _combine(self.vec, self._peer(other).vec, add))

    __radd__ = __add__

    def __neg__(self):
        u, den = self.vec
        return AlgebraicNumber(self.tower, (tuple([-x for x in u]), den))

    def __sub__(self, other):
        return AlgebraicNumber(self.tower,
                               _combine(self.vec, self._peer(other).vec, sub))

    def __rsub__(self, other):
        return AlgebraicNumber(self.tower,
                               _combine(self._peer(other).vec, self.vec, sub))

    def __mul__(self, other):
        if not isinstance(other, AlgebraicNumber):
            # a rational factor scales the coordinates
            return AlgebraicNumber(self.tower,
                                   _scale(self.vec, _as_fraction(other)))
        o = self._peer(other)
        return AlgebraicNumber(self.tower, self.tower._mul(
            self.vec, o.vec, len(self.tower.levels)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._peer(other)
        L = len(self.tower.levels)
        return AlgebraicNumber(self.tower, self.tower._mul(
            self.vec, self.tower._inv(o.vec, L), L))

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
        return not any(self.vec[0])

    def __eq__(self, other):
        if not isinstance(other, AlgebraicNumber):
            try:
                other = self._peer(other)
            except (TypeError, FieldError):
                return NotImplemented
        return (self.tower.levels == other.tower.levels
                and self.vec == other.vec)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((len(self.tower.levels), self.vec))
        return self._hash

    def __repr__(self):
        vals = [f"{c.numerator}/{c.denominator}" for c in self.coefficients]
        return f"AlgebraicNumber([{', '.join(vals)}])"


def dot(xs, ys):
    """sum x_i y_i over the pairs of the sequences xs and ys, of which there
    is at least one. Elements of one tower take one reduction to the basis
    (FieldTower._dot); any other arithmetic takes the plain sum
    reduce(add, map(mul, xs, ys)). Elements of different towers are a
    FieldError, as their product is."""
    x0 = xs[0]
    if type(x0) is not AlgebraicNumber or not all(
            type(z) is AlgebraicNumber for z in itertools.chain(xs, ys)):
        return reduce(add, map(mul, xs, ys))
    for z in itertools.chain(xs, ys):
        x0._peer(z)
    tower = x0.tower
    return AlgebraicNumber(tower, tower._dot(
        [(x.vec, y.vec) for x, y in zip(xs, ys)], len(tower.levels)))


# ---------------------------------------------------------------------------
# adjoining roots


def _monic(tower: FieldTower, coeffs) -> list[AlgebraicNumber]:
    """Coerce a polynomial into the tower and monicize it. Returns its
    coefficients (ascending, without the leading 1)."""
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
    return [c / poly[-1] for c in poly[:-1]]


def _poly_roots(values: list, prec: int) -> list:
    """Roots of a monic polynomial given numeric coefficients (ascending,
    without the leading 1), sorted by (re, im) for determinism.

    The roots found in double precision (_double_roots) are polished by
    Newton steps at doubling precision, up to the working bits plus `prec`
    bits (_newton_ladder), and handed to mpmath's polyroots for one
    Durand-Kerner sweep at that precision (maxsteps=1). It accepts them
    when the sweep moves no root by eps or more, its own stopping rule,
    and then applies its cleanup of small parts and its rounding to the
    working precision. When the sweep does not pass, or the ladder has
    no start (not finite, a zero derivative, two roots coinciding),
    polyroots runs as before: Durand-Kerner at the working bits plus
    `prec` from the double-precision start (or from its fixed cold start),
    until a correction falls below eps.

    Either way the last step is quadratic and below eps = 2^(1 - bits), so
    the roots are within a few units of 2^-(bits+prec) of the true roots,
    relative to their modulus, and rounding to the call's bits gives the
    same bits from either route, unless a component lies within about
    2^-(bits+prec) times the modulus of a rounding boundary. A component
    below 2^-prec of its root's modulus always may: its last bits are
    noise. Such a component is, for example, the imaginary part that
    rounding complex coefficients leaves on a real root, when it is above
    the cleanup tolerance.

    The order of two roots with equal real parts is decided by rounding
    noise: complex-conjugate pairs, such as tau and its conjugate or pairs
    of the overlap-field generator's conjugates, have equal real parts, and
    the last digits of the computed ones pick the order. A level's
    root_index, and the order of the Galois rows, which are sorted by the
    root they send the top generator to, so depend on the exact numerics
    that produced the coefficients: recomputed from a reloaded seed-11 d=5
    certificate, tau sorts first, though the certificate stores it at
    root_index 1."""
    with mp.workdps(guarded(prec) + 20):
        coeffs = [mp.mpc(1)] + [mp.mpc(v) for v in reversed(values)]
        start = _double_roots(coeffs)
        ladder = start and _newton_ladder(coeffs, start, prec)
        roots = None
        if ladder:
            try:
                roots = mp.polyroots(coeffs, maxsteps=1, extraprec=prec,
                                     roots_init=ladder)
            except mp.mp.NoConvergence:
                pass
        if roots is None:
            roots = mp.polyroots(coeffs, maxsteps=200, extraprec=prec,
                                 roots_init=start)
        return sorted((mp.mpc(r) for r in roots),
                      key=lambda z: (z.real, z.imag))


def _newton_ladder(coeffs: list, roots: list, extra: int) -> list | None:
    """The approximations `roots`, good to double precision, of the roots of
    the monic polynomial with descending coefficients `coeffs`, after one
    Newton step at each of 106, 212, ... bits, up to the working bits plus
    `extra`; None when a step divides by zero or two of them coincide.
    polyroots' sweep skips a zero distance between two roots, so without
    that check two starts merged on one root could pass it."""
    bits = mp.mp.prec + extra
    roots = list(roots)
    p = 53
    try:
        while p < bits:
            p = min(2 * p, bits)
            with mp.workprec(p):
                for i, z in enumerate(roots):
                    f, df = mp.polyval(coeffs, z, derivative=True)
                    roots[i] = z - f / df
    except ZeroDivisionError:
        return None
    if len(set(roots)) < len(roots):
        return None
    return roots


# Durand-Kerner sweeps in double precision before the full-precision call.
DOUBLE_SWEEPS = 100


def _double_roots(coeffs: list) -> list | None:
    """Roots of the monic polynomial with descending coefficients `coeffs`,
    as mpc, by Durand-Kerner in Python complex from mpmath's cold start,
    sweeping until the corrections stall at double precision or
    DOUBLE_SWEEPS run out; None when they are not finite."""
    deg = len(coeffs) - 1
    try:
        cs = [complex(c) for c in coeffs]
        roots = [(0.4 + 0.9j) ** k for k in range(deg)]
        for _ in range(DOUBLE_SWEEPS):
            step = 0.0
            for i, p in enumerate(roots):
                x = 0j
                for c in cs:
                    x = x * p + c
                for r in roots:
                    if r != p:  # itself, or a coincident start
                        x /= p - r
                roots[i] = p - x
                step = max(step, abs(x))
            if not step > 1e-15 * max(1.0, *map(abs, roots)):
                break
    except OverflowError:  # abs() of a complex beyond the double range
        return None
    if all(isfinite(r.real) and isfinite(r.imag) for r in roots):
        return [mp.mpc(r) for r in roots]
    return None


def _certified_factor(tower: FieldTower, monic: list[AlgebraicNumber],
                      roots: list, subsets: list, precisions) -> list | None:
    """Search for a monic factor whose roots are one of the given root
    subsets: at each recognition precision in turn, the subsets' symmetric
    functions are recognized in the tower, and a candidate counts only if it
    divides the polynomial exactly. Returns the factor's coefficients
    (ascending, without the leading 1), or None."""
    for attempt in precisions:
        for subset in subsets:
            rec = []
            for v in _subset_product_coeffs(roots, subset, tower.precision):
                got = recognize(tower, v, precision=attempt)
                if got is None:
                    break
                rec.append(got)
            else:
                if divides(tower, rec, monic):
                    return rec
    return None


def divides(tower: FieldTower, factor: list[AlgebraicNumber],
            monic: list[AlgebraicNumber]) -> bool:
    """Whether the monic polynomial `factor` divides the monic polynomial
    `monic` exactly over the tower (both ascending, without the leading
    1), by monic long division."""
    L = len(tower.levels)
    rem = [c.vec for c in monic] + [tower._const(1, L)]
    n = len(factor)
    for i in range(len(rem) - 1 - n, -1, -1):
        # take lead x^i times factor away, lead the coefficient of x^(i+n)
        lead = rem[i + n]
        rem[i:i + n] = [_combine(r, tower._mul(lead, c.vec, L), sub)
                        for r, c in zip(rem[i:i + n], factor)]
    return not any(any(u) for u, _den in rem[:n])


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


def nearest_root(roots: list, z, prec: int) -> int:
    """Index of the root nearest z, by squared distance at guarded(prec)."""
    with mp.workdps(guarded(prec)):
        z = mp.mpc(z)
        return min(range(len(roots)), key=lambda i: abs2(roots[i] - z))


def _guess_precision(tower: FieldTower) -> int:
    # recognition only proposes candidates (exact verification follows), so a
    # few hundred digits suffice and keep the lattice reduction cheap
    return min(tower.precision, max(160, 12 * tower.degree))


def adjoin(tower: FieldTower, coeffs, root_selector,
           tag: str | None = None) -> FieldTower:
    """Extend the tower by a root of the given polynomial (coefficients over
    the tower, ascending; non-monic input is monicized), which must be
    irreducible over it, else FieldError. is_field decides so exactly on
    the extension with no root chosen (_probe), before any root is sought,
    so a repeated or reducible factor never reaches the numeric root
    finder. root_selector is an approximate complex value choosing the
    embedding: the nearest root must lie within 0.3 * (1 + |root_selector|)
    of it and at most half as far from it as the second nearest root."""
    monic = _monic(tower, coeffs)
    if len(monic) == 1:
        raise FieldError("a linear polynomial adds no level: its root is "
                         "already in the tower")
    probe = _probe(tower, monic)
    if not is_field(probe):
        raise FieldError("polynomial is reducible: the extended tower is not "
                         "a field")
    roots = _poly_roots([c.embed() for c in monic], tower.precision)
    return _new_level(tower, monic, roots, root_selector, tag,
                      probe.levels[-1].box)


def _probe(tower: FieldTower, monic: list[AlgebraicNumber]) -> FieldTower:
    """The tower extended by a root of monic with none chosen: the level has
    no root index and no embedding, which neither is_field nor exact
    arithmetic reads."""
    level = FieldLevel("probe", tuple(c.vec for c in monic), None, None)
    return FieldTower(tower.levels + (level,), tower.precision)


def _new_level(tower: FieldTower, monic: list[AlgebraicNumber], roots: list,
               root_selector, tag: str | None, box=None) -> FieldTower:
    """The tower extended by the root of monic that root_selector picks
    (roots from _poly_roots); the caller vouches for its irreducibility.
    box, the product data of a _probe of the same polynomial, is kept."""
    with mp.workdps(guarded(tower.precision)):
        sel = mp.mpc(root_selector)
        dist2 = [abs2(r - sel) for r in roots]
        order = sorted(range(len(roots)), key=dist2.__getitem__)
        idx = order[0]
        # the selector must pick one root unambiguously. Squared, with
        # c = 0.3 and s = |sel|: dist > c (1 + s) holds exactly when
        # u = dist^2 - c^2 (1 + s^2) exceeds 2 c^2 s, that is when u > 0 and
        # u^2 > 4 c^4 s^2, so no square root is taken
        c2, s2 = mp.mpf("0.09"), abs2(sel)
        u = dist2[idx] - c2 * (1 + s2)
        if u > 0 and u * u > 4 * c2 * c2 * s2:
            raise FieldError(
                f"no root near selector {mp.nstr(sel, 8)}")
        if len(order) > 1 and 4 * dist2[idx] > dist2[order[1]]:
            raise FieldError(
                f"selector {mp.nstr(sel, 8)} is ambiguous between roots")
    level = FieldLevel(tag or f"g{len(tower.levels) + 1}",
                       tuple(c.vec for c in monic), idx, roots[idx], roots)
    level.box = box
    return FieldTower(tower.levels + (level,), tower.precision)


# ---------------------------------------------------------------------------
# recognition and automorphisms


def recognize(tower: FieldTower, value,
              precision: int | None = None) -> AlgebraicNumber | None:
    """Express a numeric value in the tower's power-product basis, or None.
    One reduction at the tower's precision, whose gradual feeding is the
    precision ladder; only the factor searches pass a lower precision."""
    prec = min(precision or tower.precision, tower.precision)
    rel = integer_relation([value] + tower.basis_values(), precision=prec)
    if rel is None:
        return None
    return relation_element(tower, rel.coefficients)


def relation_element(tower: FieldTower, m) -> AlgebraicNumber:
    """The element x that an integer relation m_0 x = sum_{j>=1} m_j b_j over
    the tower's power-product basis b expresses: its vector is the
    numerators m[1:] over the denominator m[0], sign-normalized and reduced.
    RelationError when m_0 = 0, since the relation then does not involve x."""
    den, num = m[0], tuple(m[1:])
    if den == 0:
        raise RelationError("relation does not involve the target number")
    if len(num) != tower.degree:
        raise FieldError(f"need {tower.degree} coefficients, got {len(num)}")
    if den < 0:
        den, num = -den, tuple([-x for x in num])
    return AlgebraicNumber(tower, _reduced(num, den))


class EmbeddingAutomorphism:
    """A field automorphism presented by the exact images of the tower
    generators, and held as an integer N x N matrix over one denominator:
    column i is the image of basis monomial i, the generator images raised
    to its exponents and multiplied out. Application is one mat-vec, so it
    commutes with arithmetic exactly. Built only by automorphism(), and by
    restricted() from the matrix of a map it restricts: matrix is the pair
    (rows, den)."""

    __slots__ = ("tower", "images", "_rows", "_den")

    def __init__(self, tower: FieldTower, images, matrix):
        self.tower = tower
        self.images = tuple(images)
        self._rows, self._den = matrix

    def __call__(self, x: AlgebraicNumber) -> AlgebraicNumber:
        if x.tower.levels != self.tower.levels:
            raise FieldError("element from a different tower")
        u, den = x.vec
        return AlgebraicNumber(self.tower, _reduced(
            tuple([sum(map(mul, row, u)) for row in self._rows]),
            den * self._den))

    def restricted(self, k: int) -> "EmbeddingAutomorphism":
        """The automorphism of the sub-tower of the first k levels that this
        one restricts to. When the first k images lie in that sub-tower, the
        map sends it into itself, so the block of the matrix at the rows and
        columns ::m, where m is the degree of the levels above k, is exactly
        its matrix; FieldError otherwise."""
        sub = FieldTower(self.tower.levels[:k], self.tower.precision)
        m = self.tower.degree // sub.degree
        images = []
        for img in self.images[:k]:
            u, den = img.vec
            if any(any(u[j::m]) for j in range(1, m)):
                raise FieldError(f"the images of the first {k} generators "
                                 "do not lie in their sub-tower")
            images.append(AlgebraicNumber(sub, (u[::m], den)))
        block = tuple(row[::m] for row in self._rows[::m])
        return EmbeddingAutomorphism(sub, images, (block, self._den))

    def is_identity(self) -> bool:
        return all(img == self.tower.generator(k + 1)
                   for k, img in enumerate(self.images))

    def __eq__(self, other):
        return (isinstance(other, EmbeddingAutomorphism)
                and self.tower.levels == other.tower.levels
                and self.images == other.images)

    def __hash__(self):
        return hash(tuple(img.vec for img in self.images))

    def __repr__(self):
        arrows = ", ".join(
            f"{lv.tag} -> {mp.nstr(img.embed(), 8)}"
            for lv, img in zip(self.tower.levels, self.images))
        return f"EmbeddingAutomorphism({arrows})"


def automorphism(tower: FieldTower, images) -> EmbeddingAutomorphism:
    """The automorphism sending the level-k generator to images[k-1]. Each
    image is checked exactly to be a root of its level's minimal polynomial
    with the earlier images substituted, so the map is a field embedding of
    the tower into itself, hence onto; FieldError otherwise.

    The matrix's columns are built level by level: before level k, they are
    the images of the basis monomials of the first k-1 levels, so each
    coefficient of level k's minimal polynomial is carried over as one
    integer combination of them, and the check of the image x is
    x^m + dot(coefficients, [1, x, ..., x^(m-1)]), with the powers that the
    next columns are built from."""
    images = tuple(images)
    if len(images) != len(tower.levels):
        raise FieldError(f"{len(images)} generator images for a "
                         f"{len(tower.levels)}-level tower")
    # elements of this tower, with a rational image made one
    images = tuple(map(tower.one()._peer, images))
    n = len(tower.levels)
    one = tower._const(1, n)
    cols = [one]
    for k, (lv, img) in enumerate(zip(tower.levels, images), 1):
        x = img.vec
        powers = [one]
        for _ in range(lv.degree - 1):
            powers.append(tower._mul(powers[-1], x, n))
        rows, den = _columns(cols)
        coeffs = [_reduced(tuple([sum(map(mul, row, u)) for row in rows]),
                           den * du) for u, du in lv.minpoly]
        residue = _combine(tower._mul(powers[-1], x, n),
                           tower._dot(zip(coeffs, powers), n), add)
        if any(residue[0]):
            raise FieldError(f"the level-{k} image is not a root of its "
                             "transported minimal polynomial")
        cols = [c if j == 0 else tower._mul(c, p, n)
                for c in cols for j, p in enumerate(powers)]
    return EmbeddingAutomorphism(tower, images, _columns(cols))


def automorphisms(tower: FieldTower,
                  fixing_level: int = 0) -> list[EmbeddingAutomorphism]:
    """All automorphisms of the tower (as an abstract field mapped into its
    own embedding) fixing levels 1..fixing_level pointwise, where only the
    top level may move, ordered by the index of the root they send the top
    generator to: the root nearest the level's embedding gives the
    identity, and every other conjugate root is recognized in the whole
    tower and kept when automorphism() accepts it. The lift reads its rows
    off its own conjugates over the coefficient field instead (`exactify`);
    this recognition at the tower's full degree serves towers that carry no
    such structure."""
    n = len(tower.levels)
    if fixing_level == n:
        return [automorphism(tower, [tower.generator(k + 1)
                                     for k in range(n)])]
    if fixing_level != n - 1:
        raise FieldError(f"{n - fixing_level} levels would move; only the top "
                         "level may")
    top = tower.levels[-1]
    if top.degree > 64:
        raise FieldError("relative degree beyond desk scale (max 64)")
    roots = top.roots or _poly_roots(
        [tower._embed(c, n - 1) for c in top.minpoly], tower.precision)
    me = nearest_root(roots, top.embedding, tower.precision)
    fixed = [tower.generator(k + 1) for k in range(n - 1)]
    rows = []
    for i, z in enumerate(roots):
        img = tower.generator(n) if i == me else recognize(tower, z)
        if img is None:
            continue
        try:
            rows.append(automorphism(tower, fixed + [img]))
        except FieldError:
            pass
    return rows


def lift_element(tower: FieldTower, x: AlgebraicNumber) -> AlgebraicNumber:
    """View an element of a prefix sub-tower inside the larger tower."""
    k = len(x.tower.levels)
    if tuple(tower.levels[:k]) != tuple(x.tower.levels):
        raise FieldError("element's tower is not a prefix of the target tower")
    return AlgebraicNumber(tower, tower._lift(x.vec, k, len(tower.levels)))


def _first_dependency(vectors, n: int) -> tuple:
    """The first integer dependence among a stream of vectors (u, den) of n
    coordinates, endless or of at least n + 1 vectors, so that one exists:
    integers c_0, ..., c_k, primitive with c_k > 0, such that
    sum c_i u_i / den_i = 0 while the first k vectors are independent, which
    makes it unique. The one exact elimination, fraction-free: each row is a
    vector's numerators followed by its combination of the vectors read so
    far, reduced against the earlier rows by cross-multiplication and
    divided by its content; the first row whose coordinates reduce to zero
    gives the dependence, and the vector i enters scaled by den_i."""
    rows, dens = [], []       # (pivot column, row); denominators of vectors
    for k, (u, den) in enumerate(vectors):
        dens.append(den)
        row = list(u) + [0] * k + [1] + [0] * (n - k)
        for piv, b in rows:
            if row[piv]:
                g = gcd(row[piv], b[piv])
                f, h = b[piv] // g, row[piv] // g
                row = [f * y - h * z for y, z in zip(row, b)]
                g = gcd(*row)
                if g > 1:
                    row = [y // g for y in row]
        piv = next((col for col in range(n) if row[col]), None)
        if piv is None:
            dep = [c * d for c, d in zip(row[n:n + k + 1], dens)]
            g = gcd(*dep) * (1 if dep[-1] > 0 else -1)
            return tuple(c // g for c in dep)
        rows.append((piv, row))


def _rational_minpoly(x: AlgebraicNumber) -> tuple:
    """Exact minimal polynomial of x over the rationals: ascending integer
    coefficients, primitive, positive leading; the first dependence among
    1, x, x^2, ..."""
    powers = itertools.accumulate(itertools.repeat(x), mul,
                                  initial=x.tower.one())
    return _first_dependency((p.vec for p in powers), x.tower.degree)


# ---------------------------------------------------------------------------
# field certificates: factoring over the integers
#
# Polynomials modulo m are ascending lists of residues in [0, m) without
# zero leading coefficients; the zero polynomial is [].


def _packed(a, k: int) -> int:
    """The coefficients of a in slots of k 64-bit words, lowest first."""
    if k == 1:
        return int.from_bytes(struct.pack(f"<{len(a)}Q", *a), "little")
    return int.from_bytes(b"".join(c.to_bytes(8 * k, "little") for c in a),
                          "little")


def _kron(a, b) -> list:
    """The product of two nonempty polynomials with nonnegative integer
    coefficients by one big-integer multiply (Kronecker substitution), each
    coefficient in a slot of k 64-bit words, wide enough for any
    coefficient of the product."""
    k = (max(a).bit_length() + max(b).bit_length()
         + min(len(a), len(b)).bit_length()) // 64 + 1
    n = len(a) + len(b) - 1
    raw = (_packed(a, k) * _packed(b, k)).to_bytes(8 * k * n, "little")
    if k == 1:
        return list(struct.unpack(f"<{n}Q", raw))
    return [int.from_bytes(raw[i:i + 8 * k], "little")
            for i in range(0, 8 * k * n, 8 * k)]


def _mtrim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _mop(a, b, m: int, op=add) -> list:
    """a + b (or a - b, for op sub) modulo m."""
    return _mtrim([op(x, y) % m
                   for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _mmul(a, b, m: int) -> list:
    if not (a and b):
        return []
    return _mtrim([c % m for c in _kron(a, b)])


def _mdivmod(a, b, m: int):
    """Quotient and remainder of a by b modulo m, for b whose leading
    coefficient is a unit modulo m."""
    r, nb = list(a), len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(0, len(r) - nb)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + nb] * inv % m
        if c:
            r[i:i + nb] = [(x - c * y) % m for x, y in zip(r[i:i + nb], b)]
    return _mtrim(q), _mtrim(r[:nb])


def _mmonic(a, p: int) -> list:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _mgcd(a, b, p: int) -> list:
    """The monic gcd over F_p of a (nonzero) and b."""
    while b:
        a, b = b, _mdivmod(a, b, p)[1]
    return _mmonic(a, p)


def _mxgcd(a, b, p: int):
    """(g, s, t) over F_p with g the monic gcd of a and b (a nonzero) and
    s a + t b = g, deg s < deg b - deg g and deg t < deg a - deg g."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _mdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mop(s0, _mmul(q, s1, p), p, sub)
        t0, t1 = t1, _mop(t0, _mmul(q, t1, p), p, sub)
    inv = pow(r0[-1], -1, p)
    return tuple([c * inv % p for c in x] for x in (r0, s0, t0))


def _mpowmod(a, e: int, f, p: int) -> list:
    """a^e modulo f over F_p, by squaring and multiplying."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _mdivmod(_mmul(out, out, p), f, p)[1]
        if bit == "1":
            out = _mdivmod(_mmul(out, a, p), f, p)[1]
    return out


def _distinct_degree(f, p: int) -> list:
    """Pairs (i, g), g the product of the monic irreducible factors of
    degree i of f over F_p (f monic and squarefree there): g is the gcd of
    x^(p^i) - x with what is left of f, for i = 1, 2, ... while that can
    still split."""
    out, h, i = [], [0, 1], 0
    while 2 * (i + 1) < len(f):
        i += 1
        h = _mpowmod(h, p, f, p)
        g = _mgcd(f, _mop(h, [0, 1], p, sub), p)
        if len(g) > 1:
            out.append((i, g))
            f = _mdivmod(f, g, p)[0]
            h = _mdivmod(h, f, p)[1]
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _equal_degree(g, i: int, p: int) -> list:
    """The monic irreducible factors of g over F_p, for an odd prime p and
    g monic, squarefree and a product of factors of degree i: the first
    trial polynomial t, in the fixed order x, x + 1, ..., x + p - 1, then
    the monic quadratics, ..., for which gcd(t^((p^i - 1)/2) - 1, g) is a
    proper factor splits g, and each part is split again. Some t of degree
    below deg g is a square modulo one factor and not modulo another, so
    the search ends."""
    if len(g) - 1 == i:
        return [g]
    e = (p ** i - 1) // 2
    for k in range(1, len(g) - 1):
        for low in itertools.product(range(p), repeat=k):
            w = _mpowmod([*low, 1], e, g, p)
            h = _mgcd(g, _mop(w, [1], p, sub), p)
            if 1 < len(h) < len(g):
                return (_equal_degree(h, i, p)
                        + _equal_degree(_mdivmod(g, h, p)[0], i, p))
    raise ArithmeticError("no trial polynomial splits an equal-degree "
                          "product")


def _odd_primes():
    p = 3
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def _squarefree_mod(f, p: int) -> list | None:
    """f modulo p made monic, when p keeps its degree and it stays
    squarefree; otherwise None."""
    fp = _mtrim([c % p for c in f])
    if len(fp) < len(f):
        return None
    fp = _mmonic(fp, p)
    deriv = _mtrim([i * c % p for i, c in enumerate(fp) if i])
    return fp if len(_mgcd(fp, deriv, p)) == 1 else None


def factor_mod_p(f, p: int, ddf: list | None = None) -> list:
    """The monic irreducible factors over F_p (ascending residue lists),
    ordered by degree and then coefficients, of the integer polynomial f
    (ascending), for an odd prime p that keeps f's degree and modulo which
    f is squarefree (FieldError otherwise): distinct-degree, then
    equal-degree factorization. For an unramified p, their degrees are the
    cycle type of Frobenius at p. A caller that has already made the
    distinct-degree split of f modulo p passes it as ddf, and only the
    equal-degree step runs."""
    if ddf is None:
        fp = _squarefree_mod(f, p)
        if fp is None:
            raise FieldError(f"the polynomial is not squarefree of full "
                             f"degree modulo {p}")
        ddf = _distinct_degree(fp, p)
    return sorted((h for i, g in ddf for h in _equal_degree(g, i, p)),
                  key=lambda h: (len(h), h))


def _hensel_pair(f, u, v, p: int, k: int):
    """(u*, v*) with f = u* v* modulo p^k, v* monic, from f = u v modulo p
    with v monic and u, v coprime there: quadratic Hensel steps (von zur
    Gathen and Gerhard, Modern Computer Algebra, Alg. 15.10), each on the
    modulus p^e for exponents e that double up to k."""
    _g, s, t = _mxgcd(u, v, p)
    exps = [k]
    while exps[-1] > 1:
        exps.append((exps[-1] + 1) // 2)
    for e in reversed(exps[:-1]):
        m = p ** e
        err = _mop([c % m for c in f], _mmul(u, v, m), m, sub)
        q, r = _mdivmod(_mmul(s, err, m), v, m)
        u = _mop(u, _mop(_mmul(t, err, m), _mmul(q, u, m), m), m)
        v = _mop(v, r, m)
        b = _mop(_mop(_mmul(s, u, m), _mmul(t, v, m), m), [1], m, sub)
        c, d = _mdivmod(_mmul(s, b, m), v, m)
        s = _mop(s, d, m, sub)
        t = _mop(t, _mop(_mmul(t, b, m), _mmul(c, u, m), m), m, sub)
    return u, v


def _hensel(f, factors, p: int, k: int) -> list:
    """Monic lifts modulo p^k, in order, of the monic coprime factors of f
    over F_p (f congruent to its leading coefficient times their product):
    the factors are halved, the two halves' products lifted by
    _hensel_pair, and each half lifted again below its product."""
    M = p ** k
    if len(factors) == 1:
        inv = pow(f[-1], -1, M)
        return [[c * inv % M for c in f]]
    half = len(factors) // 2

    def product(fs):
        return reduce(lambda a, b: _mmul(a, b, p), fs)

    u = _mmul([f[-1] % p], product(factors[half:]), p)
    u, v = _hensel_pair(f, u, product(factors[:half]), p, k)
    return _hensel(v, factors[:half], p, k) + _hensel(u, factors[half:], p, k)


def _zquotient(f, g) -> list | None:
    """f / g for integer polynomials (ascending) when the primitive g
    divides f in Z[x], and so in Q[x]; otherwise None. Long division, with
    every quotient coefficient integral."""
    r, n = list(f), len(g) - 1
    q = [0] * (len(f) - n)
    for i in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[i + n], g[-1])
        if rem:
            return None
        q[i] = c
        if c:
            r[i:i + n + 1] = [x - c * y for x, y in zip(r[i:i + n + 1], g)]
    return None if any(r) else q


# primes whose factor degrees are intersected before lifting
ZASSENHAUS_PRIMES = 5


def _irreducible(f) -> bool:
    """Whether the primitive integer polynomial f (ascending, positive
    leading coefficient) is irreducible over the rationals, by Zassenhaus's
    algorithm (J. Number Theory 1, 1969; Cohen, GTM 138, Alg. 3.5.7):
    factor f modulo a few small odd primes that keep it squarefree of full
    degree; intersect the factor degrees each allows (the sums of its
    factors' degrees); Hensel-lift the factors at the prime with the
    fewest past twice the bound on a factor's coefficients; and rule out
    every combination of lifted factors of an allowed degree up to n/2, up
    to complement, by exact division. A factor G of degree k has
    (lc f / lc G) G congruent to lc f times its lifted factors, with
    coefficients of size at most C(k, k/2) M(f) <= C(k, k/2) |f|_2
    (Mahler measure; Cohen, section 3.5.5)."""
    n = len(f) - 1
    if n == 1:
        return True
    if not f[0]:
        return False
    lc = f[-1]
    norm = isqrt(sum(c * c for c in f)) + 1
    # |lc disc f| <= lc n^n |f|_2^(2n-2) has at most this many prime factors;
    # a prime outside them keeps a squarefree f squarefree of full degree
    bad_left = (lc * n ** n * norm ** (2 * n - 2)).bit_length()
    degrees, best, good = None, None, 0
    for p in _odd_primes():
        fp = _squarefree_mod(f, p)
        if fp is None:
            bad_left -= 1
            if bad_left < 0:
                return False       # f has a repeated factor
            continue
        ddf = _distinct_degree(fp, p)
        sums = {0}
        for i, g in ddf:
            for _ in range((len(g) - 1) // i):
                sums |= {s + i for s in sums}
        degrees = sums if degrees is None else degrees & sums
        if degrees == {0, n}:
            return True
        count = sum((len(g) - 1) // i for i, g in ddf)
        if best is None or count < best[0]:
            best = (count, p, ddf)
        good += 1
        if good == ZASSENHAUS_PRIMES:
            break
    _count, p, ddf = best
    factors = factor_mod_p(f, p, ddf)
    kmax = max(k for k in degrees if 2 * k <= n)
    k, M = 1, p
    while M <= 2 * comb(kmax, kmax // 2) * norm:
        k, M = k + 1, M * p
    lifts = _hensel(f, factors, p, k)

    def centred(c):
        c %= M
        return c - M if 2 * c > M else c

    # factor_mod_p orders the factors by degree
    for size in range(1, len(lifts)):
        if 2 * sum(len(h) - 1 for h in lifts[:size]) > n:
            break
        for S in itertools.combinations(range(len(lifts)), size):
            deg = sum(len(lifts[i]) - 1 for i in S)
            if deg not in degrees or 2 * deg > n or (2 * deg == n and S[0]):
                continue
            # the constant term of (lc f / lc G) G divides lc f(0)
            c0 = centred(reduce(lambda a, i: a * lifts[i][0] % M, S, lc))
            if not c0 or lc * f[0] % c0:
                continue
            g = [centred(c) for c in reduce(
                lambda a, i: _mmul(a, lifts[i], M), S, [lc % M])]
            cont = gcd(*g)
            if _zquotient(f, [c // cont for c in g]) is not None:
                return False
    return True


def _primitive_element(tower: FieldTower):
    """(x, x's rational minimal polynomial) for an x of full degree, which
    so generates the tower's algebra over the rationals: the top generator
    g, or g + c y for the least c >= 0 that gives full degree, y the
    prefix's such element. None when no c up to C(n, 2) does, n the tower
    degree: in a field, g + c y and its conjugates coincide under two
    embeddings for at most one c per pair, so the tower is then not a
    field."""
    L = len(tower.levels)
    if L == 0:
        return tower.zero(), (0, 1)
    below = _primitive_element(FieldTower(tower.levels[:-1], tower.precision))
    if below is None:
        return None
    y, g = lift_element(tower, below[0]), tower.generator(L)
    for c in range(comb(tower.degree, 2) + 1 if L > 1 else 1):
        x = g + y * c
        f = _rational_minpoly(x)
        if len(f) == tower.degree + 1:
            return x, f
    return None


def is_field(tower: FieldTower) -> bool:
    """Whether the tower's algebra is a field, decided exactly with no
    numerics and no lattice reduction: it is one exactly when an element of
    full degree (_primitive_element) has an irreducible minimal polynomial
    over the rationals (_irreducible)."""
    got = _primitive_element(tower)
    return got is not None and _irreducible(got[1])


def _simple_roots(f, p: int) -> list:
    """The monic product over F_p of (x - r) for the simple roots r of the
    monic f: the gcd of f with x^p - x, less its common factor with f'."""
    g = _mgcd(f, _mop(_mpowmod([0, 1], p, f, p), [0, 1], p, sub), p)
    if len(g) == 1:
        return g
    deriv = _mtrim([i * c % p for i, c in enumerate(f) if i])
    return _mdivmod(g, _mgcd(g, deriv, p), p)[0]


def _root_chain(tower: FieldTower, p: int, roots: tuple = ()) -> bool:
    """Whether the residues `roots` of the generators of the first
    len(roots) levels extend to a chain of simple roots modulo p through
    every level's minimal polynomial, each with coefficients p-integral at
    the chain below it. Each lower level's simple roots are split by
    _equal_degree and tried in turn; the top level needs only that one
    exists."""
    L = len(roots)
    if L == len(tower.levels):
        return True
    f = []
    for u, den in tower.levels[L].minpoly:
        if not den % p:
            return False
        f.append(tower.evaluate(u, L, lambda n: n % p, roots)
                 * pow(den, -1, p) % p)
    simple = _simple_roots(f + [1], p)
    if L + 1 == len(tower.levels):
        return len(simple) > 1
    return len(simple) > 1 and any(
        _root_chain(tower, p, roots + (-h[0] % p,))
        for h in _equal_degree(simple, 1, p))


def degree_one_primes(tower: FieldTower):
    """The odd primes p, increasing, for which a chain of simple roots
    modulo p runs through the levels of the tower, a field, with every
    level's minimal polynomial p-integral along it (_root_chain). Hensel's
    lemma lifts such a chain to an embedding of the tower into the p-adic
    numbers, so the tower has a prime of degree one over p. A prime that
    divides a denominator or an index may be passed over. An endless
    generator."""
    return (p for p in _odd_primes() if _root_chain(tower, p))


def cyclotomic_polynomial(m: int) -> list[int]:
    """Integer coefficients (ascending) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise ValueError("m must be positive")
    # divide x^m - 1 by the cyclotomics of the proper divisors
    num = [-1] + [0] * (m - 1) + [1]
    for k in range(1, m):
        if m % k == 0:
            num = _zquotient(num, cyclotomic_polynomial(k))
            if num is None:
                raise ArithmeticError("cyclotomic division left a remainder")
    return num


def factor_over_tower(tower: FieldTower, coeffs, root_selector,
                      ) -> list[AlgebraicNumber]:
    """Monic factor of the polynomial over the tower whose roots include the
    one nearest root_selector, with the lowest degree that admits tower
    coefficients. Ascending coefficients below the leading 1; candidates are
    recognized numerically, then certified by exact polynomial division. When
    nothing proper divides, the whole (monicized) polynomial is returned."""
    monic = _monic(tower, coeffs)
    deg = len(monic)
    if deg > 12:
        raise FieldError("factoring bounded to degree 12")
    roots = _poly_roots([c.embed() for c in monic], tower.precision)
    prec = tower.precision
    target = nearest_root(roots, root_selector, prec)
    others = [i for i in range(deg) if i != target]
    subsets = [(target,) + extra for k in range(1, deg)
               for extra in itertools.combinations(others, k - 1)]
    # Guess-precision pass first; full precision only if that finds nothing.
    # Coefficients of a true factor can have coordinate heights near the
    # tower's own (e.g. plain integers with huge power-basis coordinates),
    # which the cheap screen cannot see. Exact division certifies either way.
    ladder = sorted({_guess_precision(tower), prec})
    return _certified_factor(tower, monic, roots, subsets, ladder) or monic
