"""Exact lifting of refined fiducial data.

Pipeline: partition the overlap table into orbits under the centralizer of
the projector's symmetry image and form one monic polynomial per orbit;
recognize the coefficients in a small real coefficient field; adjoin a root
of one orbit polynomial to get the overlap field, one level above it, whose
automorphisms' images of its generator are read off their conjugates by
Lagrange interpolation (_Conjugates) and built into rows by the rule a
reloaded certificate uses (_rows_from_images); lift one exact overlap per
orbit and check that the rows, aligned with the index-quotient cosets by
the labelling they were built from, regenerate the numeric table from those
overlaps; find tau by one ordered search (_extend_with_tau); emit a
self-contained certificate carrying exact overlaps at orbit representatives
plus the transport data regenerating the full table.
Verification either replays everything in exact rational arithmetic or
encloses all residues in complex balls.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial, reduce
from operator import add, mul

from mpmath import mp

from .bignum import abs2, guarded, ten_to
from .errors import FieldError, LiftError, PrecisionError, SicliftError
from . import heisenberg as hb
from .lattice import minimal_polynomial, raw_relation, relation_lattice, \
    relation_norm
from .modring import MatGroup, ModMatrix, centralizer, dprime, \
    greedy_generators, orbits, symmetry_image
from .numfield import AlgebraicNumber, EmbeddingAutomorphism, FieldTower, \
    adjoin, automorphism, cyclotomic_polynomial, degree_one_primes, \
    divides, dot, horner, is_field, lift_element, nearest_root, \
    one_spelling, parse_rational, squarefree_part, unique_keys, \
    _guess_precision, _monic, _new_level, _poly_roots, _probe, \
    _rational_minpoly, _subset_product_coeffs, recognize, relation_element

log = logging.getLogger("siclift.exactify")


# ---------------------------------------------------------------------------
# symmetry structure


@dataclass(frozen=True)
class SymmetryStructure:
    """Matrix-group data attached to one fiducial: the detected stabilizer,
    its determinant-weighted image, the image's centralizer in the full
    matrix group mod d', and the index orbits under that centralizer."""
    d: int
    dp: int
    stabilizer: tuple      # ((p1, p2), ModMatrix) pairs
    s0: MatGroup           # matrix parts of the stabilizer
    s_pi: MatGroup         # (det F) F for F in s0
    cent: MatGroup         # centralizer of s_pi, all determinants
    orbit_list: tuple      # tuple of index tuples, lex-stable


def symmetry_structure(fid, full: bool = False) -> SymmetryStructure:
    from .fidsearch import detect_stabilizer

    pairs = detect_stabilizer(fid, full=full)
    mats = {F for _p, F in pairs}
    s0 = MatGroup.generated(mats)
    s_pi = MatGroup.generated([symmetry_image(F) for F in s0.elements])
    if len(s_pi) == 1:
        raise LiftError("no symmetry beyond the identity was detected; orbit "
                        "polynomials would not compress the overlap table")
    # a matrix commutes with s_pi when it commutes with generators of it
    m = s_pi.modulus
    gens, _span = greedy_generators(s_pi.elements, m)
    cent = MatGroup(M for M in centralizer(gens[0])
                    if all(M * F == F * M for F in gens[1:]))
    orbs = orbits(cent)
    return SymmetryStructure(fid.d, m, tuple(sorted(pairs)), s0, s_pi, cent,
                             tuple(tuple(map(tuple, o)) for o in orbs))


# ---------------------------------------------------------------------------
# orbit polynomials


@dataclass
class OrbitPolynomial:
    """Monic polynomial whose roots are the distinct overlap values on one
    index orbit. Coefficients ascending, leading 1 included; values keep the
    first-occurrence order, so values[0] is the value at the representative.
    exact, when set, holds the coefficients recognized in the coefficient
    field (same layout)."""
    orbit_id: int
    rep: tuple
    indices: tuple
    values: tuple
    coefficients: tuple
    cubed: bool
    precision: int
    imag_defect: object
    exact: list | None = None

    @property
    def degree(self) -> int:
        return len(self.values)


def _distinct_values(vals, prec):
    """Cluster numerically equal values. Two values are the same below
    10^(-prec/2) and distinct above 10^(-prec/4); a distance in the band
    between decides neither and aborts. The squared distance re^2 + im^2 is
    compared with the squared thresholds, so only the error message takes
    a square root. A double-precision screen sends only close pairs to that
    test: converting a value to double moves it by at most 2^-53 of its
    modulus (or 2^-1074 below the normal range), so a pair whose double
    distance is above twice the band's edge and above 10^-10 of 1 + both
    moduli is farther apart than the band, and distinct, at any
    precision."""
    same2 = ten_to(-2 * (prec // 2), guarded(prec))
    band2 = ten_to(-2 * (prec // 4), guarded(prec))
    far = 2 * 10.0 ** -(prec // 4)
    reps, near, assign = [], [], []
    for v in vals:
        z = complex(v)
        hit = None
        for i, (r, w) in enumerate(zip(reps, near)):
            gap = abs(z - w)
            if gap > far and gap > 1e-10 * (1 + abs(z) + abs(w)):
                continue
            dist2 = abs2(v - r)
            if dist2 < same2:
                hit = i
                break
            if dist2 < band2:
                raise PrecisionError(
                    f"two overlap values sit {mp.nstr(abs(v - r), 5)} apart, "
                    f"inside the ambiguity band [1e-{prec // 2}, "
                    f"1e-{prec // 4}); increase precision")
        if hit is None:
            reps.append(v)
            near.append(z)
            assign.append(len(reps) - 1)
        else:
            assign.append(hit)
    return reps, assign


def build_orbit_polynomials(table, group: MatGroup,
                            cube: bool = False) -> list[OrbitPolynomial]:
    """One monic polynomial per index orbit of `group`, with the table's
    (optionally cubed) values as roots, multiplicity dropped. Coefficients
    stay numeric; the imaginary defect is recorded, not enforced."""
    prec = table.precision
    if group.modulus != dprime(table.d):
        raise ValueError(f"group modulus {group.modulus} does not match the "
                         f"table index modulus {dprime(table.d)}")
    polys = []
    with mp.workdps(guarded(prec)):
        for oid, orbit in enumerate(orbits(group)):
            vals = [table.chi(q) ** 3 if cube else table.chi(q)
                    for q in orbit]
            dist, _ = _distinct_values(vals, prec)
            coeffs = _subset_product_coeffs(dist, range(len(dist)), prec) \
                + [mp.mpc(1)]
            defect = max(abs(c.imag) for c in coeffs)
            polys.append(OrbitPolynomial(
                oid, tuple(orbit[0]), tuple(tuple(q) for q in orbit),
                tuple(dist), tuple(coeffs), bool(cube), prec, defect))
    worst = max(p.imag_defect for p in polys)
    log.info("built %d orbit polynomials at %d digits, imaginary defect %s",
             len(polys), prec, mp.nstr(worst, 3))
    return polys


def orbit_coefficient_values(table, group: MatGroup) -> list:
    """Real parts of all orbit-polynomial coefficients of `table` under
    `group` (leading ones dropped), concatenated in orbit order. Used to
    compare candidate displacements by the algebraic degree of what they
    would have to be lifted to."""
    prec = table.precision
    polys = build_orbit_polynomials(table, group)
    out = []
    with mp.workdps(guarded(prec)):
        floor = mp.mpf(10) ** (-(prec // 2))
        for poly in polys:
            if poly.imag_defect > floor:
                raise PrecisionError(
                    f"orbit {poly.orbit_id} coefficients have imaginary parts "
                    f"at {mp.nstr(poly.imag_defect, 3)}; cannot treat them as "
                    "real at this precision")
            out.extend(c.real for c in poly.coefficients[:-1])
    return out


# ---------------------------------------------------------------------------
# coefficient field


# Highest coefficient-field degree the lift searches for.
MAX_E0_DEGREE = 8

# Fewest digits a lift works at; a certificate's tower declares at least this.
MIN_LIFT_DIGITS = 200


def _field_from_seed(seed, prec) -> FieldTower:
    mpoly = minimal_polynomial(seed, MAX_E0_DEGREE, precision=prec)
    if mpoly is None:
        raise PrecisionError(
            f"no minimal polynomial of degree <= {MAX_E0_DEGREE} found for "
            f"the seed coefficient at {prec} digits")
    if mpoly.degree == 1:
        return FieldTower.rationals(prec)
    e0 = adjoin(FieldTower.rationals(prec), list(mpoly.coeffs),
                root_selector=seed, tag="a")
    log.info("coefficient field has degree %d", e0.degree)
    return e0


def lift_coefficients(polys: list[OrbitPolynomial]) -> FieldTower:
    """Recognize every orbit-polynomial coefficient in one real field.

    The field is seeded from the next-to-leading coefficient of the
    lowest-degree nontrivial polynomial and rebuilt from any later coefficient
    of higher degree (the cheap seed can land in a proper subfield).
    Incompatible degrees, or no orbit with two values, abort. Sets
    poly.exact in place; returns the field."""
    prec = polys[0].precision
    target = min((q for q in polys if q.degree >= 2), default=None,
                 key=lambda q: (q.degree, q.orbit_id))
    if target is None:
        raise LiftError("every orbit carries one value, so no orbit "
                        "polynomial can generate an overlap field")
    with mp.workdps(guarded(prec)):
        seed = target.coefficients[-2].real
    e0 = _field_from_seed(seed, prec)
    for _rebuild in range(4):
        failed = None
        for poly in polys:
            exact = []
            for k, c in enumerate(poly.coefficients[:-1]):
                with mp.workdps(guarded(prec)):
                    cr = c.real
                got = recognize(e0, cr)
                if got is None:
                    failed = (poly.orbit_id, k, cr)
                    break
                exact.append(got)
            if failed:
                break
            exact.append(e0.one())
            poly.exact = exact
        if failed is None:
            return e0
        oid, k, cr = failed
        bigger = _field_from_seed(cr, prec)
        if bigger.degree <= e0.degree:
            raise LiftError(
                f"orbit {oid} coefficient of x^{k} generates a degree-"
                f"{bigger.degree} field that does not contain the degree-"
                f"{e0.degree} one already needed; coefficient field degrees "
                "are inconsistent")
        log.info("rebuilding the coefficient field from orbit %d coefficient "
                 "x^%d (degree %d)", oid, k, bigger.degree)
        e0 = bigger
    raise LiftError("coefficient field did not stabilize after 4 rebuilds")


# ---------------------------------------------------------------------------
# overlap field and the tau extension


def _extension_field(e0: FieldTower, polys: list[OrbitPolynomial],
                     expected: int, prec: int):
    """Adjoin a root of one orbit polynomial of degree == expected, sweeping
    in orbit order until one is irreducible over e0. Returns (tower, poly)."""
    failures = []
    for q in sorted(polys, key=lambda q: q.orbit_id):
        if q.degree != expected:
            continue
        try:
            e1 = adjoin(e0, q.exact, root_selector=q.values[0], tag="t")
        except FieldError as exc:
            failures.append((q.orbit_id, str(exc)))
            continue
        log.info("overlap field adjoined from orbit %d (degree %d over the "
                 "coefficient field)", q.orbit_id, expected)
        return e1, q
    raise LiftError(
        f"no orbit polynomial of degree {expected} is irreducible over the "
        f"coefficient field (degree-{expected} attempts: {failures}); cannot "
        "build the overlap field in one step")


def _is_real(z, prec) -> bool:
    return abs(z.imag) <= ten_to(-(prec // 2), guarded(prec))


class _Conjugates:
    """The overlap field e1 = e0(t) seen through its conjugates over the
    real coefficient field e0, indexed by the cosets of the index quotient
    (composition table cay): coset N sends t to t_N, the numeric overlap
    at M_N applied to t's index. An element x = sum_k x_k t^k with x_k in
    e0 has N-th conjugate V_N = sum_k x_k t_N^k, so by Lagrange's formula
    x_k = sum_N V_N dual[N][k], where dual row N holds the coefficients of
    prod_{M != N} (X - t_M) divided by their value at t_N; each x_k is
    recognized in e0, at lattice dimension deg(e0) + 1. e1 adds one level
    to e0, generated by t; at_root maps the index of each root of that
    level to the coset whose t_N lies nearest it."""

    def __init__(self, e0: FieldTower, e1: FieldTower, t_conj, cay):
        self.e0, self.e1, self.cay = e0, e1, cay
        self.prec = prec = e1.precision
        self.identity = _cayley_identity(cay)
        self.t_conj = t_conj
        n = len(t_conj)
        with mp.workdps(guarded(prec)):
            self.dual = []
            for N, t in enumerate(t_conj):
                coeffs = _subset_product_coeffs(
                    t_conj, [M for M in range(n) if M != N], prec) \
                    + [mp.mpc(1)]
                at_t = horner(coeffs, t)
                self.dual.append([c / at_t for c in coeffs])
        self.t = e1.generator(len(e1.levels))
        self.at_root = {nearest_root(e1.levels[-1].roots, t, prec): N
                        for N, t in enumerate(t_conj)}

    def solve(self, values) -> list:
        """The coordinates x_k of the element whose conjugates are values
        (in coset order), as complex numbers."""
        with mp.workdps(guarded(self.prec)):
            return [mp.fsum(map(mul, values, col))
                    for col in zip(*self.dual)]

    def lift(self, values, precision: int | None = None):
        """The element of e1 whose conjugates are values (in coset order),
        or None when a coordinate is not real or not recognized in e0 at
        `precision` (default: e0's own)."""
        coords = []
        for x in self.solve(values):
            got = recognize(self.e0, x.real, precision=precision) \
                if _is_real(x, self.prec) else None
            if got is None:
                return None
            coords.append(lift_element(self.e1, got))
        return horner(coords, self.t)


def _galois_rows(conj: _Conjugates) -> list[EmbeddingAutomorphism]:
    """The automorphisms of the overlap field over the coefficient field,
    ordered by the index of the root they send t to. The row of root i
    sends t to t_c, c = at_root[i], so its image's N-th conjugate is
    t_(N c) (the quotient is abelian): the identity coset's image is t
    itself, and every other image is interpolated from its own coset's
    conjugates and recognized over e0. The rows are then built from the
    images by the rule a reloaded certificate's are (_rows_from_images),
    whose FieldError is a LiftError here."""
    cay, n = conj.cay, len(conj.cay)
    if len(conj.at_root) < n:
        raise LiftError(f"two of the {n} conjugates of t lie nearest one "
                        f"root at {conj.prec} digits")
    images = []
    for i in range(n):
        c = conj.at_root[i]
        img = conj.t if c == conj.identity else conj.lift(
            [conj.t_conj[cay[N][c]] for N in range(n)])
        if img is None:
            raise LiftError(
                f"the automorphism of coset {c} was not recognized over the "
                f"coefficient field at {conj.prec} digits; either the "
                "extension is not normal or precision is insufficient")
        images.append(img)
    try:
        return _rows_from_images(conj.e1, images)
    except FieldError as exc:
        raise LiftError(f"lifted {exc}") from exc


def _generated(H: frozenset, a: int, m: int) -> frozenset:
    """The subgroup of (Z/m)^x generated by its subgroup H and the unit a:
    the union of the cosets a^k H."""
    return frozenset(h * pow(a, k, m) % m for h in H for k in range(m))


def _unit_subgroups(m: int) -> list[frozenset]:
    """Every subgroup of (Z/m)^x, by increasing order (ties by elements)."""
    units = [a for a in range(1, m) if math.gcd(a, m) == 1]
    groups, frontier = {frozenset({1})}, [frozenset({1})]
    while frontier:
        H = frontier.pop()
        for a in units:
            K = _generated(H, a, m)
            if K not in groups:
                groups.add(K)
                frontier.append(K)
    return sorted(groups, key=lambda H: (len(H), sorted(H)))


def _actions(cay, m: int, H: frozenset) -> list[tuple]:
    """Every homomorphism chi from the index quotient (composition table
    cay) into (Z/m)^x / H, each as its smallest representative per coset."""
    def canon(a):
        return min(a * h % m for h in H)

    units = sorted({canon(a) for a in range(1, m) if math.gcd(a, m) == 1})
    return sorted(_homomorphisms(cay, lambda g: units,
                                 lambda a, b: canon(a * b), 1))


# Degree-one primes of the overlap field whose Frobenius residues are read
# before tau's level falls back to is_field.
FROBENIUS_PRIMES = 8


def _frobenius_proof(e1: FieldTower, m: int):
    """The test proves(k): whether the residues mod m of the first
    FROBENIUS_PRIMES degree-one primes of the field e1 that do not divide m
    generate a subgroup of (Z/m)^x of order at least k. By Frobenius (see
    _extend_with_tau), a factor of Phi_m of degree k through tau that it
    proves is tau's minimal polynomial over e1. The primes are read lazily,
    once for every call."""
    residues = itertools.islice(
        (p % m for p in degree_one_primes(e1) if m % p), FROBENIUS_PRIMES)
    group = frozenset({1})

    def proves(k: int) -> bool:
        nonlocal group
        while len(group) < k:
            r = next(residues, None)
            if r is None:
                return False
            group = _generated(group, r, m)
        return True

    return proves


def _tau_factors(conj: _Conjugates, d: int, guess):
    """The candidate factors of Phi_m through tau, m = d', that divide it
    exactly over the overlap field e1, in the order _extend_with_tau walks
    them (ascending coefficients below the leading 1, elements of e1).

    tau's conjugates over e1 are tau^h for h in a subgroup H of (Z/m)^x,
    and coset N acts on tau as tau -> tau^chi(N), chi a homomorphism into
    (Z/m)^x / H. The candidate (H, chi) is prod_{h in H} (x - tau^h); its
    N-th conjugate has the roots tau^(chi(N) h), so each coefficient is
    interpolated from those conjugates and recognized over the coefficient
    field (_Conjugates.lift, at the guess precision, then at full), and
    the candidate is kept when it divides Phi_m exactly over e1.

    The stream runs: the proper subgroups by increasing order with
    chi = guess (scaled so the identity coset acts trivially), at the
    guess precision and then at full; Phi_m itself; and only then every
    other (H, chi), listed by _actions."""
    e1, prec, n = conj.e1, conj.prec, len(conj.cay)
    m = dprime(d)
    taus = hb.tau_powers(d, prec)
    scale = pow(guess[conj.identity], -1, m)
    act = tuple(g * scale % m for g in guess)
    groups = _unit_subgroups(m)
    phi = _monic(e1, cyclotomic_polynomial(m))
    ladder = sorted({_guess_precision(conj.e0), prec})

    def factor(H, chi, precision):
        conjugates = [_subset_product_coeffs(
            [taus[chi[N] * h % m] for h in sorted(H)], range(len(H)), prec)
            for N in range(n)]
        coeffs = []
        for i in range(len(H)):
            c = conj.lift([v[i] for v in conjugates], precision)
            if c is None:
                return None
            coeffs.append(c)
        return coeffs if divides(e1, coeffs, phi) else None

    def stream():
        for precision in ladder:
            for H in groups[:-1]:
                yield factor(H, act, precision)
        yield phi
        for H in groups[:-1]:
            guessed = tuple(min(a * h % m for h in H) for a in act)
            for chi in _actions(conj.cay, m, H):
                if chi != guessed:
                    yield from (factor(H, chi, p) for p in ladder)

    return filter(None, stream())


def _extend_with_tau(conj: _Conjugates, d: int, guess):
    """Make the phase tau = -exp(i pi / d) available: find its minimal
    polynomial over the overlap field e1 among the factors of the
    cyclotomic polynomial Phi_m, m its order d', that _tau_factors lists.
    Every one has tau as a root, so the first one proven irreducible over
    e1 (a linear factor is) is tau's minimal polynomial, whatever the
    order.

    The proof is by Frobenius. At an odd prime p not dividing m over which
    e1 has a prime of degree one (numfield.degree_one_primes), that prime's
    Frobenius maps tau to tau^p, so p mod m lies in the Galois group of
    e1(tau) over e1, whose order is the degree of tau's minimal polynomial;
    a factor whose degree the residues' subgroup reaches is that
    polynomial (_frobenius_proof). The primes are read once for the whole
    stream, and only a factor they leave unproven goes to is_field.
    Returns (tower, tau, level_added)."""
    e1, prec = conj.e1, conj.prec
    proves = _frobenius_proof(e1, dprime(d))
    for fac in _tau_factors(conj, d, guess):
        if len(fac) == 1:
            return e1, -fac[0], False
        roots = _poly_roots([c.embed() for c in fac], prec)
        tower = _new_level(e1, fac, roots, hb.tau_powers(d, prec)[1], "tau")
        if proves(len(fac)) or is_field(tower):
            return tower, tower.generator(len(tower.levels)), True
    raise LiftError("no factor of Phi_m through tau is irreducible over the "
                    "overlap field")


# ---------------------------------------------------------------------------
# finite-group bookkeeping: cosets, composition tables, automorphisms


def _coset_structure(cent: MatGroup, s_pi: MatGroup):
    """Cosets of the symmetry image inside its centralizer, their smallest
    elements as representatives, and the quotient composition table."""
    cosets = cent.cosets(s_pi)
    reps = [c[0] for c in cosets]
    member = {}
    for i, cs in enumerate(cosets):
        for M in cs:
            member[M] = i
    n = len(reps)
    cay = [[member[reps[i] * reps[j]] for j in range(n)] for i in range(n)]
    return cosets, reps, cay


def _cayley_identity(cay):
    n = len(cay)
    for e in range(n):
        if all(cay[e][j] == j and cay[j][e] == j for j in range(n)):
            return e
    raise ValueError("composition table has no identity")


def _cayley_orders(cay, e):
    out = []
    for g in range(len(cay)):
        k, x = 1, g
        while x != e:
            x = cay[x][g]
            k += 1
            if k > len(cay):
                raise ValueError("composition table is not a group")
        out.append(k)
    return out


def _spanning(cay):
    """Generators of a finite group given by its composition table, each
    the smallest element not yet generated, and a derivation of the whole
    group from them: the elements in order of discovery from the identity,
    and for each later one y a pair (x, g) with y = cay[x][g]."""
    n = len(cay)
    e = _cayley_identity(cay)

    def close(gens):
        known, seen, deriv = [e], {e}, {}
        i = 0
        while i < len(known):
            x = known[i]
            i += 1
            for g in gens:
                y = cay[x][g]
                if y not in seen:
                    seen.add(y)
                    deriv[y] = (x, g)
                    known.append(y)
        return known, seen, deriv

    gens = []
    known, seen, deriv = close(gens)
    while len(seen) < n:
        gens.append(min(x for x in range(n) if x not in seen))
        known, seen, deriv = close(gens)
    return gens, known, deriv


def _homomorphisms(cay, choices, op, unit) -> list[tuple]:
    """Every homomorphism out of the finite group with composition table
    cay, as the tuple of its images of the elements in order. Each of
    _spanning's generators g goes to one of choices(g), the rest of the
    group follows through its derivation under the target's product op
    (identity unit), and the map is kept when it respects every product."""
    gens, known, deriv = _spanning(cay)
    n = len(cay)
    out = []
    for pick in itertools.product(*map(choices, gens)):
        img = dict(zip(gens, pick))
        f = {known[0]: unit}
        for y in known[1:]:
            x, g = deriv[y]
            f[y] = op(f[x], img[g])
        if all(f[cay[a][b]] == op(f[a], f[b])
               for a in range(n) for b in range(n)):
            out.append(tuple(f[N] for N in range(n)))
    return out


def _group_automorphisms(cay) -> list[tuple]:
    """Every automorphism of the finite group with composition table cay,
    as a permutation tuple (image of element i at position i): each
    generator goes to an element of its own order, and bijections are
    kept."""
    n, e = len(cay), _cayley_identity(cay)
    order = _cayley_orders(cay, e)
    return [f for f in _homomorphisms(
        cay, lambda g: [h for h in range(n) if order[h] == order[g]],
        lambda a, b: cay[a][b], e) if len(set(f)) == n]


# ---------------------------------------------------------------------------
# certificate types


def _rows_from_images(e1: FieldTower, images) -> list[EmbeddingAutomorphism]:
    """The automorphisms of e1 over the coefficient field (every level but
    the top) that send the top generator to the elements images[j], in
    order. The images must be distinct, and each is checked exactly by
    automorphism(); FieldError otherwise."""
    if len(set(images)) != len(images):
        raise FieldError("two Galois rows store the same image")
    fixed = [e1.generator(k + 1) for k in range(len(e1.levels) - 1)]
    rows = []
    for j, img in enumerate(images):
        try:
            rows.append(automorphism(e1, fixed + [img]))
        except FieldError as exc:
            raise FieldError(f"Galois row {j}: {exc}") from exc
    return rows


def _lifted_table(rows, reps, rep_overlaps, index_map) -> dict:
    """Index -> rows[j] applied to the overlap at reps[pos], for its
    index_map entry (pos, j), each row applied once per such pair: the one
    rule by which the lift checks its table and a certificate reads its."""
    images = {(pos, j): rows[j](rep_overlaps[reps[pos]])
              for pos, j in set(index_map.values())}
    return {q: images[src] for q, src in index_map.items()}


@dataclass
class GaloisMatch:
    """Alignment of the overlap-field automorphisms with the index-quotient
    cosets. Row j pairs the automorphism that fixes the coefficient field and
    sends the overlap-field generator to images[j], an element of the
    overlap field, with the coset of matrices[j], the coset whose conjugate
    row j was interpolated from. score, runner_up and separation are the
    lift's diagnostics, which no file stores, so they are None after a
    load: the labelling's worst relation norm under method 2, the best of
    the quotient's other isomorphisms (a lower bound, since scoring stops
    feeding a junk lattice at the attempt floor), and their ratio."""
    matrices: tuple
    images: tuple
    candidates: int
    score: object = None
    runner_up: object = None
    separation: object = None

    def to_obj(self):
        return {
            "modulus": self.matrices[0].m if self.matrices else 0,
            "matrices": [list(M.entries) for M in self.matrices],
            "images": [[str(fr) for fr in img.coefficients]
                       for img in self.images],
            "candidates": self.candidates,
        }

    @classmethod
    def from_obj(cls, obj, e1: FieldTower):
        """The match stored in obj, its images read as elements of e1."""
        m = obj["modulus"]
        mats = tuple(ModMatrix(*_mod_ints(row, 4, m, "Galois matrix"), m)
                     for row in obj["matrices"])
        imgs = []
        for j, fl in enumerate(obj["images"]):
            try:
                imgs.append(e1.element(map(parse_rational, fl)))
            except FieldError as exc:
                raise FieldError(f"Galois image {j}: {exc}") from exc
        return cls(mats, tuple(imgs), obj["candidates"])


def _key(q) -> str:
    return f"{q[0]},{q[1]}"


def _unkey(s: str) -> tuple:
    a, b = s.split(",")
    return int(a), int(b)


@dataclass
class ExactFiducialCertificate:
    """Self-contained exact description of one fiducial projector: the field
    tower, the phase tau inside it, exact overlaps at orbit representatives,
    and the transport data (index map + Galois alignment) regenerating the
    whole overlap table."""
    d: int
    method: int
    tower: FieldTower
    e0_levels: int
    e1_levels: int
    tau: AlgebraicNumber
    tau_level_added: bool
    generator_rep: tuple
    orbit_reps: tuple
    rep_overlaps: dict
    index_map: dict
    galois: GaloisMatch
    s_matrices: tuple
    stabilizer: tuple
    conjectures: dict
    _rows: list = field(default=None, repr=False, compare=False)
    _table: dict = field(default=None, repr=False, compare=False)

    @property
    def e0(self) -> FieldTower:
        return FieldTower(self.tower.levels[:self.e0_levels],
                          self.tower.precision)

    @property
    def e1(self) -> FieldTower:
        return FieldTower(self.tower.levels[:self.e1_levels],
                          self.tower.precision)

    def galois_rows(self) -> list[EmbeddingAutomorphism]:
        """The overlap-field automorphisms aligned with galois.matrices, built
        from the stored images by _rows_from_images, the rule the lift
        builds its rows by. No numerics are involved."""
        if self._rows is None:
            self._rows = _rows_from_images(self.e1, self.galois.images)
        return self._rows

    def _norm(self, q):
        dp = dprime(self.d)
        return (q[0] % dp, q[1] % dp)

    def all_overlaps(self) -> dict:
        if self._table is None:
            self._table = _lifted_table(self.galois_rows(), self.orbit_reps,
                                        self.rep_overlaps, self.index_map)
        return self._table

    def to_obj(self) -> dict:
        """The certificate document the writer writes, as a JSON value."""
        return {
            "format": "SIC-CERT v1",
            "d": self.d,
            "method": self.method,
            "tower": self.tower.to_obj(),
            "e0_levels": self.e0_levels,
            "e1_levels": self.e1_levels,
            "tau": [str(fr) for fr in self.tau.coefficients],
            "tau_level_added": self.tau_level_added,
            "generator_rep": list(self.generator_rep),
            "orbit_reps": [list(r) for r in self.orbit_reps],
            "overlaps": {_key(r): [str(fr) for fr in x.coefficients]
                         for r, x in self.rep_overlaps.items()},
            "index_map": {_key(q): list(v)
                          for q, v in self.index_map.items()},
            "galois": self.galois.to_obj(),
            "s_matrices": [list(M.entries) for M in self.s_matrices],
            "stabilizer": [[list(p), list(M.entries)]
                           for p, M in self.stabilizer],
            "conjectures": self.conjectures,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=1)

    def save(self, path: str):
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def from_json(cls, text: str) -> "ExactFiducialCertificate":
        """The certificate of a document that is what to_json writes for
        it, but for the keys no verifier read, which older files carry."""
        obj = json.loads(text, object_pairs_hook=unique_keys)
        if not isinstance(obj, dict) or obj.get("format") != "SIC-CERT v1":
            raise ValueError("not a certificate file")
        cert = cls(**_check_schema(obj))
        obj.pop("verification", None)
        for key in ("score", "runner_up", "separation"):
            obj["galois"].pop(key, None)
        one_spelling(obj, cert.to_obj(), "certificate")
        return cert

    @classmethod
    def load(cls, path: str) -> "ExactFiducialCertificate":
        with open(path) as fh:
            return cls.from_json(fh.read())


def _check_schema(obj: dict) -> dict:
    """Checks on a parsed certificate that must come before any arithmetic,
    so that a malformed file is an error and not a verdict: types and sizes,
    residue ranges, the index_map grid, the tower's stored precision, level
    tags, generator_rep among the representatives and the identity row for
    an overlap in the coefficient field. Returns every certificate field
    built from the file, set entries once each in stored order."""
    try:
        d = obj["d"]
        if type(d) is not int or d < 4:
            raise SicliftError(f"dimension {d!r} is not an integer >= 4")
        dp = dprime(d)
        for key, kind in (("overlaps", dict), ("index_map", dict),
                          ("conjectures", dict), ("tau", list)):
            if not isinstance(obj[key], kind):
                raise SicliftError(f"{key} is not a {kind.__name__}")
        # count the keys before enumerating (Z/d')^2, which a huge d forbids
        imap = obj["index_map"]
        if len(imap) != dp * dp or sorted(map(_unkey, imap)) != [
                (a, b) for a in range(dp) for b in range(dp)]:
            raise SicliftError(f"index_map keys are not exactly (Z/{dp})^2")
        galois = obj["galois"]
        if type(galois["modulus"]) is not int or galois["modulus"] != dp:
            raise SicliftError(f"Galois modulus {galois['modulus']!r} is not "
                               f"d' = {dp}")
        reps = {tuple(r) for r in obj["orbit_reps"]}
        n_reps, n_rows = len(reps), len(galois["matrices"])
        for k, (pos, row) in imap.items():
            if pos not in range(n_reps) or row not in range(n_rows):
                raise SicliftError(f"index_map entry {k} -> {[pos, row]} is "
                                   f"outside {n_reps} orbit representatives "
                                   f"and {n_rows} Galois rows")
        if len(galois["images"]) != n_rows:
            raise SicliftError(f"{len(galois['images'])} Galois images for "
                               f"{n_rows} Galois rows")
        if reps != {_unkey(k) for k in obj["overlaps"]}:
            raise SicliftError("the stored overlaps are not exactly those of "
                               "the orbit representatives")
        method, added, gen = (obj["method"], obj["tau_level_added"],
                              obj["generator_rep"])
        if type(method) is not int or method not in (1, 2):
            raise SicliftError(f"method {method!r} is not 1 or 2")
        if type(added) is not bool:
            raise SicliftError(f"tau_level_added {added!r} is not a boolean")
        e0, e1 = obj["e0_levels"], obj["e1_levels"]
        tdoc = obj["tower"]
        levels = len(tdoc["levels"])
        if not (type(e0) is int and type(e1) is int
                and 0 <= e0 and e1 == e0 + 1 == levels - added):
            raise SicliftError(f"level counts e0={e0!r}, e1={e1!r} are not "
                               "integers with e1 = e0 + 1 >= 1 and e1 + "
                               f"tau_level_added = {levels} tower levels")
        if type(galois["candidates"]) is not int:
            raise SicliftError(f"galois candidates {galois['candidates']!r} "
                               "is not an integer")
        tprec = tdoc["precision"]
        if type(tprec) is not int or tprec < MIN_LIFT_DIGITS:
            raise SicliftError(f"tower precision {tprec!r} is not an integer "
                               f">= {MIN_LIFT_DIGITS}")
        tower = FieldTower.from_obj(tdoc)
        tags = [lv.tag for lv in tower.levels]
        if tags != ["a"] * e0 + ["t"] + ["tau"] * added:
            raise SicliftError(f"level tags {tags} are not a for the "
                               "coefficient level, t for the overlap level "
                               "and tau for an added level")
        e1_tower = FieldTower(tower.levels[:e1], tower.precision)
        out = dict(
            d=d, method=method, tower=tower, e0_levels=e0, e1_levels=e1,
            tau=tower.element(map(parse_rational, obj["tau"])),
            tau_level_added=added,
            generator_rep=_mod_ints(gen, 2, dp, "generator_rep"),
            orbit_reps=tuple(dict.fromkeys(
                _mod_ints(r, 2, dp, "orbit representative")
                for r in obj["orbit_reps"])),
            rep_overlaps={_unkey(k): e1_tower.element(map(parse_rational, fl))
                          for k, fl in obj["overlaps"].items()},
            index_map={_unkey(k): _ints(v, 2, f"index_map entry {k}")
                       for k, v in obj["index_map"].items()},
            galois=GaloisMatch.from_obj(galois, e1_tower),
            s_matrices=tuple(dict.fromkeys(
                ModMatrix(*_mod_ints(row, 4, dp, "symmetry matrix"), dp)
                for row in obj["s_matrices"])),
            stabilizer=tuple(dict.fromkeys(
                (_mod_ints(p, 2, d, "stabilizer shift"),
                 ModMatrix(*_mod_ints(row, 4, dp, "stabilizer matrix"), dp))
                for p, row in obj["stabilizer"])),
            conjectures=obj["conjectures"])
        if out["generator_rep"] not in out["rep_overlaps"]:
            raise SicliftError(f"generator_rep {gen} is not an orbit "
                               "representative")
        # every row fixes an overlap in the coefficient field, so its
        # indices are written with the identity row alone
        m, t = e1_tower.levels[-1].degree, e1_tower.generator(e1)
        fixed = [not any(u[i] for i in range(len(u)) if i % m)
                 for u, _den in (out["rep_overlaps"][r].vec
                                 for r in out["orbit_reps"])]
        for k, (pos, row) in out["index_map"].items():
            if fixed[pos] and out["galois"].images[row] != t:
                raise SicliftError(f"index_map entry {_key(k)} names row "
                                   f"{row}, not the identity row, for an "
                                   "overlap in the coefficient field")
        return out
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise SicliftError(f"malformed certificate: {exc!r}") from exc


def _ints(v, n: int, what: str) -> tuple:
    if not (isinstance(v, list) and len(v) == n
            and all(type(x) is int for x in v)):
        raise SicliftError(f"{what} {v!r} is not a list of {n} integers")
    return tuple(v)


def _mod_ints(v, n: int, m: int, what: str) -> tuple:
    """_ints with every entry in [0, m)."""
    out = _ints(v, n, what)
    if not all(0 <= x < m for x in out):
        raise SicliftError(f"{what} {v!r} has an entry outside [0, {m})")
    return out


# ---------------------------------------------------------------------------
# shared assembly


def overlap_minimal_polynomials(cert: "ExactFiducialCertificate") -> list:
    """Sorted multiset of exact minimal polynomials over the rationals, one
    per overlap index, each an ascending integer tuple. Depends only on the
    overlap values as algebraic numbers, so two certificates for the same
    fiducial must agree entry for entry no matter how they were produced."""
    return sorted(_rational_minpoly(v) for v in cert.all_overlaps().values())


def _conjectures(d: int, e0: FieldTower, e1, polys, prec) -> dict:
    """Structural expectations that are checked and recorded, never assumed:
    the squarefree discriminant's square root inside the coefficient field
    (decided exactly by is_field), realness defects, and whether the
    adjoined overlap value generates the whole field over the rationals
    (its minimal polynomial has the field's degree). The
    automorphism count matching the quotient order is stored as True, the
    format's key, since _prepare raises LiftError on any other count."""
    disc = squarefree_part((d - 3) * (d + 1))
    with mp.workdps(guarded(prec)):
        e0_defect = mp.mpf(0)
        for k in range(len(e0.levels)):
            e0_defect = max(e0_defect,
                            abs(e0.generator(k + 1).embed().imag))
    # e0 extended by x^2 - disc is a field exactly when sqrt(disc) is not
    # in e0
    has_sqrt = not is_field(_probe(e0, _monic(e0, [-disc, 0, 1])))
    imag_defect = max(p.imag_defect for p in polys)
    out = {
        "discriminant_squarefree": disc,
        "coefficient_field_contains_sqrt_disc": has_sqrt,
        "coefficient_field_imag_defect": mp.nstr(e0_defect, 5),
        "orbit_coefficient_imag_defect": mp.nstr(imag_defect, 5),
        "automorphism_count_matches_quotient": True,
        "overlap_generator_generates_over_rationals": len(_rational_minpoly(
            e1.generator(len(e1.levels)))) == e1.degree + 1,
    }
    failed = [k for k, v in out.items() if v is False]
    out["nonconforming"] = failed
    if failed:
        log.warning("structural expectations NOT met: %s", failed)
    return out


def _index_map(polys, cosets, label, identity) -> dict:
    """Index -> (orbit position, Galois row): every index of a one-value
    orbit takes the row labelled with the identity coset, and on any other
    orbit row j takes the representative's images under the matrices of
    coset label[j]. The label is a bijection onto the cosets, which cover
    the centralizer, so every index of the orbit is reached."""
    ident_row = label.index(identity)
    index_map = {}
    for pos, q in enumerate(polys):
        if q.degree == 1:
            for idx in q.indices:
                index_map[idx] = (pos, ident_row)
            continue
        for j, c in enumerate(label):
            for M in cosets[c]:
                index_map[M.apply(q.rep)] = (pos, j)
    return index_map


def _regenerated(table, lifted, prec) -> bool:
    """Whether the lifted table (index -> overlap-field element) reproduces
    the numeric table at every index to 10^-(prec//3), well below the
    distinct-value separation floor. Each distinct value is embedded once."""
    tol2 = ten_to(-2 * (prec // 3), guarded(prec))
    with mp.workdps(guarded(prec)):
        near = {x: x.embed() for x in set(lifted.values())}
        return all(abs2(near[x] - table.chi(q)) <= tol2
                   for q, x in lifted.items())


def _assemble_certificate(fid, struct, table, conj, gen_poly, autos, cosets,
                          reps, polys, label, rep_overlaps, method, score,
                          runner_up, separation, candidates, prec):
    """Common tail of both lifting routes: the one alignment check, then
    the tau extension, the structural-expectation record and the
    certificate. The rows are aligned with the cosets by the labelling they
    were built from (_prepare), and the table they lift from rep_overlaps
    through its index map must regenerate the numeric one (_regenerated);
    None when it does not, before tau is sought. Coset N's guessed action
    on tau is tau -> tau^det(M_N), the Galois-Clifford correspondence."""
    e0, e1 = conj.e0, conj.e1
    orbit_reps = tuple(q.rep for q in polys)
    index_map = _index_map(polys, cosets, label, conj.identity)
    lifted = _lifted_table(autos, orbit_reps, rep_overlaps, index_map)
    if not _regenerated(table, lifted, prec):
        return None
    tower, tau, added = _extend_with_tau(conj, fid.d,
                                         [M.det() for M in reps])
    if added:
        log.info("phase extension added a level (relative degree %d)",
                 tower.levels[-1].degree)

    conj = _conjectures(fid.d, e0, e1, polys, prec)

    match = GaloisMatch(
        matrices=tuple(reps[c] for c in label),
        images=tuple(a.images[-1] for a in autos), score=score,
        runner_up=runner_up, separation=separation, candidates=candidates)

    cert = ExactFiducialCertificate(
        d=fid.d, method=method, tower=tower, e0_levels=len(e0.levels),
        e1_levels=len(e1.levels), tau=tau, tau_level_added=added,
        generator_rep=gen_poly.rep, orbit_reps=orbit_reps,
        rep_overlaps=rep_overlaps, index_map=index_map, galois=match,
        s_matrices=tuple(struct.s_pi.elements),
        stabilizer=struct.stabilizer, conjectures=conj)
    cert._rows, cert._table = list(autos), lifted
    return cert


def _prepare(fid, digits):
    """Common head of both lifting routes: the overlap field, its
    automorphisms over the coefficient field, one interpolated from each
    coset's conjugates (_galois_rows), and their labelling by those cosets,
    the alignment both routes check (a tuple giving each row's coset). Row j
    sends t to the root at index j, the conjugate t_c of coset
    c = conj.at_root[j]; as the t_N are distinct, under any other
    isomorphism onto the quotient row j would have to send t to another
    conjugate, so no other alignment can regenerate the table."""
    prec = digits or fid.precision
    if prec > fid.precision:
        raise PrecisionError(f"fiducial carries {fid.precision} digits, "
                             f"{prec} were requested")
    if prec < MIN_LIFT_DIGITS:
        raise PrecisionError(f"lifting needs at least {MIN_LIFT_DIGITS} digits")
    struct = symmetry_structure(fid)
    table = fid.overlaps(prec)
    polys = build_orbit_polynomials(table, struct.cent)
    e0 = lift_coefficients(polys)
    if not all(_is_real(b, prec) for b in e0.basis_values()):
        raise LiftError("the coefficient field is not real; conjugate "
                        "interpolation and alignment scoring assume it is")
    cosets, reps, qcay = _coset_structure(struct.cent, struct.s_pi)
    n = len(reps)
    if n == 1:
        raise LiftError("the index quotient is trivial, so the overlap field "
                        "would be the real coefficient field and every "
                        "overlap real; the lift takes a proper extension")
    if any(qcay[i][j] != qcay[j][i] for i in range(n) for j in range(i)):
        raise LiftError("the index quotient is not commutative; its cosets "
                        "cannot label the Galois conjugates")
    e1, gen_poly = _extension_field(e0, polys, n, prec)
    conj = _Conjugates(e0, e1, [table.chi(M.apply(gen_poly.rep))
                                for M in reps], qcay)
    autos = _galois_rows(conj)
    label = tuple(conj.at_root[j] for j in range(n))
    return prec, struct, table, polys, conj, gen_poly, autos, cosets, reps, \
        label


# ---------------------------------------------------------------------------
# route 2: alignment scoring


def _attempt_floor(prec):
    """Method 2 attempts no bijection whose score reaches 10^(prec/10), so
    scoring stops feeding a relation lattice once its row reaches it."""
    return mp.mpf(10) ** (prec / 10)


def _relation_score(comps, basis, prec, reduced):
    """Relations of one orbit's solution components over the real
    coefficient-field basis, and their worst norm (at least 1). A component
    that is not real cannot lie in the field: the score is +inf, with no
    relations and no lattice reduction. Each distinct relation lattice is
    reduced once, and only until its verdict is known (raw_relation with
    the attempt floor as its bound): a junk component's norm is then a
    lower bound of at least the floor. `reduced` maps the lattices already
    reduced to their relations."""
    if not all(_is_real(c, prec) for c in comps):
        return mp.inf, None
    found = []
    for c in comps:
        xs = [c, *basis]
        key = relation_lattice(xs, prec)
        if key not in reduced:
            reduced[key] = raw_relation(xs, precision=prec,
                                        bound=_attempt_floor(prec))
        found.append(reduced[key])
    return max([mp.mpf(1), *map(relation_norm, found)]), found


def _relation_lift(e0, e1, polys, rels) -> dict | None:
    """Exact representatives from the relations that scored an alignment:
    each solution component in the coefficient field, read off its relation
    (m_0*comp = sum m_j*basis_j), summed against the powers of the
    overlap-field generator, and a one-value orbit's constant value. None
    when a relation is not accepted or does not involve its component."""
    rep_overlaps = {}
    t = e1.generator(len(e1.levels))
    for q in polys:
        if q.degree == 1:
            rep_overlaps[q.rep] = lift_element(e1, -q.exact[0])
            continue
        sk = []
        for rel in rels[q.orbit_id]:
            m = rel.coefficients
            if not rel.accepted or m[0] == 0:
                return None
            sk.append(relation_element(e0, m))
        rep_overlaps[q.rep] = horner([lift_element(e1, c) for c in sk], t)
    return rep_overlaps


def method2_exactify(fid,
                     digits: int | None = None) -> ExactFiducialCertificate:
    """Lift by scoring the alignments of automorphisms with index cosets.

    Every bijection between the overlap-field automorphisms and the quotient
    cosets that respects the group structure, the labelling the rows were
    built from composed with each automorphism of the quotient, is scored:
    the overlap vector it predicts is read as the conjugates of one element,
    whose coordinates _Conjugates.solve interpolates. The coefficient field
    is real, so a solution component with an imaginary part above
    10^-(prec//2) cannot lie in it, and its bijection scores +inf with no
    lattice reduction. Every other component is fed to an integer-relation
    search over the coefficient-field basis, one reduction per distinct
    relation lattice, which stops at the rung where its relation is
    accepted or its norm reaches the attempt floor. The labelling's
    components lie in the coefficient field, so its relation norms sit many
    orders of magnitude below every other isomorphism's: score and
    runner_up compare the two. The labelling is lifted exactly from the
    relations that scored it, and its rows must regenerate the numeric
    table from that lift (_assemble_certificate); PrecisionError when it
    scores at the attempt floor or its lift fails that check."""
    if fid.d % 3 == 0:
        from .fidsearch import strongly_centre
        fid = strongly_centre(fid)
    prec, struct, table, polys, conj, gen_poly, autos, cosets, reps, \
        label = _prepare(fid, digits)
    e0, n = conj.e0, len(autos)
    perms = [tuple(a[c] for c in label)
             for a in _group_automorphisms(conj.cay)]
    log.info("scoring %d structure-respecting bijections", len(perms))

    nontrivial = [q for q in polys if q.degree >= 2]
    e0_basis = e0.basis_values()
    scores, rels, reduced = {}, {}, {}
    for f in perms:
        worst = mp.mpf(1)
        found = {}
        for q in nontrivial:
            # row j sends t to the root at index j, whose coset is at_root[j]
            V = [None] * n
            for j in range(n):
                V[conj.at_root[j]] = table.chi(reps[f[j]].apply(q.rep))
            norm, found[q.orbit_id] = _relation_score(
                conj.solve(V), e0_basis, prec, reduced)
            worst = max(worst, norm)
            if worst == mp.inf:
                break
        scores[f], rels[f] = worst, found
        log.info("bijection %s worst relation norm %s", f, mp.nstr(worst, 5))

    score = scores[label]
    runner_up = min((scores[f] for f in perms if f != label), default=mp.inf)
    if runner_up <= score:
        log.warning("score ranking was not decisive (the labelling scored "
                    "%s, another isomorphism %s); the labelling is lifted "
                    "and checked all the same", mp.nstr(score, 5),
                    mp.nstr(runner_up, 5))
    rep_overlaps = _relation_lift(e0, conj.e1, polys, rels[label]) \
        if score < _attempt_floor(prec) else None
    cert = None if rep_overlaps is None else _assemble_certificate(
        fid, struct, table, conj, gen_poly, autos, cosets, reps, polys,
        label, rep_overlaps, 2, score, runner_up, runner_up / score,
        len(perms), prec)
    if cert is None:
        raise PrecisionError(
            f"the coset labelling scored {mp.nstr(score, 5)} and did not "
            "pass the gated exact lift and table cross-check at "
            f"{prec} digits; increase precision")
    return cert


# ---------------------------------------------------------------------------
# route 1: direct recognition of the representative values


def method1_exactify(fid,
                     digits: int | None = None) -> ExactFiducialCertificate:
    """Lift by recognizing each nontrivial orbit's representative value
    directly in the overlap field and certifying it as an exact root of its
    lifted orbit polynomial. The orbit's other values are Galois images of
    that one, so they need no recognition of their own: the rows are aligned
    with the cosets by the labelling _prepare returns, and
    _assemble_certificate checks once that they regenerate the numeric
    table (LiftError otherwise). No relation scoring is involved.

    Dimensions divisible by 3 would need the cubed-value variant and a
    factoring step over a larger tower; that is out of scope here, use the
    alignment route instead."""
    if fid.d % 3 == 0:
        raise LiftError("direct recognition handles dimensions not divisible "
                        "by 3; use the alignment route (method 2) for "
                        "d = 0 mod 3")
    prec, struct, table, polys, conj, gen_poly, autos, cosets, reps, \
        label = _prepare(fid, digits)
    e1 = conj.e1

    rep_overlaps = {}
    for q in polys:
        if q.degree == 1:
            rep_overlaps[q.rep] = lift_element(e1, -q.exact[0])
            continue
        cand = recognize(e1, q.values[0])
        if cand is None:
            raise PrecisionError(
                f"orbit {q.orbit_id} representative value was not recognized "
                f"in the overlap field at {prec} digits")
        if not horner([lift_element(e1, c) for c in q.exact],
                      cand).is_zero():
            raise LiftError(
                f"recognized value for orbit {q.orbit_id} is not an exact "
                "root of its orbit polynomial")
        rep_overlaps[q.rep] = cand

    cert = _assemble_certificate(
        fid, struct, table, conj, gen_poly, autos, cosets, reps, polys,
        label, rep_overlaps, 1, mp.mpf(0), mp.inf, mp.inf, 0, prec)
    if cert is None:
        raise LiftError("the rows, aligned with the cosets by their "
                        "labelling, do not regenerate the numeric table "
                        "from the recognized values")
    return cert


# ---------------------------------------------------------------------------
# transport


def _transported(cert: ExactFiducialCertificate, i: int) -> dict:
    """Galois row i applied to the whole exact overlap table, checked exactly
    against the table relabeled by galois.matrices[i]; LiftError at the first
    index where they differ. The row is applied once per (orbit position,
    source row) pair, since every index's value is regenerated from one."""
    row, G = cert.galois_rows()[i], cert.galois.matrices[i]
    table = cert.all_overlaps()
    images, out = {}, {}
    for q, src in cert.index_map.items():
        if src not in images:
            images[src] = row(table[q])
        if images[src] != table[G.apply(q)]:
            raise LiftError(f"transport identity of Galois row {i} failed at "
                            f"index {q}; the certificate is inconsistent")
        out[q] = images[src]
    return out


def _group_data_checks(cert: ExactFiducialCertificate) -> tuple:
    """Exact checks, after equiangularity has passed, of the stored claims
    the residues do not cover: the overlap at generator_rep is the overlap
    field's generator, each Galois row transports the table as its matrix
    relabels it, each stabilizer shift p is 0, the stabilizer's matrices
    are a group, and their images (det F) F are exactly the symmetry
    matrices and fix the table. So does every symmetry matrix, a product of
    them; and as no off-lattice overlap is 0, chi_q = tau^(2<q,p>) chi_q at
    q = (1, 0) and (0, 1) gives p = 0. Returns the named results and the
    first failure (None on a pass).

    Both group claims are settled on the stabilizer's generators, taken
    greedily in stored order: the matrices are a group exactly when they
    are the group those generate, and as F -> (det F) F is a homomorphism,
    the generators' images generate the symmetry matrices, so they alone
    are tested against the table, by value ids. Only when one moves it are
    all images scanned in stored order, so the message names the first."""
    gen = cert.generator_rep
    checks = {"generator_overlap": cert.rep_overlaps[gen]
              == cert.e1.generator(cert.e1_levels)}
    if not checks["generator_overlap"]:
        return checks, (f"the overlap at generator_rep {list(gen)} is not "
                        "the overlap field's generator")
    try:
        for i in range(len(cert.galois.matrices)):
            _transported(cert, i)
    except LiftError as exc:
        checks["galois_transport"] = False
        return checks, str(exc)
    checks["galois_transport"] = True
    shifted = next((p for p, _F in cert.stabilizer if p != (0, 0)), None)
    checks["stabilizer_shifts"] = shifted is None
    if shifted is not None:
        return checks, f"stabilizer shift {list(shifted)} is not 0"
    mats = [F for _p, F in cert.stabilizer]
    try:
        gens, span = greedy_generators(mats, dprime(cert.d))
        closed = set(span) == set(mats)
        images = [symmetry_image(F) for F in mats]
    except ValueError:
        closed = False
    checks["stabilizer_is_a_group"] = closed
    if not closed:
        return checks, ("the stabilizer matrices are not a group with "
                        "determinants +-1")
    ok = set(images) == set(cert.s_matrices)
    checks["stabilizer_generates_symmetry"] = ok
    if not ok:
        return checks, "the stabilizer does not generate the symmetry matrices"
    ids = {}
    value_id = {q: ids.setdefault(x, len(ids))
                for q, x in cert.all_overlaps().items()}

    def moves(G):
        return any(value_id[G.apply(q)] != value_id[q] for q in value_id)

    fixed = not any(moves(symmetry_image(F)) for F in gens)
    moved = None if fixed else next(G for G in images if moves(G))
    checks["symmetry_fixes_table"] = moved is None
    return checks, (None if moved is None
                    else f"symmetry matrix {moved} does not fix the overlaps")


# ---------------------------------------------------------------------------
# exact verification


def _conjugation_map(cert: ExactFiducialCertificate,
                     tau_conj: AlgebraicNumber) -> EmbeddingAutomorphism:
    """Entrywise complex conjugation on the certificate tower, assembled from
    what the certificate pins down: coefficient-field generators are real,
    the overlap generator conjugates to the overlap at the negated index, and
    tau conjugates to its inverse power tau_conj = tau^(d'-1). Each image
    is checked numerically to embed at the conjugate of its generator, whose
    value is its level's embedding: a coefficient-field generator is its own
    image, so that embedding is compared with its own conjugate, and only
    the overlap and tau images are embedded. automorphism() then checks them
    exactly."""
    tower = cert.tower
    prec = tower.precision
    neg = cert._norm((-cert.generator_rep[0], -cert.generator_rep[1]))
    images = [tower.generator(k + 1) for k in range(cert.e0_levels)] \
        + [lift_element(tower, cert.all_overlaps()[neg])]
    if cert.tau_level_added:
        images.append(tau_conj)
    with mp.workdps(guarded(prec)):
        tol = mp.mpf(10) ** (-(prec // 2))
        for k, (lv, img) in enumerate(zip(tower.levels, images)):
            # the generator's embedded value: its embedding, rounded to
            # the working precision as the evaluation rounds it
            g = +lv.embedding
            z = g if k < cert.e0_levels else img.embed()
            if abs(z - mp.conj(g)) > tol:
                raise FieldError(f"the level-{k + 1} image does not embed at "
                                 "the conjugate of its generator")
    return automorphism(tower, images)


def _residues(chi, d, one, conj, lift, op_conj, tau_powers, tau_residue,
              exact=False):
    """The checklist that defines a SIC projector, as (check name, failure
    message, residue) triples in report order; every residue is zero for a
    SIC. It runs in any arithmetic with +, - and * and the given
    conjugations, exact tower elements or complex balls alike. chi maps
    every index mod d' to its overlap, and one and conj are the unit and
    the complex conjugation of the overlaps' arithmetic: the lattice,
    conjugation and equiangularity residues are taken there. lift carries
    an overlap into the arithmetic of tau, where the operator is rebuilt
    and op_conj conjugates; tau_powers is tau^0 .. tau^(2d-1) there, its
    first entry the unit. tau_residue takes tau_powers and returns the
    (failure message, residue) pair of the phase check, which each
    arithmetic states its own way. Nothing is computed before the previous
    residue has been taken, so a driver that stops early saves the rest.

    The table holds few distinct values (6 of 64 at the seed-11 d=4
    certificate), so the conjugate, the modulus residue and the lift are
    taken once per value, keyed by it: a tower element by value, a ball by
    identity. One residue is still yielded per index.

    exact says that a zero residue is exactly zero, as it is in the tower
    and not for a ball. Then, once every Hermitian residue is zero, A = A^+
    gives (A^2 - A)[s][r] = conj((A^2 - A)[r][s]), and conjugation is
    injective, so an entry below the diagonal is zero exactly when its
    mirror above it is; the mirror also comes first in row-major order, so
    the first nonzero entry is the same. Only the entries with r <= s are
    computed."""
    dp = dprime(d)
    lattice = [q for q in chi if q[0] % d == 0 and q[1] % d == 0]
    for q in lattice:
        yield ("lattice_overlaps_are_one",
               f"overlap at lattice index {q} is not 1", chi[q] - one)
    conj, lift = cache(conj), cache(lift)
    for q, x in chi.items():
        neg = ((-q[0]) % dp, (-q[1]) % dp)
        yield ("conjugation_negates_indices",
               f"conjugate of overlap {q} is not the overlap at {neg}",
               conj(x) - chi[neg])
    modulus = cache(lambda x: (d + 1) * x * conj(x) - one)
    for q, x in chi.items():
        if q not in lattice:
            yield ("equiangularity", f"overlap modulus condition fails at {q}",
                   modulus(x))
    yield ("tau_is_the_phase", *tau_residue(tau_powers))
    A = hb.operator_rows({q: lift(x) for q, x in chi.items()}, d, tau_powers,
                         Fraction(1, d))
    yield ("trace_is_one", "reconstructed operator trace is not 1",
           reduce(add, (A[r][r] for r in range(d))) - tau_powers[0])
    for r in range(d):
        for s in range(d):
            yield ("hermitian",
                   f"reconstructed operator is not Hermitian at {(r, s)}",
                   op_conj(A[s][r]) - A[r][s])
    for r in range(d):
        for s in range(r if exact else 0, d):
            yield ("idempotent",
                   f"reconstructed operator is not idempotent at {(r, s)}",
                   dot(A[r], [A[k][s] for k in range(d)]) - A[r][s])


def _powers(x, one, count):
    """[1, x, ..., x^(count-1)]."""
    return list(itertools.accumulate([x] * (count - 1), mul, initial=one))


def verify_exact(cert: ExactFiducialCertificate) -> dict:
    """Replay the checklist of _residues in exact rational arithmetic, after
    building the conjugation map and up to the first residue that is not
    zero; then check the stored claims of _group_data_checks. Returns the
    report and leaves the certificate unchanged.

    The overlaps stay in the overlap field e1, where the lattice,
    conjugation and equiangularity residues are taken, with conjugation as
    the block of the tower's conjugation matrix that acts on e1 (the map
    sends e1 into itself); only the operator identities lift them into the
    tower, where tau lives. As the residues are exact, the idempotent check
    takes the upper triangle of A^2 - A (see _residues)."""
    d, tower, prec = cert.d, cert.tower, cert.tower.precision
    checks: dict = {}
    offending = None

    def done():
        return {"mode": "exact", "pass": offending is None, "checks": checks,
                "offending": offending}

    # the Galois rows are built before the conjugation map: a FieldError
    # from them is an error in the file, not a verdict
    chi = cert.all_overlaps()
    taupow = _powers(cert.tau, tower.one(), 2 * d)
    try:
        conj = _conjugation_map(cert, taupow[dprime(d) - 1])
        conj_e1 = conj.restricted(cert.e1_levels)
        checks["conjugation_closed"] = True
    except FieldError as exc:
        checks["conjugation_closed"] = False
        offending = f"conjugation map: {exc}"
        return done()

    def tau_residue(taupow):
        phi = reduce(add, map(mul, cyclotomic_polynomial(dprime(d)), taupow))
        if not phi.is_zero():
            return "tau is not a primitive root of the expected order", phi
        with mp.workdps(guarded(prec)):
            off = abs(cert.tau.embed() - hb.tau_powers(d, prec)[1])
            near = off < mp.mpf(10) ** (-(prec // 2))
        # a root of the right order at another embedding: the residue 1
        # stands for the failed comparison
        return ("tau embeds as a different primitive root",
                phi if near else tower.one())

    for name, message, residue in _residues(
            chi, d, cert.e1.one(), conj_e1,
            partial(lift_element, tower), conj, taupow, tau_residue,
            exact=True):
        checks[name] = residue.is_zero()
        if not checks[name]:
            offending = message
            return done()

    group, offending = _group_data_checks(cert)
    checks.update(group)
    return done()


# ---------------------------------------------------------------------------
# certified (enclosure) verification

class _Ball:
    """Complex ball over Python ints (midpoint-radius arithmetic): centre
    (re + i im) 2^-w, radius r 2^-w with r an integer upper bound. Sums,
    differences, int multiples and conjugates are exact; a product truncates
    its centre with >> w (2 units of radius) and rounds the propagated
    radius up by 1 unit. ints and Fractions enter as floor(n 2^w / den),
    with radius 1 when the division is inexact."""
    __slots__ = ("re", "im", "r", "w")

    def __init__(self, re, im, r, w):
        self.re, self.im, self.r, self.w = re, im, r, w

    @staticmethod
    def exact(num, den, w) -> "_Ball":
        c, rem = divmod(num << w, den)
        return _Ball(c, 0, 1 if rem else 0, w)

    @staticmethod
    def near(z, r, w) -> "_Ball":
        """Radius r around the mpmath complex z floored onto the grid."""
        return _Ball(int(mp.floor(mp.ldexp(z.real, w))),
                     int(mp.floor(mp.ldexp(z.imag, w))), r, w)

    def __add__(self, o):
        if type(o) is not _Ball:
            o = _Ball.exact(o.numerator, o.denominator, self.w)
        return _Ball(self.re + o.re, self.im + o.im, self.r + o.r, self.w)

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is not _Ball:
            o = _Ball.exact(o.numerator, o.denominator, self.w)
        return _Ball(self.re - o.re, self.im - o.im, self.r + o.r, self.w)

    def __mul__(self, o):
        w = self.w
        if type(o) is int:
            return _Ball(self.re * o, self.im * o, self.r * abs(o), w)
        if type(o) is not _Ball:
            o = _Ball.exact(o.numerator, o.denominator, w)
        a, b, c, e = self.re, self.im, o.re, o.im
        rad = ((abs(a) + abs(b)) * o.r + (abs(c) + abs(e)) * self.r
               + self.r * o.r) >> w
        return _Ball((a * c - b * e) >> w, (a * e + b * c) >> w, rad + 3, w)

    __rmul__ = __mul__

    def conj(self) -> "_Ball":
        return _Ball(self.re, -self.im, self.r, self.w)

    def excludes_zero(self) -> bool:
        return self.re * self.re + self.im * self.im > self.r * self.r


def _radius_below(r: int, w: int, digits: int) -> bool:
    """r 2^-w < 10^-(digits // 2), decided in integers."""
    return r * 10 ** (digits // 2) < 1 << w


def _ball_of(tower: FieldTower, vec, L: int, gballs, w: int) -> _Ball:
    """Enclosure of the level-L vector vec: each coordinate enters as the
    ball around its rational value."""
    u, den = vec
    return tower.evaluate(u, L, lambda n: _Ball.exact(n, den, w), gballs)


def _generator_balls(tower: FieldTower, w: int):
    """Enclosures for the tower generators. The centre z is a Newton-refined
    root of the centre polynomial, put on the grid; f and f' are enclosed at
    z, and the radius is deg (|f(z)| + r) / (|f'(z)| - r'). As f'/f is the
    sum of 1/(z - root) over the roots, every monic polynomial of degree deg
    with coefficients in the balls has a root within that distance of z:
    that much is rigorous. That the disk holds the root the tower embeds,
    and not another root, stays evidence: the Newton start is the stored
    embedding."""
    gballs = []
    for k, lvl in enumerate(tower.levels):
        coeffs = [_ball_of(tower, c, k, gballs, w) for c in lvl.minpoly]
        deg = lvl.degree
        with mp.workprec(w + 16):
            centres = [mp.mpc(mp.ldexp(b.re, -w), mp.ldexp(b.im, -w))
                       for b in coeffs]
            z = mp.mpc(lvl.embedding)
            for _ in range(6):
                f = mp.mpc(1)
                fp = mp.mpc(0)
                for c in reversed(centres):
                    fp = fp * z + f
                    f = f * z + c
                if abs(fp) == 0:
                    break
                step = f / fp
                z = z - step
                if abs(step) < mp.ldexp(max(abs(z), 1), 16 - w):
                    break
            zb = _Ball.near(z, 0, w)
        fb = horner(coeffs + [_Ball(1 << w, 0, 0, w)], zb)
        fpb = horner([i * coeffs[i] for i in range(1, deg)]
                     + [_Ball(deg << w, 0, 0, w)], zb)
        denom = math.isqrt(fpb.re ** 2 + fpb.im ** 2) - fpb.r
        if denom <= 0:
            raise PrecisionError(f"generator {k + 1} enclosure failed: the "
                                 "derivative ball straddles zero")
        num = deg * (math.isqrt(fb.re ** 2 + fb.im ** 2) + 1 + fb.r)
        gballs.append(_Ball(zb.re, zb.im, -(-(num << w) // denom), w))
    return gballs


def verify_certified(cert: ExactFiducialCertificate,
                     digits: int = 120) -> dict:
    """Enclose every residue of the _residues checklist in a complex ball on
    the grid 2^-w, w = ceil((digits + 25) log2 10). Passes when all residue
    balls contain 0 with radius below 10^(-digits/2) and the stored claims
    pass the exact _group_data_checks of verify_exact; a ball excluding 0 is a
    definitive failure. The verdicts are exact integer comparisons, but
    which root each generator ball holds is evidence, not proof (see
    _generator_balls). Returns the report and leaves the certificate
    unchanged. digits must be a positive integer; SicliftError otherwise.

    Each distinct table value is enclosed once and its ball shared by the
    indices that hold it (see _residues); equal values would give
    bit-identical balls anyway, so no residue or radius changes."""
    if type(digits) is not int or digits < 1:
        raise SicliftError(f"certified digits {digits!r} is not a positive "
                           "integer")
    d, tower = cert.d, cert.tower
    w = math.ceil((digits + 25) * math.log2(10))
    gballs = _generator_balls(tower, w)

    @cache
    def ball(x: AlgebraicNumber):
        return _ball_of(tower, x.vec, len(x.tower.levels), gballs, w)

    chi = {q: ball(val) for q, val in cert.all_overlaps().items()}
    taub = ball(cert.tau)
    # tau is computed here at w + 16 bits, not read from tau_powers: the
    # table at `digits` can hold fewer than w bits (144 digits, 478 bits,
    # against w = 482 at the default 120), and the ball's radius of 2 units
    # assumes a centre good to w + 16 bits
    with mp.workprec(w + 16):
        phase = _Ball.near(-mp.expjpi(mp.mpf(1) / d), 2, w)
    one = _Ball(1 << w, 0, 0, w)
    residues = [(message, b) for _name, message, b in _residues(
        chi, d, one, _Ball.conj, lambda b: b, _Ball.conj,
        _powers(taub, one, 2 * d),
        lambda _taupow: ("tau is not the phase -exp(i pi/d)", taub - phase))]

    def nstr(n):
        return mp.nstr(mp.ldexp(n, -w), 5)

    max_r = max(b.r for _name, b in residues)
    excluded = [(name, nstr(mp.sqrt(b.re ** 2 + b.im ** 2)), nstr(b.r))
                for name, b in residues if b.excludes_zero()]
    group = None
    if excluded:
        outcome, why = False, f"residue provably nonzero: {excluded[:3]}"
    elif not _radius_below(max_r, w, digits):
        outcome, why = False, (f"enclosure radius {nstr(max_r)} "
                               f"is not below 1e-{digits // 2}")
    else:
        group, why = _group_data_checks(cert)
        outcome = why is None
    return {
        "mode": "certified", "digits": digits, "pass": outcome,
        "max_radius": nstr(max_r),
        "max_center": nstr(mp.sqrt(max(b.re ** 2 + b.im ** 2
                                       for _name, b in residues))),
        "residues": len(residues),
        "group_checks": group,
        "reason": why,
        "note": "defect-based enclosures; evidence, not proof",
    }
