"""Tower arithmetic, adjoining, automorphisms, conjugation, serialization.

Oracles: known closed forms (sqrt products, golden ratio, cyclotomic
conjugation), embedding cross-checks at working precision, and exact
zero tests that need no numerics at all.
"""

import itertools
import math
import random
import re
import struct
from fractions import Fraction
from functools import reduce
from operator import add, mul

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from siclift import exactify, lattice, numfield
from siclift.bignum import format_decimal, guarded
from siclift.errors import FieldError, RelationError
from siclift.fidsearch import refine, seed_search
from siclift.numfield import (AlgebraicNumber, FieldLevel, FieldTower, adjoin,
                              automorphism, automorphisms,
                              cyclotomic_polynomial,
                              factor_over_tower,
                              lift_element, recognize, relation_element,
                              squarefree_part, _rational_minpoly)

PREC = 80


@pytest.fixture(scope="module")
def Q():
    return FieldTower.rationals(PREC)


@pytest.fixture(scope="module")
def K3(Q):
    return adjoin(Q, [-3, 0, 1], 1.7, tag="a")


@pytest.fixture(scope="module")
def K35(K3):
    return adjoin(K3, [-5, 0, 1], 2.2, tag="r1")


@pytest.fixture(scope="module")
def K15(K35):
    # adjoin t with 8 t^2 - 2(r1-1) t - (r1+3) = 0, the root near 0.86
    r1 = K35.generator(2)
    with mp.workdps(100):
        r1v = mp.sqrt(5)
        sel = (2 * (r1v - 1) + mp.sqrt(4 * (r1v - 1) ** 2 + 32 * (r1v + 3))) / 16
    return adjoin(K35, [-(r1 + 3), -2 * (r1 - 1), 8 * K35.one()], sel, tag="t")


@pytest.fixture(scope="module")
def K3p5(Q):
    # Q(sqrt3 + sqrt5) as a single level: t^4 - 16 t^2 + 4 = 0
    with mp.workdps(40):
        sel = mp.sqrt(3) + mp.sqrt(5)
    return adjoin(Q, [4, 0, -16, 0, 1], sel, tag="t")


@pytest.fixture(scope="module")
def Kz(Q):
    with mp.workdps(40):
        sel = mp.exp(2j * mp.pi / 5)
    return adjoin(Q, [1, 1, 1, 1, 1], sel, tag="z5")


@pytest.fixture
def recognitions(monkeypatch):
    """Counts numfield.recognize calls made while the test runs."""
    calls = []
    real = numfield.recognize

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(numfield, "recognize", counting)
    return calls


class TestSquarefreePart:
    def test_values(self):
        assert squarefree_part(12) == 3
        assert squarefree_part(1) == 1
        assert squarefree_part(49) == 1
        assert squarefree_part(50) == 2
        assert squarefree_part(-12) == -3
        assert squarefree_part(0) == 0
        # (d-3)(d+1) for d = 5, 7, 15
        assert squarefree_part(2 * 6) == 3
        assert squarefree_part(4 * 8) == 2
        assert squarefree_part(12 * 16) == 3


class TestAdjoin:
    def test_sqrt3(self, K3):
        assert K3.degree == 2
        a = K3.generator(1)
        assert a * a == 3
        with mp.workdps(PREC):
            assert abs(a.embed() - mp.sqrt(3)) < mp.mpf(10) ** -(PREC - 10)

    def test_reducible_rejected(self, Q):
        with pytest.raises(FieldError, match="reducible"):
            adjoin(Q, [-4, 0, 1], 2.0)

    def test_reducible_over_extension(self, K3):
        # x^2 - 2 sqrt3 x + 3 = (x - sqrt3)^2 has a root in the tower
        a = K3.generator(1)
        with pytest.raises(FieldError, match="reducible"):
            adjoin(K3, [3, -2 * a, 1], 1.7)

    def test_three_level_tower(self, K15):
        assert K15.degree == 8
        assert [lv.degree for lv in K15.levels] == [2, 2, 2]
        t = K15.generator(3)
        r1 = K15.generator(2)
        assert (8 * t * t - 2 * (r1 - 1) * t - (r1 + 3)).is_zero()

    def test_nonmonic_input_monicized(self, K15):
        # stored minimal polynomial is monic: leading coefficient gone,
        # the generator still satisfies the scaled equation exactly
        lv = K15.levels[2]
        assert lv.degree == 2
        t = K15.generator(3)
        c0 = AlgebraicNumber(K15, K15._lift(lv.minpoly[0], 2, 3))
        c1 = AlgebraicNumber(K15, K15._lift(lv.minpoly[1], 2, 3))
        assert (t * t + c1 * t + c0).is_zero()

    def test_repeated_factor_needs_no_lll(self, Q, K3, monkeypatch):
        # (x - sqrt3)^2: is_field proves it reducible before any numeric
        # screen or root search runs
        def no_numerics(*args, **kwargs):
            raise AssertionError("numerics called")

        monkeypatch.setattr(lattice, "lll_reduce", no_numerics)
        monkeypatch.setattr(numfield, "_poly_roots", no_numerics)
        a = K3.generator(1)
        with pytest.raises(FieldError, match="not a field"):
            adjoin(K3, [3, -2 * a, 1], 1.7)
        # (x^2 - 3)^2: the numeric root finder does not converge on its
        # double roots, so the exact test must come before it
        with pytest.raises(FieldError, match="not a field"):
            adjoin(Q, [9, 0, -6, 0, 1], 1.7)

    def test_reducible_squarefree_is_refused_before_roots(self, Q,
                                                          monkeypatch):
        # (x^2 - 2)(x^2 - 3) has no repeated factor, yet is reducible
        def no_roots(*args, **kwargs):
            raise AssertionError("_poly_roots called")

        monkeypatch.setattr(numfield, "_poly_roots", no_roots)
        with pytest.raises(FieldError, match="not a field"):
            adjoin(Q, [6, 0, -5, 0, 1], 1.4)

    def test_linear_polynomial_rejected(self, K3):
        # a degree-1 level adds nothing to the tower
        with pytest.raises(FieldError, match="linear"):
            adjoin(K3, [-2, 1], 2)

    def test_selector_must_be_unambiguous(self, Q):
        with pytest.raises(FieldError):
            adjoin(Q, [-3, 0, 1], 0.0)

    def test_selector_picks_negative_root(self, Q):
        K = adjoin(Q, [-3, 0, 1], -1.7, tag="a")
        with mp.workdps(PREC):
            assert abs(K.generator(1).embed() + mp.sqrt(3)) < mp.mpf("1e-60")

    def test_degree_bookkeeping_multiplies(self, Q, K3, K35, K15):
        assert (Q.degree, K3.degree, K35.degree, K15.degree) == (1, 2, 4, 8)


def abs_pick(roots, sel, prec):
    """_new_level's root choice ranked by abs(), with its two refusals:
    the oracle of the squared comparisons."""
    with mp.workdps(guarded(prec)):
        sel = mp.mpc(sel)
        dists = sorted(range(len(roots)), key=lambda i: abs(roots[i] - sel))
        best = abs(roots[dists[0]] - sel)
        if best > mp.mpf("0.3") * (1 + abs(sel)):
            return "no root near"
        if len(dists) > 1 and best > mp.mpf("0.5") * abs(roots[dists[1]]
                                                        - sel):
            return "ambiguous"
        return dists[0]


class TestRootChoice:
    # a complex-conjugate pair, two sets of equal moduli, and a conjugate
    # pair 2e-20 apart
    @pytest.mark.parametrize("coeffs", [[1, 0, 1], [-2, 0, 0, 0, 1],
                                        [-5, 0, 0, 0, 0, 0, 1],
                                        [1 + Fraction(1, 10 ** 40), -2, 1]])
    def test_new_level_ranks_as_abs_does(self, Q, coeffs):
        monic = numfield._monic(Q, coeffs)
        roots = numfield._poly_roots([c.embed() for c in monic], PREC)
        rng = random.Random(len(coeffs))
        with mp.workdps(guarded(PREC)):
            sels = [mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
                    for _ in range(30)]
            sels += [mp.mpc(rng.uniform(-3, 3)) for _ in range(5)]
            sels += [r + mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                     * abs(roots[0] - roots[1]) / 8 for r in roots]
        seen = set()
        for sel in sels:
            want = abs_pick(roots, sel, PREC)
            try:
                got = numfield._new_level(Q, monic, roots, sel,
                                          None).levels[-1].root_index
            except FieldError as exc:
                got = next(m for m in ("no root near", "ambiguous")
                           if m in str(exc))
            assert got == want, sel
            seen.add(type(got))
        assert seen == {int, str}

    def test_nearest_root_ranks_as_abs_does(self):
        prec = 80
        rng = random.Random(5)
        with mp.workdps(guarded(prec)):
            pair = [mp.mpc(1, 2), mp.mpc(1, -2)]
            z0 = mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
            tiny = mp.mpf(10) ** -60
            close = [z0 + 1 + tiny, z0 - 1]
            circle = [mp.mpf("1.5") * mp.expjpi(mp.mpf(k) / 4)
                      for k in range(8)]
            cases = [(pair, z) for z in (mp.mpc(1), mp.mpc(7),
                                         mp.mpc(1, 1e-30), mp.mpc(0, -1))]
            cases += [(close, z0), (close[::-1], z0)]
            cases += [(circle, mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)))
                      for _ in range(20)]
            for roots, z in cases:
                want = min(range(len(roots)), key=lambda i: abs(roots[i] - z))
                assert numfield.nearest_root(roots, z, prec) == want
        # the tie on the real axis goes to the first root
        assert numfield.nearest_root(pair, 1, prec) == 0
        assert numfield.nearest_root(close, z0, prec) == 1


def _algebra(*polys):
    """The tower of levels whose monic minimal polynomials are polys
    (ascending, leading 1 included; each coefficient an int or an element of
    the tower below), whatever their factorization: only is_field reads
    them, so the embeddings are placeholders."""
    tower = FieldTower.rationals(PREC)
    for k, poly in enumerate(polys):
        coeffs = tuple(c.vec if isinstance(c, AlgebraicNumber)
                       else tower.rational(c).vec for c in poly[:-1])
        level = FieldLevel(f"g{k + 1}", coeffs, 0, mp.mpc(0))
        tower = FieldTower(tower.levels + (level,), PREC)
    return tower


def _no_lll(*args, **kwargs):
    raise AssertionError("lll_reduce called")


# x^8 - 40x^6 + 352x^4 - 960x^2 + 576, the minimal polynomial of
# sqrt2 + sqrt3 + sqrt5 (Swinnerton-Dyer): irreducible over Q, yet split
# into factors of degree at most 2 modulo every prime
SWINNERTON_DYER = [576, 0, -960, 0, 352, 0, -40, 0, 1]


class TestIsField:
    def test_swinnerton_dyer_needs_recombination(self, monkeypatch):
        monkeypatch.setattr(lattice, "lll_reduce", _no_lll)
        for p in (7, 11, 13, 17, 19, 23):
            assert max(map(len, numfield.factor_mod_p(SWINNERTON_DYER,
                                                      p))) <= 3
        assert numfield.is_field(_algebra(SWINNERTON_DYER))

    @pytest.mark.parametrize("poly", [[1, 0, 0, 0, 1],
                                      cyclotomic_polynomial(12),
                                      cyclotomic_polynomial(15)],
                             ids=["x4+1", "phi12", "phi15"])
    def test_irreducible_splitting_everywhere_locally(self, poly):
        assert numfield.is_field(_algebra(poly))

    def test_reducible_algebras(self, monkeypatch):
        monkeypatch.setattr(lattice, "lll_reduce", _no_lll)
        # y^2 - 8 = (y - 2 sqrt2)(y + 2 sqrt2) over Q(sqrt2)
        K2 = _algebra([-2, 0, 1])
        assert numfield.is_field(K2)
        two_levels = _algebra([-2, 0, 1], [-8, 0, 1])
        assert two_levels.degree == 4
        assert not numfield.is_field(two_levels)
        # (x^2 - 2)(x^2 - 3) as one level, and its factor x^2 - 2
        assert not numfield.is_field(_algebra([6, 0, -5, 0, 1]))
        # (x^2 + 1000x + 3)(x^2 - 999x + 7): its factors' coefficients
        # exceed every small prime, so only the Hensel lift recovers them
        assert not numfield.is_field(_algebra([21, 4003, -998990, 1, 1]))
        # x^2 and (x + 1)^2: a nilpotent, so no squarefree reduction
        # modulo any p
        assert not numfield.is_field(_algebra([0, 0, 1]))
        assert not numfield.is_field(_algebra([1, 2, 1]))

    def test_tower_of_fields(self, K15, Kz, K3p5):
        # the primitive element of K15 mixes all three levels
        for K in (K15, Kz, K3p5):
            assert numfield.is_field(K)

    def test_factor_mod_p_multiplies_back(self):
        f = [1, 0, 0, 0, 1]
        # x^4 + 1 = (x^2 + x + 2)(x^2 + 2x + 2) modulo 3
        assert numfield.factor_mod_p(f, 3) == [[2, 1, 1], [2, 2, 1]]
        for p in (7, 11, 13, 17, 19, 23):
            facs = numfield.factor_mod_p(SWINNERTON_DYER, p)
            prod = [1]
            for h in facs:
                prod = numfield._mmul(prod, h, p)
            assert prod == [c % p for c in SWINNERTON_DYER]
        with pytest.raises(FieldError, match="squarefree"):
            numfield.factor_mod_p([1, 2, 1], 5)

    def test_reducibility_is_decided_without_lll(self, Q, monkeypatch):
        monkeypatch.setattr(lattice, "lll_reduce", _no_lll)
        with pytest.raises(FieldError, match="reducible"):
            adjoin(Q, [6, 0, -5, 0, 1], 1.4)
        with mp.workdps(40):
            sel = mp.sqrt(2) + mp.sqrt(3) + mp.sqrt(5)
        assert adjoin(Q, SWINNERTON_DYER, sel).degree == 8


def _odd_primes_below(n):
    return [p for p in range(3, n, 2) if all(p % q for q in range(3, p, 2))]


class TestDegreeOnePrimes:
    @pytest.mark.parametrize("polys, qualifies", [
        # 2 is a square modulo an odd prime p exactly when p = +-1 mod 8
        ([[-2, 0, 1]], lambda p: p % 8 in (1, 7)),
        # and 3 exactly when p = +-1 mod 12, so both when p = +-1 mod 24
        ([[-2, 0, 1], [-3, 0, 1]], lambda p: p % 24 in (1, 23)),
    ], ids=["Q(sqrt2)", "Q(sqrt2)(sqrt3)"])
    def test_quadratic_reciprocity(self, Q, polys, qualifies):
        tower = Q
        for poly, sel in zip(polys, (1.4, 1.7)):
            tower = adjoin(tower, poly, sel)
        want = [p for p in _odd_primes_below(600) if qualifies(p)]
        got = list(itertools.islice(numfield.degree_one_primes(tower),
                                    len(want)))
        assert got == want

    def test_chain_tries_every_lower_root(self, Q):
        # Q(sqrt(1 + r)), r^2 = 2, as y^2 = 1 + r over Q(r): p qualifies
        # when some y has y^4 - 2 y^2 - 1 = 0 modulo p. For p = 7 mod 8,
        # -1 = (1 + r)(1 - r) is not a square, so only one of the two
        # square roots r of 2 continues the chain, whichever the
        # equal-degree split finds first
        K = adjoin(Q, [-2, 0, 1], 1.4)
        tower = adjoin(K, [-(K.generator(1) + 1), 0, 1], 1.55)
        want = [p for p in _odd_primes_below(600)
                if any((y ** 4 - 2 * y * y - 1) % p == 0 for y in range(p))]
        got = list(itertools.islice(numfield.degree_one_primes(tower),
                                    len(want)))
        assert got == want
        assert sum(p % 8 == 7 for p in want) >= 10


class TestArithmetic:
    def test_golden_ratio(self, Q):
        K = adjoin(Q, [-5, 0, 1], 2.2, tag="r1")
        phi = (K.generator(1) + 1) / 2
        assert (phi * phi - phi - 1).is_zero()

    def test_sqrt_product(self, K35):
        a, r1 = K35.generator(1), K35.generator(2)
        x = (a + r1) ** 2
        assert x == 8 + 2 * a * r1
        with mp.workdps(PREC):
            assert abs(x.embed() - (8 + 2 * mp.sqrt(15))) < mp.mpf("1e-60")

    def test_division_inverse(self, K35):
        a, r1 = K35.generator(1), K35.generator(2)
        y = (a + 1) / (r1 - 1)
        assert y * (r1 - 1) == a + 1
        assert (1 / y) * y == 1

    def test_reducible_level_division_raises(self):
        # a level built directly from x^2 - 4 = (x - 2)(x + 2): g - 2 is a
        # zero divisor, while g + 3 is a unit
        lv = FieldLevel("r", (((-4,), 1), ((0,), 1)), 0, mp.mpc(2))
        K = FieldTower((lv,), PREC)
        g = K.generator(1)
        with pytest.raises(FieldError, match="zero divisor"):
            _ = K.one() / (g - 2)
        assert (g + 3) * (1 / (g + 3)) == 1

    def test_divides_by_long_division(self, K15):
        rng = random.Random(3)
        f, g = ([K15.element([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                              for _ in range(8)]) for _ in range(k)]
                for k in (2, 3))
        # (x^2 + f1 x + f0)(x^3 + g2 x^2 + g1 x + g0), ascending, monic
        prod = [K15.zero()] * 5
        for i, a in enumerate(f + [K15.one()]):
            for j, b in enumerate(g + [K15.one()]):
                if i + j < 5:
                    prod[i + j] = prod[i + j] + a * b
        assert numfield.divides(K15, g, prod)
        assert numfield.divides(K15, f, prod)
        assert not numfield.divides(K15, g, [prod[0] + 1] + prod[1:])

    def test_zero_division_raises(self, K3):
        with pytest.raises(ZeroDivisionError):
            _ = K3.one() / K3.zero()

    def test_embedding_consistency_random(self, K15):
        # exact ops then embed == embed then numeric ops
        rng = random.Random(7)
        with mp.workdps(PREC + 20):
            tol = mp.mpf(10) ** -(PREC - 10)
            for _ in range(6):
                x = K15.element([Fraction(rng.randint(-9, 9),
                                          rng.randint(1, 9)) for _ in range(8)])
                y = K15.element([Fraction(rng.randint(-9, 9),
                                          rng.randint(1, 9)) for _ in range(8)])
                for f in [lambda u, v: u + v, lambda u, v: u - v,
                          lambda u, v: u * v]:
                    got = f(x, y).embed()
                    want = f(x.embed(), y.embed())
                    assert abs(got - want) < tol
                if not y.is_zero():
                    assert abs((x / y).embed()
                               - x.embed() / y.embed()) < tol

    def test_pow_and_rational_mixing(self, K3):
        a = K3.generator(1)
        assert a ** 4 == 9
        assert (Fraction(1, 2) + a) * 2 == 1 + 2 * a
        assert 3 / (a * a) == 1

    def test_coefficients_lex_order(self, K35):
        # basis (1, r1, a, a r1): exponent tuples sorted lexicographically
        a, r1 = K35.generator(1), K35.generator(2)
        x = 2 + 3 * r1 + 5 * a + 7 * a * r1
        assert x.coefficients == (Fraction(2), Fraction(3),
                                  Fraction(5), Fraction(7))
        assert K35.basis_exponents() == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_element_roundtrip(self, K15):
        coeffs = [Fraction(i - 3, i + 1) for i in range(8)]
        x = K15.element(coeffs)
        assert list(x.coefficients) == coeffs


class TestRecognize:
    def test_recovers_element(self, K35):
        a, r1 = K35.generator(1), K35.generator(2)
        x = a / 2 - 3 * r1 + Fraction(7, 5)
        got = recognize(K35, x.embed())
        assert got == x

    def test_rejects_foreign_value(self, K3):
        with mp.workdps(PREC):
            v = mp.sqrt(2)  # not in Q(sqrt3)
        assert recognize(K3, v) is None

    def test_relation_element(self, K3):
        # m_0 x = m_1 + m_2 a: numerators m[1:] over m[0], with the sign
        # moved onto the numerators and the common factor divided out
        x = relation_element(K3, (-4, -2, 6))
        assert x.vec == ((1, -3), 2)
        assert x == K3.element([Fraction(1, 2), Fraction(-3, 2)])
        assert relation_element(K3, (3, 6, 0)) == 2
        with pytest.raises(RelationError):
            relation_element(K3, (0, 1, 1))
        with pytest.raises(FieldError):
            relation_element(K3, (1, 1))

    def test_reads_the_relation_integer_relation_finds(self, K35):
        x = K35.generator(1) / 3 - K35.generator(2) / 7
        rel = lattice.integer_relation([x.embed()] + K35.basis_values(),
                                       precision=PREC)
        assert relation_element(K35, rel.coefficients) == x
        assert recognize(K35, x.embed()) == x


class TestAutomorphisms:
    def test_quadratic(self, K3):
        auts = automorphisms(K3)
        assert len(auts) == 2
        a = K3.generator(1)
        images = {g(a) for g in auts}
        assert images == {a, -a}

    def test_klein_four(self, K3p5, recognitions):
        # one level whose group is C2 x C2: the identity is free and each
        # other conjugate root costs one recognition
        auts = automorphisms(K3p5)
        assert len(recognitions) == 3
        assert len(auts) == 4
        for g in auts:
            assert _compose(g, g).is_identity()
        assert sum(g.is_identity() for g in auts) == 1
        t = K3p5.generator(1)
        s3, s5 = (t ** 3 - 14 * t) / 4, (18 * t - t ** 3) / 4
        assert (s3 * s3, s5 * s5) == (3, 5)
        assert {(g(s3), g(s5)) for g in auts} == {
            (s3, s5), (s3, -s5), (-s3, s5), (-s3, -s5)}

    def test_fixing_level(self, K35):
        auts = automorphisms(K35, fixing_level=1)
        a = K35.generator(1)
        assert len(auts) == 2
        assert all(g(a) == a for g in auts)

    def test_cyclotomic_cyclic_four(self, Kz, recognitions):
        # every conjugate root but the embedding's is recognized
        auts = automorphisms(Kz)
        assert len(recognitions) == 3
        assert len(auts) == 4
        orders = sorted(_order(g) for g in auts)
        assert orders == [1, 2, 4, 4]

    def test_commutes_with_arithmetic_exactly(self, K3p5, K35, K15):
        rng = random.Random(3)
        for K, fixing in ((K3p5, 0), (K35, 1), (K15, 2)):
            auts = automorphisms(K, fixing_level=fixing)
            assert len(auts) == K.levels[-1].degree

            def rand():
                return K.element([Fraction(rng.randint(-9, 9),
                                           rng.randint(1, 6))
                                  for _ in range(K.degree)])
            for _ in range(4):
                x, y = rand(), rand()
                for g in auts:
                    assert g(x * y) == g(x) * g(y)
                    assert g(x + y) == g(x) + g(y)

    def test_non_normal_gives_identity_only(self, K3, recognitions):
        # x^4 - a x - 1 over Q(sqrt3): conjugate roots leave the field, so
        # each of the three is recognized in vain
        a = K3.generator(1)
        with mp.workdps(40):
            sel = mp.findroot(lambda x: x ** 4 - mp.sqrt(3) * x - 1, 1.3)
        K = adjoin(K3, [-1, -a, 0, 0, 1], sel, tag="w")
        recognitions.clear()
        auts = automorphisms(K, fixing_level=1)
        assert len(recognitions) == 3
        assert len(auts) == 1 and auts[0].is_identity()

    def test_two_moving_levels_rejected(self, K35):
        with pytest.raises(FieldError, match="only the top level"):
            automorphisms(K35)

    def test_degree_cap(self):
        # x^65 - 2: the cap is checked before any root is computed
        big = FieldLevel("big", (((-2,), 1),) + (((0,), 1),) * 64,
                         0, mp.mpc(2) ** (mp.mpf(1) / 65))
        with pytest.raises(FieldError, match="desk scale"):
            automorphisms(FieldTower((big,), PREC))

    def test_image_must_be_a_root(self, K35):
        a, r1 = K35.generator(1), K35.generator(2)
        assert not automorphism(K35, [-a, r1]).is_identity()
        with pytest.raises(FieldError, match="level-2 image"):
            automorphism(K35, [a, r1 + 1])
        with pytest.raises(FieldError, match="level-1 image"):
            automorphism(K35, [a + 1, r1])


def test_restriction_needs_the_subtower_kept():
    # Q(2^(1/3)) is not normal: the automorphism of its normal closure that
    # sends 2^(1/3) to w 2^(1/3) does not restrict to it, and the identity
    # restricts to the identity
    cube = adjoin(FieldTower.rationals(PREC), [-2, 0, 0, 1], mp.cbrt(2),
                  tag="a")
    closure = adjoin(cube, [1, 1, 1], mp.expjpi(mp.mpf(2) / 3))
    a, w = closure.generator(1), closure.generator(2)
    with pytest.raises(FieldError, match="do not lie in their sub-tower"):
        automorphism(closure, [w * a, w]).restricted(1)
    ident = automorphism(closure, [a, w]).restricted(1)
    assert ident.images == (cube.generator(1),)
    x = cube.element([1, 2, 3])
    assert ident(x) == x


def _compose(a, b):
    """a after b."""
    return automorphism(a.tower, [a(x) for x in b.images])


def _order(g):
    h, n = g, 1
    while not h.is_identity():
        h = _compose(h, g)
        n += 1
        assert n <= 16
    return n


class TestSerialization:
    def test_tower_roundtrip(self, K15):
        doc = K15.to_json()
        back = FieldTower.from_json(doc)
        assert back == K15
        t, t2 = K15.generator(3), back.generator(3)
        with mp.workdps(PREC):
            assert abs(t.embed() - t2.embed()) < mp.mpf(10) ** -(PREC - 10)

    def test_tower_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            FieldTower.from_json('{"format": "SIC-FIDUCIAL v1"}')

    def test_tampered_embedding_rejected(self, K3):
        import json
        doc = json.loads(K3.to_json())
        doc["levels"][0]["embedding"] = \
            f"{format_decimal(1.5, PREC)} {format_decimal(0, PREC)}"
        with pytest.raises(FieldError, match="violates"):
            FieldTower.from_json(json.dumps(doc))
        # written short, it claims more digits than it stores
        doc["levels"][0]["embedding"] = "1.5 0"
        with pytest.raises(FieldError, match="significant digits"):
            FieldTower.from_json(json.dumps(doc))

    @pytest.mark.parametrize("edit", ["real_digit", "imag_digit", "imag_0",
                                      "double_space"])
    def test_embedding_has_one_spelling(self, K3, edit):
        # each is the written embedding, or one within a digit of it, in
        # other text: only the writer's own spelling loads
        import json
        doc = json.loads(K3.to_json())
        level = doc["levels"][0]
        re_s, im_s = level["embedding"].split()
        assert FieldTower.from_json(json.dumps(doc)) == K3
        level["embedding"] = {"real_digit": f"{re_s}1 {im_s}",
                              "imag_digit": f"{re_s} {im_s}0",
                              "imag_0": f"{re_s} 0",
                              "double_space": f"{re_s}  {im_s}"}[edit]
        with pytest.raises(FieldError, match=re.escape(
                "tower.levels[0].embedding is not written as")):
            FieldTower.from_json(json.dumps(doc))

    @pytest.mark.parametrize("leaf", ["0/11", "0", "0/1 ", "-0/1", 0])
    def test_minpoly_leaf_has_one_spelling(self, K3, leaf):
        # each is the leaf "0/1" in other text, or no text at all: text in
        # digits reads as the leaf's value, which the writer writes "0/1"
        import json
        doc = json.loads(K3.to_json())
        assert doc["levels"][0]["minpoly"] == ["-3/1", "0/1"]
        doc["levels"][0]["minpoly"][1] = leaf
        message = ("tower.levels[0].minpoly[1] is not written as"
                   if leaf in ("0/11", "0", "-0/1")
                   else f"{leaf!r} is not a rational")
        with pytest.raises(FieldError, match=re.escape(message)):
            FieldTower.from_json(json.dumps(doc))

    def test_parse_rational_takes_the_written_spelling(self):
        # parse_rational reads digits alone; a second spelling of a value
        # reads, and one_spelling refuses it in place of the writer's
        assert numfield.parse_rational("-3/4") == Fraction(-3, 4)
        assert numfield.parse_rational("5") == 5
        assert numfield.parse_rational("5/1") == 5
        for s in ("+5", " 5", "1.5", 5, None):
            with pytest.raises(FieldError, match=re.escape(
                    f"{s!r} is not a rational written n or n/d")):
                numfield.parse_rational(s)
        for s, written in (("6/8", "3/4"), ("5/1", "5"), ("-0", "0"),
                           ("5", "5/1")):
            spell = numfield._ratio if "/" in written else str
            assert spell(numfield.parse_rational(s)) == written
            with pytest.raises(FieldError, match=re.escape(
                    "coordinates[1] is not written as")):
                numfield.one_spelling(["1", s], ["1", written], "coordinates")


class TestCyclotomic:
    def test_small_cases(self):
        assert cyclotomic_polynomial(1) == [-1, 1]
        assert cyclotomic_polynomial(2) == [1, 1]
        assert cyclotomic_polynomial(4) == [1, 0, 1]
        assert cyclotomic_polynomial(5) == [1, 1, 1, 1, 1]
        assert cyclotomic_polynomial(10) == [1, -1, 1, -1, 1]
        assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]

    def test_roots_are_primitive(self):
        import math
        for m in (7, 9, 15, 30):
            coeffs = cyclotomic_polynomial(m)
            assert len(coeffs) - 1 == sum(
                1 for k in range(1, m + 1) if math.gcd(k, m) == 1)
            with mp.workdps(40):
                z = mp.exp(2j * mp.pi / m)
                acc = mp.mpc(0)
                for c in reversed(coeffs):
                    acc = acc * z + c
                assert abs(acc) < mp.mpf("1e-30")


class TestFactorOverTower:
    def test_cyclotomic_splits_over_sqrt5(self, Q):
        K5 = adjoin(Q, [-5, 0, 1], 2.2, tag="r5")
        with mp.workdps(40):
            z5 = mp.exp(2j * mp.pi / 5)
        fac = factor_over_tower(K5, cyclotomic_polynomial(5), z5)
        r5 = K5.generator(1)
        assert len(fac) == 2
        assert fac[1] == -(r5 - 1) / 2 and fac[0] == 1
        Kz = adjoin(K5, fac + [K5.one()], z5, tag="z5")
        assert Kz.degree == 4
        assert Kz.generator(2) ** 5 == 1

    def test_irreducible_comes_back_whole(self, K3):
        with mp.workdps(40):
            z5 = mp.exp(2j * mp.pi / 5)
        fac = factor_over_tower(K3, cyclotomic_polynomial(5), z5)
        assert len(fac) == 4

    def test_rational_root_isolated(self, Q):
        # (x-2)(x^2+1): selector near 2 gets the linear factor
        fac = factor_over_tower(Q, [-2, 1, -2, 1], 2.0)
        assert len(fac) == 1 and fac[0] == -2

    def test_order12_cyclotomic_splits_over_sqrt3(self, K3):
        # x^4 - x^2 + 1 = (x^2 + ax + 1)(x^2 - ax + 1) with a^2 = 3; missing
        # the split would adjoin a ring with zero divisors, which downstream
        # exact idempotency checks then reject
        with mp.workdps(40):
            tau = -mp.expjpi(mp.mpf(1) / 6)
        fac = factor_over_tower(K3, cyclotomic_polynomial(12), tau)
        a = K3.generator(1)
        assert len(fac) == 2
        assert fac[0] == 1 and (fac[1] == a or fac[1] == -a)
        Kt = adjoin(K3, fac + [K3.one()], tau, tag="tau")
        assert Kt.degree == 4
        assert Kt.generator(2) ** 12 == 1
        assert Kt.generator(2) ** 6 == -1


class TestLiftElement:
    def test_prefix_lift(self, K3, K35):
        x = K3.generator(1) + Fraction(1, 2)
        lx = lift_element(K35, x)
        assert lx == K35.generator(1) + Fraction(1, 2)
        with mp.workdps(PREC):
            assert abs(lx.embed() - x.embed()) < mp.mpf("1e-60")

    def test_non_prefix_rejected(self, Q, K35):
        K5 = adjoin(Q, [-5, 0, 1], 2.2, tag="r5")
        with pytest.raises(FieldError):
            lift_element(K35, K5.generator(1))


class TestEmbeddingFaithfulness:
    def test_distinct_elements_separate(self, K35):
        # small-height elements never collide numerically
        rng = random.Random(11)
        seen = []
        with mp.workdps(PREC):
            for _ in range(12):
                x = K35.element([Fraction(rng.randint(-50, 50),
                                          rng.randint(1, 20))
                                 for _ in range(4)])
                seen.append(x)
            for i in range(len(seen)):
                for j in range(i + 1, len(seen)):
                    if seen[i] != seen[j]:
                        assert abs(seen[i].embed() - seen[j].embed()) \
                            > mp.mpf("1e-40")


# ---------------------------------------------------------------------------
# properties of the integer representation


@pytest.fixture(scope="module")
def fid4():
    return refine(seed_search(4, "fz", attempts=24, seed=11), 320)


@pytest.fixture(scope="module")
def cert4(fid4):
    return exactify.method2_exactify(fid4)


@pytest.fixture(scope="module")
def fields(K35, K3p5, Kz, K15, cert4):
    """name -> (tower, automorphisms of it): the fixture towers, and the
    seed-11 d=4 overlap field with its Galois rows and the full tower with
    its complex conjugation."""
    return {
        "K35": (K35, automorphisms(K35, fixing_level=1)),
        "K3p5": (K3p5, automorphisms(K3p5)),
        "Kz": (Kz, automorphisms(Kz)),
        "K15": (K15, automorphisms(K15, fixing_level=2)),
        "d4-e1": (cert4.e1, cert4.galois_rows()),
        # the conjugation map sends tau to tau^(d'-1), d' = 8
        "d4": (cert4.tower,
               [exactify._conjugation_map(cert4, cert4.tau ** 7)]),
    }


def _coordinate(rng):
    """Zero, small or at least 200 bits, of either sign, over a small or a
    large denominator, so that packed slots meet both signs and wide
    values."""
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    bits = 4 if kind == 1 else rng.randint(200, 280)
    den = rng.choice([1, rng.randint(1, 9), rng.getrandbits(bits) + 1])
    return Fraction(rng.randint(-(2 ** bits), 2 ** bits), den)


def _random_element(K, rng):
    return K.element([_coordinate(rng) for _ in range(K.degree)])


def _assert_reduced(x):
    num, den = x.vec
    assert den > 0 and math.gcd(den, *num) == 1
    assert x.coefficients == tuple(Fraction(n, den) for n in num)


def _scale(K, x):
    """1 + sum |coordinate| |basis value|: bounds |x.embed()| and sets the
    size of its rounding error."""
    return 1 + sum(abs(mp.mpf(c.numerator) / c.denominator) * abs(b)
                   for c, b in zip(x.coefficients, K.basis_values()))


_FIELD_NAMES = ["K35", "K3p5", "Kz", "K15", "d4-e1", "d4"]


class TestIntegerRepresentation:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(_FIELD_NAMES), st.integers(0, 10 ** 6))
    def test_arithmetic_properties(self, fields, name, seed):
        # coordinates from a seeded generator: hypothesis keeps drawn
        # integers small, and the packed products must meet wide ones
        K, autos = fields[name]
        rng = random.Random(seed)
        x, y, z = (_random_element(K, rng) for _ in range(3))
        xy = x * y
        for v in (xy, x + y, x - y):
            _assert_reduced(v)
        with mp.workdps(K.precision + 20):
            tol = mp.mpf(10) ** -(K.precision - 20) \
                * _scale(K, x) * _scale(K, y)
            assert abs(xy.embed() - x.embed() * y.embed()) <= tol
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            inv = 1 / x
            _assert_reduced(inv)
            assert x * inv == 1
        for g in autos:
            gx = g(x)
            _assert_reduced(gx)
            num, den = x.vec
            ref = K.evaluate(num, len(K.levels), K.rational, g.images) \
                * Fraction(1, den)
            assert gx == ref

    def test_equal_values_compare_and_hash_equal(self, fields):
        rng = random.Random(5)
        for name in _FIELD_NAMES:
            K, _autos = fields[name]
            x, y = _random_element(K, rng), _random_element(K, rng)
            if y.is_zero():
                y = y + 1
            for other in ((x / 3) * 3, x * Fraction(1, 3) * 3,
                          (x + y) - y, (x * y) / y, -(-x)):
                _assert_reduced(other)
                assert other == x and hash(other) == hash(x)
                assert other.vec == x.vec
            half = K.rational(Fraction(2, 4))
            assert half.vec[1] == 2 and half == Fraction(1, 2)
            assert K.zero().vec[1] == 1 and (x - x).vec == K.zero().vec

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["e0", "e1"]), st.sampled_from(["e0", "e1"]),
           st.sampled_from(["zero", "one", "wide", "wide"]),
           st.sampled_from(["zero", "one", "wide", "wide"]),
           st.integers(0, 10 ** 6))
    def test_subfield_products_equal_the_box_product_d4(
            self, cert4, left, right, left_kind, right_kind, seed):
        # elements of e0 and e1 lifted into the seed-11 d=4 tower multiply
        # in their own subfield and are placed back; the result must be
        # the product through the whole tower's box
        T = cert4.tower
        rng = random.Random(seed)
        sub = {"e0": cert4.e0, "e1": cert4.e1}

        def draw(name, kind):
            K = sub[name]
            x = {"zero": K.zero, "one": K.one,
                 "wide": lambda: _random_element(K, rng)}[kind]()
            return lift_element(T, x)

        x, y = draw(left, left_kind), draw(right, right_kind)
        box = T._box(len(T.levels))
        (u, du), (v, dv) = x.vec, y.vec
        want = numfield._reduced(box.product(u, v), du * dv * box.den)
        got = x * y
        assert got.vec == want
        _assert_reduced(got)

    def test_subfield_inverse_is_the_lifted_inverse_d4(self, cert4):
        # 1/x for x of the coefficient field, seen inside the seed-11 d=4
        # tower, is the inverse taken in e0 and placed back
        T, e0 = cert4.tower, cert4.e0
        rng = random.Random(17)
        for x in [e0.generator(len(e0.levels))] + [
                _random_element(e0, rng) + 1 for _ in range(3)]:
            inv = 1 / lift_element(T, x)
            _assert_reduced(inv)
            assert inv == lift_element(T, 1 / x)
            assert inv * lift_element(T, x) == 1

    def test_box_places_its_low_columns_d4(self, cert4):
        # for s below the level degree m, g^s is a basis monomial, and the
        # box monomial col * g^s is col placed at slot s: equal to col
        # multiplied by each coordinate of g^s over the level below
        T = cert4.tower
        for L in range(1, len(T.levels) + 1):
            m = T.levels[L - 1].degree
            zero, one = T._zero(L - 1), T._const(1, L - 1)
            box, low = numfield._Box(T, L), T._box(L - 1)
            cols = iter(box.cols)
            for col in low.cols:
                for s in range(2 * m - 1):
                    placed = next(cols)
                    if s < m:
                        assert placed == numfield._join(
                            [T._mul(col, one if j == s else zero, L - 1)
                             for j in range(m)])
            assert box.rows == T._box(L).rows and box.den == T._box(L).den

    def test_loads_share_no_product_data(self, cert4, tmp_path):
        # product data is held on a tower's levels: shared by the towers
        # of one decoded certificate, never between two decodes, so every
        # load pays for its own
        path = str(tmp_path / "d4.cert")
        cert4.save(path)
        a, b = (exactify.ExactFiducialCertificate.load(path)
                for _ in range(2))
        for cert in (a, b):
            assert exactify.verify_exact(cert)["pass"]
        n = len(a.tower.levels)
        assert all(a.tower.levels[k] is not b.tower.levels[k]
                   for k in range(n))
        assert all(a.tower._box(L) is not b.tower._box(L)
                   for L in range(1, n + 1))
        e1 = a.e1_levels
        assert all(a.e1._box(L) is a.tower._box(L) for L in range(1, e1 + 1))
        rows = a.galois_rows()
        assert all(r.tower._box(e1) is a.tower._box(e1) for r in rows)


# ---------------------------------------------------------------------------
# sums of products with one reduction, and the box's packing plans


def _draw_factor(K, kind, rng):
    """A factor of the given kind in K: zero; one of a lower level, drawn in
    a proper prefix of K and lifted; or numerators of 3 bits, or of 70 to
    200 bits, so that a product needs slots of at least two words, over a
    denominator of up to as many bits."""
    if kind == "zero":
        return K.zero()
    if kind == "lower":
        sub = FieldTower(K.levels[:rng.randrange(len(K.levels))],
                         K.precision)
        return lift_element(K, _random_element(sub, rng))
    bits = 3 if kind == "small" else rng.randint(70, 200)
    den = rng.randint(1, 2 ** bits)
    return K.element([Fraction(rng.randint(-(2 ** bits), 2 ** bits), den)
                      for _ in range(K.degree)])


_KINDS = st.sampled_from(["zero", "lower", "small", "wide"])


class TestDot:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["K3", "Kz", "K35", "K15"]),
           st.lists(st.tuples(_KINDS, _KINDS), min_size=1, max_size=5),
           st.integers(0, 10 ** 6))
    def test_equals_the_sum_of_products(self, request, name, kinds, seed):
        # towers of depth 1 to 3; the terms mix zeros, factors of lower
        # levels, unequal denominators and wide numerators
        K = request.getfixturevalue(name)
        rng = random.Random(seed)
        xs, ys = [], []
        for a, b in kinds:
            xs.append(_draw_factor(K, a, rng))
            ys.append(_draw_factor(K, b, rng))
        got = numfield.dot(xs, ys)
        assert got.vec == reduce(add, map(mul, xs, ys)).vec
        _assert_reduced(got)

    def test_wide_terms_take_wide_slots(self, K15):
        # numerators of 70 to 200 bits: the packed sum needs slots of two
        # words or more
        rng = random.Random(2)
        xs = [_draw_factor(K15, "wide", rng) for _ in range(3)]
        K15.levels[-1].box = None  # a fresh box, which holds no plan yet
        got = numfield.dot(xs, xs[::-1])
        assert min(K15._box(len(K15.levels)).plans) >= 2
        assert got == reduce(add, map(mul, xs, xs[::-1]))

    def test_terms_and_scales_widen_the_slots(self, K3):
        # one product of (a + a g)^2, a = 2^30 - 1, fits a slot of one
        # word (slots up to 2 a^2 < 2^61); 16 of them sum past 2^63, so the
        # count of terms must widen the slots to two words
        a = 2 ** 30 - 1
        x = K3.element([a, a])
        assert numfield.dot([x] * 16, [x] * 16) == 16 * (x * x)
        # z * z, z = b + b g with b = 2^28 - 1, fits one word with room
        # for two terms, but not once it is scaled by 2^20 to the common
        # denominator of z * z and (z / 2^20) * z
        z = K3.element([2 ** 28 - 1] * 2)
        w = z / 2 ** 20
        assert numfield.dot([z, w], [z, z]) == z * z + w * z

    def test_other_arithmetic_takes_the_plain_sum(self, K3):
        xs = [Fraction(1, 3), 2, Fraction(-5, 7)]
        ys = [4, Fraction(3, 2), Fraction(7, 5)]
        assert numfield.dot(xs, ys) == reduce(add, map(mul, xs, ys))
        zs = [1 + 2j, -3j]
        assert numfield.dot(zs, zs) == zs[0] * zs[0] + zs[1] * zs[1]
        # a rational among tower elements is scaled as in the plain sum
        a = K3.generator(1)
        assert numfield.dot([a, 2], [a, a]) == a * a + 2 * a

    def test_elements_of_two_towers_are_refused(self, K3, K35):
        with pytest.raises(FieldError, match="different towers"):
            numfield.dot([K3.one(), K35.one()], [K3.one(), K35.one()])


def _unpacked_product(box, u, v):
    """The box product with its packing built afresh for this one call, as
    it was before the plans were kept: the oracle of the cached plans."""
    bits = (max(map(int.bit_length, u)) + max(map(int.bit_length, v))
            + box.dim.bit_length())
    k = bits // 64 + 1
    width = 64 * k
    shifts = [width * p for p in box.pos]
    packed = sum(x << s for x, s in zip(u, shifts)) \
        * sum(x << s for x, s in zip(v, shifts))
    offset = int.from_bytes((bytes(8 * k - 1) + b"\x80") * box.size,
                            "little")
    words = struct.unpack(f"<{k * box.size}Q", (packed + offset).to_bytes(
        8 * k * box.size, "little"))
    slots = [sum(words[p * k + j] << (64 * j) for j in range(k))
             - (1 << (width - 1)) for p in range(box.size)]
    return k, tuple(sum(x * slots[p] for p, x in zip(idx, vals))
                    for idx, vals in box.rows)


@pytest.mark.parametrize("bits", [3, 40, 70])
def test_cached_plans_give_the_fresh_product_d4(cert4, bits):
    # 3-, 40- and 70-bit numerators at degree 16 need slots of 1, 2 and 3
    # words; the second product reuses the plan the first one built
    T = cert4.tower
    L = len(T.levels)
    rng = random.Random(bits)
    box = numfield._Box(T, L)
    u, v = ([rng.randint(-(2 ** bits), 2 ** bits) for _ in range(T.degree)]
            for _ in range(2))
    k, want = _unpacked_product(box, u, v)
    assert k == {3: 1, 40: 2, 70: 3}[bits] and k not in box.plans
    assert box.product(u, v) == want and k in box.plans
    assert box.product(u, v) == want
    assert T._box(L).product(u, v) == want


# ---------------------------------------------------------------------------
# automorphisms checked from the columns they build


def _first_failing_level(tower, images):
    """The first level whose image the substitution rule refuses, or None:
    the check that automorphism() made before it used its own columns, kept
    as its oracle. test_arithmetic_properties compares the maps themselves
    with the substitution rule."""
    for k, lv in enumerate(tower.levels, 1):
        coeffs = [tower.evaluate(u, k - 1, tower.rational, images)
                  * Fraction(1, den) for u, den in lv.minpoly]
        if not numfield.horner(coeffs + [tower.one()],
                               images[k - 1]).is_zero():
            return k
    return None


def test_wrong_images_are_refused_as_before_d4(cert4):
    # the identity and the conjugation pass; an image moved by 1 or
    # negated is refused at the level the substitution rule refuses
    T = cert4.tower
    n = len(T.levels)
    ident = [T.generator(k + 1) for k in range(n)]
    conj = list(exactify._conjugation_map(cert4, cert4.tau ** 7).images)
    candidates = [ident, conj]
    for k in range(n):
        for edit in (lambda x: x + 1, lambda x: -x):
            for base in (ident, conj):
                candidates.append(base[:k] + [edit(base[k])] + base[k + 1:])
    refused = set()
    for images in candidates:
        level = _first_failing_level(T, images)
        if level is None:
            assert automorphism(T, images).images == tuple(images)
            continue
        refused.add(level)
        with pytest.raises(FieldError, match=(
                f"^the level-{level} image is not a root of its "
                "transported minimal polynomial$")):
            automorphism(T, images)
    assert {1, n} <= refused


# ---------------------------------------------------------------------------
# the fraction-free rational minimal polynomial


def _fraction_minpoly(x):
    """The Fraction elimination that _rational_minpoly replaced, kept as its
    oracle: each power's rational coordinates are reduced against the
    earlier ones, and the first that reduces to zero gives the monic
    dependence, made primitive."""
    reduced = []
    acc = x.tower.one()
    for k in range(x.tower.degree + 1):
        row = list(acc.coefficients)
        comb = [Fraction(0)] * k + [Fraction(1)]
        for piv, brow, bcomb in reduced:
            if row[piv]:
                f = row[piv] / brow[piv]
                row = [a - f * b for a, b in zip(row, brow)]
                for i, c in enumerate(bcomb):
                    comb[i] -= f * c
        piv = next((col for col, v in enumerate(row) if v), None)
        if piv is None:
            den = math.lcm(*(c.denominator for c in comb))
            ints = [int(c * den) for c in comb]
            g = math.gcd(*ints)
            return tuple(v // g for v in ints)
        reduced.append((piv, row, comb))
        acc = acc * x
    raise AssertionError("no dependence up to the tower degree")


class TestRationalMinpoly:
    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["K35", "K3p5", "Kz", "K15"]),
           st.integers(0, 10 ** 6))
    def test_matches_fraction_elimination(self, fields, name, seed):
        # a random element, usually of full degree, and its sums with its
        # conjugates, which lie in proper subfields
        K, autos = fields[name]
        x = _random_element(K, random.Random(seed))
        for y in [x] + [x + g(x) for g in autos]:
            got = _rational_minpoly(y)
            assert got == _fraction_minpoly(y)
            assert got[-1] > 0 and math.gcd(*got) == 1

    def test_seed11_d4_overlaps(self, cert4):
        for v in cert4.all_overlaps().values():
            assert _rational_minpoly(v) == _fraction_minpoly(v)


# ---------------------------------------------------------------------------
# roots from a double-precision start


def _cold_roots(values, prec):
    """The oracle: _poly_roots' mpmath call from mpmath's own cold start."""
    with mp.workdps(guarded(prec) + 20):
        coeffs = [mp.mpc(1)] + [mp.mpc(v) for v in reversed(values)]
        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=prec)
        return sorted((mp.mpc(r) for r in roots),
                      key=lambda z: (z.real, z.imag))


def _from_roots(roots, prec):
    """Coefficients (ascending, without the leading 1) of prod (x - r) for
    Gaussian rationals r = (re, im), exact, rounded at the working
    precision of _poly_roots."""
    poly = [(Fraction(1), Fraction(0))]
    for a, b in roots:
        poly = [(Fraction(0), Fraction(0))] + poly
        for i in range(len(poly) - 1):
            x, y = poly[i + 1]
            poly[i] = (poly[i][0] - (a * x - b * y),
                       poly[i][1] - (a * y + b * x))
    with mp.workdps(guarded(prec) + 20):
        return [mp.mpc(mp.mpf(x.numerator) / x.denominator,
                       mp.mpf(y.numerator) / y.denominator)
                for x, y in poly[:-1]]


def _noise(part, root, prec):
    """A root component below 2^-prec of the root's modulus: it sits
    beneath the extra bits the call works with, so its last bits are the
    rounding noise of the polynomial's own coefficients."""
    return abs(part) < abs(root) * mp.mpf(2) ** -prec


def _assert_same_bits(values, prec, strict=True):
    """_poly_roots equals the cold call bit for bit. Unless strict, a
    component that is noise (_noise) in both may differ, by less than its
    noise bound."""
    warm, cold = numfield._poly_roots(values, prec), _cold_roots(values, prec)
    assert len(warm) == len(cold)
    for w, c in zip(warm, cold):
        with mp.workdps(guarded(prec) + 20):
            for pw, pc in ((w.real, c.real), (w.imag, c.imag)):
                if pw._mpf_ == pc._mpf_:
                    continue
                assert not strict
                assert _noise(pw, c, prec) and _noise(pc, c, prec)


class TestPolyRoots:
    def test_level_polynomials_of_the_d4_lift(self, fid4, monkeypatch):
        seen = []
        roots = numfield._poly_roots

        def recorded(values, prec):
            seen.append((list(values), prec))
            return roots(values, prec)

        monkeypatch.setattr(numfield, "_poly_roots", recorded)
        monkeypatch.setattr(exactify, "_poly_roots", recorded)
        exactify.method2_exactify(fid4)
        monkeypatch.undo()
        assert len(seen) >= 3 and {len(v) for v, _ in seen} == {2, 4}
        for values, prec in seen:
            _assert_same_bits(values, prec)

    def test_lift_levels_pass_one_sweep_d4(self, fid4,
                                                           monkeypatch):
        # every level of the lift passes the one Durand-Kerner sweep after
        # the Newton ladder, so polyroots' full iteration, the fallback,
        # never runs
        polyroots = mp.polyroots

        def one_sweep(*args, maxsteps, **kwargs):
            assert maxsteps == 1, "the fallback ran"
            return polyroots(*args, maxsteps=maxsteps, **kwargs)

        monkeypatch.setattr(mp, "polyroots", one_sweep)
        exactify.method2_exactify(fid4)

    def test_merged_roots_leave_the_ladder(self):
        # two starts at one root of x^2 - 1: Newton keeps both there, and
        # the ladder refuses them, since polyroots' last sweep would skip
        # their zero distance; starts good to double precision at both
        # roots pass that sweep
        with mp.workdps(60):
            coeffs = [mp.mpc(1), mp.mpc(0), mp.mpc(-1)]
            assert numfield._newton_ladder(coeffs, [mp.mpc(1), mp.mpc(1)],
                                           60) is None
            ladder = numfield._newton_ladder(
                coeffs, [mp.mpc(1 + 2 ** -50), mp.mpc(-1 - 2 ** -50)], 60)
            roots = mp.polyroots(coeffs, maxsteps=1, extraprec=60,
                                 roots_init=ladder)
            assert sorted(roots) == [-1, 1]

    def test_root_at_zero(self, Q):
        # x^2 - 2x: the root 0 goes through polyroots' cleanup of small
        # parts; squarefree, so adjoin reaches the roots and refuses the
        # polynomial as reducible
        values = [mp.mpc(0), mp.mpc(-2)]
        _assert_same_bits(values, PREC)
        assert numfield._poly_roots(values, PREC) == [0, 2]
        with pytest.raises(FieldError, match="reducible"):
            adjoin(Q, [0, -2, 1], 2.0)

    @pytest.mark.parametrize("g", [3, 8, 30, 60])
    def test_clustered_quartic(self, g):
        # roots 1 and 1 + 10^-g sit closer than double precision resolves
        # for g >= 16; the real roots' imaginary parts are noise of the
        # rounded complex coefficients (for g = 3, 8, 30 two of them stay
        # above polyroots' cleanup tolerance), the only bits that may differ
        one = (Fraction(1), Fraction(0))
        near = (1 + Fraction(1, 10 ** g), Fraction(0))
        values = _from_roots([one, near, (Fraction(2), Fraction(0)),
                              (Fraction(1, 2), Fraction(1))], 320)
        _assert_same_bits(values, 320, strict=False)
        roots = numfield._poly_roots(values, 320)
        with mp.workdps(400):
            assert abs(roots[2].real - roots[1].real
                       - mp.mpf(10) ** -g) < mp.mpf(10) ** -(300 - g)

    @pytest.mark.parametrize("prec, degrees", [(200, range(2, 13)),
                                               (1000, (2, 4, 8, 12))],
                             ids=["200", "1000"])
    def test_separated_gaussian_rationals(self, prec, degrees):
        # at 1000 digits, the degrees the lifts' levels have
        rng = random.Random(prec)
        for deg in degrees:
            roots = []
            while len(roots) < deg:
                z = (Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                     Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
                if all(abs(complex(*z) - complex(*r)) > 0.5 for r in roots):
                    roots.append(z)
            _assert_same_bits(_from_roots(roots, prec), prec)

    def test_start_beyond_double_range_falls_back_cold(self):
        # (x - 2^540)(x - 2^541): the constant term overflows a double, and
        # the roots are exact, so the cold call's absolute tolerance is met
        with mp.workdps(120):
            big = mp.mpf(2) ** 540
            values = [mp.mpc(2 * big * big), mp.mpc(-3 * big)]
            assert numfield._double_roots(
                [mp.mpc(1)] + values[::-1]) is None
        _assert_same_bits(values, 100)
