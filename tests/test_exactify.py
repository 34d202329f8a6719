"""Exact lifting pipeline: symmetry structure, orbit polynomials,
coefficient-field recovery, Galois alignment, certificates, and both
verification modes.

Oracles: group-theoretic counts recomputed through the matrix layer, exact
identities checked in pure rational arithmetic (no numerics can fake a zero),
and embedding cross-checks against the refined fiducial each certificate came
from. The d=4 path exercises the even-dimension bookkeeping (doubled index
modulus) and an alignment among several structure-respecting bijections, of
which most predict non-real coefficients.
"""

import hashlib
import importlib.util
import itertools
import json
import logging
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from content_digest import content_digest
from siclift import cli, exactify, heisenberg, lattice, modring, numfield
from siclift.bignum import guarded
from siclift.errors import FieldError, LiftError, PrecisionError
from siclift.exactify import (ExactFiducialCertificate, _distinct_values,
                              _extend_with_tau, _group_automorphisms,
                              _transported, alignment_gap,
                              build_orbit_polynomials,
                              method1_exactify, method2_exactify,
                              orbit_coefficient_values, symmetry_structure,
                              verify_certified, verify_exact)
from siclift.fidsearch import Fiducial, refine, seed_search
from siclift.heisenberg import overlaps
from siclift.modring import (ModMatrix, dprime, fa_matrix, gl2_group,
                             h2_group, symmetry_image)
from siclift.numfield import FieldTower, _rational_minpoly, \
    _subset_product_coeffs, adjoin, automorphism, cyclotomic_polynomial, \
    factor_over_tower, recognize


# ---------------------------------------------------------------------------
# pipeline fixtures (one search + lift per dimension, shared module-wide)


@pytest.fixture(scope="module")
def fid5():
    return refine(seed_search(5, "fz", attempts=24, seed=11), 320)


@pytest.fixture(scope="module")
def cert5(fid5):
    return method2_exactify(fid5)


@pytest.fixture(scope="module")
def report5(cert5):
    return verify_exact(cert5)


@pytest.fixture(scope="module")
def fid4():
    return refine(seed_search(4, "fz", attempts=24, seed=11), 320)


@pytest.fixture(scope="module")
def cert4(fid4):
    return method2_exactify(fid4)


# ---------------------------------------------------------------------------
# small exact helpers


def test_tau_order_values():
    # the order of -exp(i pi / d) is d': odd d gives d, even d gives 2d
    assert dprime(4) == 8
    assert dprime(5) == 5
    assert dprime(6) == 12
    assert dprime(7) == 7
    assert dprime(8) == 16
    assert dprime(9) == 9


def test_distinct_values_clusters():
    with mp.workdps(340):
        vals = [mp.mpf(1), mp.mpf(1) + mp.mpf(10) ** -200, mp.mpf("0.5"),
                mp.mpf(1) + mp.mpf(10) ** -190]
        reps, assign = _distinct_values(vals, 320)
    assert len(reps) == 2
    assert assign == [0, 0, 1, 0]


def test_distinct_values_ambiguity_band_aborts():
    with mp.workdps(340):
        vals = [mp.mpf(1), mp.mpf(1) + mp.mpf(10) ** -100]
        with pytest.raises(PrecisionError):
            _distinct_values(vals, 320)


@pytest.mark.parametrize("prec", [200, 320])
def test_distinct_values_band_edges(prec):
    # offsets along (3 + 4i)/5, so the squared distance takes both parts
    with mp.workdps(guarded(prec)):
        v, unit = mp.mpc("0.3", "-0.7"), mp.mpc(3, 4) / 5

        def clusters(dist):
            return _distinct_values([v, v + unit * dist], prec)[1]

        assert clusters(mp.mpf(10) ** -(prec // 2) / 2) == [0, 0]
        assert clusters(2 * mp.mpf(10) ** -(prec // 4)) == [0, 1]
        with pytest.raises(PrecisionError) as exc:
            clusters(mp.mpf(10) ** -(prec // 3))
    # the message quotes the distance, not its square
    assert f"sit 1.0e-{prec // 3} apart" in str(exc.value)


def test_poly_from_roots():
    with mp.workdps(50):
        coeffs = _subset_product_coeffs([mp.mpf(1), mp.mpf(2)], (0, 1), 50)
        # (x-1)(x-2) = 2 - 3x + x^2, ascending, leading 1 left out
        assert len(coeffs) == 2
        assert abs(coeffs[0] - 2) < 1e-40
        assert abs(coeffs[1] + 3) < 1e-40


# ---------------------------------------------------------------------------
# abstract-group matching (used to pair Galois rows with index cosets)


def _cyclic_table(n):
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def _klein_table():
    return tuple(tuple(i ^ j for j in range(4)) for i in range(4))


def _s3_table():
    import itertools
    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    comp = lambda a, b: tuple(a[b[k]] for k in range(3))
    return tuple(tuple(idx[comp(perms[i], perms[j])] for j in range(6))
                 for i in range(6))


def _product_table(*orders):
    # direct product of cyclic groups, elements in mixed radix
    import itertools
    elems = list(itertools.product(*map(range, orders)))
    idx = {x: i for i, x in enumerate(elems)}
    return tuple(tuple(idx[tuple((a + b) % k for a, b, k in zip(x, y, orders))]
                       for y in elems) for x in elems)


def test_isomorphisms_cyclic4():
    maps = _group_automorphisms(_cyclic_table(4))
    assert len(maps) == 2        # x -> x and x -> 3x
    for f in maps:
        assert f[0] == 0


def test_isomorphisms_klein():
    maps = _group_automorphisms(_klein_table())
    assert len(maps) == 6        # GL(2, F2)


def test_isomorphisms_s3_automorphisms():
    # all six automorphisms of S3 are inner
    assert len(_group_automorphisms(_s3_table())) == 6


@pytest.mark.parametrize("cay, count", [
    (_cyclic_table(8), 4),         # x -> kx for odd k
    (_product_table(2, 6), 12),    # C2 x C2 x C3: GL(2, F2) times Aut(C3)
])
def test_automorphisms_products_of_cyclic_groups(cay, count):
    maps = _group_automorphisms(cay)
    assert len(maps) == count
    n = len(cay)
    for f in maps:
        assert sorted(f) == list(range(n))
        assert all(f[cay[a][b]] == cay[f[a]][f[b]]
                   for a in range(n) for b in range(n))


# ---------------------------------------------------------------------------
# exact linear algebra helpers


def test_generates_over_rationals():
    # generation is read off the minimal polynomial's degree
    K = adjoin(FieldTower.rationals(80), [-2, 0, 1], 1.4, tag="s")
    assert _rational_minpoly(K.generator(1)) == (-2, 0, 1)
    assert _rational_minpoly(K.one()) == (-1, 1)


def _conjugates_over_q(e1, t_conj, units, m):
    # e1 = Q(t) with Galois group (a subgroup of) (Z/m)^x: coset i sends t
    # to t_conj[i] and composes as units[i] * units[j] mod m
    cay = [[units.index(a * b % m) for b in units] for a in units]
    return exactify._Conjugates(FieldTower.rationals(80), e1, t_conj, cay)


def test_tau_already_in_the_overlap_field():
    # tau = -exp(i pi/5) is a primitive 5th root of unity, so adjoining one
    # leaves nothing to add: the linear factor of the cyclotomic polynomial
    # over e1 is certified by exact division and tau comes back as that root
    with mp.workdps(100):
        tau = -mp.expjpi(mp.mpf(1) / 5)
        t_conj = [tau ** a for a in range(1, 5)]
    e1 = adjoin(FieldTower.rationals(80), cyclotomic_polynomial(5), tau)
    conj = _conjugates_over_q(e1, t_conj, [1, 2, 3, 4], 5)
    tower, got, added = _extend_with_tau(conj, 5, [1, 2, 3, 4])
    assert tower is e1 and added is False
    assert got == e1.generator(1)


def test_tau_level_is_built_from_its_certified_factor(monkeypatch):
    # tau = -exp(i pi/6) has order 12, and Phi_12 splits over Q(sqrt 3) into
    # two quadratics; the one through tau, the factor factor_over_tower
    # certifies, becomes tau's level as it is, without adjoin's screen. The
    # nontrivial row acts on roots of unity as zeta -> zeta^5; the guess
    # [1, 1] is wrong, and the sweep below the whole group corrects it
    def no_adjoin(*args, **kwargs):
        raise AssertionError("tau's level went through adjoin")

    K = adjoin(FieldTower.rationals(80), [-3, 0, 1], 1.7)
    with mp.workdps(100):
        tau = -mp.expjpi(mp.mpf(1) / 6)
        conj = _conjugates_over_q(K, [mp.sqrt(3), -mp.sqrt(3)], [1, 5], 12)
    factor = factor_over_tower(K, cyclotomic_polynomial(12), tau)
    monkeypatch.setattr(numfield, "adjoin", no_adjoin)
    monkeypatch.setattr(exactify, "adjoin", no_adjoin)
    for guess in ([1, 5], [1, 1]):
        tower, got, added = _extend_with_tau(conj, 6, guess)
        assert added is True and tower.degree == 4
        assert tower.levels[-1].minpoly == tuple(c.vec for c in factor)
        assert got ** 6 == -1
        with mp.workdps(100):
            assert abs(got.embed() - tau) < mp.mpf(10) ** -70


def test_wrong_tau_guess_finds_the_same_level_d4(fid4, cert4):
    # the guess det(M_N) only orders the search: with every coset guessed to
    # fix tau, the sweep still ends at the factor the certificate carries
    *_, conj, _gen, _autos, _cosets, reps, _perms = exactify._prepare(fid4,
                                                                      None)
    assert [M.det() for M in reps] != [1] * len(reps)
    tower, tau, added = _extend_with_tau(conj, 4, [1] * len(reps))
    assert added is True
    assert tower.levels == cert4.tower.levels and tau == cert4.tau


def test_right_tau_guess_needs_no_sweep_d4(fid4, cert4, monkeypatch):
    # with the guess det(M_N), the first factor found is irreducible over
    # the overlap field, and Frobenius residues prove it: no action is
    # enumerated
    *_, conj, _gen, _autos, _cosets, reps, _perms = exactify._prepare(fid4,
                                                                      None)
    calls = []

    def no_actions(*args):
        calls.append(args)
        return []

    monkeypatch.setattr(exactify, "_actions", no_actions)
    tower, tau, added = _extend_with_tau(conj, 4, [M.det() for M in reps])
    assert calls == []
    assert added is True
    assert tower.levels == cert4.tower.levels and tau == cert4.tau


def test_tau_level_needs_no_zassenhaus_d4(fid4, cert4, monkeypatch):
    # the residues mod 8 of degree-one primes of the overlap field prove
    # tau's level irreducible, so Zassenhaus's algorithm never runs on it
    *_, conj, _gen, _autos, _cosets, reps, _perms = exactify._prepare(fid4,
                                                                      None)

    def no_zassenhaus(f):
        raise AssertionError("is_field factored tau's level")

    monkeypatch.setattr(numfield, "_irreducible", no_zassenhaus)
    tower, tau, added = _extend_with_tau(conj, 4, [M.det() for M in reps])
    assert added is True
    assert tower.levels == cert4.tower.levels and tau == cert4.tau


@pytest.mark.parametrize("fid_name", ["fid4", "fid5"])
def test_frobenius_accepts_only_fields(fid_name, request):
    # the stream offers every factor of Phi_d' through tau that divides
    # it, under every action; each one the shared residues accept is one
    # that is_field accepts, the certificate's among them, and Phi_d'
    # itself, reducible here, is offered and not accepted
    fid = request.getfixturevalue(fid_name)
    *_, conj, _gen, _autos, _cosets, reps, _perms = exactify._prepare(fid,
                                                                      None)
    m = dprime(fid.d)
    tau = heisenberg.tau_powers(fid.d, conj.prec)[1]
    proves = exactify._frobenius_proof(conj.e1, m)
    verdicts = []
    for fac in exactify._tau_factors(conj, fid.d, [M.det() for M in reps],
                                     proves):
        proven = proves(len(fac)) is not None
        if proven:
            roots = numfield._poly_roots([c.embed() for c in fac],
                                         conj.prec)
            tower = numfield._new_level(conj.e1, fac, roots, tau, "tau")
            assert numfield.is_field(tower)
        verdicts.append((len(fac), proven))
    assert (2, True) in verdicts
    assert (len(cyclotomic_polynomial(m)) - 1, False) in verdicts


def test_frobenius_never_accepts_phi8_d4(fid4, monkeypatch):
    # with every coset guessed to fix tau, the first factor offered is
    # Phi_8 itself, reducible over the overlap field: tau has degree 2
    # over it, so every degree-one prime's residue mod 8 lies in a
    # subgroup of order 2, however many are read
    *_, conj, _gen, _autos, _cosets, reps, _perms = exactify._prepare(fid4,
                                                                      None)
    first = next(exactify._tau_factors(
        conj, 4, [1] * len(reps), exactify._frobenius_proof(conj.e1, 8)))
    assert [c.vec for c in first] == [
        conj.e1.rational(c).vec for c in cyclotomic_polynomial(8)[:-1]]
    monkeypatch.setattr(exactify, "FROBENIUS_PRIMES", 64)
    proves = exactify._frobenius_proof(conj.e1, 8)
    assert proves(2) and not proves(4)


def test_frobenius_skips_primes_dividing_the_order():
    # 7 is a degree-one prime of Q(sqrt 2), but Frobenius at 7 does not act
    # on 7th roots of unity, so it gives no residue; the others generate
    # the whole of (Z/7)^x, over which a 7th root of unity has degree 6
    K = adjoin(FieldTower.rationals(80), [-2, 0, 1], 1.4)
    assert 7 in itertools.islice(numfield.degree_one_primes(K), 3)
    proves = exactify._frobenius_proof(K, 7)
    assert proves(6) and not proves(7)


@pytest.mark.parametrize("fid_name, skipped", [("fid4", 63), ("fid5", 7)])
def test_frobenius_excluded_tau_candidates_never_divide(fid_name, skipped,
                                                        request, monkeypatch):
    # a factor of Phi_d' through tau that divides it over the overlap field
    # holds tau's minimal polynomial, so its H holds every Frobenius
    # residue. So every candidate (H, chi) the residues exclude gives no
    # coefficients or fails to divide: the whole stream, under every
    # action, offers the same factors when it reads the residues as when
    # it reads none, and it lifts fewer candidates
    fid = request.getfixturevalue(fid_name)
    *_, conj, _gen, _autos, _cosets, reps, _perms = exactify._prepare(fid,
                                                                      None)
    m, guess = dprime(fid.d), [M.det() for M in reps]
    real, lifts = exactify._Conjugates.lift, []

    def counted(self, values, precision=None):
        lifts.append(precision)
        return real(self, values, precision)

    def no_residues(k):
        return frozenset({1}) if k == 1 else None

    monkeypatch.setattr(exactify._Conjugates, "lift", counted)
    offered = []
    for proves in (no_residues, exactify._frobenius_proof(conj.e1, m)):
        lifts.clear()
        offered.append(([[c.vec for c in fac] for fac in exactify._tau_factors(
            conj, fid.d, guess, proves)], len(lifts)))
    (old, old_lifts), (new, new_lifts) = offered
    assert new == old and old_lifts - new_lifts == skipped
    # no subgroup of (Z/m)^x has order m, so every residue is read; tau
    # has degree 2 over the overlap field, with conjugate tau^(m-1)
    proves = exactify._frobenius_proof(conj.e1, m)
    assert proves(m) is None and proves(1) == {1, m - 1}


@pytest.mark.parametrize("fid_name, counts, minpolys", [
    ("fid4", {"coefficients": 7, "rows": 8, "tau": 8}, 5),
    ("fid5", {"coefficients": 9, "rows": 8, "tau": 16}, 1)])
def test_recognitions_per_stage(fid_name, counts, minpolys, request,
                                monkeypatch):
    # recognize calls per stage of a seed-11 lift. Interpolating every
    # coset's image, lifting the tau candidates that Frobenius rules out
    # and testing a coefficient's rationality both by recognize and by its
    # minimal polynomial made 11, 12 and 12 at d=4 (35 in all) and 9, 56
    # and 16 at d=5 (81). While the coefficient field is the rationals
    # (d=4), each coefficient's one lattice test is its minimal
    # polynomial: the seed's and four coefficients', the last of which
    # gives the degree-2 field; no coefficient is recognized over Q
    fid = request.getfixturevalue(fid_name)
    stage, got, towers = [None], {}, []
    found, minpoly = exactify.recognize, exactify.minimal_polynomial
    calls = []

    def counted(tower, value, precision=None):
        got[stage[0]] = got.get(stage[0], 0) + 1
        towers.append((stage[0], tower.degree))
        return found(tower, value, precision)

    def counted_minpoly(a, max_degree, precision):
        calls.append(a)
        return minpoly(a, max_degree, precision=precision)

    def staged(name, fn):
        def run(*args):
            stage[0] = name
            try:
                return fn(*args)
            finally:
                stage[0] = None
        return run

    monkeypatch.setattr(exactify, "recognize", counted)
    monkeypatch.setattr(exactify, "minimal_polynomial", counted_minpoly)
    for name, attr in (("coefficients", "lift_coefficients"),
                       ("rows", "_galois_rows"), ("tau", "_extend_with_tau")):
        monkeypatch.setattr(exactify, attr,
                            staged(name, getattr(exactify, attr)))
    method2_exactify(fid)
    assert got == counts and len(calls) == minpolys
    assert all(deg > 1 for name, deg in towers if name == "coefficients")


def test_tau_actions_are_every_homomorphism_into_the_quotient():
    # C2 x C2 into (Z/8)^x, itself C2 x C2: every choice of images of the
    # two generators is a homomorphism, 4 * 4 of them
    cay = _klein_table()
    full = exactify._actions(cay, 8, frozenset({1}))
    assert len(full) == len(set(full)) == 16
    for chi in full:
        assert chi[0] == 1
        assert all(chi[i] * chi[j] % 8 == chi[i ^ j]
                   for i in range(4) for j in range(4))
    # modulo H = {1, 7} the quotient is C2, and each action is listed by
    # its smallest representatives
    assert len(exactify._actions(cay, 8, frozenset({1, 7}))) == 4
    # C3 into (Z/7)^x: only a cube root of 1 respects the products
    assert exactify._actions(_cyclic_table(3), 7, frozenset({1})) == \
        [(1, 1, 1), (1, 2, 4), (1, 4, 2)]
    assert [len(H) for H in exactify._unit_subgroups(8)] == [1, 2, 2, 2, 4]
    assert [len(H) for H in exactify._unit_subgroups(7)] == [1, 2, 3, 6]


@pytest.mark.parametrize("fid_name, count", [("fid4", 6), ("fid5", 4)])
def test_coset_labels_compose_like_the_rows(fid_name, count, request):
    # row j sends t to the root at index j, the conjugate of coset
    # at_root[j]; both routes align the rows by this labelling, and method
    # 2 scores it against the quotient's other isomorphisms, so it is
    # checked here to be one by exact composition of the rows
    fid, cert = (request.getfixturevalue(n)
                 for n in (fid_name, fid_name.replace("fid", "cert")))
    *_, conj, _gen, autos, _cosets, _reps, label = exactify._prepare(fid,
                                                                     None)
    n = len(autos)
    assert label == tuple(conj.at_root[j] for j in range(n))
    assert sorted(label) == list(range(n))
    row_of = {a.images: j for j, a in enumerate(autos)}
    for i, a in enumerate(autos):
        for j, b in enumerate(autos):
            k = row_of[_compose(a, b).images]
            assert label[k] == conj.cay[label[i]][label[j]]
    # method 2's isomorphisms: the quotient's automorphisms after the label
    perms = [tuple(a[c] for c in label)
             for a in _group_automorphisms(conj.cay)]
    assert len(perms) == len(set(perms)) == count == cert.galois.candidates
    assert label in perms


@pytest.mark.parametrize("fid_name, cert_name",
                         [("fid4", "cert4"), ("fid5", "cert5")])
def test_only_the_labelling_regenerates_the_table(fid_name, cert_name,
                                                  request):
    # row j sends t to t_c, c = label[j], and the t_N are distinct, so under
    # any other isomorphism onto the quotient some row meets another
    # conjugate on the generator's orbit: of all of them, only the
    # labelling regenerates the numeric table from the exact overlaps
    fid, cert = (request.getfixturevalue(n) for n in (fid_name, cert_name))
    prec, _struct, table, polys, conj, _gen, autos, cosets, _reps, label = \
        exactify._prepare(fid, None)
    reps = [q.rep for q in polys]
    regenerating = []
    for a in _group_automorphisms(conj.cay):
        f = tuple(a[c] for c in label)
        index_map = exactify._index_map(polys, cosets, f, conj.identity)
        lifted = exactify._lifted_table(autos, reps, cert.rep_overlaps,
                                        index_map)
        if exactify._regenerated(table, lifted, prec):
            regenerating.append(f)
    assert regenerating == [label]


def _compose(a, b):
    """a after b."""
    return automorphism(a.tower, [a(x) for x in b.images])


def test_conjugates_solve_recovers_coordinates_in_q_zeta5():
    # Lagrange's dual rows over the conjugates zeta^a, a in (Z/5)^x, give
    # back the coordinates of x = 3 - t/2 + 5 t^3 / 7 to the working digits
    with mp.workdps(100):
        zeta = mp.expjpi(mp.mpf(2) / 5)
        t_conj = [zeta ** a for a in range(1, 5)]
    e1 = adjoin(FieldTower.rationals(80), cyclotomic_polynomial(5), zeta)
    conj = _conjugates_over_q(e1, t_conj, [1, 2, 3, 4], 5)
    coords = [Fraction(3), Fraction(-1, 2), Fraction(0), Fraction(5, 7)]
    with mp.workdps(100):
        values = [mp.fsum(mp.mpf(c.numerator) / c.denominator * t ** k
                          for k, c in enumerate(coords)) for t in t_conj]
    got = conj.solve(values)
    with mp.workdps(100):
        assert all(abs(x - mp.mpf(c.numerator) / c.denominator)
                   < mp.mpf(10) ** -60 for x, c in zip(got, coords))
    assert conj.lift(values) == e1.element(coords)


def test_trivial_index_quotient_is_refused_before_the_overlap_field(
        fid4, monkeypatch):
    # one coset would make the overlap field the real coefficient field;
    # the lift refuses it before it adjoins anything
    def one_coset(cent, s_pi):
        return [list(cent.elements)], [cent.elements[0]], [[0]]

    def no_extension(*args):
        raise AssertionError("the overlap field was adjoined")

    monkeypatch.setattr(exactify, "_coset_structure", one_coset)
    monkeypatch.setattr(exactify, "_extension_field", no_extension)
    with pytest.raises(LiftError, match="index quotient is trivial"):
        exactify._prepare(fid4, None)


@pytest.mark.parametrize("fid_name, cert_name, generators",
                         [("fid4", "cert4", 2), ("fid5", "cert5", 1)])
def test_galois_rows_lift_the_generators_once(fid_name, cert_name, generators,
                                              request, tmp_path, monkeypatch):
    # only the index quotient's generators are interpolated and recognized,
    # once each: two for the Klein group at d=4, one for the cyclic group
    # of order 8 at d=5. Every other image is composed, and each one is
    # what interpolating its own coset's conjugates gives; the rows come
    # out as the same certificate's rows do after a save and a reload: one
    # rule builds both
    fid, cert = (request.getfixturevalue(n) for n in (fid_name, cert_name))
    real, lifts = exactify._Conjugates.lift, []

    def counted(self, values, precision=None):
        lifts.append(precision)
        return real(self, values, precision)

    monkeypatch.setattr(exactify._Conjugates, "lift", counted)
    *_, conj, _gen, autos, _cosets, _reps, _perms = exactify._prepare(fid,
                                                                     None)
    n, cay = len(conj.cay), conj.cay
    assert len(lifts) == generators and len(autos) == n
    for i, row in enumerate(autos):
        c = conj.at_root[i]
        want = conj.t if c == conj.identity else real(
            conj, [conj.t_conj[cay[N][c]] for N in range(n)])
        assert row.images[-1] == want
    path = tmp_path / "cert"
    cert.save(str(path))
    back = ExactFiducialCertificate.load(str(path))
    assert [a.images for a in back.galois_rows()] == \
        [a.images for a in autos]


def test_composed_image_off_its_conjugate_is_a_lift_error(fid4, monkeypatch):
    # each image must embed at its own coset's conjugate. In the Klein group
    # every coset but the identity has order 2, so the two generators are
    # the first two of them and the last, y, is composed: with its root
    # labelled as the identity's, the lift refuses at y
    real, composed = exactify._Conjugates.__init__, []

    def mislabelled(self, e0, e1, t_conj, cay):
        real(self, e0, e1, t_conj, cay)
        composed.append(max(set(range(len(cay))) - {self.identity}))
        self.at_root = {i: self.identity if c == composed[0] else c
                        for i, c in self.at_root.items()}

    monkeypatch.setattr(exactify._Conjugates, "__init__", mislabelled)
    with pytest.raises(LiftError) as exc:
        exactify._prepare(fid4, None)
    assert str(exc.value) == \
        f"the image of coset {composed[0]} is off its conjugate"


# ---------------------------------------------------------------------------
# shifted-search orbit group for the divisible-by-9 family


def test_typea_orbit_group_matches_matrix_layer():
    # the group the orbits command uses for the family is the matrix layer's
    # h2_group: Abelian, and it holds the symmetry image of F_a
    G = cli._named_group(21, "h2")
    H = h2_group(21)
    assert set(G.elements) == set(H.elements)
    assert symmetry_image(fa_matrix(21)) in G
    els = list(G.elements)
    assert all(a * b == b * a for a in els[:6] for b in els[:6])


# ---------------------------------------------------------------------------
# d = 5 pipeline


def test_structure_d5(fid5):
    st = symmetry_structure(fid5)
    assert st.dp == 5
    assert len(st.s_pi) == 3
    assert len(st.cent) == 24
    assert sorted(len(o) for o in st.orbit_list) == [1, 24]


def test_orbit_polynomials_d5(fid5):
    st = symmetry_structure(fid5)
    table = overlaps(fid5)
    polys = build_orbit_polynomials(table, st.cent)
    by_deg = sorted(p.degree for p in polys)
    assert by_deg == [1, 8]   # identity orbit, and 24/|S| distinct values
    triv = next(p for p in polys if p.degree == 1)
    with mp.workdps(330):
        # identity-orbit overlap is 1, so its polynomial is x - 1
        assert abs(triv.coefficients[0] + 1) < mp.mpf(10) ** -300
        assert abs(triv.values[0] - 1) < mp.mpf(10) ** -300
    big = next(p for p in polys if p.degree == 8)
    assert big.imag_defect < mp.mpf(10) ** -160
    assert big.rep in [tuple(o[0]) for o in
                       (tuple(map(tuple, ob)) for ob in st.orbit_list)]


def test_orbit_coefficient_values_d5(fid5):
    vals = orbit_coefficient_values(overlaps(fid5),
                                    symmetry_structure(fid5).cent)
    assert vals
    assert all(mp.isfinite(v) for v in vals)


def test_certificate_shape_d5(fid5, cert5):
    assert cert5.d == 5 and cert5.method == 2
    assert cert5.tower.degree == 32
    assert len(cert5.all_overlaps()) == 25
    assert cert5.galois.candidates >= 1
    # scoring was decisive by many orders of magnitude
    assert alignment_gap(fid5)[2] > mp.mpf(10) ** 20
    assert cert5.galois.score < 10


def test_e0_contains_sqrt_disc_d5(cert5):
    conj = cert5.conjectures
    assert conj["discriminant_squarefree"] == 3
    assert conj["coefficient_field_contains_sqrt_disc"] is True
    assert conj["nonconforming"] == []
    assert recognize(cert5.e0, mp.mpf(3) ** mp.mpf("0.5")) is not None


def test_verify_exact_d5(report5):
    assert report5["pass"] is True
    assert report5["offending"] is None
    for name in ("conjugation_closed", "lattice_overlaps_are_one",
                 "conjugation_negates_indices", "equiangularity",
                 "tau_is_the_phase", "trace_is_one", "hermitian",
                 "idempotent", "galois_transport", "symmetry_fixes_table",
                 "stabilizer_generates_symmetry", "stabilizer_is_a_group",
                 "stabilizer_shifts"):
        assert report5["checks"][name] is True, name


@pytest.mark.parametrize("d, seed", [(4, 11), (4, 13), (4, 4), (5, 11)])
def test_written_certificates_reload_to_their_bytes(d, seed, request):
    # what the lift writes at 320 digits loads under the one-spelling rule
    # and writes the same bytes again, also with the four legacy keys of
    # older files added, which the loader drops
    if seed == 11:
        cert = request.getfixturevalue(f"cert{d}")
    else:
        cert = method2_exactify(refine(seed_search(d, "fz", attempts=24,
                                                   seed=seed), 320))
    text = cert.to_json()
    assert ExactFiducialCertificate.from_json(text).to_json() == text
    obj = json.loads(text)
    obj["verification"] = {"mode": "exact", "pass": True}
    obj["galois"].update(score="1.4", runner_up="1.0e+32",
                         separation="7.1e+31")
    legacy = ExactFiducialCertificate.from_json(json.dumps(obj))
    assert legacy.to_json() == text


def test_certificate_roundtrip_d5(cert5, report5, tmp_path):
    # the file stores no verdict and no alignment score: a reloaded
    # certificate writes the same bytes, has no scores, and neither
    # verifier changes what it writes
    path = tmp_path / "d5.cert"
    cert5.save(str(path))
    obj = json.loads(path.read_text())
    assert not {"verification", "score", "runner_up", "separation"} & (
        set(obj) | set(obj["galois"]))
    back = ExactFiducialCertificate.load(str(path))
    text = back.to_json()
    assert text == cert5.to_json()
    assert back.galois.score is None
    for verify in (verify_exact, verify_certified):
        assert verify(back)["pass"] is True
        assert back.to_json() == text
    ours = cert5.all_overlaps()
    theirs = back.all_overlaps()
    assert set(ours) == set(theirs)
    for q in ours:
        assert ours[q].coefficients == theirs[q].coefficients


def test_embeddings_match_numeric_table_d5(cert5, fid5):
    table = overlaps(fid5)
    with mp.workdps(330):
        tol = mp.mpf(10) ** -280
        for q, val in cert5.all_overlaps().items():
            assert abs(val.embed() - table.chi(q)) < tol


def test_galois_transport_d5(cert5):
    out = _transported(cert5, 1)
    assert set(out) == set(cert5.all_overlaps())
    G = cert5.galois.matrices[1]
    q = cert5.generator_rep
    target = cert5.all_overlaps()[cert5._norm(G.apply(q))]
    assert (out[q] - target).is_zero()


def test_method_agreement_d5(fid5, cert5):
    cert1 = method1_exactify(fid5)
    assert cert1.method == 1
    assert [lv.minpoly for lv in cert1.tower.levels] == \
           [lv.minpoly for lv in cert5.tower.levels]
    ours = cert5.all_overlaps()
    theirs = cert1.all_overlaps()
    for q in ours:
        assert ours[q].coefficients == theirs[q].coefficients, q
    assert verify_exact(cert1)["pass"] is True


def test_verify_certified_shrinks_d5(cert5):
    r1 = verify_certified(cert5, digits=100)
    r2 = verify_certified(cert5, digits=200)
    assert r1["pass"] is True and r2["pass"] is True
    assert mp.mpf(r2["max_radius"]) < mp.mpf(r1["max_radius"]) * mp.mpf(10) ** -20


def _tampered(cert, bump):
    obj = json.loads(cert.to_json())
    key = sorted(k for k in obj["overlaps"] if k != "0,0")[0]
    val = Fraction(obj["overlaps"][key][0]) + bump
    obj["overlaps"][key][0] = str(val)
    return ExactFiducialCertificate.from_json(json.dumps(obj))


def test_tampered_certificate_fails_exact_d5(cert5):
    bad = _tampered(cert5, Fraction(1, 7))
    rep = verify_exact(bad)
    assert rep["pass"] is False
    assert rep["offending"]


def test_tampered_certificate_fails_certified_d5(cert5):
    bad = _tampered(cert5, Fraction(1, 7))
    rep = verify_certified(bad, digits=80)
    assert rep["pass"] is False
    # a visible perturbation is provably nonzero, not merely unresolved
    assert "provably nonzero" in rep["reason"]


def test_precision_guards_d5(fid5):
    with pytest.raises(PrecisionError):
        method2_exactify(fid5, digits=150)
    with pytest.raises(PrecisionError):
        method2_exactify(fid5, digits=fid5.precision + 100)


# ---------------------------------------------------------------------------
# d = 4 pipeline (even dimension: doubled index modulus, tied scores)


def test_certificate_d4(cert4):
    assert cert4.d == 4
    assert len(cert4.all_overlaps()) == 64
    conj = cert4.conjectures
    assert conj["discriminant_squarefree"] == 5
    assert conj["coefficient_field_contains_sqrt_disc"] is True
    assert conj["nonconforming"] == []


def _conjugation(cert):
    """The conjugation map, given tau^(d'-1) taken by __pow__."""
    return exactify._conjugation_map(cert, cert.tau ** (dprime(cert.d) - 1))


def test_conjugation_map_embeds_two_images_d4(cert4, monkeypatch):
    # the coefficient-field generator is its own image, so its embedding is
    # compared with its own conjugate; only the overlap image and the tau
    # image are embedded
    calls = []
    embed = numfield.AlgebraicNumber.embed

    def counting(self):
        calls.append(self)
        return embed(self)

    monkeypatch.setattr(numfield.AlgebraicNumber, "embed", counting)
    conj = _conjugation(ExactFiducialCertificate.from_json(cert4.to_json()))
    assert len(calls) == 2
    assert conj.images == _conjugation(cert4).images


@pytest.mark.parametrize("level", [0, 1, 2])
def test_conjugation_map_refuses_an_image_off_the_conjugate_d4(cert4, level):
    # a generator embedding moved by (1 + i) 10^-100, far above the
    # tolerance 10^-(prec // 2): off the real axis at level 1, away from
    # its image's conjugate at the overlap and tau levels. The exact check
    # is not reached
    cert = ExactFiducialCertificate.from_json(cert4.to_json())
    lv = cert.tower.levels[level]
    with mp.workdps(guarded(cert.tower.precision)):
        lv.embedding += mp.mpc(1, 1) * mp.mpf(10) ** -100
    with pytest.raises(FieldError, match=(
            f"the level-{level + 1} image does not embed at the conjugate "
            "of its generator")):
        _conjugation(cert)


def test_overlap_field_conjugation_is_a_block_d4(cert4):
    # conjugation sends the overlap field into itself, so the block of the
    # tower's conjugation matrix at the overlap field's slots is the
    # overlap field's own conjugation, built from its generator images
    e1, k = cert4.e1, cert4.e1_levels
    block = _conjugation(cert4).restricted(k)
    neg = tuple(-x % dprime(4) for x in cert4.generator_rep)
    direct = automorphism(e1, [e1.generator(j + 1) for j in range(k - 1)]
                          + [cert4.all_overlaps()[neg]])

    def matrix(aut):
        return [[Fraction(x, aut._den) for x in row] for row in aut._rows]

    assert len(block._rows) == e1.degree == 8
    assert matrix(block) == matrix(direct)
    assert block.images == direct.images


def test_verify_exact_works_at_the_degree_it_needs_d4(cert4, monkeypatch):
    # the overlap identities are taken in the overlap field, and with
    # A = A^+ proven exactly the entries r <= s of A^2 - A decide A^2 = A:
    # 10 of 16 at d=4
    degrees, idempotent = {}, []
    residues = exactify._residues

    def recorded(*args, **kwargs):
        for name, message, residue in residues(*args, **kwargs):
            degrees.setdefault(name, set()).add(residue.tower.degree)
            if name == "idempotent":
                idempotent.append(message)
            yield name, message, residue

    monkeypatch.setattr(exactify, "_residues", recorded)
    assert verify_exact(ExactFiducialCertificate.from_json(
        cert4.to_json()))["pass"] is True
    assert degrees == {"lattice_overlaps_are_one": {8},
                       "conjugation_negates_indices": {8},
                       "equiangularity": {8}, "tau_is_the_phase": {16},
                       "trace_is_one": {16}, "hermitian": {16},
                       "idempotent": {16}}
    assert idempotent == [f"reconstructed operator is not idempotent at "
                          f"{(r, s)}" for r in range(4) for s in range(r, 4)]


def test_verify_exact_d4(cert4):
    rep = verify_exact(cert4)
    assert rep["pass"] is True, rep["offending"]


def test_reload_runs_no_lll_d4(cert4, tmp_path, monkeypatch):
    # a loaded certificate rebuilds its Galois rows from the stored images,
    # so neither verifier may reach lattice reduction
    def no_lll(rows):
        raise AssertionError("lll_reduce called on the load path")

    monkeypatch.setattr(lattice, "lll_reduce", no_lll)
    path = tmp_path / "d4.cert"
    cert4.save(str(path))
    back = ExactFiducialCertificate.load(str(path))
    assert verify_exact(back)["pass"] is True
    assert verify_certified(back, digits=80)["pass"] is True
    assert back.galois_rows() == cert4._rows


def test_checking_never_finds_roots_or_scores_d4(cert4, tmp_path,
                                                monkeypatch):
    # reload and both verifiers reach neither the root finder nor the
    # scoring relations, so changing those cannot move a verify timing
    def refusing(*args, **kwargs):
        raise AssertionError("lift numerics called on the check path")

    path = tmp_path / "d4.cert"
    cert4.save(str(path))
    for mod, name in ((numfield, "_poly_roots"), (exactify, "_poly_roots"),
                      (lattice, "raw_relation"),
                      (exactify, "raw_relation")):
        monkeypatch.setattr(mod, name, refusing)
    back = ExactFiducialCertificate.load(str(path))
    assert verify_exact(back)["pass"] is True
    assert verify_certified(back, digits=120)["pass"] is True


def test_group_past_the_closure_limit_is_not_a_group_d4(cert4, tmp_path,
                                                        monkeypatch):
    # a stabilizer whose closure passes modring.MAX_GENERATED_ORDER is
    # refused as a group, not raised
    path = tmp_path / "d4.cert"
    cert4.save(str(path))
    back = ExactFiducialCertificate.load(str(path))
    monkeypatch.setattr(modring, "MAX_GENERATED_ORDER", 2)
    checks, offending = exactify._group_data_checks(back)
    assert checks["stabilizer_is_a_group"] is False
    assert offending == ("the stabilizer matrices are not a group with "
                         "determinants +-1")


# Field paths of the certificate that no verifier reads, written down from
# the loader and both verifiers (never from which mutations pass): a
# mutation there may leave both verdicts a pass.
_UNREAD = ("method", "conjectures.", "galois.candidates",
           "tower.levels[].root_index")


def _leaves(node, path=""):
    """(field path, container, key) of every leaf in document order. A path
    names keys and writes [] for a list index, and * for a key of the
    overlaps or index_map, which are keyed by index."""
    items = enumerate(node) if isinstance(node, list) else node.items()
    for key, child in items:
        step = "[]" if isinstance(node, list) else \
            "." + ("*" if path in ("overlaps", "index_map") else key)
        sub = (path + step).lstrip(".")
        if isinstance(child, (list, dict)):
            yield from _leaves(child, sub)
        else:
            yield sub, node, key


def _mutated(v):
    """(kind, v changed once by its kind): a bool flipped, an int + 1, a
    rational + 1 in its own spelling, a decimal's leading digit changed,
    any other string with x appended."""
    if isinstance(v, bool):
        return "bool", not v
    if isinstance(v, int):
        return "int", v + 1
    if "." in v:
        i = re.search(r"\d", v).start()
        return "decimal", f"{v[:i]}{(int(v[i]) + 1) % 10}{v[i + 1:]}"
    if re.fullmatch(r"-?\d+(/\d+)?", v):
        x = Fraction(v) + 1
        return "rational", f"{x.numerator}/{x.denominator}" if "/" in v \
            else str(x)
    return "string", v + "x"


def _check_mutation(obj, path, bad):
    """The sweep's oracle on obj, written to bad, with one leaf at the field
    path changed: both verify modes give one exit code, 1 or 2 but where no
    verifier reads the field, and report exits 0 or 2."""
    bad.write_text(json.dumps(obj))
    codes = {cli.main(["verify", "--cert", str(bad), "--mode", mode])
             for mode in ("exact", "certified")}
    allowed = {0, 1, 2} if path.startswith(_UNREAD) else {1, 2}
    assert len(codes) == 1 and codes <= allowed, (path, codes)
    assert cli.main(["report", "--cert", str(bad)]) in (0, 2), path


def test_one_mutation_per_field_path_d4(cert4, tmp_path, capsys):
    # the middle leaf of every field path of the saved file, changed once,
    # meets the sweep's oracle, and nothing gives a traceback
    saved, bad = tmp_path / "d4.cert", tmp_path / "mutated.cert"
    cert4.save(str(saved))
    text = saved.read_text()
    paths = dict.fromkeys(path for path, _n, _k in _leaves(json.loads(text)))
    kinds = set()
    for path in paths:
        obj = json.loads(text)
        leaves = [(n, k) for p, n, k in _leaves(obj) if p == path]
        node, key = leaves[len(leaves) // 2]
        kind, node[key] = _mutated(node[key])
        kinds.add(kind)
        _check_mutation(obj, path, bad)
    assert len(paths) >= 30
    assert kinds == {"bool", "int", "rational", "decimal", "string"}
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.skipif(not os.environ.get("SICLIFT_STRETCH"),
                    reason="stretch run, set SICLIFT_STRETCH=1")
def test_every_leaf_mutated_d4(cert4, tmp_path, capsys):
    # the full sweep: every leaf of the saved file, changed once by its
    # kind, meets the oracle of the Tier-1 subset above
    saved, bad = tmp_path / "d4.cert", tmp_path / "mutated.cert"
    cert4.save(str(saved))
    text = saved.read_text()
    count = sum(1 for _leaf in _leaves(json.loads(text)))
    kinds = set()
    for i in range(count):
        obj = json.loads(text)
        path, node, key = next(itertools.islice(_leaves(obj), i, None))
        kind, node[key] = _mutated(node[key])
        kinds.add(kind)
        _check_mutation(obj, path, bad)
    assert count >= 400
    assert kinds == {"bool", "int", "rational", "decimal", "string"}
    assert "Traceback" not in capsys.readouterr().err


CERTIFIED_KEYS = {"mode", "digits", "pass", "max_radius", "max_center",
                  "residues", "group_checks", "reason", "note"}


def test_verify_certified_rejects_unit_tamper_d4(cert4):
    # one nonzero overlap coefficient bumped by +1, chosen as the
    # benchmark's reverify workload chooses it for this seed
    obj = json.loads(cert4.to_json())
    nonzero = [(rep, k) for rep, coeffs in obj["overlaps"].items()
               for k, c in enumerate(coeffs) if Fraction(c) != 0]
    rep, k = random.Random(11).choice(nonzero)
    obj["overlaps"][rep][k] = str(Fraction(obj["overlaps"][rep][k]) + 1)
    bad = ExactFiducialCertificate.from_json(json.dumps(obj))
    good = ExactFiducialCertificate.from_json(cert4.to_json())
    assert verify_exact(good)["pass"] is True
    assert verify_exact(bad)["pass"] is False
    for cert, ok in ((good, True), (bad, False)):
        rep = verify_certified(cert, digits=120)
        assert set(rep) == CERTIFIED_KEYS
        assert rep["residues"] == 162
        assert rep["pass"] is ok
    assert "provably nonzero" in rep["reason"]


@pytest.mark.parametrize("digits", [80, 200])
def test_generator_balls_hold_the_embedding_d4(cert4, digits):
    # the stored embeddings are good to the tower's 320 digits, far below
    # every generator ball's radius
    w = math.ceil((digits + 25) * math.log2(10))
    with mp.workprec(w + 64):
        for lvl, b in zip(cert4.tower.levels,
                          exactify._generator_balls(cert4.tower, w)):
            z = mp.mpc(lvl.embedding)
            off = abs(mp.mpc(b.re - mp.ldexp(z.real, w),
                             b.im - mp.ldexp(z.imag, w)))
            assert off <= b.r < mp.ldexp(1, w - digits * 3)


def test_alignment_degeneracy_is_recorded_d4(cert4):
    # method 2 scores the labelling against several isomorphisms, and the
    # certificate keeps the labelling's score and how many were scored
    assert cert4.galois.candidates >= 2
    assert cert4.galois.score < 10


def test_method1_agrees_d4(fid4, cert4):
    cert1 = method1_exactify(fid4)
    ours = cert4.all_overlaps()
    theirs = cert1.all_overlaps()
    for q in ours:
        assert ours[q].coefficients == theirs[q].coefficients, q


def test_centralizer_is_every_commuting_matrix_d4(fid4):
    # the centralizer of the symmetry image, filtered in one pass, is what a
    # sweep of all of GL(2, Z/8) keeps
    st = symmetry_structure(fid4)
    brute = [M for M in gl2_group(8)
             if all(M * F == F * M for F in st.s_pi)]
    assert st.cent.elements == tuple(brute)
    assert len(st.cent) == 48


def test_method1_recognizes_one_value_per_orbit_d4(fid4, monkeypatch):
    # each orbit's other values are Galois images of its representative's,
    # so only the representative is recognized in the overlap field
    towers = []
    recognize_ = exactify.recognize

    def counted(tower, value, precision=None):
        towers.append(tower)
        return recognize_(tower, value, precision=precision)

    monkeypatch.setattr(exactify, "recognize", counted)
    cert = method1_exactify(fid4)
    polys = build_orbit_polynomials(overlaps(fid4),
                                    symmetry_structure(fid4).cent)
    nontrivial = [q for q in polys if q.degree > 1]
    in_e1 = [t for t in towers if len(t.levels) == cert.e1_levels]
    assert cert.e1_levels > cert.e0_levels
    assert len(in_e1) == len(nontrivial) == 1


def test_alignment_runs_no_lll_d4(fid4, monkeypatch):
    # method 1 checks values it has already recognized, and method 2 lifts
    # the labelling from the relations that scored it: the one alignment
    # check, run once per route, reduces no lattice
    calls, active = [], []
    reduce = lattice.lll_reduce

    def watch(name):
        real = getattr(exactify, name)

        def watched(*args):
            calls.append(name)
            active.append(1)
            try:
                return real(*args)
            finally:
                active.pop()

        monkeypatch.setattr(exactify, name, watched)

    def refusing(rows, **kw):
        assert not active, "LLL ran while the alignment was being checked"
        return reduce(rows, **kw)

    for name in ("_relation_lift", "_index_map", "_lifted_table",
                 "_regenerated"):
        watch(name)
    monkeypatch.setattr(lattice, "lll_reduce", refusing)
    check = ["_index_map", "_lifted_table", "_regenerated"]
    method1_exactify(fid4)
    assert calls == check
    del calls[:]
    method2_exactify(fid4)
    assert calls == ["_relation_lift"] + check


DIGEST_D4_METHOD1 = \
    "487f3a25931eeb4140100f40855c657ecfe8ba3ca5839ffc303d415d6d3bffb8"


def test_alignment_is_chosen_by_regeneration_d4(fid4, monkeypatch):
    # both routes check the one labelling: a check that accepts everything
    # leaves both certificates as they are, and one that rejects everything
    # leaves no alignment
    monkeypatch.setattr(exactify, "_regenerated", lambda *a: True)
    assert content_digest(method1_exactify(fid4)) == DIGEST_D4_METHOD1
    assert content_digest(method2_exactify(fid4)) == DIGEST_D4
    monkeypatch.setattr(exactify, "_regenerated", lambda *a: False)
    with pytest.raises(LiftError, match="do not regenerate"):
        method1_exactify(fid4)
    with pytest.raises(PrecisionError):
        method2_exactify(fid4)


@pytest.fixture
def reductions(monkeypatch):
    """The values method 2 hands to raw_relation, one per reduction."""
    seen = []
    raw = exactify.raw_relation

    def counted(xs, precision, bound=None):
        seen.append(xs[0])
        return raw(xs, precision=precision, bound=bound)

    monkeypatch.setattr(exactify, "raw_relation", counted)
    return seen


def test_alignment_score_is_decisive_d4(fid4, reductions, caplog):
    # most bijections predict a non-real component, which cannot lie in the
    # real coefficient field and scores +inf unreduced; of the rest only the
    # true one has short relations, so the score alone picks the winner
    with caplog.at_level(logging.WARNING, logger="siclift.exactify"):
        _score, _runner_up, separation = alignment_gap(fid4)
    assert separation > mp.mpf(10) ** 20
    assert "not decisive" not in caplog.text
    assert len(reductions) <= 8


def test_scoring_stops_at_its_verdict_d4(fid4, monkeypatch):
    # scoring feeds each lattice only until its relation is accepted or its
    # norm reaches the attempt floor: the winner and every accepted relation
    # are what full feeding gives, the runner-up is a lower bound at or
    # above the floor, and scoring reduces far fewer rungs
    calls, rungs, active = [], [0], []
    raw, integral = exactify.raw_relation, lattice._lll_integral

    def recorded(xs, precision, bound=None):
        active.append(1)
        try:
            rel = raw(xs, precision=precision, bound=bound)
        finally:
            active.pop()
        calls.append((xs, precision, bound, rel))
        return rel

    def counted(rows):
        rungs[0] += bool(active)
        return integral(rows)

    monkeypatch.setattr(exactify, "raw_relation", recorded)
    monkeypatch.setattr(lattice, "_lll_integral", counted)
    score, runner_up, _ = alignment_gap(fid4)
    monkeypatch.undo()
    floor = mp.mpf(10) ** (fid4.precision / 10)
    assert mp.almosteq(score, mp.sqrt(2))
    assert runner_up >= floor
    assert rungs[0] <= 30
    accepted = [c for c in calls if c[3].accepted]
    assert accepted and all(bound == floor for _, _, bound, _ in calls)
    for xs, precision, _, rel in accepted:
        assert lattice.raw_relation(xs, precision=precision) == rel
    for *_, rel in calls:
        assert rel.accepted or lattice.relation_norm(rel) >= floor


def test_non_real_component_scores_inf(monkeypatch):
    def refusing(rows, **kw):
        raise AssertionError("a lattice was reduced for a non-real component")

    monkeypatch.setattr(lattice, "lll_reduce", refusing)
    with mp.workdps(120):
        basis = [mp.mpf(1), mp.sqrt(5)]
        phi = (1 + mp.sqrt(5)) / 2
        off = mp.mpc(mp.mpf(1) / 3, mp.mpf(1) / 7)
    for comps in ([off], [phi, off]):
        assert exactify._relation_score(comps, basis, 100, {}) \
            == (mp.inf, None)


def test_equal_relation_lattices_reduce_once(reductions):
    # values that round to the same scaled lattice share one reduction
    with mp.workdps(120):
        basis = [mp.mpf(1), mp.sqrt(5)]
        phi = (1 + mp.sqrt(5)) / 2
        comps = [phi, phi + mp.mpf(10) ** -110, mp.sqrt(5)]
    reduced = {}
    norm, rels = exactify._relation_score(comps, basis, 100, reduced)
    assert len(reductions) == 2 and rels[0] is rels[1]
    assert rels[0].coefficients == (2, 1, 1) and norm < 3
    assert exactify._relation_score([phi], basis, 100, reduced)[1] == \
        [rels[0]]
    assert len(reductions) == 2


def test_lift_scores_the_labelling_alone_d4(fid4, monkeypatch):
    # one relation score per nontrivial orbit, on the components the coset
    # labelling predicts (coset c's conjugate is the overlap at reps[c]);
    # the quotient's other isomorphisms are alignment_gap's, and the
    # certificate still counts them all
    calls = []
    score = exactify._relation_score

    def recorded(comps, basis, prec, reduced):
        calls.append(comps)
        return score(comps, basis, prec, reduced)

    monkeypatch.setattr(exactify, "_relation_score", recorded)
    cert = method2_exactify(fid4)
    monkeypatch.undo()
    _, _, table, polys, conj, *_, reps, _ = exactify._prepare(fid4, None)
    assert calls == [conj.solve([table.chi(M.apply(q.rep)) for M in reps])
                     for q in polys if q.degree >= 2]
    assert cert.galois.candidates == len(_group_automorphisms(conj.cay)) == 6


def test_perturbed_fiducial_is_a_precision_error_d4(fid4):
    # one entry moved by 10^-200 leaves a SIC to about 200 digits that
    # claims 320, where recognition could accept a spurious relation and
    # end in FieldError; both methods refuse it first by its error, naming
    # the digits that error supports
    rng = random.Random(5)
    for _ in range(3):
        i = rng.randrange(fid4.d)
        with mp.workdps(guarded(320)):
            vec = list(fid4.vector)
            vec[i] += mp.mpf(10) ** -200 * mp.expjpi(2 * mp.mpf(rng.random()))
        bad = Fiducial.create(fid4.d, vec, 320, symmetry=fid4.symmetry,
                              seed=fid4.seed)
        for lift in (method1_exactify, method2_exactify):
            with pytest.raises(PrecisionError,
                               match=r"320 digits .* supports only 2\d\d$"):
                lift(bad)


def test_spurious_relation_is_a_precision_error_d4(fid4, monkeypatch):
    # a minimal polynomial recognized from digits that do not hold it can
    # be reducible: adjoin's FieldError leaves the lift as PrecisionError
    # with its message
    found = exactify.minimal_polynomial

    def spurious(a, max_degree, precision):
        c = found(a, max_degree, precision=precision).coeffs
        # times x^2 - 2
        return lattice.IntPolynomial(tuple(
            (c[k - 2] if k >= 2 else 0) - 2 * (c[k] if k < len(c) else 0)
            for k in range(len(c) + 2)))

    monkeypatch.setattr(exactify, "minimal_polynomial", spurious)
    for lift in (method1_exactify, method2_exactify):
        with pytest.raises(PrecisionError, match="reducible") as exc:
            lift(fid4)
        assert isinstance(exc.value.__cause__, FieldError)


def test_lift_reuses_table_and_roots_d4(fid4, monkeypatch):
    # the stabilizer scan and the lift read the overlap table the fiducial
    # kept from creation, and a new level's roots serve its automorphisms:
    # no full-precision table is computed again and no polynomial is solved
    # twice
    table_dps, solved = [], []
    sums, roots = heisenberg._overlap_sums, numfield._poly_roots

    def counted_sums(psi, d, taus, m):
        table_dps.append(mp.mp.dps)
        return sums(psi, d, taus, m)

    def counted_roots(values, prec):
        solved.append((tuple(values), prec))
        return roots(values, prec)

    monkeypatch.setattr(heisenberg, "_overlap_sums", counted_sums)
    monkeypatch.setattr(numfield, "_poly_roots", counted_roots)
    monkeypatch.setattr(exactify, "_poly_roots", counted_roots)
    method2_exactify(fid4)
    assert guarded(fid4.precision) not in table_dps
    assert solved and len(set(solved)) == len(solved)


def _verdicts(path, capsys):
    """(exit code, failure message) of verify in exact and certified mode."""
    out = []
    for mode in ("exact", "certified"):
        code = cli.main(["verify", "--cert", str(path), "--mode", mode])
        report = json.loads(capsys.readouterr().out)
        out.append((code, report.get("offending") or report.get("reason")))
    return out


def test_empty_stabilizer_is_no_group_d4(cert4, tmp_path, capsys):
    # with no stored matrix at all, the generated group still holds the
    # identity, so the empty list is not a group
    obj = json.loads(cert4.to_json())
    obj["stabilizer"], obj["s_matrices"] = [], []
    bad = tmp_path / "empty.cert"
    bad.write_text(json.dumps(obj))
    assert _verdicts(bad, capsys) == [
        (1, "the stabilizer matrices are not a group with determinants "
            "+-1")] * 2


def test_conjugated_stabilizer_names_its_first_mover_d4(cert4, tmp_path,
                                                       capsys):
    # every stabilizer matrix conjugated by the shear M, written sorted as
    # the writer writes it, with its images as the symmetry matrices: a
    # group with determinants +-1 that generates them, so only the table
    # check fails, and the message names the first image in stored order
    # that moves the table
    obj = json.loads(cert4.to_json())
    M = ModMatrix(1, 1, 0, 1, 8)
    assert all(p == [0, 0] for p, _F in obj["stabilizer"])
    mats = sorted(M * ModMatrix(*F, 8) * M.inv()
                  for _p, F in obj["stabilizer"])
    obj["stabilizer"] = [[[0, 0], list(F.entries)] for F in mats]
    obj["s_matrices"] = [list(G.entries)
                         for G in sorted(map(symmetry_image, mats))]
    bad = tmp_path / "conjugated.cert"
    bad.write_text(json.dumps(obj))
    assert _verdicts(bad, capsys) == [
        (1, "symmetry matrix [[7,5],[1,4]] mod 8 does not fix the "
            "overlaps")] * 2


# Exit code and SHA-256 of the standard output of each command on the
# seed-11 files at 320 digits, taken before the checkers did their
# per-index work once per distinct value and their group checks on
# generators: that change moves no byte of any verdict or report.
_OUTPUTS = {
    ("d4", "verify --mode exact"): (0, "d423bc03bb3a983eaebcbe6bd3ae7a99"
                                       "19772f9fc91554cfe5f287bc907c8eb3"),
    ("d4", "verify --mode certified --digits 120"): (
        0, "2f66bd750bb099b712b90d380c736c7d5f9e08851a14c0774331bb3111aca889"),
    ("d4", "report"): (0, "2cbd04c233c5925181356de7093da57c"
                          "5675e6643f68d2768ab3d6cb861610ee"),
    ("d4_tampered", "verify --mode exact"): (
        1, "6186fa35eeceab756589664f4ed9b853d9a41e19f8a13f6efbe4d1394e6a39d5"),
    ("d4_tampered", "verify --mode certified --digits 120"): (
        1, "071da85241976b830a9d1d1882b9dc07df857ef5b49bbdb9fd4d4fe57921e23f"),
    ("d4_tampered", "report"): (0, "2cbd04c233c5925181356de7093da57c"
                                   "5675e6643f68d2768ab3d6cb861610ee"),
    ("d5", "verify --mode exact"): (0, "d423bc03bb3a983eaebcbe6bd3ae7a99"
                                       "19772f9fc91554cfe5f287bc907c8eb3"),
    ("d5", "verify --mode certified --digits 120"): (
        0, "fb3921955b97893b1089c40fb2e8ca8c72297763763b9ae10341af8741acdb12"),
    ("d5", "report"): (0, "a906d568807ddf0a09b76fcf246fe618"
                          "5fe2900747ac8bc06ebd83f10082aff9"),
}


def test_verify_and_report_output_is_pinned(cert4, cert5, tmp_path, capsys):
    # the saved files, and the d=4 one with one nonzero overlap coefficient
    # bumped by +1, chosen as the benchmark's reverify workload chooses it
    files = {name: tmp_path / f"{name}.cert"
             for name in ("d4", "d4_tampered", "d5")}
    cert4.save(str(files["d4"]))
    cert5.save(str(files["d5"]))
    obj = json.loads(cert4.to_json())
    nonzero = [(rep, k) for rep, coeffs in obj["overlaps"].items()
               for k, c in enumerate(coeffs) if Fraction(c) != 0]
    rep, k = random.Random(11).choice(nonzero)
    obj["overlaps"][rep][k] = str(Fraction(obj["overlaps"][rep][k]) + 1)
    files["d4_tampered"].write_text(json.dumps(obj))
    got = {}
    for name, command in _OUTPUTS:
        verb, *flags = command.split()
        code = cli.main([verb, "--cert", str(files[name]), *flags])
        got[name, command] = (code, hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest())
    assert got == _OUTPUTS


@pytest.mark.parametrize("cert_name, distinct", [("cert4", 6), ("cert5", 9)])
def test_checkers_work_once_per_distinct_value(cert_name, distinct, request,
                                               monkeypatch):
    # verify_certified encloses each distinct table value once, and tau;
    # verify_exact conjugates each distinct value once in the conjugation
    # residues. The enclosures of the generator balls are not counted
    cert = ExactFiducialCertificate.from_json(
        request.getfixturevalue(cert_name).to_json())
    table = cert.all_overlaps()
    values = set(table.values())
    assert len(table) > len(values) == distinct
    ball_of, generator_balls = exactify._ball_of, exactify._generator_balls
    enclosed, inside = [], []

    def counted_ball_of(tower, vec, *args):
        if not inside:
            enclosed.append(vec)
        return ball_of(tower, vec, *args)

    def counted_generator_balls(*args):
        inside.append(True)
        try:
            return generator_balls(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(exactify, "_ball_of", counted_ball_of)
    monkeypatch.setattr(exactify, "_generator_balls", counted_generator_balls)
    assert verify_certified(cert, digits=120)["pass"] is True
    assert sorted(enclosed) == sorted([x.vec for x in values] + [cert.tau.vec])

    residues, conjugated = exactify._residues, []

    def counted_residues(chi, d, one, conj, *rest, **kwargs):
        def counted(x):
            conjugated.append(x)
            return conj(x)
        return residues(chi, d, one, counted, *rest, **kwargs)

    monkeypatch.setattr(exactify, "_residues", counted_residues)
    assert verify_exact(cert)["pass"] is True
    assert len(conjugated) == distinct and set(conjugated) == values


DIGEST_D4 = "7b73fb421b06b76a234c21685011238d0d8cca837654f95ab84f0d686b87ca44"
DIGEST_D5 = "1c49555c8b4ac42a7c3304e047be70eaeb0f9000fa7d8c57634d5717b668e299"


def test_certificate_content_is_pinned(cert4, cert5):
    # seed 11 at 320 digits; a change to the exact arithmetic or the lift
    # that alters one coordinate, tag or level shows here
    assert content_digest(cert4) == DIGEST_D4
    assert content_digest(cert5) == DIGEST_D5


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_digest_recipe_and_pin_match(cert4):
    # the benchmark checks its lifts by its own digest recipe against its
    # own pins; a drift from this file's recipe or pin fails here, not
    # first in a benchmark run
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", _PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    reference = json.loads((_PERFBENCH / "reference.json").read_text())
    assert workloads.digest(cert4) == content_digest(cert4)
    assert reference["digests"]["lift-d4-320"]["11"] == DIGEST_D4


def test_method2_recognizes_nothing_above_the_coefficient_field(
        fid4, fid5, monkeypatch):
    # Galois rows and tau's factor are interpolated from conjugates and
    # recognized over the coefficient field, a one-level tower here; no
    # value is recognized in the overlap field or above it
    real = numfield.recognize

    def e0_only(tower, value, precision=None):
        assert len(tower.levels) <= 1, "recognition above the coefficient field"
        return real(tower, value, precision=precision)

    monkeypatch.setattr(numfield, "recognize", e0_only)
    monkeypatch.setattr(exactify, "recognize", e0_only)
    assert content_digest(method2_exactify(fid4)) == DIGEST_D4
    assert content_digest(method2_exactify(fid5)) == DIGEST_D5


_LIFT_IN_FRESH_INTERPRETER = """
import sys
sys.path.insert(0, sys.argv[1])
import siclift as sl
fid = sl.refine(sl.seed_search(4, "fz", attempts=24, seed=11), 320)
assert sl.verify_exact(sl.method2_exactify(fid))["pass"]
print(sorted(m for m in sys.modules if m.split(".")[0] == "sympy"))
"""


def test_lift_loads_no_sympy():
    # the field certificates factor with the standard library alone
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        exactify.__file__)))
    out = subprocess.run([sys.executable, "-c", _LIFT_IN_FRESH_INTERPRETER,
                          src], capture_output=True, text=True, check=True,
                         timeout=300)
    assert out.stdout.strip() == "[]"


def test_end_to_end_d6(tmp_path):
    # d = 0 mod 3: the strongly-centring search, method 2's only route and a
    # degree-48 tower (relative degrees 2, 12, 2); the digest is the one the
    # overlap-field recognition of the Galois rows and of tau's factor gave
    fid = refine(seed_search(6, "fz", attempts=24, seed=11), 400)
    cert = method2_exactify(fid)
    assert cert.tower.degree == 48
    assert content_digest(cert) == \
        "72ddb199ec1374960ab4f8b8564d18b762c5e1c10ada6859b32e29189e510fba"
    assert verify_exact(cert)["pass"] is True
    assert verify_certified(cert, digits=120)["pass"] is True
    bad = tmp_path / "d6.cert"
    _tampered(cert, Fraction(1, 7)).save(str(bad))
    for mode in ("exact", "certified"):
        assert cli.main(["verify", "--cert", str(bad), "--mode", mode]) == 1


# ---------------------------------------------------------------------------
# scope guards


def test_method1_rejects_dimension_multiple_of_three():
    class _Stub:
        d = 6
    with pytest.raises(LiftError):
        method1_exactify(_Stub())
