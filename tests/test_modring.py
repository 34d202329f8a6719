import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from siclift import modring as mr
from siclift.modring import MatGroup, ModMatrix


def test_dprime():
    assert mr.dprime(5) == 5
    assert mr.dprime(4) == 8
    assert mr.dprime(21) == 21
    with pytest.raises(ValueError):
        mr.dprime(3)


def test_zauner_small():
    assert mr.zauner_matrix(5).entries == (0, 4, 1, 4)
    assert mr.zauner_matrix(4).entries == (0, 3, 5, 3)
    assert (mr.zauner_matrix(5) ** 3).is_identity()


@pytest.mark.parametrize("d", range(4, 51))
def test_zauner_properties(d):
    dp = mr.dprime(d)
    F = mr.zauner_matrix(d)
    assert F.det() == 1
    assert F.trace() % d == d - 1
    assert min(k for k in range(1, 7) if (F ** k).is_identity()) \
        == (3 if d % 2 else 6)
    assert (F ** 3).is_identity() or d % 2 == 0


def test_matrix_arithmetic():
    A = ModMatrix(1, 2, 3, 4, 7)
    assert (A * A.inv()).is_identity()
    assert (A ** 0).is_identity()
    assert A ** -2 == (A.inv()) * (A.inv())
    assert (A + (-A)).entries == (0, 0, 0, 0)
    B = ModMatrix(2, 0, 0, 2, 7)
    assert A.scale(2) == B * A


def test_fa_matrix_examples():
    assert mr.fa_matrix(21).entries == (1, 3, 6, 19)
    assert mr.fa_matrix(21).trace() == 20
    assert mr.fa_matrix(12).entries == (1, 15, 15, 10)
    assert mr.fa_matrix(12).det() == 1
    with pytest.raises(ValueError):
        mr.fa_matrix(20)


@pytest.mark.parametrize("d", [12, 21, 30, 39, 48])
def test_fa_matrix_family(d):
    F = mr.fa_matrix(d)
    assert F.det() == 1
    assert F.trace() % d == d - 1
    first, second = mr.chi_iso(F, d)
    assert first == mr.fa_bar_matrix(d)
    assert second.is_identity()


def test_chi_iso_d21():
    Fa = mr.fa_matrix(21)
    A, B = mr.chi_iso(Fa, 21)
    assert A.entries == (1, 2, 2, 5) and A.m == 7
    assert B.is_identity()
    I = ModMatrix.identity(21)
    A, B = mr.chi_iso(I, 21)
    assert A.is_identity() and B.is_identity()
    cFa = mr.chi_iso(Fa, 21)
    assert mr.chi_iso(Fa * Fa, 21) == (cFa[0] * cFa[0], cFa[1] * cFa[1])


def _random_invertible(rng, m):
    while True:
        M = ModMatrix(rng.randrange(m), rng.randrange(m),
                      rng.randrange(m), rng.randrange(m), m)
        if M.is_invertible():
            return M


@pytest.mark.parametrize("d", [12, 21])
def test_chi_homomorphism_random(d):
    rng = random.Random(7 * d)
    m = mr.dprime(d)
    for _ in range(1000):
        A = _random_invertible(rng, m)
        B = _random_invertible(rng, m)
        cA, cB = mr.chi_iso(A, d), mr.chi_iso(B, d)
        cAB = mr.chi_iso(A * B, d)
        assert cAB == (cA[0] * cB[0], cA[1] * cB[1])
        assert mr.chi_inv(cA, d) == A


def test_h2_group_d21():
    # H_2 = ((2n+1)/3) F_a + ((4n-1)/3) I with n = 7 satisfies I + 3 H_2 = F_a
    Fa = mr.fa_matrix(21)
    one = ModMatrix.identity(21)
    H2 = Fa.scale(5) + one.scale(9)
    assert H2.entries == (14, 15, 9, 20)
    assert one + H2.scale(3) == Fa
    # both spans define the same set, the orbit group of the family
    G = mr.h2_group(21)
    assert mr.span_group(H2) == G == mr.span_group(Fa)
    assert G.is_abelian()
    # a group: the identity, inverses and products stay inside
    assert one in G
    assert all(x.inv() in G and all(x * y in G for y in G) for x in G)


def test_h2_group_rejects_other_dimensions():
    with pytest.raises(ValueError):
        mr.h2_group(5)


def test_maximal_abelian_subgroups_d21():
    H4, H6, H8 = mr.maximal_abelian_subgroups(21)
    C = mr.centralizer(mr.fa_bar_matrix(21))
    assert (len(H4), len(H6), len(H8)) == (4 * len(C), 6 * len(C), 8 * len(C))
    hb = mr.hbar_groups()
    assert tuple(len(hb[j]) for j in (4, 6, 8)) == (4, 6, 8)
    Fa = mr.fa_matrix(21)
    h2g = mr.h2_group(21)
    for H in (H4, H6, H8):
        assert Fa in H
        assert H.is_abelian()
        assert h2g < H
    assert H4 != H6 and H6 != H8 and H4 != H8
    inter = MatGroup(set(H4) & set(H6) & set(H8))
    assert h2g <= inter


def test_centralizer_identity_is_gl():
    C = mr.centralizer(ModMatrix.identity(5))
    assert len(C) == len(mr.gl2_group(5))  # |GL(2,5)| = 480


def test_centralizer_zauner():
    C5 = mr.centralizer(mr.zauner_matrix(5))
    assert len(C5) == 24
    assert C5 == mr.span_group(mr.zauner_matrix(5))
    C8 = mr.centralizer(mr.zauner_matrix(4))
    assert C8.is_abelian()
    assert mr.span_group(mr.zauner_matrix(4)) == C8


def _brute_centralizer(F):
    # every invertible G with all four entries of GF - FG zero mod m
    m = F.m
    fa, fb, fc, fd = F.entries
    return {(a, b, c, d)
            for a in range(m) for b in range(m)
            for c in range(m) for d in range(m)
            if (b * fc - fb * c) % m == 0
            and (a * fb + b * fd - fa * b - fb * d) % m == 0
            and (c * fa + d * fc - fc * a - fd * c) % m == 0
            and (c * fb - fc * b) % m == 0
            and gcd(a * d - b * c, m) == 1}


@pytest.mark.parametrize("F", [
    *(mr.symmetry_image(mr.zauner_matrix(d)) for d in (4, 5, 6, 7, 15)),
    mr.fa_matrix(12), mr.fa_matrix(21), mr.fa_bar_matrix(21),
    ModMatrix.identity(5), ModMatrix(1, 2, 2, 3, 8), ModMatrix(1, 0, 1, 1, 8),
], ids=repr)
def test_centralizer_is_the_brute_force_sweep(F):
    # the moduli the pipeline tests reach (d' = 5, 7, 8, 12, 15, 21, 24),
    # and off-diagonal entries that are units, non-units and zero
    C = mr.centralizer(F)
    assert {M.entries for M in C} == _brute_centralizer(F)


def test_symmetry_image():
    F = mr.zauner_matrix(5)
    assert mr.symmetry_image(F) == F
    J = ModMatrix(1, 0, 0, -1, 8)
    assert mr.symmetry_image(J) == -J
    with pytest.raises(ValueError):
        mr.symmetry_image(ModMatrix(2, 0, 0, 1, 5))


def test_orbits_examples():
    trivial = MatGroup([ModMatrix.identity(4)])
    assert len(mr.orbits(trivial)) == 16
    parts = mr.orbits(mr.gl2_group(5))
    assert sorted(len(o) for o in parts) == [1, 24]
    parts = mr.orbits(mr.centralizer(mr.zauner_matrix(5)))
    assert sum(len(o) for o in parts) == 25


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 12), st.data())
def test_orbits_partition_property(d, data):
    m = mr.dprime(d)
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    gens = [_random_invertible(rng, m) for _ in range(2)]
    G = MatGroup.generated(gens)
    parts = mr.orbits(G)
    seen = set()
    for orbit in parts:
        assert orbit == sorted(orbit)
        for p in orbit:
            assert p not in seen
            seen.add(p)
        # closed under the action of every generator
        s = set(orbit)
        for g in gens:
            assert {g.apply(p) for p in orbit} == s
    assert len(seen) == m * m


def test_matgroup_cosets():
    G = mr.centralizer(mr.zauner_matrix(5))
    S = MatGroup.generated([mr.zauner_matrix(5)])
    cosets = G.cosets(S)
    assert len(cosets) == 8
    assert all(len(c) == 3 for c in cosets)
    flat = {x for c in cosets for x in c}
    assert len(flat) == 24


def test_greedy_generators():
    # an element joins only when the ones before it do not generate it,
    # and the returned group is what they generate; none gives the
    # identity alone
    F = mr.zauner_matrix(4)
    J = ModMatrix(1, 0, 0, 7, 8)
    gens, span = mr.greedy_generators([F ** 2, F, F ** 3, J, F * J], 8)
    assert gens == [F ** 2, F, J]
    assert span == MatGroup.generated([F, J])
    assert mr.greedy_generators([], 8) == ([], MatGroup([ModMatrix.identity(8)]))
    G = mr.centralizer(mr.zauner_matrix(5))
    gens, span = mr.greedy_generators(G.elements, 5)
    assert span == G and len(gens) < len(G)
