import hashlib
import random

import mpmath as mp
import pytest

from dense_oracle import (adjoint, apply, conj, identity, maxdiff, outer,
                          product)
from siclift import heisenberg as hb
from siclift.bignum import guarded
from siclift.fidsearch import Fiducial, displace
from siclift.lattice import integer_relation
from siclift.modring import (ModMatrix, dprime, esl2_elements, fa_matrix,
                             zauner_matrix)

PREC = 60
TOL = mp.mpf(10) ** -50


def rand_unit_vector(d, seed, prec=PREC):
    rng = random.Random(seed)
    with mp.workdps(guarded(prec)):
        v = [mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d)]
        n = mp.sqrt(mp.fsum(abs(x) ** 2 for x in v))
        return tuple(x / n for x in v)


def scaled(c, v):
    with mp.workdps(guarded(PREC)):
        return tuple(c * x for x in v)




def sample_units(dp, count, seed, det):
    rng = random.Random(seed)
    pool = [M for M in esl2_elements(dp) if M.det() == det % dp]
    return rng.sample(pool, count)


# Brute-force oracles: displacements and the Clifford action by explicit
# matrices, overlaps of a general operator, and the transport of an overlap
# table. The package itself applies displacements as index formulas and
# works on overlap tables only.


def disp_matrix(p, d, prec):
    """D_p as a dense matrix, p taken mod d'."""
    dp = dprime(d)
    p1, p2 = p[0] % dp, p[1] % dp
    taus = hb.tau_powers(d, prec)
    rows = [[mp.mpc(0)] * d for _ in range(d)]
    for s in range(d):
        rows[(s + p1) % d][s] = taus[(p1 * p2 + 2 * p2 * s) % (2 * d)]
    return tuple(map(tuple, rows))


def displaced(v, p):
    """D_p v through displace, which normalizes its result."""
    return displace(Fiducial(len(v), v, PREC), p).vector


def transported(T, F):
    """Overlaps of V Pi V^{-1} for V the (anti)unitary attached to F:
    chi'_q = chi_{F^{-1} q} for det +1, conj(chi_{F^{-1} q}) for det -1."""
    anti = F.det() == F.m - 1
    Finv = F.inv()
    with mp.workdps(guarded(T.precision)):
        return {q: mp.conj(T.values[Finv.apply(q)]) if anti
                else T.values[Finv.apply(q)] for q in T.values}


def reconstruct(T):
    """A = (1/d) sum_{p in (Z/d)^2} chi_{-p} D_p through operator_rows."""
    with mp.workdps(guarded(T.precision)):
        rows = hb.operator_rows(T.values, T.d, hb.tau_powers(T.d, T.precision),
                                1 / mp.mpf(T.d))
    return tuple(map(tuple, rows))


class Antiunitary:
    """V = U_{F J} K for an antisymplectic F, with J = diag(1, -1) and K
    entrywise complex conjugation."""

    def __init__(self, F, d, prec):
        if F.det() != (-1) % F.m:
            raise ValueError("antisymplectic matrix must have det -1 mod d'")
        self.matrix = hb.symplectic_unitary(F * ModMatrix(1, 0, 0, -1, F.m),
                                            d, prec)

    def apply(self, v):
        return apply(self.matrix, conj(v, PREC), PREC)


def conjugate_matrix(F, A, d, prec):
    """V A V^{-1} for V the unitary of F (det 1) or its Antiunitary
    (det -1)."""
    if F.det() == 1 % F.m:
        U = hb.symplectic_unitary(F, d, prec)
    else:
        U = Antiunitary(F, d, prec).matrix
        A = tuple(conj(row, prec) for row in A)
    return product(prec, U, A, adjoint(U, prec))


def overlaps_of_matrix(A, d, prec):
    """chi_p = Tr(D_p A) for a general operator (no chi_0 normalization)."""
    dp = dprime(d)
    taus = hb.tau_powers(d, prec)
    n = 2 * d
    values = {}
    with mp.workdps(guarded(prec)):
        for p1 in range(dp):
            for p2 in range(dp):
                # Tr(D_p A) = sum_s (D_p)_{s+p1, s} A_{s, s+p1}
                values[(p1, p2)] = mp.fsum(
                    (taus[(p1 * p2 + 2 * p2 * s) % n] * A[s][(s + p1) % d]
                     for s in range(d)), absolute=False)
    return hb.OverlapTable(d, prec, values, normalized=False)


class TestDisplacement:
    # displace applies D_p as a phased cyclic shift; the dense D_p of the
    # oracle gives the same fiducial to the last bit

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_shift_is_the_matrix_product_bit_for_bit(self, d):
        rng = random.Random(3 * d)
        v = rand_unit_vector(d, 5 * d)
        dp = dprime(d)
        for _ in range(6):
            p = (rng.randrange(-dp, 2 * dp), rng.randrange(-dp, 2 * dp))
            want = Fiducial.create(d, apply(disp_matrix(p, d, PREC), v, PREC),
                                   PREC)
            assert displaced(v, p) == want.vector

    def test_zero_is_identity(self):
        for d in (5, 6):
            v = rand_unit_vector(d, d)
            assert maxdiff(displaced(v, (0, 0)), v) < TOL

    def test_d4_shift(self):
        with mp.workdps(guarded(PREC)):
            for s in range(4):
                e = tuple(mp.mpc(1 if r == s else 0) for r in range(4))
                w = displaced(e, (1, 0))
                for r in range(4):
                    want = 1 if r == (s + 1) % 4 else 0
                    assert abs(w[r] - want) < TOL

    @pytest.mark.parametrize("d", [5, 6])
    def test_group_law_phase(self, d):
        # D_p D_q = tau^(p2 q1 - p1 q2) D_{p+q}, with the exact exponent
        rng = random.Random(100 + d)
        dp = dprime(d)
        taus = hb.tau_powers(d, PREC)
        v = rand_unit_vector(d, 101 + d)
        for _ in range(8):
            p = (rng.randrange(dp), rng.randrange(dp))
            q = (rng.randrange(dp), rng.randrange(dp))
            lhs = displaced(displaced(v, q), p)
            r = ((p[0] + q[0]) % dp, (p[1] + q[1]) % dp)
            e = (p[1] * q[0] - p[0] * q[1]) % (2 * d)
            assert maxdiff(lhs, scaled(taus[e], displaced(v, r))) < TOL

    @pytest.mark.parametrize("d", [5, 6, 7])
    def test_unitarity_and_dagger_index(self, d):
        # D_p is unitary with D_p^dagger = D_{-p}: as matrices, and as the
        # shift, which D_{-p} undoes
        rng = random.Random(7 * d)
        dp = dprime(d)
        v = rand_unit_vector(d, 8 * d)
        for _ in range(4):
            p = (rng.randrange(dp), rng.randrange(dp))
            neg = ((-p[0]) % dp, (-p[1]) % dp)
            D = disp_matrix(p, d, PREC)
            assert maxdiff(product(PREC, D, adjoint(D, PREC)),
                           identity(d, PREC)) < TOL
            assert maxdiff(adjoint(D, PREC), disp_matrix(neg, d, PREC)) < TOL
            assert maxdiff(displaced(displaced(v, p), neg), v) < TOL

    def test_even_d_period(self):
        # indices live mod 2d for even d: shifting p1 by d costs tau^(d p2)
        taus = hb.tau_powers(6, PREC)
        v = rand_unit_vector(6, 66)
        a = displaced(v, (7, 1))
        b = scaled(taus[6], displaced(v, (1, 1)))
        assert maxdiff(a, b) < TOL
        # tau^6 = -1 here, so the two differ by an honest sign
        assert maxdiff(a, displaced(v, (1, 1))) > mp.mpf("0.5")

    def test_odd_d_reduction(self):
        v = rand_unit_vector(5, 55)
        assert displaced(v, (6, 1)) == displaced(v, (1, 1))

    def test_small_d_rejected(self):
        with pytest.raises(ValueError):
            displaced(rand_unit_vector(3, 3), (0, 0))


class TestSymplecticUnitary:
    def test_identity_matrix_phases(self):
        # beta(I) = 0 forces the split path; the resulting global phase is a
        # fixed convention of this module, frozen here
        for d, phase in ((5, mp.mpc(1)), (6, mp.mpc(0, 1))):
            U = hb.symplectic_unitary(ModMatrix(1, 0, 0, 1, dprime(d)), d, PREC)
            assert maxdiff(U, identity(d, PREC, phase)) < TOL

    def test_zauner_cube(self):
        for d, phase in ((5, mp.mpc(-1)), (6, mp.mpc(0, -1))):
            U = hb.symplectic_unitary(zauner_matrix(d), d, PREC)
            assert maxdiff(product(PREC, U, U, U),
                           identity(d, PREC, phase)) < TOL

    @pytest.mark.parametrize("d", [5, 6, 7])
    def test_conjugation_exact(self, d):
        # U_F D_p U_F^dagger = D_{Fp} with no leftover phase
        rng = random.Random(31 + d)
        dp = dprime(d)
        Fs = [zauner_matrix(d)] + sample_units(dp, 4, 31 + d, det=1)
        for F in Fs:
            U = hb.symplectic_unitary(F, d, PREC)
            assert maxdiff(product(PREC, U, adjoint(U, PREC)),
                           identity(d, PREC)) < TOL
            for _ in range(3):
                p = (rng.randrange(dp), rng.randrange(dp))
                lhs = product(PREC, U, disp_matrix(p, d, PREC),
                              adjoint(U, PREC))
                rhs = disp_matrix(F.apply(p), d, PREC)
                assert maxdiff(lhs, rhs) < TOL

    def test_split_branch_even_d(self):
        # gcd(beta, 12) > 1 forces composition; conjugation must still be exact
        F = ModMatrix(1, 2, 1, 3, 12)
        assert F.det() == 1
        U = hb.symplectic_unitary(F, 6, PREC)
        assert maxdiff(product(PREC, U, adjoint(U, PREC)),
                       identity(6, PREC)) < TOL
        for p in ((1, 0), (0, 1), (5, 7)):
            lhs = product(PREC, U, disp_matrix(p, 6, PREC), adjoint(U, PREC))
            assert maxdiff(lhs, disp_matrix(F.apply(p), 6, PREC)) < TOL

    def test_split_unitary_is_pinned(self):
        # gcd(beta(F_a), 24) > 1 at d = 12: the product of the two direct
        # factors, pinned bit for bit
        U = hb.symplectic_unitary(fa_matrix(12), 12, 40)
        bits = repr([(z.real._mpf_, z.imag._mpf_) for row in U for z in row])
        assert hashlib.sha256(bits.encode()).hexdigest() == \
            "fa88af179399ef4378bfe608251d22fec638b0275b71d0179f64f4c03526514a"

    def test_split_factors(self):
        # both factors must carry a unit upper-right entry and multiply back
        cases = [ModMatrix(1, 0, 0, 1, 5), ModMatrix(1, 2, 1, 3, 12),
                 ModMatrix(3, 2, 1, 1, 24), ModMatrix(2, 4, 3, 7, 10)]
        import math
        for F in cases:
            A, B = hb.split_symplectic(F)
            assert A * B == F
            assert math.gcd(A.b, F.m) == 1
            assert math.gcd(B.b, F.m) == 1

    def test_rejections(self):
        with pytest.raises(ValueError):
            hb.symplectic_unitary(ModMatrix(1, 0, 0, 2, 5), 5, PREC)  # det 2
        with pytest.raises(ValueError):
            hb.symplectic_unitary(ModMatrix(1, 0, 0, 1, 6), 6, PREC)  # mod 6, need 12

    def test_entries_live_in_tau_field(self):
        # d=5 direct branch: each entry of U_F is a rational combination of
        # 1, tau, tau^2, tau^3 with denominator dividing 5; coefficients are
        # read off an integer relation, then re-checked at doubled precision
        d, prec = 5, 80
        F = zauner_matrix(d)
        U = hb.symplectic_unitary(F, d, prec)
        hi = 2 * prec
        taus_hi = hb.tau_powers(d, hi)
        U_hi = hb.symplectic_unitary(F, d, hi)
        with mp.workdps(guarded(prec)):
            basis = [mp.mpc(t) for t in hb.tau_powers(d, prec)[:4]]
        for r in range(d):
            for s in range(d):
                rel = integer_relation([U[r][s]] + basis, precision=prec)
                assert rel is not None, (r, s)
                m0, *m = rel.coefficients
                assert 5 % m0 == 0
                with mp.workdps(guarded(hi)):
                    rebuilt = mp.fsum((mj * taus_hi[j] for j, mj in enumerate(m)),
                                      absolute=False) / m0
                    assert abs(rebuilt - U_hi[r][s]) < mp.mpf(10) ** -140


class TestAntiunitary:
    def test_j_is_pure_conjugation(self):
        # F = J at d=5: the attached unitary part is U_I = I exactly under
        # this module's phase convention
        d = 5
        J = ModMatrix(1, 0, 0, -1, 5)
        V = Antiunitary(J, d, PREC)
        v = rand_unit_vector(d, 3)
        w = V.apply(v)
        assert maxdiff(w, conj(v, PREC)) < TOL

    def test_conjugation_action_d5(self):
        # V D_p V^{-1} = D_{Fp} exactly for antisymplectic F
        d, dp = 5, 5
        rng = random.Random(55)
        for F in sample_units(dp, 4, 55, det=-1):
            for _ in range(3):
                p = (rng.randrange(dp), rng.randrange(dp))
                got = conjugate_matrix(F, disp_matrix(p, d, PREC), d, PREC)
                want = disp_matrix(F.apply(p), d, PREC)
                assert maxdiff(got, want) < TOL

    def test_composition_is_unitary(self):
        # two antiunitaries compose to the unitary of the product matrix,
        # up to a global phase
        d, dp = 5, 5
        F1, F2 = sample_units(dp, 2, 77, det=-1)
        V1 = Antiunitary(F1, d, PREC)
        V2 = Antiunitary(F2, d, PREC)
        G = F1 * F2
        assert G.det() == 1
        U = hb.symplectic_unitary(G, d, PREC)
        v = rand_unit_vector(d, 9)
        w = V1.apply(V2.apply(v))
        u = apply(U, v, PREC)
        with mp.workdps(guarded(PREC)):
            # extract the phase from the largest component
            k = max(range(d), key=lambda i: abs(u[i]))
            phase = w[k] / u[k]
            assert abs(abs(phase) - 1) < TOL
            assert maxdiff(w, scaled(phase, u)) < TOL

    def test_det_plus_one_rejected(self):
        with pytest.raises(ValueError):
            Antiunitary(ModMatrix(1, 0, 0, 1, 5), 5, PREC)


class TestOverlaps:
    @pytest.mark.parametrize("d", [5, 6])
    def test_chi_zero_pinned(self, d):
        T = hb.overlaps(rand_unit_vector(d, d), d, PREC)
        z = T.chi((0, 0))
        assert z == mp.mpc(1)

    @pytest.mark.parametrize("d", [5, 6])
    def test_sum_rule(self, d):
        # sum over one period of |chi_p|^2 equals d for a unit vector
        T = hb.overlaps(rand_unit_vector(d, 2 * d + 1), d, PREC)
        with mp.workdps(guarded(PREC)):
            total = mp.fsum(abs(T.chi((p1, p2))) ** 2
                            for p1 in range(d) for p2 in range(d))
            assert abs(total - d) < TOL

    @pytest.mark.parametrize("d", [5, 6])
    def test_adjoint_symmetry(self, d):
        T = hb.overlaps(rand_unit_vector(d, 13 * d), d, PREC)
        dp = dprime(d)
        with mp.workdps(guarded(PREC)):
            for (p1, p2), v in T.items():
                assert abs(mp.conj(v) - T.chi(((-p1) % dp, (-p2) % dp))) < TOL

    @pytest.mark.parametrize("d", [5, 6])
    def test_transport_matches_brute_force(self, d):
        dp = dprime(d)
        v = rand_unit_vector(d, 17 * d)
        T = hb.overlaps(v, d, PREC)
        Pi = outer(v, PREC)
        Fs = [zauner_matrix(d)] + sample_units(dp, 2, 40 + d, det=1)
        Fs += [ModMatrix(1, 0, 0, -1, dp)] + sample_units(dp, 2, 41 + d, det=-1)
        for F in Fs:
            brute = overlaps_of_matrix(conjugate_matrix(F, Pi, d, PREC), d,
                                       PREC)
            trans = transported(T, F)
            worst = max(abs(brute.values[q] - trans[q]) for q in brute.values)
            assert worst < TOL

    @pytest.mark.parametrize("d", [5, 6])
    def test_displaced_matches_brute_force(self, d):
        v = rand_unit_vector(d, 23 * d)
        T = hb.overlaps(v, d, PREC)
        Pi = outer(v, PREC)
        for s in ((1, 0), (0, 1), (2, 3)):
            Ds = disp_matrix(s, d, PREC)
            brute = overlaps_of_matrix(
                product(PREC, Ds, Pi, adjoint(Ds, PREC)), d, PREC)
            disp = T.displaced(s)
            worst = max(abs(brute.values[q] - disp.values[q]) for q in brute.values)
            assert worst < TOL

    def test_sic_error_random_vector_is_large(self):
        T = hb.overlaps(rand_unit_vector(5, 4), 5, PREC)
        assert T.sic_error() > mp.mpf("0.001")

    def test_wrong_entry_count_rejected(self):
        with pytest.raises(ValueError):
            hb.OverlapTable(5, PREC, {(0, 0): mp.mpc(1)})


class TestReconstruct:
    @pytest.mark.parametrize("d", [5, 6])
    def test_identity_round_trip(self, d):
        T = overlaps_of_matrix(identity(d, PREC), d, PREC)
        # Tr(D_p) = d exactly at p = 0 and 0 elsewhere within a period
        with mp.workdps(guarded(PREC)):
            assert abs(T.values[(0, 0)] - d) < TOL
            assert abs(T.values[(1, 2)]) < TOL
        A = reconstruct(T)
        assert maxdiff(A, identity(d, PREC)) < TOL

    @pytest.mark.parametrize("d", [5, 6])
    def test_general_matrix_round_trip(self, d):
        rng = random.Random(61 + d)
        with mp.workdps(guarded(PREC)):
            A = tuple(tuple(mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                            for _ in range(d)) for _ in range(d))
        back = reconstruct(overlaps_of_matrix(A, d, PREC))
        assert maxdiff(back, A) < TOL

    def test_projector_round_trip(self):
        d = 5
        v = rand_unit_vector(d, 8)
        Pi = outer(v, PREC)
        back = reconstruct(hb.overlaps(v, d, PREC))
        assert maxdiff(back, Pi) < TOL
        # and the overlap table itself is a fixed point of the round trip
        T = hb.overlaps(v, d, PREC)
        T2 = overlaps_of_matrix(back, d, PREC)
        worst = max(abs(T.values[q] - T2.values[q]) for q in T.values)
        assert worst < TOL


class TestMemoization:
    def test_clifford_cache_hit(self):
        F = zauner_matrix(7)
        a = hb.symplectic_unitary(F, 7, PREC)
        b = hb.symplectic_unitary(F, 7, PREC)
        assert a is b
