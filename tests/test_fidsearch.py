import random

import mpmath as mp
import pytest

from siclift import fidsearch as fs
from siclift import heisenberg as hb
from siclift.bignum import CMatrix, CVector, guarded
from siclift.errors import PrecisionError, RefinementError, SearchError
from siclift.modring import ModMatrix, dprime, esl2_elements, zauner_matrix


def conjugate_matrix(F, A, d, prec):
    """V A V^{-1} for V the unitary of F (det 1) or, for det -1, the
    antiunitary U_{F J} K with J = diag(1, -1) and K entrywise complex
    conjugation: the brute-force route to a transported projector."""
    if F.det() == 1 % F.m:
        U = hb.symplectic_unitary(F, d, prec).matrix
    else:
        U = hb.symplectic_unitary(F * ModMatrix(1, 0, 0, -1, F.m), d,
                                  prec).matrix
        with mp.workdps(guarded(A.prec)):
            A = CMatrix([[mp.conj(e) for e in row] for row in A.rows], A.prec)
    return U * A * U.dagger()


@pytest.fixture(scope="module")
def fid5():
    return fs.refine(fs.seed_search(5, symmetry="fz", attempts=12, seed=1), 60)


@pytest.fixture(scope="module")
def fid4():
    return fs.refine(fs.seed_search(4, symmetry="fz", attempts=12, seed=1), 80)


class TestSeedSearch:
    def test_d4_zauner_restricted(self):
        fid = fs.seed_search(4, symmetry="fz", attempts=12, seed=3)
        assert fid.error < mp.mpf("1e-10")
        assert fid.symmetry == "fz"
        assert fid.d == 4 and len(fid.vector) == 4
        assert fid.seed == 3

    def test_d5(self):
        fid = fs.seed_search(5, symmetry="fz", attempts=12, seed=3)
        assert fid.error < mp.mpf("1e-10")

    def test_unit_norm(self):
        fid = fs.seed_search(5, symmetry="fz", attempts=8, seed=4)
        with mp.workdps(40):
            assert abs(fid.vector.norm() - 1) < mp.mpf("1e-13")

    def test_deterministic(self):
        a = fs.seed_search(5, symmetry="fz", attempts=8, seed=11)
        b = fs.seed_search(5, symmetry="fz", attempts=8, seed=11)
        assert (a.vector - b.vector).max_abs() < mp.mpf("1e-13")

    def test_zero_attempts_fails(self):
        with pytest.raises(SearchError) as exc:
            fs.seed_search(5, symmetry="fz", attempts=0, seed=1)
        assert exc.value.best_error is not None

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            fs.seed_search(3)
        with pytest.raises(ValueError):
            fs.seed_search(25)
        with pytest.raises(ValueError):
            fs.seed_search(5, symmetry="weird")


class TestEigenspaceRestriction:
    def test_refined_fiducial_stays_in_eigenspace(self, fid5):
        # the converged point is an exact eigenvector of the order-3 unitary:
        # some eigenprojector (1/3) sum_k (U/mu)^k reproduces it to 1e-20
        d, prec = 5, 80
        U = hb.symplectic_unitary(zauner_matrix(d), d, prec).matrix
        with mp.workdps(guarded(prec)):
            v = CVector([mp.mpc(z) for z in fid5.vector.entries], prec)
            best = mp.mpf(1)
            for k in range(3):
                mu = -mp.expjpi(mp.mpf(2 * k) / 3)  # cube roots of -1
                P = (CMatrix.identity(d, prec) + U.scale(1 / mu)
                     + (U * U).scale(1 / mu ** 2)).scale(mp.mpf(1) / 3)
                best = min(best, (P.matvec(v) - v).max_abs())
            assert best < mp.mpf("1e-20")


class TestRefine:
    def test_d4_to_200_digits(self, fid4):
        fid = fs.refine(fid4, 200)
        assert fid.precision == 200
        assert fid.error < mp.mpf(10) ** -190
        # certify independently at higher precision
        with mp.workdps(guarded(250)):
            v = CVector([mp.mpc(z) for z in fid.vector.entries], 250)
        assert hb.overlaps(v, 4, 250).sic_error() < mp.mpf(10) ** -190

    def test_d5_to_500_digits(self, fid5):
        fid = fs.refine(fid5, 500)
        assert fid.error < mp.mpf(10) ** -490

    def test_idempotent(self, fid5):
        again = fs.refine(fid5, 60)
        assert again is fid5

    def test_monotone_digits(self, fid5):
        assert fid5.precision == 60
        assert fs.refine(fid5, 120).precision == 120

    def test_out_of_basin_rejected(self):
        rng = random.Random(5)
        with mp.workdps(40):
            v = CVector([mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                         for _ in range(5)], 30)
        junk = fs.Fiducial.create(5, v, 30)
        with pytest.raises(RefinementError) as exc:
            fs.refine(junk, 100)
        assert exc.value.best_error > mp.mpf("1e-8")

    def test_jacobian_matches_finite_differences(self, fid5):
        # analytic Wirtinger Jacobian vs central differences on a point
        # perturbed off the solution
        d, prec, gauge = 5, 60, 0
        rng = random.Random(17)
        with mp.workdps(guarded(prec)):
            taus = hb.tau_powers(d, prec)
            psi = [mp.mpc(z) * (1 + mp.mpf(rng.uniform(-1, 1)) / 100)
                   + mp.mpc(0, mp.mpf(rng.uniform(-1, 1)) / 100)
                   for z in fid5.vector.entries]
            rows, res = fs._sic_system(psi, d, gauge, taus)
            h = mp.mpf(10) ** -25
            for t in rng.sample(range(2 * d), 4):
                bumped = list(psi)
                j = t % d
                dz = mp.mpc(h, 0) if t < d else mp.mpc(0, h)
                bumped[j] = psi[j] + dz
                _, res_hi = fs._sic_system(bumped, d, gauge, taus)
                bumped[j] = psi[j] - dz
                _, res_lo = fs._sic_system(bumped, d, gauge, taus)
                for r in range(len(res)):
                    fd = (res_hi[r] - res_lo[r]) / (2 * h)
                    assert abs(fd - rows[r][t]) < mp.mpf("1e-20")


class TestStabilizer:
    def test_d5_contents(self, fid5):
        S = fs.detect_stabilizer(fid5)
        assert len(S) == 3
        Fz = zauner_matrix(5)
        assert ((0, 0), Fz) in S
        assert all(F.det() in (1, 4) for _, F in S)
        # canonical order-3 signature: some trace = -1 mod d
        assert any(F.trace() % 5 == 4 for _, F in S)

    def test_low_precision_rejected(self):
        seed = fs.seed_search(5, symmetry="fz", attempts=8, seed=1)
        with pytest.raises(PrecisionError):
            fs.detect_stabilizer(seed)

    def test_closure_under_composition(self, fid4):
        d = 4
        S = fs.detect_stabilizer(fid4, full=True)
        for (p, F) in S:
            for (q, G) in S:
                fq = F.apply(q)
                comp = (((p[0] + fq[0]) % d, (p[1] + fq[1]) % d), F * G)
                assert comp in S

    def test_stabilizing_elements_fix_the_table(self, fid5):
        T = hb.overlaps(fid5)
        for (p, F) in fs.detect_stabilizer(fid5):
            T2 = T.transported(F).displaced(p)
            worst = max(abs(T.values[q] - T2.values[q]) for q in T.values)
            assert worst < mp.mpf("1e-45")

    @pytest.mark.slow
    def test_d4_two_routes_agree(self, fid4):
        # route A: overlap-table scan; route B: explicit matrix conjugation
        d, dp, prec = 4, 8, fid4.precision
        S = fs.detect_stabilizer(fid4, full=True)
        assert len(S) == 48            # 3 * 4 * (2 kernel lifts * 2 antiunitary)
        assert len({pf for pf in S if pf[0] == (0, 0)}) == 12
        with mp.workdps(guarded(prec)):
            Pi = CMatrix([[a * mp.conj(b) for b in fid4.vector.entries]
                          for a in fid4.vector.entries], prec)
        rng = random.Random(2)
        others = [M for M in esl2_elements(dp)]
        sample = list(S) + [((rng.randrange(d), rng.randrange(d)), M)
                            for M in rng.sample(others, 30)]
        for (p, F) in sample:
            A = conjugate_matrix(F, Pi, d, prec)
            Dp = hb.displacement(p, d, prec).matrix
            fixed = (Dp * A * Dp.dagger() - Pi).max_abs() < mp.mpf("1e-10")
            assert fixed == ((p, F) in S)


def _reference_scan(fid, full):
    """The stabilizer scan in 40-digit mpmath arithmetic: the reference the
    double-precision scan must agree with."""
    d, dp = fid.d, dprime(fid.d)
    T = hb.overlaps(fid)
    cands = esl2_elements(dp) if full \
        else fs._centralizer_candidates(d, fid.symmetry)
    taus = hb.tau_powers(d, 40)
    out = set()
    with mp.workdps(guarded(40)):
        omega = [taus[(2 * k) % (2 * d)] for k in range(d)]
        for F in cands:
            T1 = T.transported(F)
            a = T.chi((0, 1)) / T1.chi((0, 1))
            b = T1.chi((1, 0)) / T.chi((1, 0))
            p1 = min(range(d), key=lambda k: abs(a - omega[k]))
            p2 = min(range(d), key=lambda k: abs(b - omega[k]))
            if abs(a - omega[p1]) > mp.mpf("1e-6") or \
                    abs(b - omega[p2]) > mp.mpf("1e-6"):
                continue
            if all(abs(omega[(q2 * p1 - q1 * p2) % d] * T1.values[(q1, q2)]
                       - v) <= mp.mpf("1e-10")
                   for (q1, q2), v in T.items()):
                out.add(((p1, p2), F))
    return out


@pytest.mark.parametrize("d, seed, full", [
    (4, 11, False), (4, 13, False), (4, 4, False), (5, 11, False),
    (4, 11, True)])
def test_double_precision_scan_matches_reference(d, seed, full):
    fid = fs.refine(fs.seed_search(d, "fz", attempts=24, seed=seed), 60)
    S = fs.detect_stabilizer(fid, full=full)
    assert len(S) > 1
    assert S == _reference_scan(fid, full)


class TestStronglyCentre:
    def test_non_multiple_of_three_unchanged(self, fid5):
        assert fs.strongly_centre(fid5) is fid5


class TestFileIO:
    def test_round_trip(self, fid5, tmp_path):
        path = tmp_path / "fid5.sfv"
        fid5.save(str(path))
        head = path.read_text().splitlines()[0]
        assert head == "SIC-FIDUCIAL v1 d=5 prec=60 symmetry=fz seed=1"
        back = fs.Fiducial.load(str(path))
        assert back.d == 5 and back.precision == 60 and back.symmetry == "fz"
        assert back.seed == 1
        assert (back.vector - fid5.vector).max_abs() < mp.mpf(10) ** -55
        assert back.error < mp.mpf(10) ** -48

    def test_load_rejects_other_format(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("SIC-OVERLAPS v1 d=5 prec=60\n")
        with pytest.raises(ValueError):
            fs.Fiducial.load(str(p))

    def test_load_rejects_truncated(self, tmp_path):
        p = tmp_path / "y.sfv"
        p.write_text("SIC-FIDUCIAL v1 d=5 prec=20 symmetry=none seed=none\n"
                     "1.0 0.0\n")
        with pytest.raises(ValueError):
            fs.Fiducial.load(str(p))
