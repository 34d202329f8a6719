import dataclasses
import random

import mpmath as mp
import pytest

from dense_oracle import (adjoint, apply, conj, identity, maxdiff, outer,
                          product)
from siclift import bignum
from siclift import fidsearch as fs
from siclift import heisenberg as hb
from siclift.bignum import guarded
from siclift.errors import (PrecisionError, RefinementError, SearchError,
                            SingularMatrixError)
from siclift.modring import ModMatrix, dprime, esl2_elements, zauner_matrix


def conjugate_matrix(F, A, d, prec):
    """V A V^{-1} for V the unitary of F (det 1) or, for det -1, the
    antiunitary U_{F J} K with J = diag(1, -1) and K entrywise complex
    conjugation: the brute-force route to a transported projector."""
    if F.det() == 1 % F.m:
        U = hb.symplectic_unitary(F, d, prec)
    else:
        U = hb.symplectic_unitary(F * ModMatrix(1, 0, 0, -1, F.m), d, prec)
        A = tuple(conj(row, prec) for row in A)
    return product(prec, U, A, adjoint(U, prec))


def disp_matrix(p, d, prec):
    """D_p as a dense matrix, for p reduced mod d'."""
    taus = hb.tau_powers(d, prec)
    rows = [[mp.mpc(0)] * d for _ in range(d)]
    for s in range(d):
        rows[(s + p[0]) % d][s] = taus[(p[0] * p[1] + 2 * p[1] * s) % (2 * d)]
    return tuple(map(tuple, rows))


def transported(T, F):
    """Overlaps of the projector transported by F's (anti)unitary:
    chi_{F^-1 q}, conjugated for det -1."""
    anti = F.det() == F.m - 1
    Finv = F.inv()
    with mp.workdps(guarded(T.precision)):
        return {q: mp.conj(T.values[Finv.apply(q)]) if anti
                else T.values[Finv.apply(q)] for q in T.values}


@pytest.fixture(scope="module")
def fid5():
    return fs.refine(fs.seed_search(5, symmetry="fz", attempts=12, seed=1), 60)


@pytest.fixture(scope="module")
def seed4():
    return fs.seed_search(4, symmetry="fz", attempts=24, seed=11)


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
            norm = mp.sqrt(mp.fsum(abs(z) ** 2 for z in fid.vector))
            assert abs(norm - 1) < mp.mpf("1e-13")

    def test_deterministic(self):
        a = fs.seed_search(5, symmetry="fz", attempts=8, seed=11)
        b = fs.seed_search(5, symmetry="fz", attempts=8, seed=11)
        assert maxdiff(a.vector, b.vector) < mp.mpf("1e-13")

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


class TestCreate:
    def test_plain_numbers_become_a_tuple_of_mpc(self):
        fid = fs.Fiducial.create(4, [1, 1j, -1, 2 + 0j], 30)
        assert type(fid.vector) is tuple
        assert all(type(z) is mp.mpc for z in fid.vector)
        with mp.workdps(guarded(30)):
            assert abs(fid.vector[1] - mp.mpc(0, 1) / mp.sqrt(7)) \
                < mp.mpf(10) ** -35
            assert abs(mp.fsum(abs(z) ** 2 for z in fid.vector) - 1) \
                < mp.mpf(10) ** -35


class TestEigenspaceRestriction:
    def test_refined_fiducial_stays_in_eigenspace(self, fid5):
        # the converged point is an exact eigenvector of the order-3 unitary:
        # some eigenprojector (1/3) sum_k (U/mu)^k reproduces it to 1e-20
        d, prec = 5, 80
        U = hb.symplectic_unitary(zauner_matrix(d), d, prec)
        v = fid5.vector
        U2 = product(prec, U, U)
        best = mp.mpf(1)
        with mp.workdps(guarded(prec)):
            for k in range(3):
                mu = -mp.expjpi(mp.mpf(2 * k) / 3)  # cube roots of -1
                P = tuple(tuple((i + u / mu + u2 / mu ** 2) / 3
                                for i, u, u2 in zip(*rows))
                          for rows in zip(identity(d, prec), U, U2))
                best = min(best, maxdiff(apply(P, v, prec), v))
        assert best < mp.mpf("1e-20")


class TestRefine:
    def test_d4_to_200_digits(self, fid4):
        fid = fs.refine(fid4, 200)
        assert fid.precision == 200
        assert fid.error < mp.mpf(10) ** -190
        # certify independently at higher precision
        assert hb.overlaps(fid.vector, 4, 250).sic_error() \
            < mp.mpf(10) ** -190

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
            v = [mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                 for _ in range(5)]
        junk = fs.Fiducial.create(5, v, 30)
        with pytest.raises(RefinementError) as exc:
            fs.refine(junk, 100)
        assert exc.value.best_error > mp.mpf("1e-8")

    def test_jacobian_matches_finite_differences(self, fid5):
        # the integer sweep's analytic Wirtinger Jacobian vs central
        # differences on a point perturbed off the solution; both on the
        # sweep's grid, the step h floored onto it
        d, prec, gauge = 5, 60, 0
        rng = random.Random(17)
        w = fs._grid_bits(prec)
        taus = fs._on_grid(hb.tau_powers(d, prec), w)
        with mp.workdps(guarded(prec)):
            psi = fs._on_grid(
                [mp.mpc(z) * (1 + mp.mpf(rng.uniform(-1, 1)) / 100)
                 + mp.mpc(0, mp.mpf(rng.uniform(-1, 1)) / 100)
                 for z in fid5.vector], w)
            rows, res = fs._sic_system(psi, d, gauge, w, taus)
            h = mp.mpf(10) ** -25
            step = int(mp.floor(mp.ldexp(h, w)))
            for t in rng.sample(range(2 * d), 4):
                bumped = list(psi)
                j = t % d
                dz = (step, 0) if t < d else (0, step)
                bumped[j] = (psi[j][0] + dz[0], psi[j][1] + dz[1])
                _, res_hi = fs._sic_system(bumped, d, gauge, w, taus)
                bumped[j] = (psi[j][0] - dz[0], psi[j][1] - dz[1])
                _, res_lo = fs._sic_system(bumped, d, gauge, w, taus)
                for r in range(len(res)):
                    fd = mp.mpf(res_hi[r] - res_lo[r]) / (2 * step)
                    assert abs(fd - mp.ldexp(rows[r][t], -w)) < mp.mpf("1e-20")

    def test_zero_correction_stalls(self, seed4, monkeypatch):
        # with the correction patched to zero no sweep moves the vector;
        # the recorded error is put below the vector's own, so that the
        # first sweep cannot count the grid's rounding as progress either
        monkeypatch.setattr(fs, "_solve_grid", lambda a, b, w: [0] * len(b))
        start = dataclasses.replace(seed4, error=seed4.error / 2)
        with pytest.raises(RefinementError) as exc:
            fs.refine(start, 100)
        assert exc.value.sweeps == 3
        assert exc.value.best_error == start.error

    def test_grid_elimination(self):
        w = 80
        one = 1 << w
        # a rank-deficient system has no pivot above the floor
        with pytest.raises(SingularMatrixError):
            fs._solve_grid([[one, 2 * one], [2 * one, 4 * one]], [one, 0], w)
        # a permuted, well-conditioned one is solved to a few grid units
        a = [[0, 2 * one, one], [3 * one, one, 0], [one, 0, 4 * one]]
        x = [5 * one // 7, -one // 3, one // 11]
        b = [sum(r * v for r, v in zip(row, x)) >> w for row in a]
        got = fs._solve_grid(a, b, w)
        assert all(abs(g - v) < 16 for g, v in zip(got, x))

    def test_refined_vector_ignores_seed_noise(self, seed4):
        # seeds 1e-15 apart refine to the same bits: the sweeps converge far
        # below the output grid, and the gauge entry is exactly real
        outs = []
        for eps in ("0", "1e-15", "-1e-15", "2e-15"):
            with mp.workdps(guarded(seed4.precision)):
                v = [z * (1 + mp.mpf(eps) * (t + 1)) + mp.mpc(0, mp.mpf(eps))
                     for t, z in enumerate(seed4.vector)]
            fid = fs.refine(fs.Fiducial.create(4, v, seed4.precision), 320)
            outs.append([(z.real, z.imag) for z in fid.vector])
        assert all(out == outs[0] for out in outs[1:])
        assert sum(im == 0 for _, im in outs[0]) == 1

    def test_sweeps_compute_no_mpmath_table_or_solve(self, seed4,
                                                     monkeypatch):
        # the sweeps run on the integer grid: the one mpmath overlap table
        # is the certified result's, and no mpmath linear solve runs
        tables = []
        sums = hb._overlap_sums

        def counted_sums(psi, d, taus, m):
            tables.append(m)
            return sums(psi, d, taus, m)

        def forbidden(*args, **kwargs):
            raise AssertionError("mpmath linear solve in refine")

        monkeypatch.setattr(hb, "_overlap_sums", counted_sums)
        monkeypatch.setattr(bignum, "solve_linear", forbidden)
        fs.refine(seed4, 320)
        assert tables == [dprime(4)]


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
            T2 = hb.OverlapTable(T.d, T.precision, transported(T, F),
                                 normalized=False).displaced(p)
            worst = max(abs(T.values[q] - T2.values[q]) for q in T.values)
            assert worst < mp.mpf("1e-45")

    def test_d4_two_routes_agree(self, fid4):
        # route A: overlap-table scan; route B: explicit matrix conjugation
        d, dp, prec = 4, 8, fid4.precision
        S = fs.detect_stabilizer(fid4, full=True)
        assert len(S) == 48            # 3 * 4 * (2 kernel lifts * 2 antiunitary)
        assert len({pf for pf in S if pf[0] == (0, 0)}) == 12
        Pi = outer(fid4.vector, prec)
        rng = random.Random(2)
        others = [M for M in esl2_elements(dp)]
        sample = list(S) + [((rng.randrange(d), rng.randrange(d)), M)
                            for M in rng.sample(others, 30)]
        for (p, F) in sample:
            A = conjugate_matrix(F, Pi, d, prec)
            Dp = disp_matrix(p, d, prec)
            fixed = maxdiff(product(prec, Dp, A, adjoint(Dp, prec)), Pi) \
                < mp.mpf("1e-10")
            assert fixed == ((p, F) in S)


def _reference_scan(fid, full):
    """The stabilizer scan in 40-digit mpmath arithmetic: the reference the
    double-precision scan must agree with."""
    d, dp = fid.d, dprime(fid.d)
    T = hb.overlaps(fid)
    Fz, one = zauner_matrix(d), ModMatrix.identity(dp)
    span = {one.scale(r) + Fz.scale(s) for r in range(dp) for s in range(dp)}
    cands = esl2_elements(dp) if full \
        else [M for M in span if M.det() in (1, dp - 1)]
    taus = hb.tau_powers(d, 40)
    out = set()
    with mp.workdps(guarded(40)):
        omega = [taus[(2 * k) % (2 * d)] for k in range(d)]
        for F in cands:
            T1 = transported(T, F)
            a = T.chi((0, 1)) / T1[(0, 1)]
            b = T1[(1, 0)] / T.chi((1, 0))
            p1 = min(range(d), key=lambda k: abs(a - omega[k]))
            p2 = min(range(d), key=lambda k: abs(b - omega[k]))
            if abs(a - omega[p1]) > mp.mpf("1e-6") or \
                    abs(b - omega[p2]) > mp.mpf("1e-6"):
                continue
            if all(abs(omega[(q2 * p1 - q1 * p2) % d] * T1[(q1, q2)]
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
        assert maxdiff(back.vector, fid5.vector) < mp.mpf(10) ** -55
        assert back.error < mp.mpf(10) ** -48

    def test_load_rejects_other_format(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("SIC-OVERLAPS v1 d=5 prec=60\n")
        with pytest.raises(ValueError):
            fs.Fiducial.load(str(p))

    @pytest.mark.parametrize("header", ["d=4 prec=0", "d=4 prec=-3",
                                        "d=4 prec=60"])
    def test_load_rejects_header_the_entries_cannot_carry(self, tmp_path,
                                                          header):
        # prec must be positive and at most the 40 significant digits the
        # longest part stores; refused before any parsing at it
        p = tmp_path / "h.sfv"
        p.write_text(f"SIC-FIDUCIAL v1 {header} symmetry=none seed=none\n"
                     + "0.5 0.0\n" * 3 + "0." + "1" * 40 + " 0.0\n")
        with pytest.raises(ValueError):
            fs.Fiducial.load(str(p))

    def test_load_takes_the_longest_part_as_the_bound(self, tmp_path):
        p = tmp_path / "ok.sfv"
        p.write_text("SIC-FIDUCIAL v1 d=4 prec=40 symmetry=none seed=none\n"
                     + "0.5 0.0\n" * 3 + "0." + "1" * 40 + " 0.0\n")
        assert fs.Fiducial.load(str(p)).precision == 40

    def test_load_rejects_truncated(self, tmp_path):
        p = tmp_path / "y.sfv"
        p.write_text("SIC-FIDUCIAL v1 d=5 prec=20 symmetry=none seed=none\n"
                     "1.0 0.0\n")
        with pytest.raises(ValueError):
            fs.Fiducial.load(str(p))
