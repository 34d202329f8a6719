import random

import mpmath as mp
import pytest

from siclift import bignum as bn
from siclift import heisenberg as hb
from siclift.errors import SingularMatrixError


def close(a, b, digits):
    return abs(mp.mpc(a) - mp.mpc(b)) < mp.mpf(10) ** (-digits)


class TestScalars:
    @pytest.mark.parametrize("d", [3, 4, 5, 8, 13])
    def test_tau(self, d):
        t = hb.tau_powers(d, 80)[1]
        with mp.workdps(100):
            assert close(t ** (2 * d), 1, 75)
            assert close(t ** d, 1 if d % 2 == 1 else -1, 75)
        table = hb.tau_powers(d, 60)
        assert len(table) == 2 * d
        assert close(table[3], t ** 3, 55)


class TestSerialization:
    @pytest.mark.parametrize("digits", [30, 200])
    def test_round_trip(self, digits):
        with mp.workdps(digits + 10):
            x = mp.sqrt(mp.mpf(2)) * mp.mpf(10) ** -3
            s = bn.format_decimal(x, digits)
            y = bn.parse_decimal(s, digits)
            assert close(x, y, digits - 1)


class TestVectorsMatrices:
    def test_vector_ops(self):
        v = bn.CVector([1, 1j, -2], 50)
        assert len(v) == 3
        assert close((v - v).max_abs(), 0, 45)
        assert close(v.max_abs(), 2, 45)

    def test_matrix_ops(self):
        A = bn.CMatrix([[1, 1j], [0, 2]], 60)
        v = bn.CVector([1, 1], 60)
        assert close(A.matvec(v).entries[0], 1 + 1j, 55)
        assert bn.CMatrix.identity(2, 60).matvec(v).entries == v.entries

    def test_solve_identity(self):
        I3 = bn.CMatrix.identity(3, 80)
        v = bn.CVector([2, -1j, mp.mpf(1) / 3], 80)
        sol = bn.solve_linear(I3, v)
        assert all(close(a, b, 75) for a, b in zip(sol.x.entries, v.entries))
        assert sol.residual < mp.mpf(10) ** -75

    def test_solve_known_inverse(self):
        # [[1,2],[3,4]] x = (1,1) has x = (-1, 1)
        B = bn.CMatrix([[1, 2], [3, 4]], 60)
        sol = bn.solve_linear(B, bn.CVector([1, 1], 60))
        assert close(sol.x.entries[0], -1, 55) \
            and close(sol.x.entries[1], 1, 55)

    def test_solve_random_8x8_300_digits(self):
        rng = random.Random(3)
        with mp.workdps(360):
            rows = [[mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(8)]
                    for _ in range(8)]
            v = bn.CVector([mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                            for _ in range(8)], 300)
        B = bn.CMatrix(rows, 300)
        sol = bn.solve_linear(B, v)
        assert sol.residual < mp.mpf(10) ** -280
        assert sol.condition < mp.mpf(10) ** 6

    def test_lu_factors_serve_many_right_hand_sides(self):
        # one pivoted factorization, then each right-hand side is solved by
        # substitution alone; the pivot order must apply to every one
        rng = random.Random(5)
        with mp.workdps(130):
            rows = [[mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                     for _ in range(6)] for _ in range(6)]
            vs = [[mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1))
                   for _ in range(6)] for _ in range(4)]
        lu = bn.LUFactors(rows, 100)
        assert lu.perm != list(range(6))
        for v in vs:
            x = lu.solve(v)
            with mp.workdps(130):
                assert max(abs(mp.fsum(a * b for a, b in zip(row, x)) - y)
                           for row, y in zip(rows, v)) < mp.mpf(10) ** -90
        with pytest.raises(SingularMatrixError):
            bn.LUFactors([[1, 2], [2, 4]], 50)

    def test_lu_factors_of_integer_rows(self):
        # Python ints become mpc at the guarded precision, so no multiplier
        # 1 / pivot is a float: [[3, 1], [1, 2]] x = (1, 0) has x = (2/5, -1/5)
        x = bn.LUFactors([[3, 1], [1, 2]], 60).solve([1, 0])
        assert close(x[0], mp.mpf(2) / 5, 55)
        assert close(x[1], mp.mpf(-1) / 5, 55)

    def test_solve_singular(self):
        B = bn.CMatrix([[1, 2], [2, 4]], 50)
        with pytest.raises(SingularMatrixError):
            bn.solve_linear(B, bn.CVector([1, 0], 50))

    def test_guarded(self):
        assert bn.guarded(100) == 120
        assert bn.guarded(10) == 20  # floor of MIN_GUARD_DIGITS
