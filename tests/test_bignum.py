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
        # entries convert at the guarded precision, not the ambient one
        with mp.workdps(80):
            third = mp.mpf(1) / 3
        v = bn.CVector([1, 1j, third], 60)
        assert len(v) == 3
        assert all(isinstance(e, mp.mpc) for e in v.entries)
        with mp.workdps(80):
            assert close(v.entries[2], third, 70)

    def test_matrix_ops(self):
        A = bn.CMatrix.identity(2, 60)
        assert (A.nrows, A.ncols) == (2, 2)
        assert A.rows == ((1, 0), (0, 1))
        with pytest.raises(ValueError, match="ragged"):
            bn.CMatrix([[1, 2], [3]], 60)

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

    def test_solve_singular(self):
        B = bn.CMatrix([[1, 2], [2, 4]], 50)
        with pytest.raises(SingularMatrixError):
            bn.solve_linear(B, bn.CVector([1, 0], 50))

    def test_guarded(self):
        assert bn.guarded(100) == 120
        assert bn.guarded(10) == 20  # floor of MIN_GUARD_DIGITS


def _significant_digits_by_scan(s):
    """significant_digits as first written, one character at a time: its
    oracle."""
    mantissa = s.lower().partition("e")[0]
    return len("".join(c for c in mantissa if c.isdigit()).lstrip("0"))


@pytest.mark.parametrize("s", [
    "3.14159", "-0.000123", "+0.5", "-0.5e-10", "1.2300E+5", "12345",
    "007", "0", "0.0", "-0.000", "0e5", "", "-", ".", "-.", "e", "1e",
    ".5", "5.", "1..2", "1.2.3", "--5", "+-0.07", "0-0.05", "12ab",
    "abc", "nan", "inf", "1_000", " 12", "١٢٣", "0.0²5", "1E5.3",
    "-0." + "1234567890" * 33 + "e-3"])
def test_significant_digits_matches_the_scan(s):
    assert bn.significant_digits(s) == _significant_digits_by_scan(s)
