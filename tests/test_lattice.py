import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from siclift import lattice as lat


def det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


class TestLLL:
    def test_classic_3d_basis(self):
        rows = [[1, 1, 1], [-1, 0, 2], [3, 5, 6]]
        red = lat.lll_reduce(rows)
        assert abs(det3(red)) == abs(det3(rows))  # same lattice volume
        norms = sorted(sum(x * x for x in r) for r in red)
        assert norms[0] == 1 and norms[-1] <= 6

    def test_already_reduced_identity(self):
        rows = [[1, 0], [0, 1]]
        assert lat.lll_reduce(rows) == [[1, 0], [0, 1]]

    def test_dependent_rows_rejected(self):
        with pytest.raises(ValueError):
            lat.lll_reduce([[1, 2], [2, 4]])

    def test_shortens_skewed_basis(self):
        rows = [[201, 37], [1648, 297]]
        red = lat.lll_reduce(rows)
        assert max(sum(x * x for x in r) for r in red) < 201 ** 2 + 37 ** 2


def gram_schmidt(rows):
    """Exact Gram-Schmidt: squared norms B_i and coefficients mu_{i,j}."""
    ortho, norms, mu = [], [], []
    for i, r in enumerate(rows):
        v = [Fraction(x) for x in r]
        mu.append([])
        for j in range(i):
            m = sum(a * b for a, b in zip(r, ortho[j])) / norms[j]
            mu[i].append(m)
            v = [a - m * b for a, b in zip(v, ortho[j])]
        ortho.append(v)
        norms.append(sum(a * a for a in v))
    return norms, mu


def det(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    out = Fraction(1)
    for k in range(len(m)):
        piv = next((i for i in range(k, len(m)) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            out = -out
        out *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return out


class TestGradualFeeding:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 2), st.data())
    def test_fed_reduction_is_lll_reduced_and_unimodular(self, n, m, data):
        # entries from a seeded generator: hypothesis keeps drawn integers
        # small, and the columns must reach the full width to take many rungs
        bits = data.draw(st.integers(1, 1000))
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        rows = [[int(i == j) for j in range(n)]
                + [rng.randint(-(2 ** bits), 2 ** bits) for _ in range(m)]
                for i in range(n)]
        red = lat.lll_reduce(rows)
        norms, mu = gram_schmidt(red)
        delta = Fraction(lat.SWAP_P, lat.SWAP_Q)
        for i in range(1, n):
            assert all(abs(x) <= Fraction(1, 2) for x in mu[i])
            assert norms[i] >= (delta - mu[i][i - 1] ** 2) * norms[i - 1]
        u = [r[:n] for r in red]
        assert abs(det(u)) == 1
        assert red == [[sum(a * row[j] for a, row in zip(ur, rows))
                        for j in range(n + m)] for ur in u]

    def test_near_relation_fails_the_gate_on_every_rung(self, monkeypatch):
        # (1, -1) is the shortest row from the first rung on, but its
        # residual 10^-200 never beats the full-precision gate
        gates = []
        scan = lat._scan_reduced
        monkeypatch.setattr(lat, "_scan_reduced",
                            lambda *a: gates.append(1) or scan(*a))
        with mp.workdps(340):
            a = mp.sqrt(2)
            xs = [a, a + mp.mpf(10) ** -200]
        assert lat.integer_relation(xs, precision=320) is None
        assert len(gates) > 2  # the gate ran on the rungs, not only at the end

    def test_two_relations_match_the_direct_reduction(self, monkeypatch):
        rungs = []
        integral = lat._lll_integral
        monkeypatch.setattr(lat, "_lll_integral",
                            lambda rows: rungs.append(1) or integral(rows))
        with mp.workdps(340):
            s = mp.sqrt(3)
            xs = [s, mp.mpf(1), s, 2 * s]
            rel = lat.integer_relation(xs, precision=320)
            vals = lat._prepare(xs, 320)
            rows = lat._candidate_rows(vals, 320)
        full = -(-max(abs(r[-1]).bit_length() for r in rows) // lat.FEED_BITS)
        assert 1 < len(rungs) < full  # stopped before the last rung
        best = lat._scan_reduced(integral(rows), vals, 4, 320)
        coeffs = lat._normalize(best[1])
        assert rel is not None
        assert rel.coefficients == (coeffs[0], *(-c for c in coeffs[1:]))
        assert rel.coefficients == (1, 0, 1, 0)

    def test_the_stopping_rung_is_gated_once(self, monkeypatch):
        # the gate's verdict on the rung that stopped is the result: the rows
        # lll_reduce returns carry the same coefficient block, so gating them
        # again would only repeat it
        scans, stops = [], []
        scan, reduce = lat._scan_reduced, lat.lll_reduce
        monkeypatch.setattr(lat, "_scan_reduced",
                            lambda *a: scans.append(1) or scan(*a))

        def watched(rows, stop=None):
            def counted(reduced):
                stops.append(stop(reduced))
                return stops[-1]
            return reduce(rows, stop=counted if stop else None)

        monkeypatch.setattr(lat, "lll_reduce", watched)
        with mp.workdps(340):
            s = mp.sqrt(3)
            rel = lat.integer_relation([s, mp.mpf(1), s, 2 * s],
                                       precision=320)
        assert rel.coefficients == (1, 0, 1, 0)
        assert stops and stops[-1] is not None  # a rung stopped the reduction
        assert len(scans) == len(stops)


class TestOneReductionPerLattice:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        reduce = lat.lll_reduce

        def counting(rows, **kw):
            seen.append(len(rows))
            return reduce(rows, **kw)

        monkeypatch.setattr(lat, "lll_reduce", counting)
        return seen

    def test_relations(self, calls):
        with mp.workdps(340):
            phi = (1 + mp.sqrt(5)) / 2
            assert lat.integer_relation([mp.mpf(1), phi, phi ** 2],
                                        precision=320) is not None
            assert calls == [3]
            lat.raw_relation([mp.pi, mp.mpf(1), phi], precision=320)
        assert calls == [3, 3]

    def test_minimal_polynomial_degree_steps(self, calls):
        with mp.workdps(340):
            b = mp.cbrt(2) + 1
            assert lat.minimal_polynomial(b, max_degree=6, precision=320) \
                .coeffs == (-3, 3, -3, 1)
            assert calls == [2, 3, 4]
            assert lat.minimal_polynomial(mp.pi, max_degree=4,
                                          precision=320) is None
        assert calls == [2, 3, 4, 2, 3, 4, 5]


def mpf_at(expr, dps):
    with mp.workdps(dps):
        return expr()


class TestIntegerRelation:
    def test_sqrt2_duplicate(self):
        with mp.workdps(60):
            s = mp.sqrt(2)
            rel = lat.integer_relation([s, mp.mpf(1), s], precision=50)
        assert rel is not None
        assert rel.coefficients == (1, 0, 1)
        assert rel.residual < mp.mpf(10) ** -30

    def test_pi_has_no_small_relation(self):
        with mp.workdps(120):
            rel = lat.integer_relation([mp.pi, mp.mpf(1)], precision=100)
        assert rel is None

    def test_golden_ratio_identity(self):
        with mp.workdps(70):
            phi = (1 + mp.sqrt(5)) / 2
            rel = lat.integer_relation([phi, mp.mpf(1), phi], precision=60)
            assert rel.coefficients == (1, 0, 1)
            # and the quadratic relation through powers
            rel2 = lat.integer_relation([mp.mpf(1), phi, phi ** 2], precision=60)
        # m0*x0 - m1*x1 - m2*x2 = 0 with x=(1, phi, phi^2): 1 + phi - phi^2 = 0
        assert rel2.coefficients == (1, -1, 1)

    def test_pslq_cross_check(self):
        # same relations out of an independent engine, mapped between sign
        # conventions c_0 = m_0, c_j = -m_j
        with mp.workdps(80):
            phi = (1 + mp.sqrt(5)) / 2
            alpha = mp.sqrt(2) + mp.sqrt(3)
            for xs in ([mp.mpf(1), phi, phi ** 2],
                       [alpha ** k for k in range(5)]):
                ours = lat.integer_relation(xs, precision=60)
                theirs = mp.pslq(xs, maxcoeff=10 ** 6, maxsteps=10 ** 4)
                assert ours is not None and theirs is not None
                m = ours.coefficients
                c = [m[0]] + [-x for x in m[1:]]
                g = math.gcd(*(abs(t) for t in theirs))
                theirs = [t // g for t in theirs]
                if theirs[0] * c[0] < 0 or (theirs[0] == 0 and theirs != c):
                    theirs = [-t for t in theirs]
                assert c == theirs

    def test_random_reals_yield_nothing(self):
        # junk relations near the lattice floor must not be reported; note the
        # entropy must exceed the working precision (53-bit floats are
        # rationals with honest small relations!)
        rng = random.Random(41)
        with mp.workdps(200):
            for _ in range(5):
                xs = [mp.mpf(rng.getrandbits(600)) / 2 ** 600 + rng.randint(0, 3)
                      for _ in range(5)]
                assert lat.integer_relation(xs, precision=150) is None

    def test_verify_relation_at_higher_precision(self):
        with mp.workdps(200):
            s = mp.sqrt(2)
            rel = lat.integer_relation([s, mp.mpf(1), s], precision=50)
            assert lat.verify_relation(rel, [mp.sqrt(2), mp.mpf(1), mp.sqrt(2)], 180)
            # junk relation fails verification
            junk = lat.RelationResult((3, 1, 2), mp.mpf(0), 50)
            assert not lat.verify_relation(junk, [mp.sqrt(2), mp.mpf(1), mp.sqrt(2)],
                                           180)


class TestRawRelation:
    def test_true_relation_small_norm(self):
        with mp.workdps(120):
            phi = (1 + mp.sqrt(5)) / 2
            rel = lat.raw_relation([mp.mpf(1), phi, phi ** 2], precision=100)
        assert rel.coefficients == (1, -1, 1)
        assert lat.relation_norm(rel) < 3

    def test_junk_norm_near_floor(self):
        # pi has no small relation: the raw row sits near 10^((prec-g)/n)
        with mp.workdps(120):
            rel = lat.raw_relation([mp.pi, mp.mpf(1), mp.sqrt(2)],
                                   precision=100)
            norm = lat.relation_norm(rel)
        floor = (100 - lat.scaling_guard(100)) / 3
        assert norm > mp.mpf(10) ** (floor - 8)

    def test_score_separation(self):
        # the ratio junk/true spans many orders of magnitude
        with mp.workdps(220):
            s3 = mp.sqrt(3)
            true_rel = lat.raw_relation([s3 + 2, mp.mpf(1), s3], precision=200)
            junk_rel = lat.raw_relation([mp.exp(1), mp.mpf(1), s3],
                                        precision=200)
            ratio = lat.relation_norm(junk_rel) / lat.relation_norm(true_rel)
        assert ratio > mp.mpf(10) ** 40


def _field_member(basis, coeffs):
    return mp.fsum(mp.mpf(q.numerator) / q.denominator * b
                   for q, b in zip(coeffs, basis))


# a value, then a basis linearly independent over Q (method 2 scores and
# lifts [component, *coefficient-field basis]); the first four values lie in
# the basis' span, the last two do not
_GATE_CASES = {
    "sqrt5": (lambda: [mp.mpf(1), mp.sqrt(5)],
              [Fraction(3, 7), Fraction(-5, 11)]),
    "sqrt3_sqrt5": (lambda: [mp.mpf(1), mp.sqrt(3), mp.sqrt(5), mp.sqrt(15)],
                    [Fraction(1, 2), Fraction(-2, 3), Fraction(0),
                     Fraction(7, 5)]),
    "i_sqrt2": (lambda: [mp.mpc(1), mp.mpc(0, 1), mp.sqrt(2),
                         mp.mpc(0, 1) * mp.sqrt(2)],
                [Fraction(2, 3), Fraction(-1, 4), Fraction(5), Fraction(1, 6)]),
    "sqrt3_sqrt5_wide": (lambda: [mp.mpf(1), mp.sqrt(3), mp.sqrt(5),
                                  mp.sqrt(15)],
                         [Fraction(-17, 29), Fraction(31, 13), Fraction(8, 19),
                          Fraction(-23, 7)]),
    "pi": (lambda: [mp.mpf(1), mp.sqrt(5)], lambda: +mp.pi),
    "e": (lambda: [mp.mpf(1), mp.sqrt(3), mp.sqrt(5), mp.sqrt(15)],
          lambda: mp.exp(1)),
}


class TestRawRelationGate:
    @pytest.mark.parametrize("prec", [60, 120, 200])
    @pytest.mark.parametrize("case", sorted(_GATE_CASES))
    def test_accepted_agrees_with_integer_relation(self, case, prec):
        # raw_relation's flag is integer_relation's verdict, and an accepted
        # pair carries the same relation
        make_basis, value = _GATE_CASES[case]
        with mp.workdps(prec + 20):
            basis = make_basis()
            x = (_field_member(basis, value) if isinstance(value, list)
                 else value())
            xs = [x, *basis]
            raw = lat.raw_relation(xs, precision=prec)
            gated = lat.integer_relation(xs, precision=prec)
        assert raw.accepted == (gated is not None)
        if gated is not None:
            assert raw.coefficients == gated.coefficients
        if case in ("pi", "e"):
            assert not raw.accepted
        elif prec >= 120:
            assert raw.accepted
            m = raw.coefficients
            assert [Fraction(mj, m[0]) for mj in m[1:]] == value


def sqrt_gate(reduced, vals, n, prec):
    """The acceptance gate with square-root norms and its thresholds
    computed per call by non-integer powers of ten: the oracle that the
    gate on exact squared norms must agree with."""
    junk_floor = (prec - lat.scaling_guard(prec)) / n
    cap_digits = junk_floor - max(5.0, 0.15 * junk_floor)
    with mp.workdps(prec + 10):
        tight = mp.mpf(10) ** (-lat.TIGHT * prec)
        loose = min(mp.mpf(10) ** (lat.LOOSE * prec), mp.mpf(10) ** cap_digits)
        best = None
        for row in reduced:
            coeffs = row[:n]
            if not any(coeffs):
                continue
            norm = mp.sqrt(mp.fsum(mp.mpf(c) ** 2 for c in coeffs))
            if norm >= loose:
                continue
            resid = abs(mp.fsum((c * v for c, v in zip(coeffs, vals)),
                                absolute=False))
            if resid >= tight:
                continue
            if best is None or norm < best[0]:
                best = (norm, coeffs, resid)
    return best


def random_algebraic_inputs(rng, prec):
    """(name, value list) pairs: values in the span of an independent
    algebraic basis, values outside it, relations whose norms sit just
    inside and just outside the gate's cap, and near-relations whose
    residuals sit just below and just above its tight bound."""
    def q():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 30))

    def big(digits):
        return rng.randint(10 ** digits // 2, 10 ** digits)

    k = rng.choice([2, 3, 5, 6, 7, 10, 11])
    r = mp.sqrt(k)
    a = mp.root(rng.choice([2, 3, 5]), 4)
    z = mp.exp(2j * mp.pi / rng.choice([5, 7]))
    quad, quart, cyc = [mp.mpf(1), r], [a ** j for j in range(3)], \
        [z ** j for j in range(4)]
    # the norm cap for three values: 10^(LOOSE*prec), or below the junk floor
    junk_floor = (prec - lat.scaling_guard(prec)) / 3
    cap = int(min(lat.LOOSE * prec,
                  junk_floor - max(5.0, 0.15 * junk_floor)))
    tight = int(lat.TIGHT * prec)
    return [
        ("quadratic", [_field_member(quad, [q(), q()]), *quad]),
        ("quartic", [_field_member(quart, [q(), q(), q()]), *quart]),
        ("cyclotomic", [mp.fsum(c * b for c, b in
                                zip([rng.randint(-9, 9) for _ in cyc], cyc)),
                        *cyc]),
        ("outside_quartic", [a ** 3, *quart]),
        ("outside_quadratic", [mp.cbrt(k), *quad]),
        ("near", [r, r + mp.mpf(10) ** -200]),
        ("resid_in", [r, r + mp.mpf(10) ** -(tight + 6)]),
        ("resid_out", [r, r + mp.mpf(10) ** -(tight - 6)]),
        ("norm_in", [(big(cap - 4) + big(cap - 4) * r) / big(cap - 4),
                     *quad]),
        ("norm_out", [(big(cap + 4) + big(cap + 4) * r) / big(cap + 4),
                      *quad]),
    ]


class TestSquaredGate:
    @pytest.mark.parametrize("prec", [160, 320])
    def test_same_row_as_the_square_root_gate(self, monkeypatch, prec):
        # every rung of every gradual reduction, gated both ways
        rng = random.Random(prec)
        verdicts = {}
        for _ in range(3):
            with mp.workdps(prec + 20):
                cases = random_algebraic_inputs(rng, prec)
            for name, xs in cases:
                vals = lat._prepare(xs, prec)
                rungs = []
                integral = lat._lll_integral
                with monkeypatch.context() as m:
                    m.setattr(lat, "_lll_integral",
                              lambda rows: rungs.append(integral(rows))
                              or rungs[-1])
                    lat.lll_reduce(lat._candidate_rows(vals, prec))
                for reduced in rungs:
                    for rows in (reduced, [lat._shortest(reduced, len(vals))]):
                        old = sqrt_gate(rows, vals, len(vals), prec)
                        new = lat._scan_reduced(rows, vals, len(vals), prec)
                        assert (new and new[1]) == (old and old[1]), name
                        verdicts.setdefault(name, set()).add(old is None)
        # accepted on some rung (False) or on none (True)
        for name in ("quadratic", "cyclotomic", "resid_in", "norm_in"):
            assert False in verdicts[name], name
        for name in ("outside_quartic", "outside_quadratic", "resid_out",
                     "norm_out"):
            assert verdicts[name] == {True}, name
        if prec == 320:
            assert verdicts["near"] == {True}

    def test_warm_call_takes_no_root_and_no_fractional_power(self,
                                                              monkeypatch):
        with mp.workdps(340):
            s = mp.sqrt(3)
            xs = [s, mp.mpf(1), s, 2 * s]
        assert lat.integer_relation(xs, precision=320) is not None

        def no_sqrt(*args, **kwargs):
            raise AssertionError("square root taken")

        power = mp.mpf.__pow__

        def integer_power(x, e):
            if not isinstance(e, int) and not (isinstance(e, mp.mpf)
                                               and mp.isint(e)):
                raise AssertionError(f"non-integer power {e} taken")
            return power(x, e)

        monkeypatch.setattr(mp, "sqrt", no_sqrt)
        monkeypatch.setattr(mp.mpf, "__pow__", integer_power)
        rel = lat.integer_relation(xs, precision=320)
        assert rel.coefficients == (1, 0, 1, 0)


class TestMinimalPolynomial:
    def cube_root_real_part(self, re, im, dps):
        with mp.workdps(dps):
            return 2 * (mp.mpc(re, im) ** mp.mpf("1/3")).real

    def test_cubic_from_100_digits_case_a(self):
        b = self.cube_root_real_part(10, 30, 120)
        poly = lat.minimal_polynomial(b, max_degree=6, precision=100)
        assert poly.coeffs == (-20, -30, 0, 1)

    def test_cubic_from_100_digits_case_b(self):
        with mp.workdps(120):
            z = 38 * mp.mpc(13, 3 * mp.sqrt(15))
            b = 2 * (z ** mp.mpf("1/3")).real
        poly = lat.minimal_polynomial(b, max_degree=6, precision=100)
        assert poly.coeffs == (-988, -228, 0, 1)

    def test_cubic_from_100_digits_case_c(self):
        with mp.workdps(120):
            b = 2 * (mp.mpc(7, mp.sqrt(15)) ** mp.mpf("1/3")).real
        poly = lat.minimal_polynomial(b, max_degree=6, precision=100)
        assert poly.coeffs == (-14, -12, 0, 1)

    def test_trivial_cases(self):
        poly = lat.minimal_polynomial(mp.mpf(3), max_degree=4, precision=40)
        assert poly.coeffs == (-3, 1)
        with mp.workdps(60):
            seven_thirds = mp.mpf(7) / 3
        poly = lat.minimal_polynomial(seven_thirds, max_degree=4, precision=40)
        assert poly.coeffs == (-7, 3)

    def test_complex_inputs(self):
        with mp.workdps(80):
            poly = lat.minimal_polynomial(mp.mpc(0, 1), max_degree=4, precision=60)
            assert poly.coeffs == (1, 0, 1)
            z7 = mp.expjpi(mp.mpf(2) / 7)
            poly = lat.minimal_polynomial(z7, max_degree=8, precision=60)
            assert poly.coeffs == (1, 1, 1, 1, 1, 1, 1)

    def test_none_for_transcendental(self):
        assert lat.minimal_polynomial(mp.pi, max_degree=4, precision=60) is None

    def test_poly_repr_and_eval(self):
        p = lat.IntPolynomial((-20, -30, 0, 1))
        assert p.degree == 3 and p(mp.mpf(2)) == -72
        # normalization: content and sign
        assert lat.IntPolynomial((4, 0, -2)).coeffs == (-2, 0, 1)


# catalog of generators with known minimal polynomials (degree <= 12)
CATALOG = [
    ((-2, 0, 1), lambda: mp.sqrt(2)),
    ((-1, -1, 1), lambda: (1 + mp.sqrt(5)) / 2),
    ((-2, 0, 0, 1), lambda: mp.cbrt(2)),
    ((-1, -2, 1, 1), lambda: 2 * mp.cos(2 * mp.pi / 7)),
    ((1, 0, -10, 0, 1), lambda: mp.sqrt(2) + mp.sqrt(3)),
    ((-2, 0, 0, 0, 0, 1), lambda: mp.root(2, 5)),
    ((-1, 3, 6, -4, -5, 1, 1), lambda: 2 * mp.cos(2 * mp.pi / 13)),
    ((-2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), lambda: mp.root(2, 12)),
]


def shifted_minpoly(coeffs, q0: Fraction, q1: Fraction):
    """Exact minimal polynomial of q0 + q1*alpha from that of alpha."""
    k = len(coeffs) - 1
    # P((x - q0)/q1) * q1^k, coefficients via binomial expansion
    out = [Fraction(0)] * (k + 1)
    for i, c in enumerate(coeffs):
        # c * (x - q0)^i * q1^(k-i)
        for j in range(i + 1):
            out[j] += c * math.comb(i, j) * (-q0) ** (i - j) * q1 ** (k - i)
    lcm = 1
    for f in out:
        lcm = lcm * f.denominator // math.gcd(lcm, f.denominator)
    return lat.IntPolynomial(tuple(int(f * lcm) for f in out))


class TestDegreeMinimality:
    def test_known_degree_corpus(self):
        rng = random.Random(23)
        for _ in range(20):
            coeffs, mk = CATALOG[rng.randrange(len(CATALOG))]
            q0 = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            q1 = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
            expected = shifted_minpoly(coeffs, q0, q1)
            # heights reach ~10^11 over 13 values, so the s(n+1) heuristic
            # wants ~170 digits minimum; 400 leaves honest margin
            with mp.workdps(460):
                val = q0.numerator / mp.mpf(q0.denominator) + \
                    q1.numerator / mp.mpf(q1.denominator) * mk()
            got = lat.minimal_polynomial(val, max_degree=12, precision=400)
            assert got is not None and got.coeffs == expected.coeffs
            # soundness: confirm at twice the precision
            with mp.workdps(820):
                val2 = q0.numerator / mp.mpf(q0.denominator) + \
                    q1.numerator / mp.mpf(q1.denominator) * mk()
                assert abs(got(val2)) < mp.mpf(10) ** -700 * max(
                    abs(c) for c in got.coeffs)


def express_in_basis(a, basis, precision):
    """(q, residual) with a = sum q_j basis_j, read off the relation
    m_0 a = sum m_j basis_j that integer_relation finds, or None."""
    rel = lat.integer_relation([a] + list(basis), precision=precision)
    if rel is None:
        return None
    m0, *m = rel.coefficients
    assert m0 != 0
    return [Fraction(mj, m0) for mj in m], rel.residual


class TestExpressInBasis:
    def test_golden_over_1_sqrt5(self):
        with mp.workdps(70):
            phi = (1 + mp.sqrt(5)) / 2
            out = express_in_basis(phi, [mp.mpf(1), mp.sqrt(5)], precision=60)
        assert out is not None
        qs, resid = out
        assert qs == [Fraction(1, 2), Fraction(1, 2)]
        assert resid < mp.mpf(10) ** -40

    def test_unit_vector(self):
        with mp.workdps(70):
            basis = [mp.mpf(1), mp.sqrt(2), mp.sqrt(3)]
            qs, _ = express_in_basis(mp.sqrt(3), basis, precision=60)
        assert qs == [Fraction(0), Fraction(0), Fraction(1)]

    def test_random_biquadratic_roundtrip(self):
        rng = random.Random(5)
        with mp.workdps(140):
            basis = [mp.mpf(1), mp.sqrt(3), mp.sqrt(5), mp.sqrt(15)]
            for _ in range(5):
                qs_true = [Fraction(rng.randint(-50, 50), rng.randint(1, 100))
                           for _ in range(4)]
                val = mp.fsum(q.numerator / mp.mpf(q.denominator) * b
                              for q, b in zip(qs_true, basis))
                out = express_in_basis(val, basis, precision=120)
                assert out is not None and out[0] == qs_true

    def test_complex_element(self):
        with mp.workdps(90):
            i_ = mp.mpc(0, 1)
            basis = [mp.mpc(1), i_, mp.sqrt(2) * i_]
            val = mp.mpc(1, 2) / 3 + mp.sqrt(2) * i_ / 5
            out = express_in_basis(val, basis, precision=70)
        assert out is not None
        assert out[0] == [Fraction(1, 3), Fraction(2, 3), Fraction(1, 5)]
