"""Certified-mode ball arithmetic over Python ints.

Oracle: the same operations in exact complex rational arithmetic. A ball
(re, im, r, w) encloses the complex number x when
|x 2^w - (re + i im)| <= r, which is decided exactly in Fractions. Operands
are signed, since the product's >> w floors toward minus infinity, and the
working grids are coarse (small w) so that every rounding is visible.
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from siclift.exactify import _Ball, _radius_below
from siclift.numfield import horner


class Q:
    """Exact complex rational with the operations the ball supports."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        o = _q(o)
        return Q(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = _q(o)
        return Q(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        o = _q(o)
        return Q(self.re * o.re - self.im * o.im,
                 self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def conj(self):
        return Q(self.re, -self.im)


def _q(o):
    return o if isinstance(o, Q) else Q(o)


def encloses(ball, x):
    dx = x.re * 2 ** ball.w - ball.re
    dy = x.im * 2 ** ball.w - ball.im
    return ball.r >= 0 and dx * dx + dy * dy <= ball.r * ball.r


def ball_around(x, w, off=(0, 0)):
    """A ball holding x, its centre moved off x's grid point by off."""
    dx, dy = off
    return _Ball(math.floor(x.re * 2 ** w) + dx,
                 math.floor(x.im * 2 ** w) + dy, abs(dx) + abs(dy) + 2, w)


fractions = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                      st.integers(1, 10 ** 4))
complexes = st.builds(Q, fractions, fractions)
offsets = st.tuples(st.integers(-40, 40), st.integers(-40, 40))
grids = st.integers(0, 96)
ints = st.integers(-10 ** 4, 10 ** 4)

# each step applies to exact values and balls alike; the operand is a ball,
# an int or a Fraction
STEPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "radd": lambda a, b: b + a,
    "rmul": lambda a, b: b * a,
    "conj": lambda a, b: a.conj(),
}


@settings(max_examples=100, deadline=None)
@given(complexes, offsets, grids,
       st.lists(st.tuples(st.sampled_from(sorted(STEPS)),
                          st.one_of(complexes, ints, fractions), offsets),
                min_size=1, max_size=30))
def test_operation_chains_enclose(x, ox, w, chain):
    exact, ball = x, ball_around(x, w, ox)
    for name, operand, off in chain:
        if isinstance(operand, Q):
            exact_operand, ball_operand = operand, ball_around(operand, w, off)
        else:
            exact_operand = ball_operand = operand
        exact = STEPS[name](exact, exact_operand)
        ball = STEPS[name](ball, ball_operand)
        assert encloses(ball, exact), name


# rational unit vectors: a point this far from a centre lies on the ball's
# boundary, where a radius one unit short is caught
UNITS = [Q(1), Q(-1), Q(0, 1), Q(0, -1)] + [
    Q(Fraction(a, 5), Fraction(b, 5)) for a, b in
    ((3, 4), (4, 3), (-3, 4), (4, -3), (-4, -3), (-3, -4))]
tight = st.builds(lambda re, im, r, u: (re, im, r, u),
                  st.integers(-2 ** 104, 2 ** 104),
                  st.integers(-2 ** 104, 2 ** 104),
                  st.integers(0, 2 ** 100), st.sampled_from(UNITS))


def on_boundary(spec, w):
    """A ball with integer centre and radius, and the exact point on its
    boundary in the direction of the unit vector."""
    re, im, r, u = spec
    return _Ball(re, im, r, w), (Q(re, im) + r * u) * Q(Fraction(1, 2 ** w))


@settings(max_examples=300, deadline=None)
@given(tight, tight, st.integers(0, 96))
def test_tight_operands_enclose(x, y, w):
    # radius 0 (exact grid points) and operands on the boundary of wide
    # balls: the product's rounding and every radius term are needed
    (bx, ex), (by, ey) = on_boundary(x, w), on_boundary(y, w)
    for name in ("add", "sub", "mul", "conj"):
        assert encloses(STEPS[name](bx, by), STEPS[name](ex, ey)), name


small = st.builds(Fraction, st.integers(-300, 300), st.integers(1, 64))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.builds(Q, small, small), min_size=50, max_size=50),
       st.builds(Q, small, small), st.lists(offsets, min_size=51,
                                            max_size=51),
       st.integers(8, 96))
def test_horner_chain_encloses(coeffs, z, offs, w):
    # the ball verifier's polynomial evaluation, 50 steps; the last
    # coefficient is an int multiple as in the derivative of a minimal
    # polynomial
    balls = [ball_around(c, w, o) for c, o in zip(coeffs, offs)]
    balls[-1], coeffs[-1] = 3 * balls[-1], 3 * coeffs[-1]
    assert encloses(horner(balls, ball_around(z, w, offs[-1])),
                    horner(coeffs, z))


def test_negative_operands_floor_toward_minus_infinity():
    third = _Ball.exact(-1, 3, 4)            # -16/3 lies in [-6, -5]
    assert (third.re, third.r) == (-6, 1)
    assert encloses(third, Q(Fraction(-1, 3)))
    assert _Ball.exact(-6, 3, 4).r == 0      # an exact division adds nothing
    # (-1 - i)/2 * (1/2): the centre truncates from -1/2 down to -1
    prod = _Ball(-1, -1, 0, 1) * _Ball(1, 0, 0, 1)
    assert (prod.re, prod.im) == (-1, -1)
    assert encloses(prod, Q(Fraction(-1, 4), Fraction(-1, 4)))


def test_exclusion_at_its_boundary():
    # |centre| = 5: a radius of 5 keeps 0 on the boundary, 4 excludes it
    assert not _Ball(3, 4, 5, 0).excludes_zero()
    assert _Ball(3, 4, 4, 0).excludes_zero()
    assert not _Ball(-3, -4, 5, 7).excludes_zero()
    assert _Ball(-3, -4, 4, 7).excludes_zero()
    assert not _Ball(0, 0, 0, 7).excludes_zero()


def test_radius_threshold_at_its_boundary():
    # digits 1: r 2^-w < 1; digits 2 and 3: r 2^-w < 1/10
    assert _radius_below(2 ** 10 - 1, 10, 1)
    assert not _radius_below(2 ** 10, 10, 1)
    for digits in (2, 3):
        assert _radius_below(102, 10, digits)       # 1020 < 1024
        assert not _radius_below(103, 10, digits)   # 1030 >= 1024
    assert _radius_below(0, 0, 1)
