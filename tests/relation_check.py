"""Re-check of an integer relation against higher-precision values of the
same numbers, the soundness oracle that acceptance 7 and the lattice tests
hold the relation engine to."""

import mpmath as mp

from siclift import lattice


def verify_relation(rel, xs, precision: int) -> bool:
    """Whether m_0 x_0 = sum_j m_j x_j holds for rel's coefficients m to
    10^(-TIGHT * precision) times the largest |m_j|, at `precision` digits."""
    vals = lattice._prepare(xs, precision)
    m = rel.coefficients
    with mp.workdps(precision + 10):
        resid = abs(mp.fsum([m[0] * vals[0]] + [-c * v for c, v
                                                in zip(m[1:], vals[1:])],
                            absolute=False))
        bound = mp.mpf(10) ** (-lattice.TIGHT * precision) \
            * max(1, max(abs(c) for c in m))
    return resid < bound
