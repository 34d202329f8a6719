"""Dense complex algebra over row tuples of mpmath numbers, at guarded
precision: the brute-force oracle that tests check the package's index
formulas and overlap tables against. The package itself builds no dense
operator but U_F."""

import mpmath as mp

from siclift.bignum import guarded


def identity(n, prec, scale=1):
    """scale times the n x n identity."""
    with mp.workdps(guarded(prec)):
        return tuple(tuple(mp.mpc(scale) if i == j else mp.mpc(0)
                           for j in range(n)) for i in range(n))


def conj(v, prec):
    """The entrywise conjugate of a vector; mpmath rounds it to the
    ambient context, so it runs in the guarded one."""
    with mp.workdps(guarded(prec)):
        return tuple(mp.conj(x) for x in v)


def adjoint(A, prec):
    return tuple(conj(col, prec) for col in zip(*A))


def product(prec, *mats):
    """The product of the matrices, left to right."""
    out = mats[0]
    with mp.workdps(guarded(prec)):
        for B in mats[1:]:
            cols = list(zip(*B))
            out = tuple(tuple(mp.fsum(a * b for a, b in zip(row, col))
                              for col in cols) for row in out)
    return out


def apply(A, v, prec):
    """A v for a vector v."""
    return tuple(row[0] for row in product(prec, A, [[x] for x in v]))


def outer(v, prec):
    """The rank-one |v><v|."""
    with mp.workdps(guarded(prec)):
        return tuple(tuple(a * mp.conj(b) for b in v) for a in v)


def maxdiff(A, B):
    """Largest entry modulus of A - B, for two vectors or two matrices."""
    if isinstance(A[0], (tuple, list)):
        A, B = [e for row in A for e in row], [e for row in B for e in row]
    with mp.workdps(30):
        return max(abs(a - b) for a, b in zip(A, B))
