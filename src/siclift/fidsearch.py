"""Numerical SIC fiducial search and high-precision refinement.

A fiducial is a unit vector, held as a tuple of mpmath complex entries,
whose Weyl-Heisenberg orbit forms an equiangular set: (d+1)|chi_p|^2 = 1 for
every p not = 0 mod d. The search runs at double
precision (numpy/scipy) inside an eigenspace of the canonical order-3 unitary;
refinement is a ladder of Gauss-Newton sweeps whose working precision roughly
doubles per sweep. A sweep runs on Python ints on the fixed-point grid 2^-w
(floor onto the grid, >> w after a product, every sum exact and shifted
once), with an analytic Wirtinger Jacobian read from the same table of
products conj(psi_j) tau^k as the overlap sums; mpmath holds the errors, the
final normalization and the certifying overlap table.

numpy and scipy are imported by the seed-search functions that use them, so
that loading a fiducial or a certificate, and verifying one, never loads
either library.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass, field
from operator import mul
from typing import TYPE_CHECKING

import mpmath as mp

from . import heisenberg as hb
from .bignum import (format_decimal, guarded, parse_decimal,
                     significant_digits)
from .errors import (PrecisionError, RefinementError, SearchError,
                     SingularMatrixError)
from .modring import (ModMatrix, dprime, esl2_elements, fa_matrix, span_group,
                      zauner_matrix)

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger("siclift.fidsearch")

_SYMMETRY_MATRIX = {"fz": zauner_matrix, "fa": fa_matrix}

# Digits a double-precision seed carries into refinement.
SEED_DIGITS = 14

# Largest overlap mismatch at which a candidate still fixes the projector.
STABILIZER_TOL = 1e-10


@dataclass(frozen=True)
class Fiducial:
    d: int
    vector: tuple  # of mpc, normalized at guarded(precision)
    precision: int
    symmetry: str | None = None  # "fz" | "fa" | None
    seed: int | None = None
    error: object = None  # mpf SIC error, recorded at creation
    # overlap table at `precision`, computed at creation for the SIC error
    table: hb.OverlapTable | None = field(default=None, compare=False,
                                          repr=False)

    @classmethod
    def create(cls, d, vector, precision, symmetry=None, seed=None):
        """Convert the entries (any numbers mpc() takes) and normalize them
        at guarded precision, then record the SIC error and the overlap
        table; the only intended constructor."""
        with mp.workdps(guarded(precision)):
            # mpc() rounds to the ambient context, so the conversion must
            # run inside the guarded one
            v = tuple(mp.mpc(e) for e in vector)
            norm = mp.sqrt(mp.fsum(abs(e) ** 2 for e in v))
            if not norm or not mp.isfinite(norm):
                raise ValueError("a zero or non-finite vector is no fiducial")
            c = mp.mpc(1 / norm)
            v = tuple(c * e for e in v)
        table = hb.overlaps(v, d, precision)
        return cls(d, v, precision, symmetry, seed, table.sic_error(), table)

    def overlaps(self, precision: int) -> hb.OverlapTable:
        """The overlap table at `precision` digits: the one kept from
        creation at the fiducial's own precision, else computed anew."""
        if precision == self.precision:
            return self.table
        return hb.overlaps(self.vector, self.d, precision)

    def save(self, path: str):
        tag = self.symmetry or "none"
        seed = "none" if self.seed is None else str(self.seed)
        lines = [f"SIC-FIDUCIAL v1 d={self.d} prec={self.precision} "
                 f"symmetry={tag} seed={seed}"]
        for z in self.vector:
            lines.append(f"{format_decimal(z.real, self.precision)} "
                         f"{format_decimal(z.imag, self.precision)}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str) -> "Fiducial":
        with open(path) as fh:
            header = fh.readline().split()
            if header[:2] != ["SIC-FIDUCIAL", "v1"]:
                raise ValueError("not a fiducial file")
            fields = dict(kv.split("=") for kv in header[2:])
            if "d" not in fields or "prec" not in fields:
                raise ValueError("fiducial header needs d= and prec=")
            d, prec = int(fields["d"]), int(fields["prec"])
            if d < 1 or prec < 1:
                raise ValueError("fiducial d= and prec= must be positive")
            tag = fields.get("symmetry", "none")
            seed = fields.get("seed", "none")
            parts = [line.split() for line in fh if line.strip()]
        if len(parts) != d:
            raise ValueError(f"expected {d} entries, got {len(parts)}")
        # an honest save stores `prec` significant digits of every nonzero
        # part, so a larger claim is refused before any parsing at it; an
        # all-zero vector is left to create(), which refuses it
        stored = max((n for part in parts for n in map(significant_digits,
                                                        part)), default=0)
        if stored and prec > stored:
            raise ValueError(f"fiducial precision {prec} exceeds the {stored} "
                             "significant digits its entries store")
        with mp.workdps(guarded(prec)):
            entries = [mp.mpc(parse_decimal(re_s, prec),
                              parse_decimal(im_s, prec)) for re_s, im_s in parts]
        return cls.create(d, entries, prec,
                          symmetry=None if tag == "none" else tag,
                          seed=None if seed == "none" else int(seed))


# ---------------------------------------------------------------------------
# double-precision seed search


def _np_unitary(F: ModMatrix, d: int) -> np.ndarray:
    import numpy as np
    U = hb.symplectic_unitary(F, d, 20)
    with mp.workdps(30):
        return np.array([[complex(e) for e in row] for row in U])


def _eigen_sectors(U: np.ndarray) -> list[tuple[complex, np.ndarray]]:
    """Orthonormal bases of the eigenspaces of an order-3 (up to phase)
    unitary, largest multiplicity first."""
    import numpy as np
    d = U.shape[0]
    cube = U @ U @ U
    c = cube[0, 0]
    if np.abs(cube - c * np.eye(d)).max() > 1e-8:
        raise ValueError("symmetry unitary is not order 3 up to a phase")
    mu = c ** (1 / 3)
    sectors = []
    for k in range(3):
        lam = mu * np.exp(2j * np.pi * k / 3)
        # orthonormal null-space basis of U - lam via SVD
        _, s, vh = np.linalg.svd(U - lam * np.eye(d))
        cols = vh[s < 1e-8].conj().T
        if cols.shape[1]:
            sectors.append((lam, cols))
    sectors.sort(key=lambda t: (-t[1].shape[1], np.angle(t[0])))
    return sectors


def _np_sic_residuals(x: np.ndarray, B: np.ndarray, d: int,
                      idx: np.ndarray) -> np.ndarray:
    import numpy as np
    k = B.shape[1]
    z = x[:k] + 1j * x[k:]
    psi = B @ z
    nrm = np.linalg.norm(psi)
    if nrm < 1e-12:
        return np.full(d * d, 1e6)
    psi = psi / nrm
    corr = np.conj(psi[idx]) * psi[None, :]          # [p1, s]
    amp = np.fft.ifft(corr, axis=1) * d              # [p1, p2] = chi / tau-phase
    g = (d + 1) * np.abs(amp) ** 2 - 1.0
    g[0, 0] = 0.0
    return g.ravel()


def seed_search(d: int, symmetry: str | None = "fz", attempts: int = 24,
                seed: int = 0) -> Fiducial:
    """Best-of-`attempts` random-restart search for a SIC fiducial at double
    precision, restricted to one symmetry eigenspace at a time (largest
    multiplicity first, then the others)."""
    if not 4 <= d <= 24:
        raise ValueError("seed search supports 4 <= d <= 24")
    if symmetry is not None and symmetry not in _SYMMETRY_MATRIX:
        raise ValueError(f"unknown symmetry tag {symmetry!r}")
    import numpy as np
    from scipy.optimize import least_squares
    rng = np.random.default_rng(seed)
    idx = (np.arange(d)[:, None] + np.arange(d)[None, :]) % d
    if symmetry is None:
        sectors = [(None, np.eye(d, dtype=complex))]
    else:
        F = _SYMMETRY_MATRIX[symmetry](d)
        sectors = _eigen_sectors(_np_unitary(F, d))
    best_err, best_psi = np.inf, None
    for snum, (lam, B) in enumerate(sectors):
        k = B.shape[1]
        sector_err = np.inf
        for _ in range(attempts):
            x0 = rng.standard_normal(2 * k)
            fit = least_squares(_np_sic_residuals, x0, args=(B, d, idx),
                                method="lm", xtol=1e-15, ftol=1e-15,
                                max_nfev=400 * (2 * k))
            err = np.abs(fit.fun).max()
            if err < sector_err:
                sector_err = err
            if err < best_err:
                z = fit.x[:k] + 1j * fit.x[k:]
                psi = B @ z
                best_err, best_psi = err, psi / np.linalg.norm(psi)
            if best_err < 1e-12:
                break
        log.info("seed_search d=%d sector %d (dim %d): best residual %.3g",
                 d, snum, k, sector_err)
        if best_err < 1e-10:
            break
    if best_err >= 1e-10 or best_psi is None:
        raise SearchError(
            f"no restart converged for d={d} (best residual {best_err:.3g})",
            best_error=best_err)
    with mp.workdps(guarded(SEED_DIGITS)):
        # gauge: make the largest component real positive
        kbig = int(np.argmax(np.abs(best_psi)))
        phase = np.conj(best_psi[kbig]) / np.abs(best_psi[kbig])
        entries = [mp.mpc(float((z * phase).real), float((z * phase).imag))
                   for z in best_psi]
    return Fiducial.create(d, entries, SEED_DIGITS, symmetry=symmetry,
                           seed=seed)


# ---------------------------------------------------------------------------
# high-precision refinement


def _grid_bits(prec: int) -> int:
    """Bits w of the grid 2^-w a sweep at `prec` digits works on: the
    guarded digits plus 16 bits."""
    return math.ceil(guarded(prec) * math.log2(10)) + 16


def _on_grid(zs, w: int) -> list:
    """(floor(Re z 2^w), floor(Im z 2^w)) for each mpmath complex z of
    modulus at most about one; exact."""
    with mp.workprec(w + 8):
        return [(int(mp.floor(mp.ldexp(z.real, w))),
                 int(mp.floor(mp.ldexp(z.imag, w)))) for z in zs]


def _first_products(psi: list, w: int, taus: list) -> list:
    """[j][k] -> conj(psi_j) tau^k on the grid: the one table the overlap
    sums and the Jacobian read."""
    return [[((a * c + b * e) >> w, (a * e - b * c) >> w) for c, e in taus]
            for a, b in psi]


def _grid_overlaps(psi: list, first: list, d: int, w: int) -> dict:
    """chi_p = sum_s conj(psi_{s+p1}) tau^(p1 p2 + 2 p2 s) psi_s over one
    period p in (Z/d)^2, each an exact sum shifted onto the grid once."""
    n = 2 * d
    chi = {}
    for p1 in range(d):
        for p2 in range(d):
            sr = si = 0
            for s, (a, b) in enumerate(psi):
                u, v = first[(s + p1) % d][(p1 * p2 + 2 * p2 * s) % n]
                sr += u * a - v * b
                si += u * b + v * a
            chi[p1, p2] = (sr >> w, si >> w)
    return chi


def _period_error(psi: list, d: int, w: int, taus: list):
    """Max SIC residual of psi/|psi| over one period, psi on the grid 2^-w;
    an mpf in the caller's context."""
    chi = _grid_overlaps(psi, _first_products(psi, w, taus), d, w)
    nrm = sum(a * a + b * b for a, b in psi) >> w
    worst = max(abs((d + 1) * (x * x + y * y) - nrm * nrm)
                for p, (x, y) in chi.items() if p != (0, 0))
    return mp.mpf(worst) / (nrm * nrm)


def _sic_system(psi: list, d: int, gauge: int, w: int,
                taus: list) -> tuple[list, list]:
    """Residuals and analytic Wirtinger Jacobian of the SIC system on the
    grid 2^-w, in the real parametrization (u_0..u_{d-1}, v_0..v_{d-1}),
    including the norm row and the Im(psi_gauge) = 0 phase-fixing row. The
    derivatives of chi_p and of its conjugate with respect to psi_t are
    entries of the table the overlap sums read: conj(psi_{t+p1}) tau^k and
    conj(psi_{t-p1}) tau^-k'."""
    n, one, k = 2 * d, 1 << w, 2 * (d + 1)
    first = _first_products(psi, w, taus)
    rows, res = [], []
    for (p1, p2), (x, y) in _grid_overlaps(psi, first, d, w).items():
        if p1 == 0 and p2 == 0:
            continue
        re_row, im_row = [], []
        for t in range(d):
            a1, a2 = first[(t + p1) % d][(p1 * p2 + 2 * p2 * t) % n]
            j = (t - p1) % d
            b1, b2 = first[j][-(p1 * p2 + 2 * p2 * j) % n]
            # 2 (d+1) (conj(chi) dchi + chi dconj(chi)): real part, and
            # minus the imaginary part
            re_row.append(k * (x * (a1 + b1) + y * (a2 - b2)) >> w)
            im_row.append(-k * (x * (a2 + b2) - y * (a1 - b1)) >> w)
        rows.append(re_row + im_row)
        res.append(((d + 1) * (x * x + y * y) >> w) - one)
    rows.append([2 * a for a, _ in psi] + [2 * b for _, b in psi])
    res.append((sum(a * a + b * b for a, b in psi) >> w) - one)
    grow = [0] * n
    grow[d + gauge] = one
    rows.append(grow)
    res.append(psi[gauge][1])
    return rows, res


def _solve_grid(a: list, b: list, w: int) -> list:
    """x with a x = b on the grid 2^-w (w > 32), by Gaussian elimination
    with partial pivoting; a and b are left as they are. Each multiplier,
    update and unknown is floored onto the grid once. A pivot below
    2^(32-w) times the largest entry (or one), which leaves its quotients
    fewer than 32 bits above the grid's rounding, raises
    SingularMatrixError."""
    n = len(b)
    a, b = [list(row) for row in a], list(b)
    scale = max(1 << w, max(abs(x) for row in a for x in row))
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) << (w - 32) < scale:
            raise SingularMatrixError(f"pivot {col} below precision floor")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        top, p = a[col], a[col][col]
        for r in range(col + 1, n):
            f = (a[r][col] << w) // p
            if f:
                row = a[r]
                for c in range(col + 1, n):
                    row[c] -= f * top[c] >> w
                b[r] -= f * b[col] >> w
    x = [0] * n
    for r in range(n - 1, -1, -1):
        x[r] = ((b[r] << w) - sum(a[r][c] * x[c] for c in range(r + 1, n))
                ) // a[r][r]
    return x


def _sweep(psi: list, d: int, gauge: int, w: int, taus: list, err):
    """One Gauss-Newton sweep on the grid 2^-w: the correction delta from
    the normal equations, whose symmetric J^T J is summed on its upper
    triangle and mirrored, then the trials psi + delta/2^k for k = 0, 1, 2,
    stopping at the first whose error is below err. Returns the best
    trial's (error, vector)."""
    rows, res = _sic_system(psi, d, gauge, w, taus)
    cols = list(zip(*rows))
    n = 2 * d
    jtj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            jtj[i][j] = jtj[j][i] = sum(map(mul, cols[i], cols[j])) >> w
    rhs = [-sum(map(mul, c, res)) >> w for c in cols]
    delta = _solve_grid(jtj, rhs, w)
    best = None
    for k in range(3):
        trial = [(a + (delta[t] >> k), b + (delta[d + t] >> k))
                 for t, (a, b) in enumerate(psi)]
        e = _period_error(trial, d, w, taus)
        if best is None or e < best[0]:
            best = (e, trial)
        if e < err:
            break
    return best


def refine(fid: Fiducial, target_digits: int) -> Fiducial:
    """Polish a fiducial until its SIC error drops below
    10^(10 - target_digits). Working precision roughly doubles per accepted
    sweep; three sweeps without improvement abort with diagnostics. The
    sweeps run on Python ints on the grid 2^-w; the result's gauge entry
    (its largest) is real."""
    err = fid.error
    goal = mp.mpf(10) ** (10 - target_digits)
    if err > mp.mpf("1e-8"):
        raise RefinementError(
            f"input error {mp.nstr(err, 3)} outside the Newton basin",
            best_error=err, sweeps=0)
    if err < goal and fid.precision >= target_digits:
        return fid
    d = fid.d
    w = _grid_bits(fid.precision)
    with mp.workdps(guarded(fid.precision)):
        cur = list(fid.vector)
        gauge = max(range(d), key=lambda i: abs(cur[i]))
        ph = mp.conj(cur[gauge]) / abs(cur[gauge])
        cur = _on_grid([z * ph for z in cur], w)
    stall, sweeps = 0, 0
    while True:
        sweeps += 1
        if sweeps > 80:
            raise RefinementError("sweep budget exhausted",
                                  best_error=err, sweeps=sweeps)
        correct = max(10, int(-mp.log(err, 10)))
        prec = min(target_digits, 2 * correct) + 25
        # the grid only grows: a sweep never works on fewer bits than
        # the vector already carries
        k = max(0, _grid_bits(prec) - w)
        cur, w = [(a << k, b << k) for a, b in cur], w + k
        with mp.workdps(guarded(prec)):
            taus = _on_grid(hb.tau_powers(d, prec), w)
            new_err, cand = _sweep(cur, d, gauge, w, taus, err)
        log.debug("refine d=%d sweep %d at %d digits: %s -> %s",
                  d, sweeps, prec, mp.nstr(err, 3), mp.nstr(new_err, 3))
        if new_err < err:
            cur, err, stall = cand, new_err, 0
        else:
            stall += 1
            if stall >= 3:
                raise RefinementError(
                    f"stagnated at error {mp.nstr(err, 3)} after {sweeps} sweeps",
                    best_error=err, sweeps=sweeps)
        if err < goal:
            break
    with mp.workdps(guarded(target_digits)):
        # the gauge entry is real by construction: its imaginary part is
        # noise from the last sweep, set to exactly zero so that the result
        # depends on the fiducial alone; the grid values enter exactly
        cur[gauge] = (cur[gauge][0], 0)
        with mp.workprec(max(abs(x).bit_length() for z in cur for x in z)):
            psi = [mp.mpc(mp.ldexp(a, -w), mp.ldexp(b, -w)) for a, b in cur]
        nrm = mp.sqrt(mp.fsum(abs(x) ** 2 for x in psi))
        vec = [x / nrm for x in psi]
    out = Fiducial.create(d, vec, target_digits, symmetry=fid.symmetry,
                          seed=fid.seed)
    if out.error >= goal:
        raise RefinementError(
            f"final certification failed: error {mp.nstr(out.error, 3)}",
            best_error=out.error, sweeps=sweeps)
    return out


# ---------------------------------------------------------------------------
# stabilizer detection


def detect_stabilizer(fid: Fiducial, full: bool = False
                      ) -> set[tuple[tuple[int, int], ModMatrix]]:
    """All (p, F) with D_p U_F fixing the fiducial's projector. p is reported
    mod d (displacement conjugation is d-periodic). By default only the
    det +-1 elements of the span r*I + s*F_sym are scanned; full=True sweeps
    all of det +-1.
    The scan compares the overlap table in double precision: a projector
    that is fixed matches to rounding, one that is not misses by far more
    than the tolerances."""
    if fid.error > mp.mpf("1e-30"):
        raise PrecisionError(
            f"stabilizer scan needs error < 1e-30, have {mp.nstr(fid.error, 3)}")
    d, dp = fid.d, dprime(fid.d)
    chi = {q: complex(v) for q, v in fid.table.items()}
    if full:
        cands = esl2_elements(dp)
    else:
        F_sym = _SYMMETRY_MATRIX.get(fid.symmetry or "fz", zauner_matrix)(d)
        cands = [M for M in span_group(F_sym) if M.det() in (1, dp - 1)]
    out = set()
    omega = [cmath.exp(2j * math.pi * k / d) for k in range(d)]
    for F in cands:
        # overlaps of the transported projector: chi_{F^-1 q}, conjugated
        # for det -1
        Finv, anti = F.inv(), F.det() == dp - 1
        moved = {q: chi[Finv.apply(q)] for q in chi}
        if anti:
            moved = {q: v.conjugate() for q, v in moved.items()}
        # phases at q=(0,1) and q=(1,0) determine the displacement part
        a = chi[(0, 1)] / moved[(0, 1)]      # omega^p1
        b = moved[(1, 0)] / chi[(1, 0)]      # omega^p2
        p1 = min(range(d), key=lambda k: abs(a - omega[k]))
        p2 = min(range(d), key=lambda k: abs(b - omega[k]))
        if abs(a - omega[p1]) > 1e-6 or abs(b - omega[p2]) > 1e-6:
            continue
        if all(abs(omega[(q2 * p1 - q1 * p2) % d] * moved[(q1, q2)] - v)
               <= STABILIZER_TOL for (q1, q2), v in chi.items()):
            out.add(((p1, p2), F))
    return out


# ---------------------------------------------------------------------------
# strong centring


def displace(fid: Fiducial, p: tuple[int, int]) -> Fiducial:
    """The fiducial D_p|psi>, same precision and tags: the phased cyclic
    shift (D_p psi)_{s+p1} = tau^(p1 p2 + 2 p2 s) psi_s, with p taken
    mod d'."""
    d, prec = fid.d, fid.precision
    dp, n = dprime(d), 2 * d
    p1, p2 = p[0] % dp, p[1] % dp
    taus, psi = hb.tau_powers(d, prec), fid.vector
    out = [None] * d
    with mp.workdps(guarded(prec)):
        for s in range(d):
            out[(s + p1) % d] = taus[(p1 * p2 + 2 * p2 * s) % n] * psi[s]
    return Fiducial.create(d, out, prec, symmetry=fid.symmetry,
                           seed=fid.seed)


def strongly_centre(fid: Fiducial, return_shift: bool = False):
    """For d = 0 mod 3, pick among the nine displaced candidates D_p|psi>
    (p = 0 mod d/3) the one whose orbit-polynomial coefficients have minimal
    recovered algebraic degree (at most 8); ties break lexicographically in
    p. A displacement changes only the shifts of the stabilizer, not its
    matrices, so every candidate is scored on the phase-twisted overlap
    table of fid under fid's own centralizer, and only the winner is built.
    Other dimensions pass through unchanged. With return_shift, the result
    is the pair (fiducial, chosen index shift)."""
    if fid.d % 3:
        return (fid, (0, 0)) if return_shift else fid
    from .exactify import orbit_coefficient_values, symmetry_structure
    from .lattice import minimal_polynomial

    n = fid.d // 3
    max_degree = 8
    prec = min(fid.precision, max(140, 12 * fid.d))
    unresolved = max_degree + 1
    cent = symmetry_structure(fid).cent
    table = fid.overlaps(prec)
    best = None
    for a in range(3):
        for b in range(3):
            p = ((a * n) % fid.d, (b * n) % fid.d)
            degs = [1]
            for val in orbit_coefficient_values(table.displaced(p), cent):
                poly = minimal_polynomial(val, max_degree, precision=prec)
                if poly is None:
                    # degree above the bound, or too few digits; either way
                    # this shift loses to any fully resolved one
                    degs = [unresolved]
                    break
                degs.append(poly.degree)
            score = (max(degs), (a, b))
            log.info("strongly_centre d=%d shift %s: max coefficient degree %s",
                     fid.d, p,
                     score[0] if score[0] <= max_degree else "unresolved")
            if best is None or score < best[0]:
                best = (score, p)
    if best[0][0] == unresolved:
        raise PrecisionError(
            f"no displacement candidate resolved coefficient degrees at "
            f"{prec} digits (bound {max_degree}); increase precision")
    centred = displace(fid, best[1])
    return (centred, best[1]) if return_shift else centred
