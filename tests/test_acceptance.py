"""End-to-end acceptance checks. Each numbered check prints one PASS/FAIL
line on the terminal (bypassing capture) and then asserts, so a red run
still shows every verdict reached.

The d=5 run at 1000 digits is shared: checks 5, 6, and 8 all read it, and
so does the pin of its exact content.
Stretch runs (d=7 end-to-end, d=15 shift selection) only execute when
SICLIFT_STRETCH is set; they are large and not part of the default bar.
"""

import os
import random
import time

import mpmath as mp
import pytest

from content_digest import content_digest
import siclift.modring as mr
from siclift.exactify import (method1_exactify, method2_exactify,
                              overlap_minimal_polynomials, verify_exact)
from siclift.fidsearch import refine, seed_search, strongly_centre
from siclift.lattice import (integer_relation, minimal_polynomial,
                             verify_relation)
from siclift.modring import MatGroup, ModMatrix
from siclift.numfield import recognize

STRETCH = bool(os.environ.get("SICLIFT_STRETCH"))


def _verdict(capsys, n, ok, text):
    with capsys.disabled():
        print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"acceptance {n}: {text}"


@pytest.fixture(scope="module")
def accepted_d5():
    t0 = time.monotonic()
    fid = refine(seed_search(5, "fz", attempts=24, seed=11), 1000)
    cert = method2_exactify(fid)
    report = verify_exact(cert)
    return {"fid": fid, "cert": cert, "report": report,
            "elapsed": time.monotonic() - t0}


# ---------------------------------------------------------------------------
# 1: matrix-group identities across the whole dimension range


def test_acceptance_1_matrix_group_suite(capsys):
    t0 = time.monotonic()
    ok = True
    for d in range(4, 51):
        m = mr.dprime(d)
        F = mr.zauner_matrix(d)
        I = ModMatrix.identity(m)
        ok &= F.det() == 1
        ok &= F.trace() % d == (d - 1) % d
        if d % 2:
            ok &= F * F * F == I
        else:
            P = F * F * F
            ok &= P * P == I
    for d in (12, 21, 30, 39, 48):
        Fa = mr.fa_matrix(d)
        ok &= Fa.trace() % d == (d - 1) % d
        A, B = mr.chi_iso(Fa, d)
        ok &= A == mr.fa_bar_matrix(d)
        ok &= B.is_identity()
    dt = time.monotonic() - t0
    ok &= dt < 5
    _verdict(capsys, 1, ok,
             f"canonical symmetry matrices for d=4..50: determinant, trace, "
             f"order, and the five split decompositions, in {dt:.2f}s "
             f"(budget 5s)")


# ---------------------------------------------------------------------------
# 2: d=21 group structure against brute force


def test_acceptance_2_d21_group_structure(capsys):
    t0 = time.monotonic()
    d = 21
    m = mr.dprime(d)
    Fa = mr.fa_matrix(d)
    I = ModMatrix.identity(m)
    brute = set()
    for r in range(m):
        for s in range(m):
            M = I.scale(r) + Fa.scale(s)
            if M.is_invertible():
                brute.add(M)
    G = mr.h2_group(d)
    ok = set(G.elements) == brute
    H4, H6, H8 = mr.maximal_abelian_subgroups(d)
    g_set = set(G.elements)
    for H in (H4, H6, H8):
        ok &= g_set <= set(H.elements)
        ok &= H.is_abelian()
    hbars = mr.hbar_groups()
    ok &= sorted(len(hbars[j]) for j in (4, 6, 8)) == [4, 6, 8]
    dt = time.monotonic() - t0
    ok &= dt < 30
    _verdict(capsys, 2, ok,
             f"d=21 span group equals the brute-force invertible span "
             f"({len(brute)} elements), sits inside all three maximal "
             f"abelian pullbacks, mod-3 factor orders 4/6/8, in "
             f"{dt:.2f}s (budget 30s)")


# ---------------------------------------------------------------------------
# 3: minimal-polynomial recovery of the frozen cubic oracles


def test_acceptance_3_cubic_minimal_polynomials(capsys):
    t0 = time.monotonic()
    targets = [
        (-20, -30, 0, 1),
        (-988, -228, 0, 1),
        (-14, -12, 0, 1),
    ]
    ok = True
    detail = []
    for coeffs in targets:
        with mp.workdps(130):
            roots = mp.polyroots([coeffs[3], coeffs[2], coeffs[1], coeffs[0]])
            real = [r.real for r in roots if abs(r.imag) < mp.mpf(10) ** -100]
            val = max(real, key=abs)
            text = mp.nstr(val, 100)
        with mp.workdps(110):
            got = minimal_polynomial(mp.mpf(text), 6, precision=100)
        hit = got is not None and tuple(got.coeffs) == coeffs
        ok &= hit
        detail.append("x^3%+dx%+d %s" % (coeffs[1], coeffs[0],
                                         "ok" if hit else "MISS"))
    dt = time.monotonic() - t0
    ok &= dt < 10
    _verdict(capsys, 3, ok,
             f"cubic recovery from 100-digit values: {', '.join(detail)}, "
             f"in {dt:.2f}s (budget 10s)")


# ---------------------------------------------------------------------------
# 4: numerical search and refinement across d=4..8


def test_acceptance_4_refinement_d4_to_d8(capsys):
    ok = True
    detail = []
    for d in (4, 5, 6, 7, 8):
        t0 = time.monotonic()
        fid = refine(seed_search(d, "fz", attempts=24, seed=11), 200)
        dt = time.monotonic() - t0
        with mp.workdps(210):
            good = fid.error < mp.mpf(10) ** -190
        ok &= good and dt < 600
        detail.append(f"d={d} {mp.nstr(fid.error, 3)} {dt:.1f}s")
    _verdict(capsys, 4, ok,
             "fiducials at 200 digits with error under 1e-190: "
             + "; ".join(detail) + " (budget 600s each)")


# ---------------------------------------------------------------------------
# 5: end-to-end exactification at d=5 (1000 digits, shared run)


def test_acceptance_5_end_to_end_d5(capsys, accepted_d5):
    cert = accepted_d5["cert"]
    report = accepted_d5["report"]
    ok = report["pass"] is True
    for name in ("lattice_overlaps_are_one", "equiangularity", "hermitian",
                 "trace_is_one", "idempotent"):
        ok &= report["checks"].get(name) is True
    ok &= len(cert.all_overlaps()) == mr.dprime(5) ** 2
    ok &= cert.conjectures["discriminant_squarefree"] == 3
    ok &= recognize(cert.e0, mp.mpf(3) ** mp.mpf("0.5")) is not None
    ok &= accepted_d5["elapsed"] < 3600
    _verdict(capsys, 5, ok,
             f"d=5 exact certificate at 1000 digits: every overlap condition "
             f"and the projector identity hold with zero residue, the "
             f"coefficient field contains sqrt(3), in "
             f"{accepted_d5['elapsed']:.0f}s (budget 3600s)")


def test_content_is_pinned_d5_1000(accepted_d5):
    # seed 11, method 2: the degree-8 overlap level at 1000 digits is the
    # costliest root finding of the lift, and a root that rounds otherwise
    # moves the stored embedding
    assert content_digest(accepted_d5["cert"]) == \
        "e295f49927e10a540da98566436365639e2b0ddc722d1d7184538a675908a33f"


@pytest.mark.skipif(not STRETCH, reason="stretch run, set SICLIFT_STRETCH=1")
def test_acceptance_5_stretch_d7(capsys):
    t0 = time.monotonic()
    fid = refine(seed_search(7, "fz", attempts=24, seed=11), 1500)
    cert = method2_exactify(fid)
    report = verify_exact(cert)
    ok = report["pass"] is True
    ok &= cert.conjectures["discriminant_squarefree"] == 2
    dt = time.monotonic() - t0
    ok &= dt < 3600
    _verdict(capsys, "5s7", ok,
             f"stretch d=7 exact certificate verified in {dt:.0f}s")


@pytest.mark.skipif(not STRETCH, reason="stretch run, set SICLIFT_STRETCH=1")
def test_acceptance_5_stretch_d15_shift(capsys):
    fid = refine(seed_search(15, "fz", attempts=48, seed=11), 340)
    _sc, shift = strongly_centre(fid, return_shift=True)
    from siclift.fidsearch import detect_stabilizer
    mats = {F for _p, F in detect_stabilizer(fid, full=True)}
    allowed = {(0, 0), (5, 10), (10, 5)}
    orbit = {tuple(M.apply(shift)) for M in mats} | {shift}
    ok = bool(orbit & allowed)
    _verdict(capsys, "5s15", ok,
             f"stretch d=15 strongly-centring shift {shift} lies in the "
             f"recorded class {sorted(allowed)} up to stabilizer action")


# ---------------------------------------------------------------------------
# 6: the two lifting routes agree


def test_acceptance_6_method_agreement_d5(capsys, accepted_d5):
    t0 = time.monotonic()
    cert1 = method1_exactify(accepted_d5["fid"])
    m1 = overlap_minimal_polynomials(cert1)
    m2 = overlap_minimal_polynomials(accepted_d5["cert"])
    ok = m1 == m2
    dt = time.monotonic() - t0
    _verdict(capsys, 6, ok,
             f"direct-recognition and alignment routes at d=5 produce "
             f"identical overlap minimal-polynomial multisets "
             f"({len(m2)} entries, degrees up to "
             f"{max(len(p) - 1 for p in m2)}), in {dt:.0f}s")


# ---------------------------------------------------------------------------
# 7: property suites


def _random_invertible(rng, m):
    while True:
        M = ModMatrix(rng.randrange(m), rng.randrange(m),
                      rng.randrange(m), rng.randrange(m), m)
        if M.is_invertible():
            return M


def test_acceptance_7_property_suites(capsys):
    ok = True
    # (a) the splitting map is a homomorphism, 10^3 random pairs per d
    for d in (12, 21):
        m = mr.dprime(d)
        rng = random.Random(d)
        for _ in range(1000):
            A = _random_invertible(rng, m)
            B = _random_invertible(rng, m)
            cA, cB = mr.chi_iso(A, d), mr.chi_iso(B, d)
            if mr.chi_iso(A * B, d) != (cA[0] * cB[0], cA[1] * cB[1]):
                ok = False
            if mr.chi_inv(cA, d) != A:
                ok = False
    hom_ok = ok

    # (b) orbit partitions under 10 random subgroups per dimension
    part_ok = True
    for d in range(4, 22):
        m = mr.dprime(d)
        rng = random.Random(100 + d)
        for _ in range(10):
            G = MatGroup.generated([_random_invertible(rng, m)])
            orbs = mr.orbits(G)
            seen = [q for o in orbs for q in o]
            if len(seen) != m * m or len(set(map(tuple, seen))) != m * m:
                part_ok = False
            gen = next(iter(G.elements))
            where = {}
            for i, o in enumerate(orbs):
                for q in o:
                    where[tuple(q)] = i
            for o in orbs:
                for q in o:
                    if where[tuple(gen.apply(q))] != where[tuple(q)]:
                        part_ok = False
    ok &= part_ok

    # (c) relation-engine soundness: every accept re-verifies at 2x precision
    rng = random.Random(7)
    accepts, false_accepts = 0, 0
    trials = 0
    while trials < 100:
        deg = rng.randrange(2, 13)
        coeffs = [rng.randrange(-20, 21) for _ in range(deg)] + [1]
        if coeffs[0] == 0:
            coeffs[0] = 1
        with mp.workdps(340):
            try:
                roots = mp.polyroots([mp.mpf(c) for c in reversed(coeffs)],
                                     maxsteps=200, extraprec=120)
            except mp.libmp.libhyper.NoConvergence:
                continue
            x = roots[rng.randrange(len(roots))]
            xs = [x ** j for j in range(deg + 1)]
        trials += 1
        rel = integer_relation(xs, precision=160)
        if rel is not None:
            accepts += 1
            if not verify_relation(rel, xs, 320):
                false_accepts += 1
    ok &= false_accepts == 0 and accepts >= 60
    _verdict(capsys, 7, ok,
             f"property suites: splitting homomorphism on 2x1000 random "
             f"pairs ({'ok' if hom_ok else 'FAIL'}), orbit partitions for "
             f"180 random subgroups ({'ok' if part_ok else 'FAIL'}), "
             f"relation soundness {accepts} accepts / {false_accepts} "
             f"false accepts at doubled precision")


# ---------------------------------------------------------------------------
# 8: alignment gap at 1000 digits


def test_acceptance_8_alignment_gap(capsys, accepted_d5):
    cert = accepted_d5["cert"]
    sep = cert.galois.separation
    ok = cert.tower.precision == 1000 and sep >= mp.mpf(10) ** 20
    _verdict(capsys, 8, ok,
             f"winner-vs-runner-up relation-norm ratio at 1000 digits is "
             f"{mp.nstr(sep, 4)} (bar: 1e20)")
