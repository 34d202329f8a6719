"""Self-check of the benchmark's tracing wrappers (about 15 s).

    python3 perfbench/selfcheck.py

Asserts that
  * an untraced operation runs with no wrapper installed and records no
    layer span;
  * once installed, no siclift namespace still holds an unwrapped original
    of a traced function;
  * a short traced run records at least one call through every alias of
    every traced function: a missed ``from ... import`` alias would
    otherwise report zero without any error;
  * uninstalling restores every binding.
Exits 0 and prints "selfcheck ok" when all hold.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

DIGITS = 200


def _cli(*argv):
    from siclift import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise AssertionError(f"siclift {' '.join(argv)} exited {code}")


def exercise(workdir):
    """Call every traced function through every binding that holds it:
    the package namespace, the command line, and the defining modules."""
    import mpmath as mp
    import siclift as sl
    from siclift import bignum, exactify, fidsearch, lattice, numfield

    fid = sl.refine(sl.seed_search(4, "fz", attempts=24, seed=11), DIGITS)
    sl.symmetry_structure(fid)
    sl.overlaps(fid)
    cert = sl.method2_exactify(fid)
    assert sl.verify_exact(cert)["pass"]
    assert sl.verify_certified(cert, digits=60)["pass"]
    with mp.workdps(80):
        phi = (1 + mp.sqrt(5)) / 2
        assert sl.integer_relation([phi ** 2, phi, 1], precision=60)
        sl.raw_relation([phi ** 2, phi, 1], precision=60)
        root5 = mp.sqrt(5)
    e1 = cert.e1
    assert sl.recognize(e1, e1.generator(1).embed()) is not None
    sl.automorphisms(e1, fixing_level=cert.e0_levels)
    sl.adjoin(sl.FieldTower.rationals(60), [-5, 0, 1], root_selector=root5)

    # defining-module bindings that no other siclift code calls through
    fid = fidsearch.refine(fidsearch.seed_search(4, "fz", attempts=24,
                                                 seed=12), DIGITS)
    assert exactify.verify_exact(exactify.method2_exactify(fid))["pass"]
    with mp.workdps(80):
        assert lattice.integer_relation([phi ** 2, phi, 1], precision=60)
    assert numfield.recognize(e1, e1.generator(1).embed()) is not None
    numfield.automorphisms(e1, fixing_level=cert.e0_levels)
    numfield.adjoin(sl.FieldTower.rationals(60), [-5, 0, 1],
                    root_selector=root5)
    with mp.workdps(80):
        tau = -mp.expjpi(mp.mpf(1) / 4)
        lattice.raw_relation([phi ** 2, phi, 1], precision=60)
    numfield.factor_over_tower(e1, numfield.cyclotomic_polynomial(8),
                               root_selector=tau)
    assert exactify.verify_certified(cert, digits=60)["pass"]
    one = bignum.CMatrix.identity(2, 30)
    bignum.solve_linear(one, bignum.CVector([1, 2], 30))
    _ = 2 * e1.generator(1)  # AlgebraicNumber.__rmul__

    # the command line's bindings
    f = os.path.join(workdir, "d4.fid")
    c = os.path.join(workdir, "d4.cert")
    v = os.path.join(workdir, "values.txt")
    _cli("search", "--dim", "4", "--digits", str(DIGITS), "--seed", "11",
         "--out", f)
    _cli("refine", "--fiducial", f, "--digits", str(DIGITS + 20))
    _cli("symmetry", "--fiducial", f)
    _cli("qpoly", "--fiducial", f, "--digits", "40")
    _cli("exactify", "--fiducial", f, "--out", c)
    _cli("verify", "--cert", c, "--mode", "exact")
    _cli("verify", "--cert", c, "--mode", "certified", "--digits", "60")
    with mp.workdps(80), open(v, "w") as fh:
        fh.write("\n".join(mp.nstr(x, 70) for x in (phi ** 2, phi, 1)))
    _cli("relation", "--values", v, "--digits", "60")
    _cli("relation", "--values", v, "--digits", "60", "--raw")


def main():
    run._import_siclift()
    import tracing

    if tracing.installed_wrappers():
        raise AssertionError("wrappers installed before any tracer")

    idle = tracing.Tracer()
    import siclift as sl
    with idle.op(0, "untraced"):
        fid = sl.refine(sl.seed_search(4, "fz", attempts=24, seed=11),
                        DIGITS)
        assert sl.verify_exact(sl.method2_exactify(fid))["pass"]
        if tracing.installed_wrappers():
            raise AssertionError("an untraced operation installed wrappers")
    if len(idle.spans) != 1:
        raise AssertionError("an untraced operation recorded layer spans")

    tracer = tracing.Tracer()
    tracer.install()
    os.makedirs(run.OUT, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=run.OUT) as workdir, \
                tracer.op(0, "selfcheck"):
            exercise(workdir)
    finally:
        tracer.uninstall()
    left = tracing.installed_wrappers()
    if left:
        raise AssertionError(f"uninstall left wrappers: {left}")

    missing = [f"{name} via {alias}"
               for name, per in tracer.alias_calls().items()
               for alias, n in per.items() if n == 0]
    if missing:
        raise AssertionError("no call recorded through: "
                             + ", ".join(missing))
    for name, per in sorted(tracer.alias_calls().items()):
        print(f"{name}: " + ", ".join(f"{a}={n}" for a, n in per.items()))
    print("selfcheck ok")


if __name__ == "__main__":
    main()
