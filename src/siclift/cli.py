"""Command-line front end for the search / refine / lift / verify pipeline.

One subcommand per pipeline stage. Structured results are JSON with a format
tag and the producing configuration; vectors travel as plain decimal text.
Every run is deterministic given its seed and flag values. The default
working precision can be set through the SICLIFT_DIGITS environment
variable; explicit --digits always wins.

Exit codes: 0 success, 1 verification reported failure, 2 error.
"""

import argparse
import functools
import json
import logging
import os
import sys

import mpmath as mp

from .bignum import format_decimal, parse_decimal
from .errors import FiducialPrecisionError, PrecisionError, SicliftError
from .exactify import (ExactFiducialCertificate, build_orbit_polynomials,
                       method1_exactify, method2_exactify, symmetry_structure,
                       verify_certified, verify_exact)
from .fidsearch import Fiducial, refine, seed_search
from .lattice import integer_relation, minimal_polynomial, raw_relation
from .modring import (centralizer, dprime, fa_matrix, h2_group, orbits,
                      symmetry_image, zauner_matrix)

ENV_DIGITS = "SICLIFT_DIGITS"

# integer flags that count digits, attempts or degrees
_POSITIVE_FLAGS = ("digits", "attempts", "max_degree")


def _check_positive(ns):
    for name in _POSITIVE_FLAGS:
        value = getattr(ns, name, None)
        if value is not None and value < 1:
            flag = "--" + name.replace("_", "-")
            raise SicliftError(f"{flag} must be positive, got {value}")


def _default_digits(fallback: int | None = None) -> int | None:
    raw = os.environ.get(ENV_DIGITS)
    if raw is None:
        return fallback
    try:
        digits = int(raw)
    except ValueError:
        digits = 0
    if digits < 1:
        raise SicliftError(f"{ENV_DIGITS} must be a positive integer, "
                           f"got {raw!r}")
    return digits


def _emit(obj, out: str | None):
    text = json.dumps(obj, indent=1) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _read_values(path: str):
    fh = sys.stdin if path == "-" else open(path)
    try:
        return [line.strip() for line in fh if line.strip()]
    finally:
        if fh is not sys.stdin:
            fh.close()


# ---------------------------------------------------------------------------
# search


def cmd_search(ns) -> int:
    digits = ns.digits or _default_digits(200)
    symmetry = None if ns.symmetry == "none" else ns.symmetry
    fid = seed_search(ns.dim, symmetry, attempts=ns.attempts, seed=ns.seed)
    fid = refine(fid, digits)
    out = ns.out or f"d{ns.dim}.fid"
    fid.save(out)
    with mp.workdps(20):
        print(f"wrote {out}: d={fid.d} digits={fid.precision} "
              f"sic_error={mp.nstr(fid.error, 5)}")
    return 0


# ---------------------------------------------------------------------------
# refine


def cmd_refine(ns) -> int:
    digits = ns.digits or _default_digits(None)
    if digits is None:
        raise SicliftError("give --digits or set " + ENV_DIGITS)
    fid = Fiducial.load(ns.fiducial)
    fid = refine(fid, digits)
    out = ns.out or ns.fiducial
    fid.save(out)
    with mp.workdps(20):
        print(f"wrote {out}: d={fid.d} digits={fid.precision} "
              f"sic_error={mp.nstr(fid.error, 5)}")
    return 0


# ---------------------------------------------------------------------------
# symmetry / orbits / qpoly


def _structure_config(ns, fid):
    return {"fiducial": ns.fiducial, "d": fid.d, "precision": fid.precision,
            "full": bool(getattr(ns, "full", False))}


def cmd_symmetry(ns) -> int:
    fid = Fiducial.load(ns.fiducial)
    st = symmetry_structure(fid, full=ns.full)
    obj = {
        "format": "SIC-SYMMETRY v1",
        "config": _structure_config(ns, fid),
        "d": st.d,
        "index_modulus": st.dp,
        "stabilizer": [{"shift": list(p), "matrix": list(M.entries)}
                       for p, M in st.stabilizer],
        "stabilizer_order": len(st.s0),
        "image_order": len(st.s_pi),
        "centralizer_order": len(st.cent),
        "orbit_sizes": [len(o) for o in st.orbit_list],
    }
    _emit(obj, ns.out)
    return 0


def _named_group(d: int, name: str):
    if name == "h2":
        return h2_group(d)
    F = zauner_matrix(d) if name == "fz" else fa_matrix(d)
    return centralizer(symmetry_image(F))


def cmd_orbits(ns) -> int:
    if bool(ns.fiducial) == bool(ns.dim):
        raise SicliftError("give exactly one of --fiducial or --dim")
    if ns.fiducial:
        fid = Fiducial.load(ns.fiducial)
        st = symmetry_structure(fid)
        d, group_order, orbit_list = st.d, len(st.cent), st.orbit_list
        config = {"fiducial": ns.fiducial, "d": d}
    else:
        d = ns.dim
        G = _named_group(d, ns.symmetry)
        orbit_list = tuple(tuple(map(tuple, o)) for o in orbits(G))
        group_order, config = len(G), {"d": d, "symmetry": ns.symmetry}
    obj = {
        "format": "SIC-ORBITS v1",
        "config": config,
        "d": d,
        "index_modulus": dprime(d),
        "group_order": group_order,
        "orbit_count": len(orbit_list),
        "orbits": [{"representative": list(o[0]), "size": len(o),
                    "indices": [list(q) for q in o]} for o in orbit_list],
    }
    _emit(obj, ns.out)
    return 0


def cmd_qpoly(ns) -> int:
    fid = Fiducial.load(ns.fiducial)
    digits = min(ns.digits or _default_digits(fid.precision), fid.precision)
    st = symmetry_structure(fid)
    polys = build_orbit_polynomials(fid.table, st.cent, cube=ns.cube)
    with mp.workdps(digits + 10):
        body = [{
            "orbit": p.orbit_id,
            "representative": list(p.rep),
            "size": len(p.indices),
            "degree": p.degree,
            "cubed": p.cubed,
            "imag_defect": mp.nstr(p.imag_defect, 5),
            "coefficients": [format_decimal(c.real, digits)
                             for c in p.coefficients],
        } for p in polys]
    obj = {
        "format": "SIC-QPOLY v1",
        "config": {"fiducial": ns.fiducial, "d": fid.d, "digits": digits,
                   "cube": bool(ns.cube)},
        "d": fid.d,
        "polynomials": body,
    }
    _emit(obj, ns.out)
    return 0


# ---------------------------------------------------------------------------
# relation / minpoly


def cmd_relation(ns) -> int:
    lines = _read_values(ns.values)
    if len(lines) < 2:
        raise SicliftError("need at least two values, one per line")
    digits = ns.digits or _default_digits(max(len(s) for s in lines))
    with mp.workdps(digits + 10):
        vals = [parse_decimal(s, digits) for s in lines]
    finder = raw_relation if ns.raw else integer_relation
    rel = finder(vals, precision=digits)
    found = rel is not None
    obj = {
        "format": "SIC-RELATION v1",
        "config": {"values": ns.values, "count": len(vals), "digits": digits,
                   "raw": bool(ns.raw)},
        "found": found,
        "relation": list(rel.coefficients) if found else None,
        "residual": mp.nstr(rel.residual, 5) if found else None,
        "precision": rel.precision if found else digits,
    }
    _emit(obj, ns.out)
    return 0


def cmd_minpoly(ns) -> int:
    if ns.literal is not None:
        text = ns.literal
    elif ns.values is not None:
        lines = _read_values(ns.values)
        if len(lines) != 1:
            raise SicliftError("minpoly expects exactly one value")
        text = lines[0]
    else:
        raise SicliftError("give --values FILE or --literal VALUE")
    digits = ns.digits or _default_digits(len(text))
    with mp.workdps(digits + 10):
        val = parse_decimal(text, digits)
    poly = minimal_polynomial(val, ns.max_degree, precision=digits)
    found = poly is not None
    obj = {
        "format": "SIC-MINPOLY v1",
        "config": {"digits": digits, "max_degree": ns.max_degree},
        "found": found,
        "coefficients": list(poly.coeffs) if found else None,
        "degree": (len(poly.coeffs) - 1) if found else None,
    }
    _emit(obj, ns.out)
    return 0


# ---------------------------------------------------------------------------
# exactify / verify / report


def cmd_exactify(ns) -> int:
    fid = Fiducial.load(ns.fiducial)
    digits = ns.digits or _default_digits(None)
    run = method1_exactify if ns.method == 1 else method2_exactify
    cert = run(fid, digits=digits)
    stem, _ext = os.path.splitext(ns.fiducial)
    out = ns.out or stem + ".cert"
    cert.save(out)
    with mp.workdps(20):
        print(f"wrote {out}: d={cert.d} method={cert.method} "
              f"tower_degree={cert.tower.degree} "
              f"score={mp.nstr(cert.galois.score, 5)}")
    return 0


def cmd_verify(ns) -> int:
    digits = 120 if ns.digits is None else ns.digits
    cert = ExactFiducialCertificate.load(ns.cert)
    if ns.mode == "exact":
        report = verify_exact(cert)
    else:
        report = verify_certified(cert, digits=digits)
    sys.stdout.write(json.dumps(report, indent=1) + "\n")
    return 0 if report["pass"] else 1


# label for fields the report echoes from the file without checking them
_STORED = "(stored, not re-checked)"


def _report_text(cert: ExactFiducialCertificate) -> str:
    levels = " / ".join(f"{lv.tag} (degree {lv.degree})"
                        for lv in cert.tower.levels)
    lines = [
        "SIC-REPORT v1",
        f"dimension: {cert.d}",
        f"method {_STORED}: {cert.method}",
        f"index modulus: {dprime(cert.d)}",
        f"tower: {levels}; total degree {cert.tower.degree}",
        f"coefficient field degree over the rationals {_STORED}: "
        f"{cert.e0.degree}",
        f"overlap field degree over the rationals {_STORED}: "
        f"{cert.e1.degree}",
        f"phase level appended: {'yes' if cert.tau_level_added else 'no'}",
        f"overlaps recorded: {len(cert.index_map)}",
        f"orbit representatives: " +
        " ".join(f"({r[0]},{r[1]})" for r in cert.orbit_reps),
        f"galois rows: {len(cert.galois.matrices)}",
        f"alignment candidates {_STORED}: {cert.galois.candidates}",
        f"conjectures {_STORED}:",
    ]
    for key in sorted(cert.conjectures):
        lines.append(f"  {key}: {cert.conjectures[key]}")
    return "\n".join(lines) + "\n"


def cmd_report(ns) -> int:
    cert = ExactFiducialCertificate.load(ns.cert)
    text = _report_text(cert)
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text)
        print(f"wrote {ns.out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line grammar, built once per process: it is static, since
    SICLIFT_DIGITS is read when a command runs and argparse looks up
    sys.stderr when it prints, and parse_args fills a fresh namespace on
    every call. Only a process that calls main() more than once, such as
    an in-process harness or the tests, saves anything by it; a one-shot
    `siclift` command builds the grammar once either way."""
    top = argparse.ArgumentParser(
        prog="siclift",
        description="Search, refine, exactify, and verify SIC fiducials.",
        epilog=f"Set {ENV_DIGITS} to change the default working precision.")
    top.add_argument("-v", "--verbose", action="store_true",
                     help="log pipeline progress to stderr")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="find and polish a fiducial")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--digits", type=int, default=None)
    p.add_argument("--symmetry", choices=["fz", "fa", "none"], default="fz")
    p.add_argument("--attempts", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("refine", help="polish an existing fiducial file")
    p.add_argument("--fiducial", required=True)
    p.add_argument("--digits", type=int, default=None)
    p.add_argument("--out", default=None,
                   help="default: rewrite the input file")
    p.set_defaults(fn=cmd_refine)

    p = sub.add_parser("symmetry", help="detected stabilizer and index group")
    p.add_argument("--fiducial", required=True)
    p.add_argument("--full", action="store_true",
                   help="scan the full matrix group, not just candidates")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_symmetry)

    p = sub.add_parser("orbits", help="index orbits under a symmetry group")
    p.add_argument("--fiducial", default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--symmetry", choices=["fz", "fa", "h2"], default="fz",
                   help="named group when --dim is used")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_orbits)

    p = sub.add_parser("qpoly", help="orbit polynomials of the overlap table")
    p.add_argument("--fiducial", required=True)
    p.add_argument("--digits", type=int, default=None)
    p.add_argument("--cube", action="store_true",
                   help="use cubed overlap values")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_qpoly)

    p = sub.add_parser("relation",
                       help="integer relation among decimal values")
    p.add_argument("--values", required=True,
                   help="file with one decimal per line, or - for stdin")
    p.add_argument("--digits", type=int, default=None)
    p.add_argument("--raw", action="store_true",
                   help="report the best lattice row even when the "
                        "acceptance gates reject it")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_relation)

    p = sub.add_parser("minpoly",
                       help="minimal polynomial of one decimal value")
    p.add_argument("--values", default=None,
                   help="file with the value, or - for stdin")
    p.add_argument("--literal", default=None, help="the value itself")
    p.add_argument("--max-degree", type=int, default=8)
    p.add_argument("--digits", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_minpoly)

    p = sub.add_parser("exactify",
                       help="lift a refined fiducial to an exact certificate")
    p.add_argument("--fiducial", required=True)
    p.add_argument("--method", type=int, choices=[1, 2], default=2)
    p.add_argument("--digits", type=int, default=None)
    p.add_argument("--out", default=None,
                   help="default: fiducial path with .cert extension")
    p.set_defaults(fn=cmd_exactify)

    p = sub.add_parser("verify", help="check a certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--mode", choices=["exact", "certified"], default="exact")
    p.add_argument("--digits", type=int, default=None,
                   help="enclosure digits for certified mode")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("report", help="human-readable certificate summary")
    p.add_argument("--cert", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_report)

    return top


_HINTS = {  # the first type that matches gives the hint
    FiducialPrecisionError: "refine the fiducial, or pass fewer --digits",
    PrecisionError: "rerun with a larger --digits",
}


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if ns.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        _check_positive(ns)
        return ns.fn(ns)
    except SicliftError as exc:
        hint = next((h for t, h in _HINTS.items() if isinstance(exc, t)), None)
        tail = f" ({hint})" if hint else ""
        print(f"siclift {ns.command}: error: {exc}{tail}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"siclift {ns.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
