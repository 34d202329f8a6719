"""The benchmark's workloads: what each one sets up and what one operation is.

Every workload draws its fiducials from a small pool of search seeds whose
certificates are recorded in reference.json. The benchmark's ``--seed``
chooses where in the pool a run starts, so every seed gives the same work
and each certificate has a recorded digest to be checked against.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from fractions import Fraction
from statistics import median

import siclift as sl
from siclift import cli

CERT_DIGITS = 120  # enclosure digits for verify_certified


def digest(cert) -> str:
    """SHA-256 of the certificate JSON without the fields that may shift
    while the exact content stays the same: the stored verification report
    and the float alignment scores."""
    obj = json.loads(cert.to_json())
    obj.pop("verification", None)
    for key in ("score", "runner_up", "separation"):
        obj["galois"].pop(key, None)
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def speed_probe():
    """Seconds for a fixed piece of pure-Python work, big-integer arithmetic
    as in LLL and small Fraction arithmetic as in the tower (~0.1 s). It
    uses no siclift code, so no change to siclift can move it."""
    t0 = time.perf_counter()
    m = 3 ** 300
    acc = 1
    for i in range(50000):
        acc = (acc * m + i) % (m + 12345)
    for k in range(1, 8000):
        g = Fraction(k, 2 * k + 3) * Fraction(5 * k + 1, 3 * k + 2) \
            - Fraction(1, k)
        acc ^= g.denominator
    return time.perf_counter() - t0


class Clock:
    """Times pieces of work and runs the speed probe after each, so that a
    piece can be rescaled by the machine speed measured right around it.
    A segment is [seconds, probe before, probe after]."""

    def __init__(self):
        self.probe_s = 0.0
        self.last = self._probe()

    def _probe(self):
        dt = speed_probe()
        self.probe_s += dt
        return dt

    def time(self, fn, *args, **kwargs):
        """fn's result and its segment; probes run inside fn (by nested
        timing) are not counted in its seconds."""
        t0, p0 = time.perf_counter(), self.probe_s
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0 - (self.probe_s - p0)
        before, self.last = self.last, self._probe()
        return out, [dt, before, self.last]


def scaled(seg, ref):
    """A segment's seconds at the speed where the probe takes ref seconds;
    raw seconds when ref is None."""
    dt, before, after = seg
    return dt if ref is None else dt * 2 * ref / (before + after)


def op_seconds(rec, ref):
    """Seconds of an operation's timed segments (the pipeline, or the
    verify pass), rescaled as by scaled()."""
    return sum(scaled(seg, ref) for seg in rec["op"])


def build(d, digits, search_seed):
    """seed_search -> refine -> method2_exactify."""
    fid = sl.refine(sl.seed_search(d, "fz", attempts=24, seed=search_seed),
                    digits)
    return sl.method2_exactify(fid)


def tamper(path, out_path, rng):
    """Copy a certificate with one nonzero overlap coefficient, chosen by
    rng, changed by one."""
    with open(path) as fh:
        obj = json.load(fh)
    nonzero = [(rep, k) for rep, coeffs in obj["overlaps"].items()
               for k, c in enumerate(coeffs) if Fraction(c) != 0]
    rep, k = rng.choice(nonzero)
    coeffs = obj["overlaps"][rep]
    coeffs[k] = str(Fraction(coeffs[k]) + 1)
    with open(out_path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def cli_verify(path, mode):
    """One ``siclift verify`` call; returns (exit code, parsed report)."""
    argv = ["verify", "--cert", path, "--mode", mode]
    if mode == "certified":
        argv += ["--digits", str(CERT_DIGITS)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    try:
        report = json.loads(buf.getvalue())
    except ValueError:
        report = None
    return code, report


def rotate(pool, seed):
    start = seed % len(pool)
    return pool[start:] + pool[:start]


class Lift:
    """Seed to verified exact certificate, one pipeline per operation.

    Operation i lifts the i-th search seed of the pool, rotated by the run's
    seed; a round is one pipeline per pool seed. ``time_to_cert_s`` is the
    median pipeline (seed_search -> refine -> method2_exactify, then
    verify_exact), ``verify_exact_s`` the median verify_exact step, and
    ``verify_certified_s`` the median verify_certified call on the
    certificate just made (three per operation, outside the pipeline)."""

    def __init__(self, name, d, digits, pool):
        self.name, self.d, self.digits, self.pool = name, d, digits, pool
        self.round_ops = len(pool)

    def setup(self, seed, workdir, clock):
        self.order = rotate(self.pool, seed)
        return {}

    def op(self, i, check, clock):
        search_seed = self.order[i % len(self.order)]
        cert, t_build = clock.time(build, self.d, self.digits, search_seed)
        report, t_vex = clock.time(sl.verify_exact, cert)
        creps, t_vc = clock.time(lambda: [
            sl.verify_certified(cert, digits=CERT_DIGITS) for _ in range(3)])
        dig = digest(cert)
        errors = []
        if not report["pass"]:
            errors.append("verify_exact failed")
        if not all(r["pass"] for r in creps):
            errors.append("verify_certified failed")
        errors += check(search_seed, dig)
        return {"search_seed": search_seed, "digest": dig,
                "build": t_build, "verify_exact": t_vex,
                "verify_certified_x3": t_vc, "op": [t_build, t_vex],
                "attempted": 1, "errors": errors}

    def metrics(self, ops, setup_info, ref):
        return {
            "time_to_cert_s": median(op_seconds(o, ref) for o in ops),
            "verify_exact_s": median(scaled(o["verify_exact"], ref)
                                     for o in ops),
            "verify_certified_s": median(scaled(o["verify_certified_x3"], ref)
                                         / 3 for o in ops),
        }


class Reverify:
    """Saved certificate to verdict through the command line.

    Set-up lifts a d=4 certificate for each pool seed, saves it and writes
    a copy with one overlap coefficient changed. An operation is one pass:
    ``siclift verify --mode exact`` on all four files (expected exit codes
    0, 1, 0, 1), then ``--mode certified`` on the two good files.
    ``verify_exact_s`` and ``verify_certified_s`` are the time of one pass
    in each mode, summed over the files from each file's median call, so
    every call is a sample. ``time_to_cert_s`` is the median set-up lift."""

    name = "reverify"
    d, digits, pool, round_ops = 4, 320, (11, 13), 1

    def setup(self, seed, workdir, clock):
        files, lifts, digests = [], [], {}
        for s in rotate(self.pool, seed):
            cert, t_build = clock.time(build, self.d, self.digits, s)
            report, t_vex = clock.time(sl.verify_exact, cert)
            if not report["pass"]:
                raise RuntimeError(f"set-up certificate for seed {s} failed "
                                   "verify_exact")
            lifts.append([t_build, t_vex])
            digests[s] = digest(cert)
            good = os.path.join(workdir, f"d{self.d}-s{s}.cert")
            bad = os.path.join(workdir, f"d{self.d}-s{s}-tampered.cert")
            cert.save(good)
            tamper(good, bad, random.Random(s))
            files += [(good, 0), (bad, 1)]
        self.files = files
        return {"lifts": lifts, "digests": digests}

    def op(self, i, check, clock):
        runs = [(path, "exact", expected) for path, expected in self.files]
        runs += [(path, "certified", 0) for path, expected in self.files
                 if expected == 0]
        errors, calls = [], []
        for path, mode, expected in runs:
            (code, report), seg = clock.time(cli_verify, path, mode)
            name = os.path.basename(path)
            calls.append({"file": name, "mode": mode, "exit": code,
                          "seg": seg})
            if code != expected or report is None \
                    or report["pass"] != (expected == 0):
                errors.append(f"{mode} {name}: exit {code}, expected "
                              f"{expected}")
        return {"calls": calls, "op": [c["seg"] for c in calls],
                "attempted": len(calls), "errors": errors}

    def metrics(self, ops, setup_info, ref):
        def per_pass(mode):
            by_file = {}
            for o in ops:
                for c in o["calls"]:
                    if c["mode"] == mode:
                        by_file.setdefault(c["file"], []).append(
                            scaled(c["seg"], ref))
            return sum(median(ts) for ts in by_file.values())

        return {
            "time_to_cert_s": median(scaled(b, ref) + scaled(v, ref)
                                     for got in setup_info
                                     for b, v in got["lifts"]),
            "verify_exact_s": per_pass("exact"),
            "verify_certified_s": per_pass("certified"),
        }


WORKLOADS = {
    w.name: w for w in (
        # search seeds landing on three different d=4 fiducials; a round lifts
        # each once
        Lift("lift-d4-320", 4, 320, (11, 13, 4)),
        Reverify(),
    )
}
