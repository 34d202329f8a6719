"""siclift benchmark: seed -> verified certificate, and saved certificate ->
verdict.

    python3 perfbench/run.py                       # every workload, untraced
                                                   # and traced, with a table
    python3 perfbench/run.py --workload lift-d4-320 --seed 11 --seconds 35 \
        --trace 0

Run from the repository root. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones. Every operation's figures, the run's stamp and (traced) the
spans go to perfbench/out/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
DEADLINE_S = 150  # start no round that would likely end past this
IMPORT_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import siclift, siclift.cli")


def _import_siclift():
    """Import siclift from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "siclift", "__init__.py")):
        sys.exit(f"perfbench: no siclift sources under {SRC}")
    sys.path.insert(0, SRC)
    import siclift
    if os.path.dirname(os.path.dirname(os.path.abspath(siclift.__file__))) \
            != SRC:
        sys.exit(f"perfbench: imported siclift from {siclift.__file__}")
    return siclift


def _reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def _git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return got.stdout.strip() if got.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "siclift", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def stamp():
    import mpmath
    import numpy
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "numpy": numpy.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def _time_imports():
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], check=True,
                   timeout=120)
    return time.perf_counter() - t0


def run_workload(name, seed, seconds, trace):
    t_process = time.perf_counter()
    _import_siclift()
    from workloads import WORKLOADS, Clock, op_seconds, scaled
    import tracing

    w = WORKLOADS[name]
    ref = _reference()
    info = stamp()
    if info["mpmath_backend"] != ref["mpmath_backend"]:
        print(f"perfbench: warning: mpmath backend {info['mpmath_backend']} "
              f"differs from the recorded {ref['mpmath_backend']}",
              file=sys.stderr)
    digests = ref["digests"].get(name, {})
    seen_digests = {}

    def check(search_seed, dig):
        seen_digests[str(search_seed)] = dig
        want = digests.get(str(search_seed))
        if want is not None and want != dig:
            return [f"digest {dig} differs from the recorded {want} "
                    f"(search seed {search_seed})"]
        return []

    attempted = failed = 0
    errors = []
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        clock = Clock()
        setup_info = []
        for _ in range(SETUP_REPEATS):
            (t_import, got), seg = clock.time(
                lambda: (_time_imports(), w.setup(seed, workdir, clock)))
            got["import_s"], got["setup"] = t_import, seg
            setup_info.append(got)
        for got in setup_info:
            for s, dig in got.get("digests", {}).items():
                attempted += 1
                bad = check(s, dig)
                failed += bool(bad)
                errors += bad

        tracer = tracing.Tracer()
        if trace:
            tracer.install()
        ops = []
        t_start = t_round = time.perf_counter()
        try:
            while True:
                if ops and len(ops) % w.round_ops == 0:
                    now = time.perf_counter()
                    if trace or now - t_start >= seconds \
                            or now - t_process + (now - t_round) > DEADLINE_S:
                        break
                    t_round = now
                i = len(ops)
                with tracer.op(i, name):
                    try:
                        rec = w.op(i, check, clock)
                    except Exception as exc:  # a failed operation, counted
                        rec = {"op": [], "errors": [repr(exc)],
                               "traceback": traceback.format_exc()}
                n = rec.get("attempted", 1)
                attempted += n
                failed += min(n, len(rec["errors"]))
                errors += rec["errors"]
                ops.append(rec)
        finally:
            if trace:
                tracer.uninstall()
    wrappers_left = tracing.installed_wrappers()
    if wrappers_left:
        sys.exit(f"perfbench: wrappers left installed: {wrappers_left}")

    good = [o for o in ops if not o["errors"]]
    if not good:
        print(json.dumps(errors, indent=1), file=sys.stderr)
        sys.exit("perfbench: every operation failed")
    probe_ref = ref["probe_ref_s"]
    raw = w.metrics(good, setup_info, None)
    raw["setup_s"] = statistics.median(g["setup"][0] for g in setup_info)
    if trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in tracer.layer_metrics().items()}
        metrics["trace.op_s"] = {
            "value": statistics.median(op_seconds(o, probe_ref)
                                       for o in good),
            "unit": "s"}
    else:
        values = w.metrics(good, setup_info, probe_ref)
        values["setup_s"] = statistics.median(scaled(g["setup"], probe_ref)
                                              for g in setup_info)
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {k: {"value": v, "unit": "MB" if k == "peak_rss_mb"
                       else "s"} for k, v in values.items()}

    info["loadavg_1m_end"] = os.getloadavg()[0]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "stamp": info, "setup": setup_info, "raw_wall_s": raw,
        "ops": ops, "digests": seen_digests, "errors": errors,
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "metrics": metrics,
    }
    if trace:
        record["alias_calls"] = tracer.alias_calls()
        record["spans"] = tracer.spans_json()
    out_path = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(out_path, "w") as fh:
        json.dump(record, fh)

    print(f"# {name} seed={seed} trace={int(trace)} ops={len(ops)} "
          f"attempted={attempted} failed={failed} "
          f"failed_ratio={failed / attempted:.4g}")
    print(f"# stamp {json.dumps(info, sort_keys=True)}")
    print("# raw wall medians " + " ".join(f"{k}={v:.4f}"
                                           for k, v in raw.items()))
    for s, dig in sorted(seen_digests.items()):
        print(f"# digest search_seed={s} {dig}")
    for e in errors:
        print(f"# error {e}")
    print(f"# details {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def run_all(seed, seconds):
    """Every workload, untraced then traced, each in its own process."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    results = {}
    for w in bench["workloads"]:
        for trace in (0, 1):
            got = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 w["name"], "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(got.stderr)
            if got.returncode != 0:
                sys.exit(f"perfbench: {w['name']} trace={trace} exited "
                         f"{got.returncode}")
            results[(w["name"], trace)] = json.loads(
                got.stdout.strip().splitlines()[-1])
    _import_siclift()
    from workloads import op_seconds
    probe_ref = _reference()["probe_ref_s"]
    correct, attempted, failed, flat = True, 0, 0, {}
    print(f"{'workload':<14} {'metric':<20} {'value':>12} unit")
    for w in bench["workloads"]:
        plain = results[(w["name"], 0)]
        traced = results[(w["name"], 1)]
        for r in (plain, traced):
            correct &= r["correct"]
            attempted += r["attempted"]
            failed += r["failed"]
        for m in bench["end_to_end"]:
            v = plain["metrics"][m["name"]]
            flat[f"{w['name']}/{m['name']}"] = v
            print(f"{w['name']:<14} {m['name']:<20} {v['value']:>12.4f} "
                  f"{v['unit']}")
        ratio = plain["failed"] / plain["attempted"]
        print(f"{w['name']:<14} {'failed_ratio':<20} {ratio:>12.4f} ratio")
        with open(os.path.join(
                OUT, f"{w['name']}-seed{seed}-trace0.json")) as fh:
            untraced = statistics.median([op_seconds(o, probe_ref)
                                          for o in json.load(fh)["ops"]
                                          if not o["errors"]])
        over = traced["metrics"]["trace.op_s"]["value"] - untraced
        flat[f"{w['name']}/trace_overhead_s"] = {"value": over, "unit": "s"}
        print(f"{w['name']:<14} {'trace_overhead_s':<20} {over:>12.4f} s "
              f"({100 * over / untraced:+.1f}% of the untraced operation)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": flat}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default=None,
                    help="one workload; default: all, untraced and traced")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    sys.path.insert(0, HERE)
    if ns.workload is None:
        run_all(ns.seed, ns.seconds)
    else:
        run_workload(ns.workload, ns.seed, ns.seconds, bool(ns.trace))


if __name__ == "__main__":
    main()
