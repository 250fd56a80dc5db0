#!/usr/bin/env python3
"""hpcgraph end-to-end benchmark runner (see README.md in this directory).

Builds bench/e2e (Release, into .bench_build/e2e) from the checkout's
sources, runs the hpcgraph_e2e driver once per workload, each in its own
process, checks every repetition's output digests against the src/ref
oracles (inside the driver) and against golden.json (here), and reports.

Modes:
  run.py --workload W --seed N --seconds S --trace 0|1
        one workload; the last stdout line is the result object
        {"correct", "attempted", "failed", "metrics"} with the end-to-end
        metrics (--trace 0) or the per-layer metrics (--trace 1) named in
        BENCHMARK.json
  run.py [--seed N] [--seconds S] [--out FILE]
        all four workloads, traced; writes one hpcgraph-e2e-v1 document
  run.py --smoke [--driver EXE] [--workdir DIR]
        every workload at 2^12: one oracle-checked repetition plus one traced
        one; asserts the schema, zero failures, and trace_report.py --check
  run.py --write-golden
        oracle-verified digests for seeds 1 and 2 -> golden.json
  run.py --baseline
        two full sets on seed 1 -> baseline.json (per-metric median gaps)

Exit status: 0 when every check passed, 1 on a failed check, 2 when the
benchmark cannot run (missing sources, build failure, bad arguments).
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
WORK = ROOT / ".bench_build" / "work"
GOLDEN = HERE / "golden.json"
BASELINE = HERE / "baseline.json"
WORKLOADS = ["web-pipeline", "rmat-traverse", "web-rand-pagerank",
             "web-snapshot"]
GOLDEN_SEEDS = (1, 2)
SMOKE_SCALE = 12
DRIVER_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configure once, then an incremental build of the driver."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("library sources (src/) not found next to bench/e2e")
    if shutil.which("cmake") is None:
        die("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD.parent / "e2e-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", str(BUILD), "--target", "hpcgraph_e2e",
                  "-j", jobs])
    with open(log_path, "w", encoding="utf-8") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                tail = log_path.read_text(encoding="utf-8")[-4000:]
                print(tail, file=sys.stderr)
                die(f"build failed (log: {log_path})")
    return BUILD / "hpcgraph_e2e"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                        "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def run_driver(driver, workload, seed, workdir, extra, echo=True):
    """Run one workload in its own process; returns its report document."""
    workdir.mkdir(parents=True, exist_ok=True)
    report = workdir / f"{workload}.json"
    if report.exists():
        report.unlink()
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--workdir", str(workdir), "--json", str(report),
           "--git-sha", git_sha(), *extra]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s", 1)
    if echo:
        sys.stdout.write(r.stdout)
    sys.stderr.write(r.stderr)
    if r.returncode not in (0, 1) or not report.exists():
        die(f"{workload}: driver exited with {r.returncode}", 1)
    with open(report, encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------- checks --

def load_golden():
    if not GOLDEN.exists():
        return {}
    with open(GOLDEN, encoding="utf-8") as f:
        return json.load(f).get("workloads", {})


def digest_matches(got, want):
    if got.get("exact") != want["exact"]:
        return False
    if len(got.get("approx", [])) != len(want["approx"]):
        return False
    for g, w in zip(got["approx"], want["approx"]):
        if not abs(g - w) <= want["abs_tol"] + want["rel_tol"] * abs(w):
            return False
    return True


def count_failures(doc, golden):
    """(attempted, failed, messages) over every repetition's operations:
    the driver's oracle verdict, plus golden.json where it has this
    workload, scale and seed (one digest set per input graph)."""
    wl = doc["workload"]
    entry = golden.get(wl["name"], {})
    golds = []
    if entry.get("scale") == wl["scale"]:
        golds = entry.get("seeds", {}).get(str(doc["environment"]["seed"]), [])
    attempted = failed = 0
    msgs = []
    for i, rep in enumerate(doc["reps"]):
        gold = golds[rep["graph"]] if rep["graph"] < len(golds) else {}
        for name, op in rep["ops"].items():
            attempted += 1
            ok = op["ok"] and (name not in gold
                               or digest_matches(op, gold[name]))
            if not ok:
                failed += 1
                if len(msgs) < 20:
                    why = rep.get("error") or (
                        "differs from oracle" if not op["ok"]
                        else "differs from golden.json")
                    msgs.append(f"rep {i} ({rep['kind']}, graph "
                                f"{rep['graph']}) {name}: {why}")
    return attempted, failed, msgs


# Per-stage wall medians: every analytic, plus the snapshot save and load.
STAGE_WALL = re.compile(r"analytics\.(\w+)\.wall_s|dgraph\.(snapshot\.\w+)_s")


def stage_sum(doc):
    return sum(v["value"] for k, v in doc["per_layer"].items()
               if STAGE_WALL.fullmatch(k))


# ----------------------------------------------------------------- modes --

def result_line(doc, golden, trace):
    attempted, failed, msgs = count_failures(doc, golden)
    for m in msgs:
        print(f"FAILED: {m}")
    s = spec()
    metrics = {}
    ok = failed == 0
    for m in s["per_layer" if trace else "end_to_end"]:
        src = doc["per_layer"] if trace else doc["end_to_end"]
        entry = src.get(m["name"])
        value = None
        if entry is not None:
            value = entry["value"] if trace else entry["median"]
        if value is None or not math.isfinite(value):
            print(f"FAILED: metric {m['name']} missing from the report")
            ok = False
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


def single(args):
    driver = build()
    workdir = WORK / args.workload
    extra = ["--seconds", str(args.seconds)]
    if args.trace:
        extra += ["--trace", str(workdir / f"{args.workload}.trace.json")]
    doc = run_driver(driver, args.workload, args.seed, workdir, extra)
    return result_line(doc, load_golden(), args.trace)


def all_workloads(args, driver=None, echo=True):
    driver = driver or build()
    golden = load_golden()
    docs = []
    bad = 0
    for w in WORKLOADS:
        workdir = WORK / w
        extra = ["--seconds", str(args.seconds),
                 "--trace", str(workdir / f"{w}.trace.json")]
        doc = run_driver(driver, w, args.seed, workdir, extra, echo)
        attempted, failed, msgs = count_failures(doc, golden)
        for m in msgs:
            print(f"FAILED: {w}: {m}")
        doc["attempted"], doc["failed"] = attempted, failed
        doc["end_to_end"]["failed_frac"]["median"] = failed / attempted
        doc["stage_sum_over_analytics"] = stage_sum(doc) / (
            doc["end_to_end"]["analytics_s"]["median"])
        bad += failed
        docs.append(doc)
    combined = {"schema": "hpcgraph-e2e-v1", "seed": args.seed,
                "git_sha": git_sha(), "workloads": docs}
    out = Path(args.out) if args.out else (
        ROOT / ".bench_build" / f"e2e-seed{args.seed}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(combined, indent=1) + "\n", encoding="utf-8")
    print(f"\n{'workload':<20} {'metric':<14} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'n':>4}  unit")
    for doc in docs:
        for name, e in doc["end_to_end"].items():
            print(f"{doc['workload']['name']:<20} {name:<14} "
                  f"{e['median']:>10.4f} {e.get('q1', e['median']):>10.4f} "
                  f"{e.get('q3', e['median']):>10.4f} {e['n']:>4}  "
                  f"{e['unit']}")
    for doc in docs:
        print(f"{doc['workload']['name']:<20} per-stage medians sum to "
              f"{doc['stage_sum_over_analytics']:.4f} x analytics_s")
    print(f"wrote {out}")
    return combined, (0 if bad == 0 else 1)


REQUIRED = {
    "environment": ["nproc", "ranks", "threads", "build_type", "git_sha",
                    "seed"],
    "end_to_end": ["pipeline_s", "ingest_s", "analytics_s", "setup_s",
                   "peak_rss_mib", "failed_frac"],
}


def smoke(args):
    driver = Path(args.driver) if args.driver else build()
    workdir = Path(args.workdir) if args.workdir else WORK / "smoke"
    per_layer = [m["name"] for m in spec()["per_layer"]]
    problems = []
    for w in WORKLOADS:
        trace = workdir / f"{w}.trace.json"
        doc = run_driver(driver, w, 1, workdir,
                         ["--smoke", "--scale", str(SMOKE_SCALE),
                          "--seconds", "0", "--min-reps", "1",
                          "--setup-reps", "1", "--trace", str(trace)],
                         echo=False)
        if doc.get("schema") != "hpcgraph-e2e-workload-v1":
            problems.append(f"{w}: schema {doc.get('schema')!r}")
        for section, keys in REQUIRED.items():
            problems += [f"{w}: {section}.{k} missing"
                         for k in keys if k not in doc.get(section, {})]
        problems += [f"{w}: per_layer.{k} missing"
                     for k in per_layer if k not in doc.get("per_layer", {})]
        attempted, failed, msgs = count_failures(doc, {})
        if attempted < 1 or failed:
            problems.append(f"{w}: failed_frac {failed}/{attempted}: {msgs}")
        r = subprocess.run([sys.executable,
                            str(ROOT / "tools" / "trace_report.py"),
                            "--check", str(trace)],
                           capture_output=True, text=True)
        if r.returncode != 0:
            problems.append(f"{w}: trace_report --check: {r.stderr.strip()}")
        print(f"smoke {w}: {attempted} ops checked, {failed} failed")
    for p in problems:
        print(f"FAILED: {p}")
    return 1 if problems else 0


def write_golden(args):
    driver = build()
    golden = {"schema": "hpcgraph-e2e-golden-v1", "workloads": {}}
    for w in WORKLOADS:
        entry = {"seeds": {}}
        for seed in GOLDEN_SEEDS:
            doc = run_driver(driver, w, seed, WORK / w,
                             ["--seconds", "0", "--min-reps", "1",
                              "--ref-lp"], echo=False)
            attempted, failed, msgs = count_failures(doc, {})
            if failed:
                die(f"{w} seed {seed}: oracle check failed: {msgs}", 1)
            entry["scale"] = doc["workload"]["scale"]
            entry["seeds"][str(seed)] = doc["reference"]
            print(f"golden {w} seed {seed}: {attempted} ops verified")
        golden["workloads"][w] = entry
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


def baseline(args):
    driver = build()
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    sets = []
    status = 0
    for _ in range(2):
        combined, rc = all_workloads(args, driver, echo=False)
        status |= rc
        sets.append({d["workload"]["name"]: {
            "environment": d["environment"],
            "end_to_end": d["end_to_end"],
            "per_layer": d["per_layer"],
            "stage_sum_over_analytics": d["stage_sum_over_analytics"],
            "failed": d["failed"], "attempted": d["attempted"]}
            for d in combined["workloads"]})
    gaps, shares = {}, {}
    for w in WORKLOADS:
        gaps[w] = {}
        for name in sets[0][w]["end_to_end"]:
            a = sets[0][w]["end_to_end"][name]["median"]
            b = sets[1][w]["end_to_end"][name]["median"]
            gap = abs(b - a) / a if a else (0.0 if a == b else math.inf)
            gaps[w][name] = {"gap": gap, "bound": bounds.get(name)}
        # Each stage's share of the first set's median repetition.
        e2e, layer = sets[0][w]["end_to_end"], sets[0][w]["per_layer"]
        pipeline = e2e["pipeline_s"]["median"]
        shares[w] = {"ingest": e2e["ingest_s"]["median"] / pipeline}
        for k, v in layer.items():
            m = STAGE_WALL.fullmatch(k)
            if m:
                shares[w][m.group(1) or m.group(2)] = v["value"] / pipeline
    doc = {"schema": "hpcgraph-e2e-baseline-v1", "seed": args.seed,
           "seconds": args.seconds, "git_sha": git_sha(),
           "nproc": os.cpu_count(), "sets": sets, "gaps": gaps,
           "shares_of_pipeline": shares}
    BASELINE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for w, g in gaps.items():
        print(w, "gaps", {k: round(v["gap"], 4) for k, v in g.items()})
        print(w, "shares", {k: round(v, 3) for k, v in shares[w].items()})
    print(f"wrote {BASELINE}")
    return status


def main(argv):
    # SIGTERM unwinds like an exception, so subprocess.run kills and waits
    # for the build or driver it is running instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="timed seconds per workload (default: BENCHMARK.json "
                         "run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="all-workload mode: result document path")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--driver", help="--smoke: prebuilt hpcgraph_e2e")
    ap.add_argument("--workdir", help="--smoke: scratch directory")
    ap.add_argument("--write-golden", action="store_true")
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.smoke:
        return smoke(args)
    if args.write_golden:
        return write_golden(args)
    if args.baseline:
        return baseline(args)
    if args.workload:
        return single(args)
    return all_workloads(args)[1]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
