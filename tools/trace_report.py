#!/usr/bin/env python3
"""Offline analyzer for hpcgraph --trace-events timelines (DESIGN.md §13).

Consumes the merged Chrome-trace-event JSON written by `hpcgraph_cli
--trace-events FILE` (schema "hpcgraph-trace-events-v1": one pid per rank,
one tid per thread, "X" spans and "C" counters) and reports what the raw
timeline means for the paper's questions:

  * per-superstep critical path — which rank's round was longest, and the
    max/mean imbalance across ranks for every round;
  * per-rank load — total busy time per (rank, thread) lane;
  * agreement of the two telemetry paths — rank 0's engine.exchange span
    per round against the exchange_us the engine stored in the matching
    SuperstepRecord.

Modes:
  trace_report.py TRACE                      human-readable report
  trace_report.py --check TRACE              schema/sanity gate (CI)
  trace_report.py --validate-superstep SS TRACE
                                             cross-check per-round exchange
                                             time against the --trace-json
                                             superstep telemetry (5%
                                             tolerance)
  trace_report.py --diff BASELINE TRACE      per-span-name regression diff
  trace_report.py --selftest                 synthetic end-to-end self-test

Exit status: 0 on success, 1 on failed validation/regression, 2 on usage.
"""

import argparse
import json
import os
import sys
from collections import defaultdict

SCHEMA = "hpcgraph-trace-events-v1"

SUPERSTEP = "engine.superstep"
COMPUTE = "engine.compute"
EXCHANGE = "engine.exchange"

# --validate-superstep tolerance: the engine times exchange_us with the very
# engine.exchange span exported here, so the two differ only by the record's
# truncation to whole µs.  A round passes within 5% of the longer of the two,
# or within that 1 µs truncation for very short exchanges.
EXCHANGE_TOL = 0.05


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def fail(msg):
    print(f"trace_report: FAIL: {msg}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------- parsing --

def check(doc):
    """Schema/sanity validation; returns a list of problems (empty = ok)."""
    problems = []
    if not isinstance(doc, dict):
        return ["top level is not an object"]
    other = doc.get("otherData", {})
    if other.get("schema") != SCHEMA:
        problems.append(f"otherData.schema != {SCHEMA!r}: "
                        f"{other.get('schema')!r}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        problems.append("traceEvents missing or empty")
        return problems
    named_pids = set()
    span_pids = set()
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph not in ("M", "X", "C"):
            problems.append(f"event {i}: unknown ph {ph!r}")
            continue
        if "pid" not in e or "tid" not in e:
            problems.append(f"event {i}: missing pid/tid")
            continue
        if ph == "M":
            if e.get("name") == "process_name":
                named_pids.add(e["pid"])
            continue
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i}: bad ts {ts!r}")
        if not e.get("name"):
            problems.append(f"event {i}: missing name")
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i}: bad dur {dur!r}")
            span_pids.add(e["pid"])
        if ph == "C" and "value" not in e.get("args", {}):
            problems.append(f"event {i}: counter without args.value")
    for pid in sorted(span_pids - named_pids):
        problems.append(f"pid {pid} has spans but no process_name metadata")
    ranks = other.get("ranks")
    if isinstance(ranks, int) and len(span_pids) > ranks:
        problems.append(f"{len(span_pids)} span pids but ranks={ranks}")
    return problems


def spans(doc, name=None):
    for e in doc.get("traceEvents", []):
        if e.get("ph") == "X" and (name is None or e.get("name") == name):
            yield e


def lane_names(doc):
    """(pid, tid) -> 'rank N/thread' display label."""
    procs, threads = {}, {}
    for e in doc.get("traceEvents", []):
        if e.get("ph") != "M":
            continue
        if e.get("name") == "process_name":
            procs[e["pid"]] = e.get("args", {}).get("name", str(e["pid"]))
        elif e.get("name") == "thread_name":
            threads[(e["pid"], e["tid"])] = e.get("args", {}).get("name")
    def label(pid, tid):
        p = procs.get(pid, f"pid {pid}")
        t = threads.get((pid, tid), f"tid {tid}")
        return f"{p}/{t}"
    return label


def supersteps_by_rank(doc):
    """pid -> main-lane superstep spans in timestamp order."""
    per = defaultdict(list)
    for e in spans(doc, SUPERSTEP):
        per[e["pid"]].append(e)
    for lst in per.values():
        lst.sort(key=lambda e: e["ts"])
    return per


def children_in(doc, parent, names):
    """Spans named in `names` on the parent's lane inside its window."""
    lo, hi = parent["ts"], parent["ts"] + parent["dur"]
    out = []
    for e in spans(doc):
        if (e["pid"] == parent["pid"] and e["tid"] == parent["tid"]
                and e is not parent and e["name"] in names
                and lo <= e["ts"] and e["ts"] + e["dur"] <= hi + 1e-9):
            out.append(e)
    return out


def exchange_per_superstep(doc, rank_pid=0):
    """engine.exchange µs inside each of rank 0's superstep spans, in round
    order (0 for rounds without a ghost exchange, e.g. frontier rounds)."""
    return [sum(e["dur"] for e in children_in(doc, ss, {EXCHANGE}))
            for ss in supersteps_by_rank(doc).get(rank_pid, [])]


# ---------------------------------------------------------------- reports --

def report(doc):
    other = doc.get("otherData", {})
    label = lane_names(doc)
    print(f"schema {other.get('schema')}, ranks={other.get('ranks')}, "
          f"dropped={other.get('dropped_events')}")

    # Per-lane busy time (span durations don't double-count nesting much for
    # a load view; report top-level superstep/sweep style names only).
    busy = defaultdict(float)
    count = defaultdict(int)
    for e in spans(doc):
        busy[(e["pid"], e["tid"])] += e["dur"]
        count[(e["pid"], e["tid"])] += 1
    print("\nper-lane span time (inclusive, µs):")
    for (pid, tid) in sorted(busy):
        print(f"  {label(pid, tid):<24} {busy[(pid, tid)]:>12.1f}  "
              f"({count[(pid, tid)]} spans)")

    per_rank = supersteps_by_rank(doc)
    if not per_rank:
        print("\nno superstep spans (not an engine run?)")
        return 0

    nrounds = min(len(v) for v in per_rank.values())
    print(f"\nper-superstep critical path across {len(per_rank)} ranks "
          f"({nrounds} rounds):")
    print(f"  {'round':>5} {'crit rank':>9} {'max ms':>9} {'mean ms':>9} "
          f"{'imbal':>6}")
    for r in range(nrounds):
        durs = {pid: per_rank[pid][r]["dur"] for pid in per_rank}
        crit = max(durs, key=durs.get)
        mx = durs[crit]
        mean = sum(durs.values()) / len(durs)
        imbal = mx / mean if mean > 0 else 0.0
        print(f"  {r:>5} {crit:>9} {mx / 1e3:>9.3f} {mean / 1e3:>9.3f} "
              f"{imbal:>6.2f}")
    return 0


def validate_superstep(doc, ss_path):
    """Cross-check rank 0's per-round engine.exchange span time against the
    exchange_us of the matching --trace-json records."""
    ss = load(ss_path)
    if ss.get("schema") != "hpcgraph-superstep-trace-v1":
        return fail(f"{ss_path}: not a superstep trace")
    records = ss.get("supersteps", [])
    derived = exchange_per_superstep(doc)
    if len(records) != len(derived):
        return fail(f"{len(records)} superstep records vs "
                    f"{len(derived)} superstep spans on rank 0")
    worst = 0.0
    checked = 0
    for i, (rec, got) in enumerate(zip(records, derived)):
        want = rec.get("exchange_us", 0)
        if want == 0 and got == 0:
            continue  # round without a ghost exchange
        checked += 1
        delta = abs(got - want)
        worst = max(worst, delta)
        if delta > max(EXCHANGE_TOL * max(got, want), 1.0):
            return fail(f"round {i}: trace {EXCHANGE} {got:.1f} µs vs "
                        f"record exchange_us {want} (|Δ| {delta:.1f} µs > "
                        f"{EXCHANGE_TOL:.0%})")
    print(f"validate-superstep: OK — {checked}/{len(records)} rounds "
          f"checked, worst |Δ| {worst:.1f} µs (tol {EXCHANGE_TOL:.0%})")
    return 0


def diff(doc, base_path, max_regress):
    """Per-span-name total-duration diff against a baseline trace."""
    base = load(base_path)
    def totals(d):
        t = defaultdict(float)
        for e in spans(d):
            t[e["name"]] += e["dur"]
        return t
    cur, old = totals(doc), totals(base)
    names = sorted(set(cur) | set(old))
    print(f"{'span':<28} {'base ms':>10} {'now ms':>10} {'delta':>8}")
    regressed = []
    for n in names:
        b, c = old.get(n, 0.0), cur.get(n, 0.0)
        pct = (c - b) / b * 100.0 if b > 0 else float("inf") if c > 0 else 0.0
        mark = ""
        if b > 0 and pct > max_regress:
            regressed.append((n, pct))
            mark = "  <-- regression"
        pct_s = f"{pct:+7.1f}%" if pct != float("inf") else "    new"
        print(f"{n:<28} {b / 1e3:>10.3f} {c / 1e3:>10.3f} {pct_s}{mark}")
    if regressed and max_regress < float("inf"):
        return fail(f"{len(regressed)} span(s) regressed more than "
                    f"{max_regress:.0f}%: "
                    + ", ".join(f"{n} ({p:+.1f}%)" for n, p in regressed))
    return 0


# --------------------------------------------------------------- selftest --

def _synthetic_trace():
    """Two ranks × two threads, two supersteps with a 200 µs exchange each."""
    ev = []
    for pid in (0, 1):
        ev.append({"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
                   "args": {"name": f"rank {pid}"}})
        for tid, tname in ((0, "main"), (1, "pool-1")):
            ev.append({"ph": "M", "pid": pid, "tid": tid,
                       "name": "thread_name", "args": {"name": tname}})
    # Round r on rank p: superstep [base, base+1000); compute 300, then the
    # exchange 200.
    for r in range(2):
        for pid in (0, 1):
            base = r * 2000 + pid * 10
            ev.append({"ph": "X", "pid": pid, "tid": 0, "ts": base,
                       "dur": 1000 + 50 * pid, "cat": "obs",
                       "name": SUPERSTEP})
            ev.append({"ph": "X", "pid": pid, "tid": 0, "ts": base + 10,
                       "dur": 300, "cat": "obs", "name": COMPUTE})
            ev.append({"ph": "X", "pid": pid, "tid": 0, "ts": base + 320,
                       "dur": 200, "cat": "obs", "name": EXCHANGE})
            ev.append({"ph": "X", "pid": pid, "tid": 1, "ts": base + 10,
                       "dur": 290, "cat": "obs", "name": "pool.sweep"})
            ev.append({"ph": "C", "pid": pid, "tid": 0, "ts": base + 600,
                       "name": "frontier.active", "args": {"value": 42.0}})
    return {"displayTimeUnit": "ms",
            "otherData": {"schema": SCHEMA, "ranks": 2, "dropped_events": 0},
            "traceEvents": ev}


def _validate_against(doc, exchange_us):
    """validate_superstep against records carrying these exchange_us."""
    path = _write_tmp({"schema": "hpcgraph-superstep-trace-v1",
                       "supersteps": [{"exchange_us": us}
                                      for us in exchange_us]})
    try:
        return validate_superstep(doc, path)
    finally:
        os.unlink(path)


def selftest():
    doc = _synthetic_trace()
    problems = check(doc)
    assert not problems, problems
    assert exchange_per_superstep(doc) == [200, 200]
    # Cross-check against superstep traces: matching records pass (within
    # the µs truncation), a 10% mismatch or a missing record fails.
    assert _validate_against(doc, [200, 199]) == 0
    assert _validate_against(doc, [200, 220]) == 1
    assert _validate_against(doc, [200]) == 1
    # A corrupted trace must fail --check.
    bad = _synthetic_trace()
    next(e for e in bad["traceEvents"] if e["ph"] == "X")["dur"] = -1
    assert check(bad), "corrupted trace passed check"
    # Self-diff is regression-free; a doubled span trips the gate.
    assert diff(doc, _write_tmp(doc), max_regress=10.0) == 0
    slow = _synthetic_trace()
    for e in slow["traceEvents"]:
        if e.get("name") == COMPUTE:
            e["dur"] *= 2
    assert diff(slow, _write_tmp(doc), max_regress=10.0) == 1
    assert report(doc) == 0
    print("selftest: OK")
    return 0


def _write_tmp(doc):
    import tempfile
    f = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
    json.dump(doc, f)
    f.close()
    return f.name


# -------------------------------------------------------------------- cli --

def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trace", nargs="?", help="--trace-events JSON file")
    ap.add_argument("--check", action="store_true",
                    help="schema/sanity validation only (CI gate)")
    ap.add_argument("--validate-superstep", metavar="SSTRACE",
                    help="cross-check per-round exchange time against a "
                         "--trace-json file")
    ap.add_argument("--diff", metavar="BASELINE",
                    help="diff span totals against a baseline trace")
    ap.add_argument("--max-regress", type=float, default=float("inf"),
                    metavar="PCT",
                    help="with --diff: fail when a span total grows > PCT%%")
    ap.add_argument("--selftest", action="store_true",
                    help="run the built-in synthetic self-test")
    args = ap.parse_args(argv)

    if args.selftest:
        return selftest()
    if not args.trace:
        ap.print_usage(sys.stderr)
        return 2
    try:
        doc = load(args.trace)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"{args.trace}: {e}")

    problems = check(doc)
    if problems:
        for p in problems:
            print(f"trace_report: {args.trace}: {p}", file=sys.stderr)
        return 1
    if args.check:
        n = len(doc.get("traceEvents", []))
        print(f"check: OK — {n} events, "
              f"ranks={doc.get('otherData', {}).get('ranks')}")
        return 0
    if args.validate_superstep:
        return validate_superstep(doc, args.validate_superstep)
    if args.diff:
        return diff(doc, args.diff, args.max_regress)
    return report(doc)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:  # report piped into head/less and closed early
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
