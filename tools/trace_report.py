#!/usr/bin/env python3
"""Offline analyzer for hpcgraph --trace-events timelines (DESIGN.md §13).

Consumes the merged Chrome-trace-event JSON written by `hpcgraph_cli
--trace-events FILE` (schema "hpcgraph-trace-events-v1": one pid per rank,
one tid per thread, "X" spans and "C" counters) and reports what the raw
timeline means for the paper's questions:

  * per-superstep critical path — which rank's round was longest, and the
    max/mean imbalance across ranks for every round;
  * per-rank load — total busy time per (rank, thread) lane;
  * per-rank communication and idle time — the parcomm.copy and
    parcomm.wait span totals, the paper's Figure 3 split — beside each
    rank's ghost.plan builds (count and total time), the setup cost of the
    retained-queue exchange;
  * self time — the span names with the most time outside their child
    spans on the same lane, summed over ranks, so work that no layer
    traces (an allocation, a page fault) shows up as its parent's self
    time instead of a gap between spans.

Modes:
  trace_report.py TRACE                      human-readable report
  trace_report.py --check TRACE              schema/sanity gate (CI), with
                                             the lockstep check: when no
                                             event was dropped, every rank's
                                             main lane holds the same number
                                             of engine.superstep spans and
                                             of ghost.plan spans
  trace_report.py --diff BASELINE TRACE      per-span-name regression diff
  trace_report.py --selftest                 synthetic end-to-end self-test

Exit status: 0 on success, 1 on failed validation/regression, 2 on usage.
"""

import argparse
import contextlib
import io
import json
import os
import sys
from collections import defaultdict

SCHEMA = "hpcgraph-trace-events-v1"

SUPERSTEP = "engine.superstep"
COMPUTE = "engine.compute"
EXCHANGE = "engine.exchange"
GHOST_PLAN = "ghost.plan"
COPY = "parcomm.copy"
WAIT = "parcomm.wait"
SELF_TOP = 12  # rows of the report's self-time table


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
    # Lockstep: supersteps and ghost plan builds are collective, so every
    # rank runs the same rounds and builds the same plans (a plan cache
    # whose first use diverged across ranks shows here).  Dropped events can
    # remove spans, so the check needs none.
    if other.get("dropped_events") == 0:
        for name in (SUPERSTEP, GHOST_PLAN):
            counts = {pid: 0 for pid in named_pids | span_pids}
            for e in events:
                if (e.get("ph") == "X" and e.get("tid") == 0
                        and e.get("name") == name):
                    counts[e["pid"]] += 1
            if len(set(counts.values())) > 1:
                per_pid = dict(sorted(counts.items()))
                problems.append(f"ranks ran different numbers of {name} "
                                f"spans (pid: count) {per_pid}")
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


def comm_idle_by_rank(doc):
    """pid -> [parcomm.copy µs, parcomm.wait µs]: each rank's communication
    and idle time, the paper's Figure 3 split."""
    out = defaultdict(lambda: [0.0, 0.0])
    for e in spans(doc):
        if e["name"] in (COPY, WAIT):
            out[e["pid"]][e["name"] == WAIT] += e["dur"]
    return dict(out)


def plans_by_rank(doc):
    """pid -> [ghost.plan span count, total µs]: each rank's plan builds."""
    out = defaultdict(lambda: [0, 0.0])
    for e in spans(doc, GHOST_PLAN):
        out[e["pid"]][0] += 1
        out[e["pid"]][1] += e["dur"]
    return dict(out)


def self_times(doc):
    """name -> [self µs, inclusive µs, span count], summed over ranks.  A
    span's self time is its duration minus the time its child spans on the
    same (pid, tid) lane cover; spans on one lane nest, so the direct
    children are the spans that open inside it before it closes."""
    lanes = defaultdict(list)
    for e in spans(doc):
        lanes[(e["pid"], e["tid"])].append(e)
    out = defaultdict(lambda: [0.0, 0.0, 0])

    def close(entry):
        name, dur, covered = entry[1], entry[2], entry[3]
        acc = out[name]
        acc[0] += max(0.0, dur - covered)
        acc[1] += dur
        acc[2] += 1

    for lane in lanes.values():
        lane.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # open ancestors: [end, name, dur, covered by children]
        for e in lane:
            while stack and stack[-1][0] <= e["ts"]:
                close(stack.pop())
            end = e["ts"] + e["dur"]
            if stack:
                stack[-1][3] += min(end, stack[-1][0]) - e["ts"]
            stack.append([end, e["name"], e["dur"], 0.0])
        while stack:
            close(stack.pop())
    return dict(out)


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

    comm_idle, plans = comm_idle_by_rank(doc), plans_by_rank(doc)
    print(f"\nper-rank communication ({COPY}), idle ({WAIT}) and ghost plan "
          f"builds ({GHOST_PLAN}):")
    print(f"  {'rank':>5} {'comm ms':>10} {'idle ms':>10} {'plans':>6} "
          f"{'plan ms':>10}")
    for pid in sorted(set(comm_idle) | set(plans)):
        comm, idle = comm_idle.get(pid, [0.0, 0.0])
        nplans, plan = plans.get(pid, [0, 0.0])
        print(f"  {pid:>5} {comm / 1e3:>10.3f} {idle / 1e3:>10.3f} "
              f"{nplans:>6} {plan / 1e3:>10.3f}")

    selfs = self_times(doc)
    top = sorted(selfs.items(), key=lambda kv: (-kv[1][0], kv[0]))
    print(f"\nself time (outside child spans on the same lane), summed over "
          f"ranks, top {min(len(top), SELF_TOP)} of {len(top)} span names:")
    print(f"  {'span':<28} {'self ms':>10} {'total ms':>10} {'self %':>7} "
          f"{'spans':>7}")
    for name, (own, total, n) in top[:SELF_TOP]:
        pct = own / total * 100.0 if total > 0 else 0.0
        print(f"  {name:<28} {own / 1e3:>10.3f} {total / 1e3:>10.3f} "
              f"{pct:>7.1f} {n:>7}")

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
    # exchange 200, which copies for 50 and waits for 100.
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
            ev.append({"ph": "X", "pid": pid, "tid": 0, "ts": base + 330,
                       "dur": 100, "cat": "obs", "name": WAIT})
            ev.append({"ph": "X", "pid": pid, "tid": 0, "ts": base + 440,
                       "dur": 50, "cat": "obs", "name": COPY})
            ev.append({"ph": "X", "pid": pid, "tid": 1, "ts": base + 10,
                       "dur": 290, "cat": "obs", "name": "pool.sweep"})
            if r == 0:  # each rank builds its exchange plan before round 0
                ev.append({"ph": "X", "pid": pid, "tid": 0, "ts": base + 1,
                           "dur": 5, "cat": "obs", "name": GHOST_PLAN})
            ev.append({"ph": "C", "pid": pid, "tid": 0, "ts": base + 600,
                       "name": "frontier.active", "args": {"value": 42.0}})
    return {"displayTimeUnit": "ms",
            "otherData": {"schema": SCHEMA, "ranks": 2, "dropped_events": 0},
            "traceEvents": ev}


def selftest():
    doc = _synthetic_trace()
    problems = check(doc)
    assert not problems, problems
    assert comm_idle_by_rank(doc) == {0: [100, 200], 1: [100, 200]}
    assert plans_by_rank(doc) == {0: [1, 5], 1: [1, 5]}
    # Self time, summed over both ranks and rounds: a superstep keeps what
    # compute, the exchange and (round 0) the plan build leave uncovered;
    # the exchange keeps 50 of its 200 µs around its nested wait and copy;
    # the pool lane's sweep has no parent on that lane.
    assert self_times(doc) == {
        SUPERSTEP: [(1000 - 500) * 2 + (1050 - 500) * 2 - 2 * 5, 4100, 4],
        COMPUTE: [1200, 1200, 4],
        "pool.sweep": [1160, 1160, 4],
        WAIT: [400, 400, 4],
        EXCHANGE: [200, 800, 4],
        COPY: [200, 200, 4],
        GHOST_PLAN: [10, 10, 2],
    }, self_times(doc)
    # A rank missing a round fails the lockstep check, unless events were
    # dropped (the ring may have overwritten the span).
    skewed = _synthetic_trace()
    skewed["traceEvents"].remove(next(
        e for e in skewed["traceEvents"]
        if e.get("name") == SUPERSTEP and e["pid"] == 1))
    assert any("different numbers" in p for p in check(skewed)), \
        "lockstep violation passed check"
    skewed["otherData"]["dropped_events"] = 3
    assert not check(skewed)
    # So does a rank missing a plan build.
    unplanned = _synthetic_trace()
    unplanned["traceEvents"].remove(next(
        e for e in unplanned["traceEvents"]
        if e.get("name") == GHOST_PLAN and e["pid"] == 0))
    assert any(GHOST_PLAN in p for p in check(unplanned)), \
        "plan-build lockstep violation passed check"
    unplanned["otherData"]["dropped_events"] = 1
    assert not check(unplanned)
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
    # The report prints each rank's plan builds beside its comm/idle split.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert report(doc) == 0
    rows = [line.split() for line in out.getvalue().splitlines()]
    for pid in (0, 1):
        assert [str(pid), "0.100", "0.200", "1", "0.005"] in rows, \
            out.getvalue()
    # ... and the self-time table, largest self time first (ties by name).
    table = [r for r in rows if len(r) == 5 and r[0] in self_times(doc)]
    assert [r[0] for r in table] == [SUPERSTEP, COMPUTE, "pool.sweep", WAIT,
                                     EXCHANGE, COPY, GHOST_PLAN], table
    assert [EXCHANGE, "0.200", "0.800", "25.0", "4"] in table, table
    print(out.getvalue(), end="")
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
    if args.diff:
        return diff(doc, args.diff, args.max_regress)
    return report(doc)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:  # report piped into head/less and closed early
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
