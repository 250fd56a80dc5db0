"""flowlint CLI: control-flow-aware collective-sequence analyzer.

Proves (to the extent the heuristic frontend allows — DESIGN.md §12) the
rank-lockstep collective discipline at build time: every rank must execute
the identical sequence of parcomm collectives per superstep.  Scans the same
tree as lint_discipline.py (src/analytics, src/engine, src/dgraph), driven by
the build's compile_commands.json, with interprocedural collective-effect
summaries computed to a fixpoint over the whole scanned file set.

Usage:
  flowlint [--root DIR] [--compile-commands JSON] [--format text|json|sarif]
           [--sarif FILE] [--files F ...]
  flowlint --fixtures DIR          # EXPECT-LINT/EXPECT-CLEAN self-test

Exit status: 0 clean / self-test passed, 1 findings / self-test failed,
2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import sys

from flowlint import checks as ck
from flowlint import cxxparse as cp
from flowlint import summaries as sm
from flowlint import suppress as sp

__all__ = ["main", "lint_files", "run_fixtures", "FLOW_RULES", "ALL_RULES"]

FLOW_RULES = ck.FLOW_RULES
ALL_RULES = ck.ALL_RULES

LINTED_DIRS = ("src/analytics", "src/engine", "src/dgraph")

_RULE_DESCRIPTIONS = {
    "flow-path-divergent-collectives":
        "Two paths through a function issue different collective sequences "
        "under a rank-dependent condition.",
    "flow-collective-under-worker":
        "A collective is reachable from a ThreadPool worker functor (issued "
        "per-thread instead of per-rank).",
    "flow-rank-dependent-loop-collective":
        "A collective sits inside a loop whose trip count is rank-dependent "
        "and not allreduce-laundered.",
    "stale-suppression":
        "A lint:allow(...) comment whose rule no longer fires on its line.",
}


# ---------------------------------------------------------------------------
# Core: parse everything once, global summary fixpoint, then per-file checks.
# ---------------------------------------------------------------------------

def _parse_all(paths):
    parsed = []  # (path, units, comments)
    all_units = []
    for path in paths:
        try:
            funcs, comments = cp.parse_file(path)
        except OSError as e:
            print(f"flowlint: cannot read {path}: {e}", file=sys.stderr)
            sys.exit(2)
        units = sm.build_units(funcs)
        parsed.append((path, units, comments))
        all_units.extend(units)
    return parsed, all_units


def lint_files(paths, per_file_summaries: bool = False):
    """Returns the post-suppression findings for `paths`.  Summaries are
    global across all paths (callees in other scanned files resolve) unless
    per_file_summaries is set (fixture mode: each file stands alone)."""
    parsed, all_units = _parse_all(paths)
    if not per_file_summaries:
        summaries = sm.compute_summaries(all_units)
    findings = []
    for path, units, comments in parsed:
        if per_file_summaries:
            summaries = sm.compute_summaries(units)
        raw = ck.check_units(path, units, summaries)
        findings.extend(sp.apply_suppressions(
            raw, comments, ALL_RULES, ck.Finding, path))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def collect_sources(root: str, compile_commands: str | None) -> list[str]:
    files: set[str] = set()
    linted_abs = [os.path.join(root, d) for d in LINTED_DIRS]
    if compile_commands and os.path.exists(compile_commands):
        with open(compile_commands) as f:
            db = json.load(f)
        for entry in db:
            p = os.path.normpath(
                os.path.join(entry.get("directory", ""), entry["file"]))
            if any(p.startswith(d + os.sep) for d in linted_abs):
                files.add(p)
    else:
        print("flowlint: no compile_commands.json (configure with "
              "CMAKE_EXPORT_COMPILE_COMMANDS=ON); falling back to globbing "
              "linted directories", file=sys.stderr)
        for d in linted_abs:
            files.update(glob.glob(os.path.join(d, "**", "*.cpp"),
                                   recursive=True))
    for d in linted_abs:  # headers never appear in the compile DB
        files.update(glob.glob(os.path.join(d, "**", "*.hpp"),
                               recursive=True))
    return sorted(files)


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------

def render_text(findings, root: str, n_files: int) -> str:
    lines = [f.format(root) for f in findings]
    lines.append(f"flowlint: {n_files} files, {len(findings)} finding(s)")
    return "\n".join(lines)


def render_json(findings, root: str, n_files: int) -> str:
    return json.dumps({
        "schema": "hpcgraph-flowlint-v1",
        "files": n_files,
        "findings": [
            {"path": os.path.relpath(f.path, root) if root else f.path,
             "line": f.line, "rule": f.rule, "message": f.message}
            for f in findings],
    }, indent=2)


def render_sarif(findings, root: str, n_files: int) -> str:
    rules = sorted({f.rule for f in findings} | set(ALL_RULES))
    return json.dumps({
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                   "master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "flowlint",
                "informationUri":
                    "DESIGN.md#12-static-collective-flow-analysis",
                "rules": [{
                    "id": r,
                    "shortDescription": {
                        "text": _RULE_DESCRIPTIONS.get(r, r)},
                } for r in rules],
            }},
            "results": [{
                "ruleId": f.rule,
                "level": "error",
                "message": {"text": f.message},
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": (os.path.relpath(f.path, root)
                                    if root else f.path).replace(os.sep, "/"),
                        },
                        "region": {"startLine": f.line},
                    },
                }],
            } for f in findings],
        }],
    }, indent=2)


# ---------------------------------------------------------------------------
# Fixture self-test
# ---------------------------------------------------------------------------

EXPECT_RE = re.compile(r"EXPECT-LINT:\s*([\w-]+)")


def run_fixtures(fixture_dir: str, known_other_rules=()) -> int:
    """Check every fixture under fixture_dir (recursively) against its
    EXPECT-LINT / EXPECT-CLEAN markers, judging only the rules this tool
    owns (markers for lint_discipline's rules are someone else's job)."""
    paths = sorted(
        glob.glob(os.path.join(fixture_dir, "**", "*.cpp"), recursive=True) +
        glob.glob(os.path.join(fixture_dir, "**", "*.hpp"), recursive=True))
    if not paths:
        print(f"flowlint: no fixtures in {fixture_dir}", file=sys.stderr)
        return 2
    own = set(ALL_RULES)
    failed = False
    for path in paths:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        marked = set(EXPECT_RE.findall(raw))
        for rule in marked - own - set(known_other_rules):
            print(f"FAIL {path}: unknown rule in EXPECT-LINT: {rule}")
            failed = True
        expected = marked & own
        # `stale-suppression` is shared vocabulary: it is ours to produce
        # only when the file's dead allow names a rule *we* own.
        if "stale-suppression" in expected:
            allow_rules = {r for rules, _ in sp.parse_allows(raw)
                           for r in rules}
            if not (allow_rules & (own - {"stale-suppression"})):
                expected.discard("stale-suppression")
        expect_clean = "EXPECT-CLEAN" in raw
        got = {f.rule for f in lint_files([path], per_file_summaries=True)}
        missing = expected - got
        unexpected = got - expected
        ok = not missing and not unexpected and not (expect_clean and got)
        name = os.path.relpath(path, fixture_dir)
        if ok:
            label = ", ".join(sorted(expected)) if expected else "clean"
            print(f"PASS {name}: {label}")
        else:
            failed = True
            print(f"FAIL {name}:")
            for rule in sorted(missing):
                print(f"  expected diagnostic not produced: [{rule}]")
            for f in lint_files([path], per_file_summaries=True):
                mark = "unexpected " if f.rule in unexpected else ""
                print(f"  {mark}{f.format('')}")
    if failed:
        print("flowlint: fixture self-test FAILED")
        return 1
    print(f"flowlint: fixture self-test passed ({len(paths)} fixtures)")
    return 0


# Rules owned by the sibling tool, accepted (and ignored) in shared fixtures.
_LINT_DISCIPLINE_RULES = (
    "mutable-global", "raw-sync", "ref-capture-entry",
    "missing-trivially-copyable-assert", "rank-divergent-collective",
    "raw-nonblocking-mpi", "raw-parallel-chunking", "raw-frontier-exchange",
    "raw-timer-in-hot-loop",
)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="flowlint", description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repository root (default: parent of tools/)")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json path "
                         "(default: <root>/build/compile_commands.json)")
    ap.add_argument("--files", nargs="+", default=None,
                    help="lint these files only")
    ap.add_argument("--fixtures", default=None, metavar="DIR",
                    help="self-test mode over EXPECT-LINT fixtures")
    ap.add_argument("--format", default="text",
                    choices=("text", "json", "sarif"),
                    help="stdout format for scan results")
    ap.add_argument("--sarif", default=None, metavar="FILE",
                    help="also write a SARIF report to FILE (written even "
                         "when findings make the exit status 1)")
    args = ap.parse_args(argv)

    if args.fixtures:
        return run_fixtures(args.fixtures,
                            known_other_rules=_LINT_DISCIPLINE_RULES)

    root = os.path.abspath(args.root) if args.root else os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if args.files:
        files = args.files
        root = args.root and os.path.abspath(args.root) or ""
    else:
        cc = args.compile_commands or os.path.join(
            root, "build", "compile_commands.json")
        files = collect_sources(root, cc)
        if not files:
            print("flowlint: no sources found under "
                  f"{', '.join(LINTED_DIRS)} (root={root})", file=sys.stderr)
            return 2

    findings = lint_files(files)
    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as f:
            f.write(render_sarif(findings, root, len(files)))
    render = {"text": render_text, "json": render_json,
              "sarif": render_sarif}[args.format]
    print(render(findings, root, len(files)))
    return 1 if findings else 0
