#!/usr/bin/env python3
"""Rank-isolation lint for hpcgraph's simulated-MPI discipline (DESIGN.md §8).

The runtime spawns one OS thread per "MPI rank" and relies on an invariant no
compiler enforces: rank code shares NO mutable state except through parcomm
collectives.  This tool statically flags the ways that invariant leaks in
algorithm code (src/analytics, src/engine, src/dgraph):

  mutable-global
      Non-const namespace-scope variable, or a mutable function-local
      static / thread_local.  All rank threads see one address space, so any
      such object is silently shared across ranks.
  raw-sync
      Raw std::thread / std::mutex / std::atomic(_ref) / condition_variable
      outside the sanctioned homes (src/parcomm for cross-rank machinery,
      src/util for intra-rank pool helpers).  Algorithm code must use
      parcomm collectives or util/atomics.hpp et al.
  ref-capture-entry
      A `[&]` default capture on a per-rank entry lambda — one taking a
      `Communicator&`, or passed to a CommWorld-style `.run(...)`.  Every
      by-reference capture is cross-rank shared state; captures into rank
      entry points must be spelled out explicitly.
  missing-trivially-copyable-assert
      A template function whose body issues a parcomm collective with a
      deduced or template-parameter-dependent element type but contains no
      `static_assert(std::is_trivially_copyable_v<...>)`.  The collectives
      assert internally, but the failure then points at comm.hpp instead of
      the offending call layer.
  rank-divergent-collective
      A collective issued on some rank-dependent paths but not others.
      Ranks taking different paths then issue *different* collectives —
      deadlock or silent corruption in real MPI, board corruption here.
      This is the statically-visible form of the mismatch the PARCOMM_VERIFY
      runtime prong catches dynamically.  When the flowlint package
      (tools/flowlint) is importable this check runs on its per-function CFG
      path enumeration — covering ternaries, switches, and rank-dependent
      early returns as well as if/else bodies; otherwise it falls back to
      the original if/else branch regex.
  stale-suppression
      A lint:allow(...) comment naming one of this tool's rules that no
      longer suppresses anything — the rule does not fire on (or directly
      below) the comment's line.  Suppressions must not outlive the code
      they excused.
  raw-nonblocking-mpi
      Raw MPI nonblocking primitives (MPI_Ialltoallv, MPI_Isend, MPI_Wait*,
      MPI_Test*, MPI_Request, ...) outside src/parcomm.  No nonblocking
      path is sanctioned: every exchange uses the blocking Communicator
      collectives, which the PARCOMM_VERIFY fingerprints and flowlint see.
  raw-parallel-chunking
      Hand-rolled thread-id arithmetic partitioning (`tid * chunk`,
      `thread_id * span`, ...) in algorithm code.  Loop decomposition must
      go through ThreadPool::for_chunks / for_ranges / reduce_chunks over a
      ChunkGrid (util/parallel_for.hpp) so every sweep honors the selected
      Schedule, feeds the imbalance telemetry, and keeps the deterministic
      chunk-order reduction contract (DESIGN.md §10).
  raw-frontier-exchange
      A MultiQueue paired with an .alltoallv() in analytics or engine code
      outside src/engine/frontier.* — the signature of a bespoke
      count-pack-exchange frontier loop.  Owner routing must go through
      engine::route_to_owners / route_to_owners_sharded so the wire payload
      stays deterministic, the route phase is timed, and the frontier layer
      remains the single exchange path (DESIGN.md §11).  src/dgraph is
      exempt: builder and ghost-exchange plans legitimately pack their own
      queues.
  raw-timer-in-hot-loop
      A raw `Timer t;` / `AccumTimer` declaration or `thread_cpu_seconds()`
      call lexically inside a for/while body in algorithm code.  Hot-loop
      timing must use an `obs::Span` (obs/tracer.hpp): `Span::close()`
      returns the same elapsed seconds a Timer would (so PhaseTimer feeds
      are unchanged) and the measurement additionally lands on the
      --trace-events timeline (DESIGN.md §13).  Region-level timers outside
      loops are fine.

Suppression: append `lint:allow(<rule>: reason)` — or
`lint:allow(<rule-a>, <rule-b>: reason)` to cover several rules at once — in
a comment on the flagged line or on the line directly above it.  The reason
is mandatory by convention — it is the review record.

Usage:
  lint_discipline.py [--root DIR] [--compile-commands JSON]
  lint_discipline.py --fixtures DIR      # negative-fixture self-test
  lint_discipline.py --files F [F ...]   # lint specific files

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
from dataclasses import dataclass

LINTED_DIRS = ("src/analytics", "src/engine", "src/dgraph")

RULES = (
    "mutable-global",
    "raw-sync",
    "ref-capture-entry",
    "missing-trivially-copyable-assert",
    "rank-divergent-collective",
    "raw-nonblocking-mpi",
    "raw-parallel-chunking",
    "raw-frontier-exchange",
    "raw-timer-in-hot-loop",
    "stale-suppression",
)

# The CFG/summary machinery lives in the sibling flowlint package.  When it
# imports, rank-divergent-collective runs on real path enumeration and the
# suppression logic (comma-separated allows + stale detection) is shared;
# without it the original regex check and a minimal allow parser keep the
# tool standalone.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
try:
    from flowlint import checks as _flow_checks
    from flowlint import cxxparse as _flow_parse
    from flowlint import summaries as _flow_sm
    from flowlint import suppress as _suppress
    _HAVE_FLOWLINT = True
except Exception:  # missing package / syntax error: degrade, don't die
    _HAVE_FLOWLINT = False
    _suppress = None

# Rules owned by flowlint: accepted in shared fixtures, never judged here.
FLOWLINT_RULES = (
    "flow-path-divergent-collectives",
    "flow-collective-under-worker",
    "flow-rank-dependent-loop-collective",
)

RAW_SYNC_RE = re.compile(
    r"std\s*::\s*(?:jthread|thread|mutex|shared_mutex|recursive_mutex|"
    r"timed_mutex|recursive_timed_mutex|condition_variable(?:_any)?|"
    r"atomic(?:_ref|_flag)?)\b"
)

# A thread-id-ish identifier multiplied by a chunk-size-ish identifier (in
# either order): the signature of a hand-rolled equal-split partition like
# `begin + tid * per`.  The sanctioned chunking lives in util/parallel_for.hpp
# (not a linted dir), so no path exemption is needed here.
_TID = r"(?:tid|tidx|thread_id|thread_idx|worker_id)"
_SIZE = r"(?:chunk|chunks|span|per|step|stride|block|grain|slice)\w*"
RAW_CHUNKING_RE = re.compile(
    rf"\b{_TID}\s*\*\s*{_SIZE}\b|\b{_SIZE}\s*\*\s*{_TID}\b"
)

# The sanctioned frontier-exchange home, plus src/dgraph where builder and
# ghost-exchange plans legitimately pack MultiQueues next to the collective.
FRONTIER_EXEMPT_RE = re.compile(
    r"src/(?:dgraph/|engine/frontier\.(?:hpp|cpp)$)"
)
MULTIQUEUE_RE = re.compile(r"\bMultiQueue\s*<")
ALLTOALLV_RE = re.compile(r"[.>]\s*(?:template\s+)?i?alltoallv?\b")

RAW_NONBLOCKING_MPI_RE = re.compile(
    r"\bMPI_(?:Ialltoallv?|Iallreduce|Iallgatherv?|Ibcast|Ibarrier|Igatherv?|"
    r"Iscatterv?|Isend|Issend|Irecv|Wait(?:all|any|some)?|"
    r"Test(?:all|any|some)?|Request(?:_free|_get_status)?|Start(?:all)?)\b"
)

REF_CAPTURE_COMM_RE = re.compile(
    r"\[\s*&\s*\]\s*\(\s*(?:hpcgraph\s*::\s*)?(?:parcomm\s*::\s*)?"
    r"Communicator\s*&"
)
REF_CAPTURE_RUN_RE = re.compile(r"\.\s*run\s*\(\s*\[\s*&\s*[\],]")

COLLECTIVE_CALL_RE = re.compile(
    r"[.>]\s*(?:template\s+)?(alltoallv|alltoall|allreduce_sum|allreduce_max|allreduce_min|"
    r"allreduce|allgatherv|allgather|broadcast_vec|broadcast|gatherv)"
    r"\s*(<[^;(){}]*>)?\s*\("
)
TRIV_ASSERT_RE = re.compile(
    r"static_assert\s*\(\s*std\s*::\s*is_trivially_copyable(?:_v)?\s*<"
)

# Fallback allow parser (flowlint.suppress is preferred): comma-separated
# rule lists share one comment — lint:allow(raw-sync, mutable-global: why).
ALLOW_RE = re.compile(
    r"lint:allow\(\s*([\w-]+(?:\s*,\s*[\w-]+)*)\s*(?::[^)]*)?\)")

DECL_SKIP_RE = re.compile(
    r"^\s*(?:using\b|typedef\b|template\b|extern\b|friend\b|static_assert\b|"
    r"namespace\b|class\b|struct\b|union\b|enum\b|public\s*:|private\s*:|"
    r"protected\s*:|#|\[\[|goto\b|return\b|case\b|default\s*:)"
)

CONST_QUAL_RE = re.compile(r"\b(?:constexpr|constinit|consteval)\b")


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def format(self, root: str) -> str:
        rel = os.path.relpath(self.path, root) if root else self.path
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Source preprocessing: blank out comments and literals while preserving the
# line structure, and keep the comment text per line (for lint:allow and the
# fixture EXPECT markers).
# ---------------------------------------------------------------------------

def strip_source(text: str):
    """Returns (code, comments) where `code` is `text` with comments, string
    and char literals replaced by spaces (newlines preserved), and `comments`
    maps line number -> concatenated comment text on that line."""
    out = []
    comments: dict[int, str] = {}
    i, n, line = 0, len(text), 1

    def note(lineno: int, s: str) -> None:
        comments[lineno] = comments.get(lineno, "") + s

    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            note(line, text[i:j])
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            seg = text[i:j]
            for k, part in enumerate(seg.split("\n")):
                note(line + k, part)
            out.append(re.sub(r"[^\n]", " ", seg))
            line += seg.count("\n")
            i = j
        elif c == '"' and text[i - 1] == "R" if i > 0 else False:
            # raw string R"delim( ... )delim"
            m = re.match(r'"([^\s()\\]*)\(', text[i:])
            if not m:
                out.append(" ")
                i += 1
                continue
            end = text.find(")" + m.group(1) + '"', i)
            end = n if end == -1 else end + len(m.group(1)) + 2
            seg = text[i:end]
            out.append(re.sub(r"[^\n]", " ", seg))
            line += seg.count("\n")
            i = end
        elif c == '"' or c == "'":
            q = c
            j = i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(q + " " * (j - i - 2) + (q if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            if c == "\n":
                line += 1
            i += 1
    return "".join(out), comments


def line_of(code: str, pos: int) -> int:
    return code.count("\n", 0, pos) + 1


# ---------------------------------------------------------------------------
# Scope classification: walk braces and label each one namespace / class /
# function / init / block, so namespace-scope declarations and function
# bodies can be told apart.
# ---------------------------------------------------------------------------

CLASS_KEY_RE = re.compile(r"\b(class|struct|union|enum)\b")
NAMESPACE_TAIL_RE = re.compile(r"\bnamespace\b(\s+[\w:]+)?\s*$")
FUNC_TAIL_RE = re.compile(
    r"\)\s*(?:const|noexcept(?:\([^()]*\))?|override|final|&&?|"
    r"->\s*[\w:<>,\s*&]+|\w+\([^()]*\))*\s*$"
)
CTRL_TAIL_RE = re.compile(r"\b(else|do|try)\s*$|\bcatch\s*\([^)]*\)\s*$")


def classify_scopes(code: str):
    """Returns (scopes, events): scopes is a list parallel to brace events;
    events[k] = (pos, '{' or '}', kind_stack_after)."""
    stack: list[str] = []
    spans = []  # (kind, open_pos, close_pos or None)
    open_spans = []
    stmt_start = 0
    i, n = 0, len(code)
    while i < n:
        c = code[i]
        if c == ";":
            stmt_start = i + 1
        elif c == "{":
            stmt = code[stmt_start:i]
            kind = classify_opener(stmt, stack)
            stack.append(kind)
            open_spans.append((kind, i, len(spans)))
            spans.append([kind, i, None])
            stmt_start = i + 1
        elif c == "}":
            if stack:
                stack.pop()
                kind, opos, idx = open_spans.pop()
                spans[idx][2] = i
            stmt_start = i + 1
        i += 1
    return spans


def classify_opener(stmt: str, stack: list[str]) -> str:
    s = stmt.strip()
    if NAMESPACE_TAIL_RE.search(s):
        return "namespace"
    m = CLASS_KEY_RE.search(s)
    if m and "(" not in s[m.start():]:
        return "class"
    if s.endswith(("=", ",", "(", "{")) or s.endswith("return"):
        return "init"
    if CTRL_TAIL_RE.search(s):
        return "block"
    if FUNC_TAIL_RE.search(s):
        return "function"
    if s == "":
        # bare block (or continuation); treat as block inside functions
        return "block" if "function" in stack else "other"
    if stack and ("function" in stack or stack[-1] == "function"):
        return "block"
    # lambda bodies and K&R-wrapped signatures usually end with ')' handled
    # above; anything else at namespace depth is conservatively 'other' and
    # never flagged.
    return "other"


def enclosing_kinds(spans, pos: int) -> list[str]:
    kinds = []
    for kind, o, cpos in spans:
        if o < pos and (cpos is None or pos < cpos):
            kinds.append(kind)
    return kinds


# ---------------------------------------------------------------------------
# Rule implementations
# ---------------------------------------------------------------------------

VAR_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:=|\{|\[|;?$)")


def check_mutable_globals(code: str, spans, findings, path):
    """Namespace-scope mutable variables + mutable function-local statics."""
    # Walk top-level statements (those whose enclosing scopes are all
    # namespaces) and function-local `static` declarations.
    for m in re.finditer(r"[^;{}]+", code):
        stmt = m.group(0)
        if not stmt.strip():
            continue
        pos = m.start() + (len(stmt) - len(stmt.lstrip()))
        kinds = enclosing_kinds(spans, pos)
        text = stmt.strip()
        if all(k == "namespace" for k in kinds):
            # Namespace/file scope statement.
            if DECL_SKIP_RE.match(text):
                continue
            if flag_mutable_decl(text, require_static=False):
                name = decl_name(text)
                findings.append(Finding(
                    path, line_of(code, pos), "mutable-global",
                    f"mutable state at namespace scope{name}: rank threads "
                    "share one address space, so this is silently shared "
                    "across ranks; make it const/constexpr or move it into "
                    "per-rank state"))
        elif "function" in kinds:
            if re.match(r"^\s*(?:static|thread_local)\b", text) and \
                    not re.match(r"^\s*static_assert\b", text):
                if flag_mutable_decl(text, require_static=True):
                    name = decl_name(text)
                    findings.append(Finding(
                        path, line_of(code, pos), "mutable-global",
                        f"mutable function-local static{name}: persists "
                        "across calls and is shared by every rank thread "
                        "executing this function; make it const/constexpr "
                        "or hoist it into explicit per-rank state"))


def flag_mutable_decl(text: str, require_static: bool) -> bool:
    t = re.sub(r"^\s*(?:static|thread_local|inline)\s+", "",
               text, count=0)
    t = text
    for kw in ("static", "thread_local", "inline"):
        t = re.sub(rf"^\s*{kw}\b", "", t).strip()
    if not t or DECL_SKIP_RE.match(t):
        return False
    if CONST_QUAL_RE.search(t):
        return False
    # Function declaration / call-looking statements: '(' before any '='.
    eq, par = t.find("="), t.find("(")
    if par != -1 and (eq == -1 or par < eq):
        return False
    # Must look like a declaration: at least two identifiers (type + name)
    # or a qualified/templated type followed by a name.
    if not re.match(r"^[\w:<>,\s*&\[\]]+$", t.split("=")[0].strip()):
        return False
    toks = re.findall(r"[A-Za-z_][\w:]*", t.split("=")[0])
    if len(toks) < 2:
        return False
    if re.search(r"\bconst\b", t):
        # const T x — immutable unless it's a pointer-to-const (T* still
        # mutable); accept `* const` as immutable.
        if "*" not in t.split("=")[0]:
            return False
        if re.search(r"\*\s*const\b", t):
            return False
    return True


def decl_name(text: str) -> str:
    head = text.split("=")[0].split("{")[0].strip().rstrip(";")
    toks = re.findall(r"[A-Za-z_][\w]*", head)
    return f" ('{toks[-1]}')" if toks else ""


def check_raw_sync(code: str, findings, path):
    for m in RAW_SYNC_RE.finditer(code):
        findings.append(Finding(
            path, line_of(code, m.start()), "raw-sync",
            f"raw {m.group(0).replace(' ', '')} outside src/parcomm: "
            "cross-rank coordination must use parcomm collectives; "
            "intra-rank pool sync must use util/atomics.hpp, "
            "util/parallel_for.hpp, util/thread_queue.hpp or "
            "util/bitmask64.hpp"))


def check_raw_nonblocking_mpi(code: str, findings, path):
    for m in RAW_NONBLOCKING_MPI_RE.finditer(code):
        findings.append(Finding(
            path, line_of(code, m.start()), "raw-nonblocking-mpi",
            f"raw {m.group(0)} outside src/parcomm: no nonblocking path is "
            "sanctioned; exchange through the blocking Communicator "
            "collectives so the PARCOMM_VERIFY fingerprints and flowlint "
            "see it"))


def check_raw_parallel_chunking(code: str, findings, path):
    for m in RAW_CHUNKING_RE.finditer(code):
        findings.append(Finding(
            path, line_of(code, m.start()), "raw-parallel-chunking",
            f"hand-rolled thread partitioning `{m.group(0)}`: decompose "
            "loops with ThreadPool::for_chunks / for_ranges over a "
            "ChunkGrid (util/parallel_for.hpp) so the sweep honors the "
            "selected Schedule and stays deterministic (DESIGN.md §10)"))


def check_raw_frontier_exchange(code: str, findings, path):
    """MultiQueue + alltoallv pairing outside the frontier layer."""
    if FRONTIER_EXEMPT_RE.search(path.replace(os.sep, "/")):
        return
    if not ALLTOALLV_RE.search(code):
        return
    for m in MULTIQUEUE_RE.finditer(code):
        findings.append(Finding(
            path, line_of(code, m.start()), "raw-frontier-exchange",
            "MultiQueue paired with an .alltoallv() outside "
            "src/engine/frontier.* — a bespoke count-pack-exchange frontier "
            "loop; route records through engine::route_to_owners / "
            "route_to_owners_sharded instead (DESIGN.md §11)"))


# Raw timing primitives that should be obs::Spans when they sit inside a
# loop body (where they time per-iteration work feeding PhaseTimer).
RAW_TIMER_RE = re.compile(
    r"\b(?:util\s*::\s*)?(?:Timer|AccumTimer)\s+\w+\s*[;({]"
    r"|\bthread_cpu_seconds\s*\(")
LOOP_HEAD_RE = re.compile(r"\b(?:for|while)\s*\(")


def loop_body_ranges(code: str):
    """(open, close) brace positions of every braced for/while body."""
    ranges = []
    for m in LOOP_HEAD_RE.finditer(code):
        close = match_paren(code, m.end() - 1)
        if close < 0:
            continue
        j = close + 1
        while j < len(code) and code[j] in " \t\r\n":
            j += 1
        if j < len(code) and code[j] == "{":
            end = match_brace(code, j)
            if end > 0:
                ranges.append((j, end))
    return ranges


def check_raw_timer_in_hot_loop(code: str, findings, path):
    ranges = loop_body_ranges(code)
    if not ranges:
        return
    for m in RAW_TIMER_RE.finditer(code):
        if any(lo < m.start() < hi for lo, hi in ranges):
            findings.append(Finding(
                path, line_of(code, m.start()), "raw-timer-in-hot-loop",
                f"raw timing primitive `{m.group(0).strip()}` inside a loop "
                "body: use obs::Span — Span::close() returns the same "
                "elapsed seconds (PhaseTimer feeds unchanged) and the "
                "measurement lands on the --trace-events timeline "
                "(DESIGN.md §13)"))


def check_ref_capture(code: str, findings, path):
    for m in REF_CAPTURE_COMM_RE.finditer(code):
        findings.append(Finding(
            path, line_of(code, m.start()), "ref-capture-entry",
            "[&] default capture on a per-rank entry lambda "
            "(Communicator& parameter): every by-reference capture is "
            "cross-rank shared state — spell the captures out explicitly"))
    for m in REF_CAPTURE_RUN_RE.finditer(code):
        # Only CommWorld-style receivers: look at the expression head.
        head_start = max(code.rfind("\n", 0, m.start()) - 200, 0)
        head = code[head_start:m.end()]
        if re.search(r"world\w*\s*\.\s*run\s*\(\s*\[\s*&\s*[\],]", head,
                     re.IGNORECASE):
            findings.append(Finding(
                path, line_of(code, m.start()), "ref-capture-entry",
                "[&] default capture passed into a CommWorld-style .run() "
                "per-rank entry point — spell the captures out explicitly"))


TEMPLATE_RE = re.compile(r"\btemplate\s*<")


def check_template_collectives(code: str, findings, path):
    for tm in TEMPLATE_RE.finditer(code):
        params_end = match_angle(code, code.index("<", tm.start()))
        if params_end == -1:
            continue
        params = code[tm.end():params_end]
        pnames = template_param_names(params)
        # Find what follows: class template → skip; function → body braces.
        j = params_end + 1
        body_open = None
        depth = 0
        k = j
        while k < len(code):
            c = code[k]
            if c == ";" and depth == 0:
                break  # declaration only / alias / variable template
            if c in "({":
                if c == "{" and depth == 0:
                    head = code[j:k]
                    if CLASS_KEY_RE.search(head):
                        break  # class template — members scanned separately
                    body_open = k
                    break
                depth += 1
            elif c in ")}":
                depth -= 1
            k += 1
        if body_open is None:
            continue
        body_close = match_brace(code, body_open)
        if body_close == -1:
            continue
        body = code[body_open:body_close]
        if TRIV_ASSERT_RE.search(body):
            continue
        for cm in COLLECTIVE_CALL_RE.finditer(body):
            targs = cm.group(2)
            dependent = targs is None or any(
                re.search(rf"\b{re.escape(p)}\b", targs) for p in pnames)
            if not dependent:
                continue
            findings.append(Finding(
                path, line_of(code, body_open + cm.start()),
                "missing-trivially-copyable-assert",
                f"collective .{cm.group(1)}() in a template function with a "
                "deduced/template-dependent element type, but no "
                "static_assert(std::is_trivially_copyable_v<...>) in the "
                "function body"))
            break  # one finding per function is enough


RANK_COND_RE = re.compile(r"\brank\s*\(\s*\)|\brank_?\b")
IF_RE = re.compile(r"\bif\s*\(")


def check_rank_divergent_cfg(path: str, findings) -> bool:
    """Path-divergence form of the rank-divergent check, on flowlint's CFG
    evaluation: covers ternaries, switches, and rank-dependent early
    returns, not just collectives lexically inside an if body.  Returns
    False when the file cannot be analyzed (caller falls back to regex)."""
    try:
        funcs, _comments = _flow_parse.parse_file(path)
        units = _flow_sm.build_units(funcs)
        summ = _flow_sm.compute_summaries(units)
        flow = _flow_checks.check_units(path, units, summ)
    except Exception:
        return False
    for f in flow:
        if f.rule == "flow-path-divergent-collectives":
            findings.append(Finding(
                path, f.line, "rank-divergent-collective", f.message))
    return True


def check_rank_divergent(code: str, findings, path):
    """Collective calls inside if/else branches conditioned on the rank id
    (regex fallback when the flowlint package is unavailable)."""
    for im in IF_RE.finditer(code):
        cond_open = code.index("(", im.start())
        cond_close = match_paren(code, cond_open)
        if cond_close == -1:
            continue
        cond = code[cond_open:cond_close + 1]
        if not RANK_COND_RE.search(cond):
            continue
        # then-branch
        branches = []
        j = skip_ws(code, cond_close + 1)
        j_end = branch_end(code, j)
        if j_end != -1:
            branches.append((j, j_end))
            # else-branch
            k = skip_ws(code, j_end + 1)
            if code.startswith("else", k):
                k2 = skip_ws(code, k + 4)
                k_end = branch_end(code, k2)
                if k_end != -1:
                    branches.append((k2, k_end))
        for lo, hi in branches:
            for cm in COLLECTIVE_CALL_RE.finditer(code, lo, hi):
                findings.append(Finding(
                    path, line_of(code, cm.start()),
                    "rank-divergent-collective",
                    f"collective .{cm.group(1)}() inside a rank-conditional "
                    "branch: ranks taking different paths issue mismatched "
                    "collectives (deadlock or silent corruption in real "
                    "MPI); hoist the collective out of the branch"))


def skip_ws(code: str, i: int) -> int:
    while i < len(code) and code[i].isspace():
        i += 1
    return i


def branch_end(code: str, start: int) -> int:
    """End position (exclusive) of the statement or block starting at start."""
    if start >= len(code):
        return -1
    if code[start] == "{":
        end = match_brace(code, start)
        return end if end != -1 else -1
    j = code.find(";", start)
    return j if j != -1 else -1


def match_paren(code: str, open_pos: int) -> int:
    depth = 0
    for i in range(open_pos, len(code)):
        c = code[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i
    return -1


def template_param_names(params: str) -> list[str]:
    names = []
    for piece in split_top_commas(params):
        piece = piece.split("=")[0].strip()
        toks = re.findall(r"[A-Za-z_]\w*", piece)
        if toks:
            names.append(toks[-1])
    return names


def split_top_commas(s: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for c in s:
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    parts.append("".join(cur))
    return parts


def match_angle(code: str, open_pos: int) -> int:
    depth = 0
    for i in range(open_pos, len(code)):
        c = code[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i
        elif c in ";{":
            return -1
    return -1


def match_brace(code: str, open_pos: int) -> int:
    depth = 0
    for i in range(open_pos, len(code)):
        c = code[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def lint_file(path: str) -> list[Finding]:
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        print(f"lint_discipline: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    code, comments = strip_source(text)
    spans = classify_scopes(code)

    findings: list[Finding] = []
    check_mutable_globals(code, spans, findings, path)
    check_raw_sync(code, findings, path)
    check_raw_nonblocking_mpi(code, findings, path)
    check_raw_parallel_chunking(code, findings, path)
    check_raw_frontier_exchange(code, findings, path)
    check_raw_timer_in_hot_loop(code, findings, path)
    check_ref_capture(code, findings, path)
    check_template_collectives(code, findings, path)
    if not (_HAVE_FLOWLINT and check_rank_divergent_cfg(path, findings)):
        check_rank_divergent(code, findings, path)

    if _suppress is not None:
        # Shared semantics: comma-separated allows, same-line-or-next-line
        # scope, stale-suppression findings for dead allows of our rules.
        return _suppress.apply_suppressions(
            findings, comments, RULES, Finding, path)

    # Fallback: per-line allows only, no stale detection.
    kept = []
    for f in findings:
        allow = ALLOW_RE.search(comments.get(f.line, ""))
        if allow and f.rule in [r.strip()
                                for r in allow.group(1).split(",")]:
            continue
        kept.append(f)
    return kept


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
        print("lint_discipline: no compile_commands.json "
              "(configure with CMAKE_EXPORT_COMPILE_COMMANDS=ON); "
              "falling back to globbing linted directories", file=sys.stderr)
        for d in linted_abs:
            files.update(glob.glob(os.path.join(d, "**", "*.cpp"),
                                   recursive=True))
    for d in linted_abs:  # headers never appear in the compile DB
        files.update(glob.glob(os.path.join(d, "**", "*.hpp"),
                               recursive=True))
    return sorted(files)


def run_repo(root: str, compile_commands: str | None) -> int:
    files = collect_sources(root, compile_commands)
    if not files:
        print("lint_discipline: no sources found under "
              f"{', '.join(LINTED_DIRS)} (root={root})", file=sys.stderr)
        return 2
    all_findings: list[Finding] = []
    for path in files:
        all_findings.extend(lint_file(path))
    for f in all_findings:
        print(f.format(root))
    print(f"lint_discipline: {len(files)} files, "
          f"{len(all_findings)} finding(s)")
    return 1 if all_findings else 0


EXPECT_RE = re.compile(r"EXPECT-LINT:\s*([\w-]+)")


def run_fixtures(fixture_dir: str) -> int:
    """Recursive over the whole corpus (tests/lint_fixtures/flow included);
    each file is judged only against this tool's rules — markers for
    flowlint's flow-* rules are that tool's job."""
    paths = sorted(
        glob.glob(os.path.join(fixture_dir, "**", "*.cpp"), recursive=True) +
        glob.glob(os.path.join(fixture_dir, "**", "*.hpp"), recursive=True))
    if not paths:
        print(f"lint_discipline: no fixtures in {fixture_dir}",
              file=sys.stderr)
        return 2
    own = set(RULES)
    failed = False
    for path in paths:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        marked = set(EXPECT_RE.findall(raw))
        for rule in marked - own - set(FLOWLINT_RULES):
            print(f"FAIL {path}: unknown rule in EXPECT-LINT: {rule}")
            failed = True
        expected = marked & own
        # `stale-suppression` is shared vocabulary: it is ours to produce
        # only when the file's dead allow names a rule *we* own.
        if "stale-suppression" in expected:
            allow_rules = {r.strip() for m in ALLOW_RE.finditer(raw)
                           for r in m.group(1).split(",")}
            if not (allow_rules & (own - {"stale-suppression"})):
                expected.discard("stale-suppression")
        expect_clean = "EXPECT-CLEAN" in raw
        findings = lint_file(path)
        got = {f.rule for f in findings}
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
            for f in findings:
                mark = "unexpected " if f.rule in unexpected else ""
                print(f"  {mark}{f.format('')}")
    if failed:
        print("lint_discipline: fixture self-test FAILED")
        return 1
    print(f"lint_discipline: fixture self-test passed ({len(paths)} fixtures)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repository root (default: parent of this script)")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json path "
                         "(default: <root>/build/compile_commands.json)")
    ap.add_argument("--fixtures", default=None, metavar="DIR",
                    help="self-test mode: lint fixture files and check "
                         "EXPECT-LINT / EXPECT-CLEAN markers")
    ap.add_argument("--files", nargs="+", default=None,
                    help="lint these files only")
    args = ap.parse_args()

    if args.fixtures:
        return run_fixtures(args.fixtures)

    if args.files:
        findings = []
        for path in args.files:
            findings.extend(lint_file(path))
        for f in findings:
            print(f.format(""))
        print(f"lint_discipline: {len(args.files)} files, "
              f"{len(findings)} finding(s)")
        return 1 if findings else 0

    # abspath so the linted-dir prefixes match the absolute paths stored in
    # compile_commands.json even when invoked as `--root .`.
    root = os.path.abspath(args.root) if args.root else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    cc = args.compile_commands or os.path.join(
        root, "build", "compile_commands.json")
    return run_repo(root, cc)


if __name__ == "__main__":
    sys.exit(main())
