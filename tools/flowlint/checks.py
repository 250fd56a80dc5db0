"""The three control-flow collective-sequence checks (DESIGN.md §12).

  flow-path-divergent-collectives
      Two paths through a function issue different collective sequences and
      the choice of path is rank-dependent: early return/break/continue
      skipping an exchange, a collective in only one arm of an
      if/switch/ternary, mismatched sequences between arms.  Implemented as
      bounded path enumeration (summaries.eval_unit) with completed paths
      grouped by the arm taken at each rank-dependent decision site; groups
      whose outcome sets differ are findings.
  flow-collective-under-worker
      A collective reachable from a functor handed to
      ThreadPool::for_chunks/for_ranges/reduce_chunks: it would be issued
      once per pool thread instead of once per rank.
  flow-rank-dependent-loop-collective
      A collective inside a loop whose trip count reads rank()/owned/local
      extents without being laundered through an allreduce — each rank would
      run a different number of collective rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from flowlint import cxxparse as cp
from flowlint import summaries as sm

__all__ = ["FLOW_RULES", "ALL_RULES", "Finding", "FlowChecker", "check_units"]

FLOW_RULES = (
    "flow-path-divergent-collectives",
    "flow-collective-under-worker",
    "flow-rank-dependent-loop-collective",
)
# stale-suppression is shared vocabulary with lint_discipline.py: each tool
# polices the suppressions of the rules it owns.
ALL_RULES = FLOW_RULES + ("stale-suppression",)


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def format(self, root: str = "") -> str:
        import os
        rel = os.path.relpath(self.path, root) if root else self.path
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def _norm_status_function(status: str) -> str:
    # At function-region end, early and late exits are both just exits: any
    # sequence difference is already in the trace.
    return "exit"


def _norm_status_loop(status: str) -> str:
    return {"fall": "iter", "continue": "iter"}.get(status, status)


class FlowChecker:
    """Findings sink threaded through summaries.eval_unit."""

    def __init__(self, path: str):
        self.path = path
        self.findings: list[Finding] = []
        self._seen: set = set()

    def _emit(self, line: int, rule: str, message: str) -> None:
        key = (line, rule)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(Finding(self.path, line, rule, message))

    # -- hooks called by the evaluator --------------------------------------

    def on_expr(self, stmt: cp.ExprStmt, env: sm.Env) -> None:
        for tern in stmt.ternaries:
            a = sm.resolve_event_list(tern.arm_events[0], env)
            b = sm.resolve_event_list(tern.arm_events[1], env)
            if a == b or not (a or b):
                continue
            if sm.cond_is_rank_dep(tern.cond, env):
                self._emit(
                    tern.line, "flow-path-divergent-collectives",
                    "ternary on a rank-dependent condition issues different "
                    f"collective sequences per arm: [{sm.render_effect(a)}] "
                    f"vs [{sm.render_effect(b)}]; every rank must issue the "
                    "identical sequence — hoist the collective out of the "
                    "ternary")

    def on_loop_region(self, loop: cp.Loop, body_worlds, body_collect: bool,
                       cont_collect: bool, env: sm.Env) -> None:
        self._check_region(body_worlds, env, _norm_status_loop,
                           region_collect=body_collect,
                           cont_collect=cont_collect)
        if body_collect and sm.cond_is_rank_dep(loop.cond, env):
            names = sorted(sm.node_may_issue(loop.body, env.summaries))
            self._emit(
                loop.line, "flow-rank-dependent-loop-collective",
                f"collective{'s' if len(names) != 1 else ''} "
                f"[{', '.join(names) or 'via calls'}] inside a loop whose "
                "trip count is rank-dependent (reads rank()/owned/local "
                "extents): each rank would run a different number of "
                "collective rounds — allreduce the bound first or hoist the "
                "collective out of the loop")

    def on_function_region(self, unit: sm.FuncUnit, worlds,
                           env: sm.Env) -> None:
        self._check_region(worlds, env, _norm_status_function,
                           region_collect=False, cont_collect=False)

    # -- region grouping ----------------------------------------------------

    def _check_region(self, worlds, env: sm.Env, norm,
                      region_collect: bool, cont_collect: bool) -> None:
        by_site: dict[int, dict[int, set]] = {}
        for w in worlds:
            if w.status == "throw":
                continue  # assertion/abort paths end the whole run anyway
            for sid, arm in w.decs:
                by_site.setdefault(sid, {}).setdefault(arm, set()).add(
                    (w.trace, norm(w.status)))
        for sid, arms in by_site.items():
            if len(arms) < 2:
                continue
            site = env.sites[sid]
            groups = list(arms.values())
            if all(g == groups[0] for g in groups[1:]):
                continue
            trace_sets = [frozenset(t for t, _s in g) for g in groups]
            traces_differ = any(ts != trace_sets[0] for ts in trace_sets[1:])
            if traces_differ:
                a, b = self._pick_witnesses(groups)
                self._emit(
                    site.line, "flow-path-divergent-collectives",
                    f"paths through this {site.label} diverge on a "
                    "rank-dependent condition: one arm's collective sequence "
                    f"is [{sm.render_effect(a)}], another's is "
                    f"[{sm.render_effect(b)}]; ranks taking different arms "
                    "issue mismatched collectives (deadlock or silent "
                    "corruption in real MPI) — make the sequence identical "
                    "on every path or the condition uniform")
                continue
            # Same collective traces, different exit kinds (e.g. one arm
            # breaks/returns out of a collective-bearing region).
            statuses = {s for g in groups for _t, s in g}
            relevant = region_collect or (
                "return" in statuses and cont_collect)
            if relevant:
                self._emit(
                    site.line, "flow-path-divergent-collectives",
                    f"a rank-dependent {site.label} makes some ranks leave "
                    f"this region early ({' vs '.join(sorted(statuses))}) "
                    "while the region or its continuation issues "
                    "collectives: ranks would run different numbers of "
                    "collective rounds — exit uniformly (allreduce the "
                    "decision) or move the collective out")

    @staticmethod
    def _pick_witnesses(groups):
        """Two example traces from differing groups."""
        sets = [frozenset(t for t, _s in g) for g in groups]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                if sets[i] != sets[j]:
                    only_i = sets[i] - sets[j]
                    only_j = sets[j] - sets[i]
                    a = next(iter(only_i)) if only_i else next(iter(sets[i]))
                    b = next(iter(only_j)) if only_j else next(iter(sets[j]))
                    return a, b
        return (), ()


def check_units(path: str, units: list[sm.FuncUnit],
                summaries: dict) -> list[Finding]:
    """Run all three checks over one file's units with global summaries."""
    checker = FlowChecker(path)

    for unit in units:
        # Path divergence + rank-dependent loops (evaluator hooks).
        sm.eval_unit(unit, summaries, check=checker)

        # Collectives under a worker functor.
        if unit.worker_ctx is not None:
            names = sorted(sm.node_may_issue(unit.body, summaries))
            if names:
                checker._emit(
                    unit.line, "flow-collective-under-worker",
                    f"collective{'s' if len(names) != 1 else ''} "
                    f"[{', '.join(names)}] reachable from a functor passed "
                    f"to ThreadPool::{unit.worker_ctx}: it would be issued "
                    "once per pool thread, not once per rank — do the "
                    "parallel sweep first, then issue the collective from "
                    "the rank thread")

    return checker.findings
