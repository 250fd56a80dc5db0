"""Collective-effect summaries and the path-sensitive effect evaluator.

The abstract domain (DESIGN.md §12): the *effect* of a piece of code is the
sequence of parcomm collectives it issues, abstracted to a tuple of ops

    ('c', name)      blocking collective issued here
    ('loop', eff)    a loop whose one-iteration effect is `eff` (or None if
                     iterations can differ)
    ('v', fname)     call into `fname`, which may issue collectives but whose
                     sequence could not be reduced to a single trace

A function's summary is either a single such tuple (every path through it
issues the same sequence) or VARIES (None) when paths differ; summaries are
computed to a fixpoint over the whole scanned file set, keyed by *unqualified*
name — same-named functions are joined, which is conservative for equality
comparisons (same name ⇒ same op) and never invents a collective.

The evaluator is a small bounded path enumerator ("worlds"): branch arms that
produce different effects fork the world set; arms controlled by a
*rank-dependent* condition are additionally tagged with a decision site so
the path-divergence check can later group completed paths by the arm taken.
Conditions are classified rank-dependent by a per-function taint pass seeded
on rank/owned/local/ghost identifiers, propagated through simple assignments,
and *cleared* by assignment from a collective result (an allreduced bound is
uniform by construction).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from flowlint import cxxparse as cp

__all__ = [
    "Summary", "Env", "FuncUnit", "build_units", "compute_summaries",
    "eval_unit", "effect_of_block", "node_may_issue", "render_effect",
    "cond_is_rank_dep",
]

MAX_WORLDS = 64
MAX_TRACE = 96
MAX_FIXPOINT_ITERS = 30

# Collectives whose *result* is uniform across ranks: assigning from one of
# these launders rank-dependence away (the allreduce'd trip count pattern).
_UNIFORMIZING = {
    "allreduce", "allreduce_sum", "allreduce_max", "allreduce_min",
    "allreduce_lor", "allgather", "allgatherv", "broadcast", "broadcast_vec",
}

# Identifier components that mark per-rank quantities.  Plural 'ranks' (as in
# num_ranks / n_ranks, a uniform world size) deliberately does not match.
_SEED_COMPONENTS = {
    "rank", "owner", "owned", "ghost", "ghosts", "loc", "local", "locals",
    "boundary", "interior",
}


def _is_seed_ident(name: str) -> bool:
    return bool(_SEED_COMPONENTS.intersection(name.lower().split("_")))


@dataclass
class Summary:
    effect: tuple | None = ()  # None == VARIES
    may_issue: frozenset = frozenset()  # collective names reachable

    def key(self):
        return (self.effect, self.may_issue)


@dataclass
class FuncUnit:
    """One analyzable body: a named function, or a lambda hoisted out of one."""
    name: str  # join key ('' for lambdas — never joined/called by name)
    qualname: str
    path: str
    line: int
    body: cp.Block
    parent: "FuncUnit | None" = None  # lambda: enclosing unit (taint context)
    worker_ctx: str | None = None  # lambda: WORKER_ENTRY call it feeds


@dataclass(frozen=True)
class World:
    trace: tuple = ()
    decs: tuple = ()  # ((site_id, arm_idx), ...) for rank-dep sites passed
    status: str = "fall"  # fall | return | break | continue | throw


@dataclass
class Site:
    sid: int
    line: int
    label: str  # 'if' | 'switch' | 'ternary' | construct description
    arms: int


class Env:
    """Per-unit evaluation context (check mode also carries a findings sink)."""

    def __init__(self, summaries: dict, unit: FuncUnit, check=None):
        self.summaries = summaries
        self.unit = unit
        self.check = check  # checks.FlowChecker or None (summary mode)
        self.tainted: set[str] = set()
        self.uniform: set[str] = set()  # laundered via a collective result
        self.soft: set[str] = set()  # assigned only rank-uniform values
        self.sites: list[Site] = []
        self.overflow = False
        self._collect_cache: dict[int, bool] = {}

    def new_site(self, line: int, label: str, arms: int) -> int:
        s = Site(len(self.sites), line, label, arms)
        self.sites.append(s)
        return s.sid

    # -- taint ---------------------------------------------------------------

    def compute_taint(self) -> None:
        """Fixpoint over simple assignments + control-dependence on rank-dep
        branches.  Lambdas inherit the enclosing unit's taint."""
        chain: list[FuncUnit] = []
        u: FuncUnit | None = self.unit
        while u is not None:
            chain.append(u)
            u = u.parent
        for _ in range(6):
            before = (len(self.tainted), len(self.uniform), len(self.soft))
            for unit in chain:
                self._taint_block(unit.body, under_rank_dep=False)
            if (len(self.tainted), len(self.uniform),
                    len(self.soft)) == before:
                break

    def _taint_block(self, block: cp.Block, under_rank_dep: bool) -> None:
        for s in block.stmts:
            self._taint_stmt(s, under_rank_dep)

    def _taint_stmt(self, s, under_rank_dep: bool) -> None:
        if isinstance(s, cp.ExprStmt):
            self._taint_assigns(s, under_rank_dep)
        elif isinstance(s, cp.Block):
            self._taint_block(s, under_rank_dep)
        elif isinstance(s, cp.If):
            rd = under_rank_dep or (not s.constexpr
                                    and cond_is_rank_dep(s.cond, self))
            self._taint_block(s.then, rd)
            if s.els:
                self._taint_block(s.els, rd)
        elif isinstance(s, cp.Switch):
            rd = under_rank_dep or cond_is_rank_dep(s.cond, self)
            for c in s.chunks:
                self._taint_block(c, rd)
        elif isinstance(s, cp.Loop):
            if s.init is not None:
                self._taint_assigns(s.init, under_rank_dep)
            rd = under_rank_dep or cond_is_rank_dep(s.cond, self)
            self._taint_block(s.body, rd)
        elif isinstance(s, cp.Try):
            self._taint_block(s.body, under_rank_dep)
            for h in s.handlers:
                self._taint_block(h, under_rank_dep)
        elif isinstance(s, cp.Jump):
            if s.expr is not None:
                self._taint_assigns(s.expr, under_rank_dep)

    def _taint_assigns(self, e: cp.ExprStmt, under_rank_dep: bool) -> None:
        for lhs, rhs in e.assigns:
            if _tokens_uniformizing(rhs, self.summaries):
                self.uniform.add(lhs)
                self.tainted.discard(lhs)
                continue
            if lhs in self.uniform:
                continue
            if under_rank_dep or _tokens_tainted(rhs, self):
                self.tainted.add(lhs)
                self.soft.discard(lhs)
            elif lhs not in self.tainted:
                # Every observed write is a rank-uniform value (constants,
                # other uniform variables): reads of this exact path are
                # clean even when its base object carries taint elsewhere.
                self.soft.add(lhs)

    # -- may-issue cache -----------------------------------------------------

    def may_collect(self, node) -> bool:
        key = id(node)
        if key not in self._collect_cache:
            self._collect_cache[key] = bool(
                node_may_issue(node, self.summaries))
        return self._collect_cache[key]


def _iter_chains(toks):
    """Maximal member-access chains `a.b->c` as component lists (a single
    identifier is a chain of length one)."""
    i, n = 0, len(toks)
    while i < n:
        t = toks[i]
        if t.kind == "id" and t.text not in cp._KEYWORDS:
            chain = [t.text]
            j = i + 1
            while (j + 1 < n and toks[j].text in (".", "->")
                   and toks[j + 1].kind == "id"):
                chain.append(toks[j + 1].text)
                j += 2
            yield chain
            i = j
        else:
            i += 1


def _tokens_tainted(toks, env: Env) -> bool:
    for chain in _iter_chains(toks):
        path = ".".join(chain)
        if path in env.uniform or path in env.soft:
            continue  # this exact path was laundered / only-uniform-written
        if path in env.tainted:
            return True
        base = chain[0]
        if base in env.uniform or base in env.soft:
            continue  # member of a uniform value
        if base in env.tainted:
            return True
        if any(_is_seed_ident(c) for c in chain):
            return True
    return False


def _tokens_uniformizing(toks, summaries) -> bool:
    """Does this expression pass through a uniform-result collective?"""
    e = cp._scan_expr(list(toks), toks[0].line if toks else 0)
    for ev in e.events:
        if ev.kind == "c" and ev.name in _UNIFORMIZING:
            return True
        if ev.kind == "call":
            s = summaries.get(ev.name)
            if s is not None and s.may_issue & _UNIFORMIZING:
                return True
    return False


def cond_is_rank_dep(cond_tokens, env: Env) -> bool:
    """A condition is rank-dependent when it reads a tainted / seed
    identifier and is not decided by a collective result."""
    if not cond_tokens:
        return False
    e = cp._scan_expr(list(cond_tokens), cond_tokens[0].line)
    for ev in e.events:
        if ev.kind == "c" and ev.name in _UNIFORMIZING:
            return False  # e.g. while (comm.allreduce_lor(changed))
    return _tokens_tainted(cond_tokens, env)


# ---------------------------------------------------------------------------
# Node → may-issue name set (uses final summaries; drives "does the skipped
# region contain a collective" relevance tests).
# ---------------------------------------------------------------------------

def node_may_issue(node, summaries) -> set[str]:
    out: set[str] = set()
    _nmi(node, summaries, out, 0)
    return out


def _nmi(node, summaries, out: set, depth: int) -> None:
    if node is None or depth > 40:
        return
    if isinstance(node, cp.Block):
        for s in node.stmts:
            _nmi(s, summaries, out, depth + 1)
    elif isinstance(node, cp.ExprStmt):
        for ev in node.events:
            if ev.kind == "c":
                out.add(ev.name)
            else:
                s = summaries.get(ev.name)
                if s is not None:
                    out.update(s.may_issue)
        for lam in node.lambdas:
            _nmi(lam.body, summaries, out, depth + 1)
    elif isinstance(node, cp.If):
        _nmi(node.then, summaries, out, depth + 1)
        _nmi(node.els, summaries, out, depth + 1)
    elif isinstance(node, cp.Switch):
        for c in node.chunks:
            _nmi(c, summaries, out, depth + 1)
    elif isinstance(node, cp.Loop):
        _nmi(node.body, summaries, out, depth + 1)
        if node.cond:
            _nmi(cp._scan_expr(list(node.cond), node.line),
                 summaries, out, depth + 1)
    elif isinstance(node, cp.Try):
        _nmi(node.body, summaries, out, depth + 1)
        for h in node.handlers:
            _nmi(h, summaries, out, depth + 1)
    elif isinstance(node, cp.Jump):
        _nmi(node.expr, summaries, out, depth + 1)


# ---------------------------------------------------------------------------
# The world evaluator
# ---------------------------------------------------------------------------

def resolve_expr_ops(stmt: cp.ExprStmt, env: Env) -> tuple:
    """Ops issued by one expression statement, in token order.  Non-worker
    lambdas are assumed to run inline at their position (true for the
    for_each/visit callback style of this codebase); worker lambdas run on
    pool threads and are excluded here (check 3 owns them)."""
    ops: list = []
    for ev in stmt.events:
        ops.extend(_event_ops(ev, env))
    for lam in stmt.lambdas:
        if lam.worker_ctx is None:
            eff = effect_of_block(lam.body, env)
            if eff is None:
                ops.append(("v", "<lambda>"))
            else:
                ops.extend(eff)
    return tuple(ops)


def _event_ops(ev: cp.Event, env: Env) -> tuple:
    if ev.kind == "c":
        return ((ev.kind, ev.name),)
    s = env.summaries.get(ev.name)
    if s is None:
        return ()
    if s.effect is None:
        return ((("v", ev.name),) if s.may_issue else ())
    return s.effect


def resolve_event_list(events, env: Env) -> tuple:
    ops: list = []
    for ev in events:
        ops.extend(_event_ops(ev, env))
    return tuple(ops)


def effect_of_block(block: cp.Block, env: Env) -> tuple | None:
    """Joined effect of a block evaluated in isolation (used for lambda
    inlining): single trace, or None if paths differ."""
    sub = Env(env.summaries, env.unit, check=None)
    sub.tainted, sub.uniform, sub.soft = env.tainted, env.uniform, env.soft
    worlds = _eval_block(block, [World()], sub, cont_collect=False)
    traces = {w.trace for w in worlds if w.status != "throw"}
    if not traces:
        return ()
    if len(traces) == 1:
        return next(iter(traces))
    return None


def _extend(w: World, ops: tuple) -> World:
    if not ops:
        return w
    trace = w.trace + ops
    if len(trace) > MAX_TRACE:
        trace = trace[:MAX_TRACE] + (("v", "<truncated>"),)
    return World(trace, w.decs, w.status)


def _dedup(worlds: list[World], env: Env) -> list[World]:
    seen = set()
    out = []
    for w in worlds:
        k = (w.trace, w.decs, w.status)
        if k not in seen:
            seen.add(k)
            out.append(w)
    if len(out) > MAX_WORLDS:
        env.overflow = True
        out = out[:MAX_WORLDS]
    return out


def _outcomes(worlds: list[World]) -> frozenset:
    return frozenset((w.trace, w.status) for w in worlds)


def _eval_block(block: cp.Block, worlds: list[World], env: Env,
                cont_collect: bool) -> list[World]:
    """Evaluate a statement list over the alive `worlds`; returns all worlds
    (alive ones with status 'fall', plus every exited world)."""
    done: list[World] = []
    alive = [w for w in worlds if w.status == "fall"]
    done.extend(w for w in worlds if w.status != "fall")
    stmts = block.stmts
    for idx, s in enumerate(stmts):
        if not alive:
            break
        after = cont_collect or any(
            env.may_collect(t) for t in stmts[idx + 1:])
        res = _eval_stmt(s, alive, env, after)
        alive = [w for w in res if w.status == "fall"]
        done.extend(w for w in res if w.status != "fall")
        alive = _dedup(alive, env)
    return alive + done


def _eval_stmt(s, alive: list[World], env: Env,
               cont_collect: bool) -> list[World]:
    if isinstance(s, cp.ExprStmt):
        ops = resolve_expr_ops(s, env)
        if env.check is not None:
            env.check.on_expr(s, env)
        return [_extend(w, ops) for w in alive]
    if isinstance(s, cp.Block):
        return _eval_block(s, alive, env, cont_collect)
    if isinstance(s, cp.If):
        return _eval_if(s, alive, env, cont_collect)
    if isinstance(s, cp.Switch):
        return _eval_switch(s, alive, env, cont_collect)
    if isinstance(s, cp.Loop):
        return _eval_loop(s, alive, env, cont_collect)
    if isinstance(s, cp.Jump):
        return _eval_jump(s, alive, env)
    if isinstance(s, cp.Try):
        res = _eval_block(s.body, alive, env, cont_collect)
        for h in s.handlers:
            _eval_block(h, [World()], env, cont_collect)  # findings only
        return res
    return alive


def _tag(w: World, sid: int | None, arm: int) -> World:
    if sid is None:
        return w
    return World(w.trace, w.decs + ((sid, arm),), w.status)


def _eval_if(s: cp.If, alive, env: Env, cont_collect) -> list[World]:
    rank_dep = (not s.constexpr) and cond_is_rank_dep(s.cond, env) \
        and env.check is not None
    sid = env.new_site(s.line, "if", 2) if rank_dep else None
    tw = _eval_block(s.then, [_tag(w, sid, 0) for w in alive], env,
                     cont_collect)
    if s.els is not None:
        ew = _eval_block(s.els, [_tag(w, sid, 1) for w in alive], env,
                         cont_collect)
    else:
        ew = [_tag(w, sid, 1) for w in alive]
    if sid is None and _outcomes(tw) == _outcomes(ew):
        return _dedup(tw, env)
    return _dedup(tw + ew, env)


def _eval_switch(s: cp.Switch, alive, env: Env, cont_collect) -> list[World]:
    rank_dep = cond_is_rank_dep(s.cond, env) and env.check is not None
    arms = len(s.chunks) + (0 if s.has_default else 1)
    sid = env.new_site(s.line, "switch", arms) if rank_dep else None
    arm_results = []
    for idx in range(len(s.chunks)):
        merged = cp.Block(
            [st for c in s.chunks[idx:] for st in c.stmts], s.line)
        res = _eval_block(merged, [_tag(w, sid, idx) for w in alive], env,
                          cont_collect)
        # 'break' exits the switch, not a loop.
        res = [World(x.trace, x.decs, "fall") if x.status == "break"
               else x for x in res]
        arm_results.append(res)
    if not s.has_default:
        arm_results.append([_tag(w, sid, len(s.chunks)) for w in alive])
    if sid is None and len({_outcomes(r) for r in arm_results}) == 1:
        return _dedup(arm_results[0], env)
    return _dedup([w for r in arm_results for w in r], env)


def _eval_loop(s: cp.Loop, alive, env: Env, cont_collect) -> list[World]:
    cond_expr = cp._scan_expr(list(s.cond), s.line) if s.cond else None
    cond_ops = resolve_expr_ops(cond_expr, env) if cond_expr else ()
    init_ops = resolve_expr_ops(s.init, env) if s.init is not None else ()

    body_res = _eval_block(s.body, [World(trace=cond_ops)], env,
                           cont_collect=cont_collect)
    body_collect = any(w.trace for w in body_res) or \
        env.may_collect(s.body)
    if env.check is not None:
        env.check.on_loop_region(s, body_res, body_collect, cont_collect, env)

    iter_traces = {w.trace for w in body_res
                   if w.status in ("fall", "continue", "break")}
    body_eff: tuple | None
    if len(iter_traces) == 1:
        body_eff = next(iter(iter_traces))
    elif not iter_traces:
        body_eff = ()
    else:
        body_eff = None  # iterations can differ

    loop_ops: tuple = init_ops
    if body_eff is None or body_eff or cond_ops:
        loop_ops = loop_ops + (("loop", body_eff),)

    out = [_extend(w, loop_ops) for w in alive]
    # Paths that return/throw out of the loop body.
    escapes = {w.status for w in body_res if w.status in ("return", "throw")}
    for st in sorted(escapes):
        out.extend(World(_extend(w, loop_ops).trace, w.decs, st)
                   for w in alive)
    return _dedup(out, env)


def _eval_jump(s: cp.Jump, alive, env: Env) -> list[World]:
    ops = resolve_expr_ops(s.expr, env) if s.expr is not None else ()
    if s.expr is not None and env.check is not None:
        env.check.on_expr(s.expr, env)  # e.g. `return cond ? a : b;`
    status = {"return": "return", "throw": "throw", "break": "break",
              "continue": "continue", "goto": "fall"}[s.kind]
    out = []
    for w in alive:
        w2 = _extend(w, ops)
        out.append(World(w2.trace, w2.decs, status))
    return out


def eval_unit(unit: FuncUnit, summaries: dict, check=None) -> list[World]:
    """Evaluate one unit body to its set of exit worlds.  With a check sink,
    rank-dep sites are tagged and region checks fire."""
    env = Env(summaries, unit, check=check)
    env.compute_taint()
    worlds = _eval_block(unit.body, [World()], env, cont_collect=False)
    if check is not None:
        check.on_function_region(unit, worlds, env)
    return worlds


# ---------------------------------------------------------------------------
# Unit construction + summary fixpoint
# ---------------------------------------------------------------------------

def build_units(funcs: list[cp.Func]) -> list[FuncUnit]:
    units: list[FuncUnit] = []

    def hoist_lambdas(body: cp.Block, parent: FuncUnit) -> None:
        for lam, line in _walk_lambdas(body):
            lu = FuncUnit(
                name="", qualname=f"{parent.qualname}::<lambda@{line}>",
                path=parent.path, line=line, body=lam.body, parent=parent,
                worker_ctx=lam.worker_ctx)
            units.append(lu)
            hoist_lambdas(lam.body, lu)

    for f in funcs:
        u = FuncUnit(name=f.name, qualname=f.qualname, path=f.path,
                     line=f.line, body=f.body)
        units.append(u)
        hoist_lambdas(f.body, u)
    return units


def _walk_lambdas(node, depth: int = 0):
    if node is None or depth > 40:
        return
    if isinstance(node, cp.Block):
        for s in node.stmts:
            yield from _walk_lambdas(s, depth + 1)
    elif isinstance(node, cp.ExprStmt):
        for lam in node.lambdas:
            yield lam, lam.line
    elif isinstance(node, cp.If):
        yield from _walk_lambdas(node.then, depth + 1)
        yield from _walk_lambdas(node.els, depth + 1)
    elif isinstance(node, cp.Switch):
        for c in node.chunks:
            yield from _walk_lambdas(c, depth + 1)
    elif isinstance(node, cp.Loop):
        yield from _walk_lambdas(node.body, depth + 1)
        if node.init is not None:
            yield from _walk_lambdas(node.init, depth + 1)
    elif isinstance(node, cp.Try):
        yield from _walk_lambdas(node.body, depth + 1)
        for h in node.handlers:
            yield from _walk_lambdas(h, depth + 1)
    elif isinstance(node, cp.Jump):
        yield from _walk_lambdas(node.expr, depth + 1)


def compute_summaries(units: list[FuncUnit]) -> dict[str, Summary]:
    """Fixpoint over the call graph, keyed by unqualified function name.
    Lambdas contribute to their parent's may_issue but are not callable."""
    named: dict[str, list[FuncUnit]] = {}
    for u in units:
        if u.name:
            named.setdefault(u.name, []).append(u)

    summaries: dict[str, Summary] = {n: Summary() for n in named}

    lambda_children: dict[int, list[FuncUnit]] = {}
    for u in units:
        if u.parent is not None:
            root = u.parent
            while root.parent is not None:
                root = root.parent
            lambda_children.setdefault(id(root), []).append(u)

    for _ in range(MAX_FIXPOINT_ITERS):
        changed = False
        for name, funcs in named.items():
            effects = set()
            may: set[str] = set()
            for f in funcs:
                worlds = eval_unit(f, summaries)
                traces = {w.trace for w in worlds if w.status != "throw"}
                if not traces:
                    effects.add(())
                elif len(traces) == 1:
                    effects.add(next(iter(traces)))
                else:
                    effects.add(None)
                may |= node_may_issue(f.body, summaries)
                for lu in lambda_children.get(id(f), []):
                    may |= node_may_issue(lu.body, summaries)
            effect = next(iter(effects)) if len(effects) == 1 else None
            new = Summary(effect=effect, may_issue=frozenset(may))
            if new.key() != summaries[name].key():
                summaries[name] = new
                changed = True
        if not changed:
            break
    else:
        # No convergence: collapse the still-oscillating entries.
        pass
    return summaries


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_effect(eff: tuple | None) -> str:
    if eff is None:
        return "<varying sequence>"
    if not eff:
        return "(no collectives)"
    parts = []
    for op in eff:
        k = op[0]
        if k == "c":
            parts.append(op[1])
        elif k == "loop":
            parts.append(f"loop{{{render_effect(op[1])}}}")
        elif k == "v":
            parts.append(f"{op[1]}()…")
    return " -> ".join(parts) if parts else "(no collectives)"
