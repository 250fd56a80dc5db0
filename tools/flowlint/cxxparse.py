"""Function extraction and statement-level AST for flowlint.

Recovers, from the token stream of one translation unit:

  * every free/member function definition (qualified name, parameter tokens,
    body) via a scope-tracking scan of namespace/class nesting;
  * a structured statement AST per body — blocks, if/else, switch/case,
    for/while/do, return/break/continue/throw, try/catch, expression
    statements — rich enough to build a CFG and evaluate collective effects;
  * lambda literals inside expressions, each with its own body AST and the
    name of the enclosing call it is an argument of (so a lambda handed to
    `ThreadPool::for_chunks` can be told apart from an entry lambda);
  * per-expression *events*: collective issues and plain call sites, in
    left-to-right token order (a sound enough stand-in for evaluation order
    at statement granularity).

This is a heuristic parser, not a conforming one; the grammar subset matches
the house style of src/analytics, src/engine and src/dgraph.  Constructs it
cannot parse degrade to opaque expression statements, never to crashes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from flowlint.lexer import Token, lex, strip_source

__all__ = [
    "Block", "If", "Switch", "Loop", "Jump", "Try", "ExprStmt", "Lambda",
    "Func", "Event", "parse_file", "parse_tokens",
]

# ---------------------------------------------------------------------------
# Event vocabulary (what the checks care about inside an expression).
# ---------------------------------------------------------------------------

# Blocking collectives on parcomm::Communicator (plus the barrier forms).
COLLECTIVES = {
    "alltoallv", "alltoall", "allreduce", "allreduce_sum", "allreduce_max",
    "allreduce_min", "allreduce_lor", "allgather", "allgatherv", "broadcast",
    "broadcast_vec", "gatherv", "barrier", "timed_barrier",
}
# ThreadPool entry points whose functor runs on pool worker threads: a
# collective reachable from one of these is issued per-thread, not per-rank.
WORKER_ENTRY = {"for_chunks", "for_ranges", "reduce_chunks"}

_KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "default",
    "return", "break", "continue", "goto", "throw", "try", "catch",
    "sizeof", "alignof", "new", "delete", "static_cast", "dynamic_cast",
    "const_cast", "reinterpret_cast", "co_return", "co_await", "co_yield",
    "and", "or", "not", "constexpr", "const", "static", "inline", "auto",
    "using", "typedef", "template", "typename", "class", "struct", "union",
    "enum", "namespace", "public", "private", "protected", "operator",
    "noexcept", "decltype", "requires", "this", "true", "false", "nullptr",
}


@dataclass(frozen=True)
class Event:
    kind: str  # 'c' (blocking collective) | 'call'
    name: str
    line: int


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

@dataclass
class Block:
    stmts: list = field(default_factory=list)
    line: int = 0


@dataclass
class If:
    cond: list  # tokens
    then: Block
    els: Block | None
    line: int
    constexpr: bool = False


@dataclass
class Switch:
    cond: list
    chunks: list  # list[Block]: case-labelled chunks, in order (fallthrough
    # runs chunk i into chunk i+1)
    has_default: bool
    line: int


@dataclass
class Loop:
    kind: str  # 'for' | 'range_for' | 'while' | 'do'
    cond: list  # trip-controlling tokens (cond expr / range expr)
    body: Block
    line: int
    init: "ExprStmt | None" = None  # for-loop init clause (taint source)


@dataclass
class Jump:
    kind: str  # 'return' | 'break' | 'continue' | 'throw' | 'goto'
    expr: "ExprStmt | None"
    line: int


@dataclass
class Try:
    body: Block
    handlers: list  # list[Block]
    line: int


@dataclass
class Lambda:
    body: Block
    worker_ctx: str | None  # enclosing WORKER_ENTRY call name, if any
    line: int


@dataclass
class Ternary:
    cond: list  # tokens
    arm_events: tuple  # (events_in_arm1, events_in_arm2)
    line: int


@dataclass
class ExprStmt:
    tokens: list  # Token list, lambda bodies excised
    events: list = field(default_factory=list)  # [Event] in token order
    lambdas: list = field(default_factory=list)  # [Lambda]
    ternaries: list = field(default_factory=list)  # [Ternary]
    assigns: list = field(default_factory=list)  # [(lhs_name, rhs_tokens)]
    line: int = 0


@dataclass
class Func:
    name: str  # unqualified
    qualname: str
    path: str
    line: int
    params: list  # tokens between the parameter parens
    body: Block
    is_lambda: bool = False


# ---------------------------------------------------------------------------
# Token helpers
# ---------------------------------------------------------------------------

_OPEN = {"(": ")", "[": "]", "{": "}"}
_CLOSE = {")", "]", "}"}


def _match(toks: list[Token], i: int) -> int:
    """Index just past the bracket matching toks[i] (which must open one)."""
    depth = 0
    open_t = toks[i].text
    close_t = _OPEN[open_t]
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _skip_angles(toks: list[Token], i: int) -> int:
    """Skip a template argument/parameter list starting at '<'.  `>>` closes
    two levels.  Bails (returns i+1) on suspicious nesting."""
    depth = 0
    n = len(toks)
    start = i
    while i < n:
        t = toks[i].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return i + 1
        elif t in (";", "{") or i - start > 400:
            return start + 1  # not a template list after all
        i += 1
    return start + 1


# ---------------------------------------------------------------------------
# Statement parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks

    # -- statements ---------------------------------------------------------

    def parse_block(self, i: int, end: int) -> Block:
        """Parse toks[i:end] as a statement sequence (no surrounding braces)."""
        b = Block(line=self.toks[i].line if i < end else 0)
        while i < end:
            stmt, i = self.parse_stmt(i, end)
            if stmt is not None:
                b.stmts.append(stmt)
        return b

    def parse_stmt(self, i: int, end: int):
        toks = self.toks
        if i >= end:
            return None, end
        t = toks[i]
        x = t.text
        if x == ";":
            return None, i + 1
        if x == "{":
            close = _match(toks, i)
            return self.parse_block(i + 1, close - 1), min(close, end)
        if x == "if":
            return self.parse_if(i, end)
        if x == "switch":
            return self.parse_switch(i, end)
        if x in ("for", "while"):
            return self.parse_loop(i, end)
        if x == "do":
            return self.parse_do(i, end)
        if x in ("return", "throw", "co_return"):
            j = self.find_semi(i + 1, end)
            expr = self.parse_expr(i + 1, j) if j > i + 1 else None
            kind = "throw" if x == "throw" else "return"
            return Jump(kind, expr, t.line), min(j + 1, end)
        if x in ("break", "continue"):
            j = self.find_semi(i + 1, end)
            return Jump(x, None, t.line), min(j + 1, end)
        if x == "goto":
            j = self.find_semi(i + 1, end)
            return Jump("goto", None, t.line), min(j + 1, end)
        if x == "try":
            return self.parse_try(i, end)
        if x in ("case", "default"):
            # Stray label outside a switch body chunking pass; skip to ':'.
            j = i + 1
            while j < end and toks[j].text != ":":
                j += 1
            return None, j + 1
        if x in ("using", "typedef", "static_assert"):
            j = self.find_semi(i + 1, end)
            return None, min(j + 1, end)
        # Plain label `name:` (not `::`).
        if (t.kind == "id" and i + 1 < end and toks[i + 1].text == ":"
                and x not in _KEYWORDS):
            nxt = toks[i + 2].text if i + 2 < end else ""
            if nxt not in (":",):
                return None, i + 2
        # Expression / declaration statement.
        j = self.find_semi(i, end)
        return self.parse_expr(i, j), min(j + 1, end)

    def parse_if(self, i: int, end: int):
        toks = self.toks
        line = toks[i].line
        j = i + 1
        constexpr = False
        if j < end and toks[j].text == "constexpr":
            constexpr = True
            j += 1
        if j >= end or toks[j].text != "(":
            return None, i + 1
        cond_end = _match(toks, j)
        cond = toks[j + 1:cond_end - 1]
        then_stmt, k = self.parse_stmt(cond_end, end)
        then = _as_block(then_stmt, line)
        els = None
        if k < end and toks[k].text == "else":
            els_stmt, k = self.parse_stmt(k + 1, end)
            els = _as_block(els_stmt, line)
        return If(cond, then, els, line, constexpr), k

    def parse_switch(self, i: int, end: int):
        toks = self.toks
        line = toks[i].line
        j = i + 1
        if j >= end or toks[j].text != "(":
            return None, i + 1
        cond_end = _match(toks, j)
        cond = toks[j + 1:cond_end - 1]
        if cond_end >= end or toks[cond_end].text != "{":
            return None, cond_end
        body_close = _match(toks, cond_end)
        # Split body into case-labelled chunks at depth 0.
        k = cond_end + 1
        chunks: list[Block] = []
        has_default = False
        cur_start = None
        bounds: list[tuple[int, int]] = []
        depth = 0
        while k < body_close - 1:
            x = toks[k].text
            if x in ("{", "(", "["):
                k = _match(toks, k)
                continue
            if depth == 0 and x in ("case", "default"):
                if x == "default":
                    has_default = True
                if cur_start is not None:
                    bounds.append((cur_start, k))
                # skip to ':' ending the label
                while k < body_close - 1 and toks[k].text != ":":
                    k += 1
                k += 1
                cur_start = k
                continue
            k += 1
        if cur_start is not None:
            bounds.append((cur_start, body_close - 1))
        for lo, hi in bounds:
            chunks.append(self.parse_block(lo, hi))
        return Switch(cond, chunks, has_default, line), body_close

    def parse_loop(self, i: int, end: int):
        toks = self.toks
        kind = toks[i].text  # 'for' | 'while'
        line = toks[i].line
        j = i + 1
        if j >= end or toks[j].text != "(":
            return None, i + 1
        head_end = _match(toks, j)
        head = toks[j + 1:head_end - 1]
        cond: list[Token] = head
        init_expr = None
        if kind == "for":
            # range-for: ':' at depth 0 with no top-level ';'
            semis = _top_level_positions(head, ";")
            if not semis:
                colon = _top_level_positions(head, ":")
                if colon:
                    kind = "range_for"
                    cond = head[colon[0] + 1:]
            else:
                init = head[:semis[0]]
                if init:
                    init_expr = _scan_expr(init, line)
                cond = head[semis[0] + 1:
                            semis[1] if len(semis) > 1 else len(head)]
        body_stmt, k = self.parse_stmt(head_end, end)
        body = _as_block(body_stmt, line)
        loop = Loop(kind, cond, body, line)
        loop.init = init_expr
        return loop, k

    def parse_do(self, i: int, end: int):
        toks = self.toks
        line = toks[i].line
        body_stmt, k = self.parse_stmt(i + 1, end)
        body = _as_block(body_stmt, line)
        cond: list[Token] = []
        if k < end and toks[k].text == "while":
            j = k + 1
            if j < end and toks[j].text == "(":
                cend = _match(toks, j)
                cond = toks[j + 1:cend - 1]
                k = cend
                if k < end and toks[k].text == ";":
                    k += 1
        loop = Loop("do", cond, body, line)
        loop.init = None
        return loop, k

    def parse_try(self, i: int, end: int):
        toks = self.toks
        line = toks[i].line
        body_stmt, k = self.parse_stmt(i + 1, end)
        body = _as_block(body_stmt, line)
        handlers = []
        while k < end and toks[k].text == "catch":
            j = k + 1
            if j < end and toks[j].text == "(":
                j = _match(toks, j)
            h_stmt, k = self.parse_stmt(j, end)
            handlers.append(_as_block(h_stmt, line))
        return Try(body, handlers, line), k

    # -- expressions --------------------------------------------------------

    def find_semi(self, i: int, end: int) -> int:
        toks = self.toks
        while i < end:
            x = toks[i].text
            if x == ";":
                return i
            if x in _OPEN:
                i = _match(toks, i)
                continue
            if x in _CLOSE:
                return i  # malformed; stop at enclosing close
            i += 1
        return end

    def parse_expr(self, i: int, end: int) -> ExprStmt:
        return _scan_expr(self.toks[i:end],
                          self.toks[i].line if i < end else 0)


def _as_block(stmt, line) -> Block:
    if stmt is None:
        return Block([], line)
    if isinstance(stmt, Block):
        return stmt
    return Block([stmt], line)


def _top_level_positions(toks: list[Token], text: str) -> list[int]:
    out = []
    i = 0
    while i < len(toks):
        x = toks[i].text
        if x in _OPEN:
            i = _match(toks, i)
            continue
        if x == text:
            out.append(i)
        i += 1
    return out


# ---------------------------------------------------------------------------
# Expression scanning: events, lambdas, ternaries, assignments.
# ---------------------------------------------------------------------------

def _lambda_start(toks: list[Token], i: int) -> bool:
    """Is toks[i] == '[' the start of a lambda introducer (vs. a subscript
    or an attribute)?"""
    if toks[i].text != "[":
        return False
    if i + 1 < len(toks) and toks[i + 1].text == "[":
        return False  # [[attribute]]
    if i == 0:
        return True
    prev = toks[i - 1]
    if prev.kind in ("id", "num") or prev.text in (")", "]"):
        return False  # subscript
    return True


def _scan_expr(toks: list[Token], line: int) -> ExprStmt:
    """Extract events/lambdas/ternaries/assignments from one statement's
    tokens.  Lambda bodies are parsed recursively and excised from the
    event scan (they run later / on other threads)."""
    st = ExprStmt(tokens=toks, line=line)
    call_stack: list[str] = []  # names of enclosing calls, by paren depth
    i, n = 0, len(toks)
    kept: list[Token] = []  # tokens outside lambda bodies (for taint/ternary)
    kept_events_pos: list[tuple[int, Event]] = []

    def worker_ctx() -> str | None:
        for name in reversed(call_stack):
            if name in WORKER_ENTRY:
                return name
        return None

    while i < n:
        t = toks[i]
        x = t.text
        if _lambda_start(toks, i):
            # capture list
            j = _match(toks, i)
            # optional template params <...>
            if j < n and toks[j].text == "<":
                j = _skip_angles(toks, j)
            # optional parameter list
            if j < n and toks[j].text == "(":
                j = _match(toks, j)
            # specifiers until '{' (mutable, noexcept(...), -> type, ...)
            k = j
            guard = 0
            while k < n and toks[k].text != "{" and guard < 40:
                if toks[k].text == "(":
                    k = _match(toks, k)
                elif toks[k].text == "<":
                    k = _skip_angles(toks, k)
                elif toks[k].text in (";", ",", ")"):
                    break
                else:
                    k += 1
                guard += 1
            if k < n and toks[k].text == "{":
                body_end = _match(toks, k)
                sub = _Parser(toks)
                body = sub.parse_block(k + 1, body_end - 1)
                st.lambdas.append(Lambda(body, worker_ctx(), t.line))
                i = body_end
                continue
            # Not a lambda body we can parse; fall through token-by-token.
            kept.append(t)
            i += 1
            continue
        if x == "(":
            # Record the call name feeding this paren, if any.
            name = None
            if kept:
                p = kept[-1]
                if p.kind == "id" and p.text not in _KEYWORDS:
                    name = p.text
            call_stack.append(name or "")
            kept.append(t)
            i += 1
            continue
        if x == ")":
            if call_stack:
                call_stack.pop()
            kept.append(t)
            i += 1
            continue
        if x in (".", "->") and i + 1 < n:
            j = i + 1
            if toks[j].text == "template":
                j += 1
            if j < n and toks[j].kind == "id":
                name = toks[j].text
                k = j + 1
                if k < n and toks[k].text == "<":
                    k2 = _skip_angles(toks, k)
                    if k2 < n and toks[k2].text == "(":
                        k = k2
                if k < n and toks[k].text == "(":
                    ev = _method_event(name, toks[j].line)
                    if ev is not None:
                        st.events.append(ev)
                        kept_events_pos.append((len(kept), ev))
            kept.append(t)
            i += 1
            continue
        if t.kind == "id" and x not in _KEYWORDS:
            # Free (or ns-qualified) call: id followed by '(' — but not a
            # method call (preceded by . or ->, handled above).
            prev = kept[-1].text if kept else ""
            j = i + 1
            if j < n and toks[j].text == "<":
                k2 = _skip_angles(toks, j)
                if k2 < n and toks[k2].text == "(":
                    j = k2
            if j < n and toks[j].text == "(" and prev not in (".", "->"):
                ev = Event("call", x, t.line)
                st.events.append(ev)
                kept_events_pos.append((len(kept), ev))
            kept.append(t)
            i += 1
            continue
        kept.append(t)
        i += 1

    st.tokens = kept
    _scan_assigns(st, kept)
    _scan_ternaries(st, kept, kept_events_pos)
    return st


def _method_event(name: str, line: int) -> Event | None:
    if name in COLLECTIVES:
        return Event("c", name, line)
    return Event("call", name, line)


def _scan_assigns(st: ExprStmt, toks: list[Token]) -> None:
    """Record simple `lhs = rhs` / `lhs op= rhs` pairs for the taint pass.
    Only the top-level assignment of the statement is considered."""
    i = 0
    n = len(toks)
    depth = 0
    while i < n:
        x = toks[i].text
        if x in _OPEN:
            depth += 1
        elif x in _CLOSE:
            depth -= 1
        elif depth == 0 and (x == "=" or (x.endswith("=") and len(x) == 2
                             and x[0] in "+-*/%&^|")):
            if i > 0 and toks[i - 1].kind == "id":
                # Walk back over member access so `ctx.active_global = ...`
                # records the dotted path, not just the last component.
                chain = [toks[i - 1].text]
                k = i - 1
                while (k >= 2 and toks[k - 1].text in (".", "->")
                       and toks[k - 2].kind == "id"):
                    chain.append(toks[k - 2].text)
                    k -= 2
                st.assigns.append((".".join(reversed(chain)), toks[i + 1:]))
            return
        i += 1
    # Brace/paren init declarations: `T name{expr}` / `T name(expr)` with at
    # least two leading identifiers (type then name).
    for i in range(1, n):
        if (toks[i].text in ("{", "(") and toks[i - 1].kind == "id"
                and toks[i - 1].text not in _KEYWORDS
                and i >= 2 and (toks[i - 2].kind == "id"
                                or toks[i - 2].text in (">", "&", "*"))):
            j = _match(toks, i)
            st.assigns.append((toks[i - 1].text, toks[i + 1:j - 1]))
            return


def _scan_ternaries(st: ExprStmt, toks: list[Token],
                    events_pos: list[tuple[int, Event]]) -> None:
    """Find `cond ? a : b` at any single nesting depth and split the already
    collected events into the two arms (plus record the cond tokens)."""
    n = len(toks)
    i = 0
    while i < n:
        if toks[i].text != "?":
            i += 1
            continue
        # Find matching ':' at the same bracket depth.
        depth = 0
        q = 0
        j = i + 1
        colon = -1
        while j < n:
            x = toks[j].text
            if x in _OPEN:
                depth += 1
            elif x in _CLOSE:
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0 and x == "?":
                q += 1
            elif depth == 0 and x == ":":
                if q == 0:
                    colon = j
                    break
                q -= 1
            j += 1
        if colon == -1:
            i += 1
            continue
        # cond: walk back to the start of this subexpression.
        k = i - 1
        depth = 0
        cond_start = 0
        while k >= 0:
            x = toks[k].text
            if x in _CLOSE:
                depth += 1
            elif x in _OPEN:
                if depth == 0:
                    cond_start = k + 1
                    break
                depth -= 1
            elif depth == 0 and x in (";", ",", "=", "return"):
                cond_start = k + 1
                break
            k -= 1
        # arm2 end: next top-level ',' / ';' / close.
        j = colon + 1
        depth = 0
        arm2_end = n
        while j < n:
            x = toks[j].text
            if x in _OPEN:
                depth += 1
            elif x in _CLOSE:
                if depth == 0:
                    arm2_end = j
                    break
                depth -= 1
            elif depth == 0 and x in (",", ";"):
                arm2_end = j
                break
            j += 1
        arm1 = [ev for pos, ev in events_pos if i < pos <= colon]
        arm2 = [ev for pos, ev in events_pos if colon < pos <= arm2_end]
        st.ternaries.append(
            Ternary(toks[cond_start:i], (arm1, arm2), toks[i].line))
        i = colon + 1


# ---------------------------------------------------------------------------
# Function extraction
# ---------------------------------------------------------------------------

_DECL_STOP = {";", "{", "}"}


def parse_tokens(toks: list[Token], path: str) -> list[Func]:
    funcs: list[Func] = []
    _scan_decl_scope(toks, 0, len(toks), [], path, funcs)
    return funcs


def parse_file(path: str, text: str | None = None):
    """Returns (funcs, comments).  comments: line -> comment text."""
    if text is None:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    code, comments = strip_source(text)
    toks = lex(code)
    return parse_tokens(toks, path), comments


def _scan_decl_scope(toks: list[Token], i: int, end: int,
                     scope: list[str], path: str,
                     funcs: list[Func]) -> None:
    while i < end:
        x = toks[i].text
        if x == "namespace":
            j = i + 1
            name_parts = []
            while j < end and (toks[j].kind == "id" or toks[j].text == "::"):
                name_parts.append(toks[j].text)
                j += 1
            if j < end and toks[j].text == "{":
                close = _match(toks, j)
                _scan_decl_scope(toks, j + 1, close - 1,
                                 scope + ["".join(name_parts) or "<anon>"],
                                 path, funcs)
                i = close
                continue
            i = j + 1
            continue
        if x == "template":
            j = i + 1
            if j < end and toks[j].text == "<":
                i = _skip_angles(toks, j)
                continue
            i = j
            continue
        if x in ("class", "struct", "union"):
            # Find '{' or ';' at depth 0 — definition vs declaration/var.
            j = i + 1
            cname = None
            while j < end:
                t = toks[j]
                if t.kind == "id" and cname is None and \
                        t.text not in _KEYWORDS:
                    cname = t.text
                if t.text == "{":
                    break
                if t.text in (";", "="):
                    break
                if t.text == "(":  # function returning struct? bail
                    break
                j += 1
            if j < end and toks[j].text == "{":
                close = _match(toks, j)
                _scan_decl_scope(toks, j + 1, close - 1,
                                 scope + [cname or "<anon-class>"],
                                 path, funcs)
                i = close
                continue
            i = j + 1
            continue
        if x == "enum":
            j = i + 1
            while j < end and toks[j].text not in ("{", ";"):
                j += 1
            if j < end and toks[j].text == "{":
                i = _match(toks, j)
            else:
                i = j + 1
            continue
        if x in ("public", "private", "protected") and i + 1 < end and \
                toks[i + 1].text == ":":
            i += 2
            continue
        if x in ("using", "typedef", "static_assert", "friend"):
            j = i
            while j < end and toks[j].text != ";":
                if toks[j].text in _OPEN:
                    j = _match(toks, j)
                    continue
                j += 1
            i = j + 1
            continue
        # Generic declaration: accumulate until ';' (pure decl) or '{'.
        start = i
        j = i
        fn_open = -1  # first depth-0 '(' preceded by an identifier
        saw_eq = False
        while j < end:
            t = toks[j]
            if t.text == ";":
                break
            if t.text == "=" and fn_open == -1:
                saw_eq = True
            if t.text == "(":
                if (fn_open == -1 and not saw_eq and j > start
                        and (toks[j - 1].kind == "id"
                             or toks[j - 1].text in (")", "]")
                             or _is_operator_name(toks, start, j))):
                    fn_open = j
                j = _match(toks, j)
                continue
            if t.text == "[":
                j = _match(toks, j)
                continue
            if t.text == "<" and j > start and toks[j - 1].kind == "id":
                j = _skip_angles(toks, j)
                continue
            if t.text == "{":
                break
            if t.text == "}":
                break
            j += 1
        if j >= end:
            break
        if toks[j].text == "{":
            if fn_open != -1 and not saw_eq:
                # Function definition (possibly after a ctor-init list, which
                # the scan above walked through token-by-token).
                close_paren = _match(toks, fn_open) - 1
                name = _func_name(toks, start, fn_open)
                body_close = _match(toks, j)
                parser = _Parser(toks)
                body = parser.parse_block(j + 1, body_close - 1)
                qual = "::".join(scope + [name]) if scope else name
                funcs.append(Func(
                    name=name, qualname=qual, path=path,
                    line=toks[start].line,
                    params=toks[fn_open + 1:close_paren],
                    body=body))
                # `void f() {} ;` — continue after the body.
                i = body_close
                continue
            # Initializer braces (`int x{0};`, array init, etc.): skip the
            # braces, then continue to the terminating ';'.
            i = _match(toks, j)
            continue
        if toks[j].text == "}":
            i = j + 1
            continue
        i = j + 1


def _is_operator_name(toks: list[Token], start: int, j: int) -> bool:
    return j >= 2 and any(t.text == "operator" for t in toks[max(start, j - 3):j])


def _func_name(toks: list[Token], start: int, fn_open: int) -> str:
    """Identifier immediately before the parameter '(' (skipping template
    args); 'operator?' collapses to 'operator'."""
    k = fn_open - 1
    if k >= start and toks[k].text == ">":
        # name<...>( — walk back over the template args
        depth = 0
        while k >= start:
            x = toks[k].text
            if x in (">", ">>"):
                depth += 2 if x == ">>" else 1
            elif x == "<":
                depth -= 1
                if depth <= 0:
                    k -= 1
                    break
            k -= 1
    while k >= start:
        t = toks[k]
        if t.kind == "id" and t.text not in ("const", "noexcept"):
            return t.text
        if t.text in (")", "]"):
            return "<expr>"
        k -= 1
    return "<anon>"
