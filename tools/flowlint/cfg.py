"""Per-function control-flow graph.

The CFG is built from the statement AST (cxxparse): nodes carry the ordered
event list of one straight-line region; edges follow if/else, switch
(with fallthrough), loop back-edges, and break/continue/return/throw exits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from flowlint import cxxparse as cp

__all__ = ["Node", "Cfg", "build_cfg"]


@dataclass
class Node:
    nid: int
    events: list = field(default_factory=list)  # [Event]
    succs: list = field(default_factory=list)  # [Node]
    line: int = 0

    def add_succ(self, n: "Node") -> None:
        self.succs.append(n)


class Cfg:
    def __init__(self):
        self.nodes: list[Node] = []
        self.entry = self.new_node()
        self.exit = self.new_node()

    def new_node(self, line: int = 0) -> Node:
        n = Node(len(self.nodes), line=line)
        self.nodes.append(n)
        return n


class _Builder:
    def __init__(self):
        self.cfg = Cfg()
        self.break_targets: list[Node] = []
        self.continue_targets: list[Node] = []

    def build(self, body: cp.Block) -> Cfg:
        end = self._block(body, self.cfg.entry)
        end.add_succ(self.cfg.exit)
        return self.cfg

    # Each builder method takes the current node and returns the node where
    # fall-through control continues.
    def _block(self, block: cp.Block, cur: Node) -> Node:
        for s in block.stmts:
            cur = self._stmt(s, cur)
        return cur

    def _stmt(self, s, cur: Node) -> Node:
        cfg = self.cfg
        if isinstance(s, cp.ExprStmt):
            cur.events.extend(s.events)
            if not cur.line:
                cur.line = s.line
            # Inline (non-worker) lambdas run at this point: splice their
            # bodies into the flow.
            for lam in s.lambdas:
                if lam.worker_ctx is None:
                    sub_entry = cfg.new_node(lam.line)
                    cur.add_succ(sub_entry)
                    cur = self._block(lam.body, sub_entry)
            return cur
        if isinstance(s, cp.Block):
            return self._block(s, cur)
        if isinstance(s, cp.If):
            after = cfg.new_node(s.line)
            t_entry = cfg.new_node(s.line)
            cur.add_succ(t_entry)
            self._block(s.then, t_entry).add_succ(after)
            if s.els is not None:
                e_entry = cfg.new_node(s.line)
                cur.add_succ(e_entry)
                self._block(s.els, e_entry).add_succ(after)
            else:
                cur.add_succ(after)
            return after
        if isinstance(s, cp.Switch):
            after = cfg.new_node(s.line)
            self.break_targets.append(after)
            entries = [cfg.new_node(s.line) for _ in s.chunks]
            for idx, chunk in enumerate(s.chunks):
                cur.add_succ(entries[idx])
                chunk_end = self._block(chunk, entries[idx])
                if idx + 1 < len(entries):
                    chunk_end.add_succ(entries[idx + 1])  # fallthrough
                else:
                    chunk_end.add_succ(after)
            if not s.has_default or not s.chunks:
                cur.add_succ(after)
            self.break_targets.pop()
            return after
        if isinstance(s, cp.Loop):
            head = cfg.new_node(s.line)
            after = cfg.new_node(s.line)
            if s.init is not None:
                cur.events.extend(s.init.events)
            if s.cond:
                head.events.extend(
                    cp._scan_expr(list(s.cond), s.line).events)
            cur.add_succ(head)
            body_entry = cfg.new_node(s.line)
            head.add_succ(body_entry)
            head.add_succ(after)  # loop may not run (do-while: approximation)
            self.break_targets.append(after)
            self.continue_targets.append(head)
            body_end = self._block(s.body, body_entry)
            body_end.add_succ(head)  # back edge
            self.break_targets.pop()
            self.continue_targets.pop()
            return after
        if isinstance(s, cp.Jump):
            if s.expr is not None:
                cur.events.extend(s.expr.events)
            if s.kind in ("return", "throw"):
                cur.add_succ(self.cfg.exit)
            elif s.kind == "break" and self.break_targets:
                cur.add_succ(self.break_targets[-1])
            elif s.kind == "continue" and self.continue_targets:
                cur.add_succ(self.continue_targets[-1])
            # Dead node for anything following the jump in this block.
            return cfg.new_node(s.line)
        if isinstance(s, cp.Try):
            cur = self._block(s.body, cur)
            for h in s.handlers:
                h_entry = cfg.new_node(s.line)
                cur.add_succ(h_entry)
                self._block(h, h_entry).add_succ(self.cfg.exit)
            return cur
        return cur


def build_cfg(body: cp.Block) -> Cfg:
    return _Builder().build(body)

