"""Async-handle AST rules: the static third of the concurrency layer.

The issue/wait split (:meth:`RankTransport.exchange_issue` and any other
``*_issue`` call) is what lets communication overlap compute — and it
opens three bug classes no runtime test reliably catches, because a
leaked or mis-sequenced handle usually still produces the right numbers
on the happy path:

- a handle that never reaches ``.wait()`` silently drops its result, its
  ``CommEvent`` accounting and (under SPMD) leaves the peer's ring slot
  occupied until a later collective mysteriously stalls (**REPRO008**);
- a *blocking* collective issued inside another handle's in-flight
  window serializes the overlap the split exists to create, and against
  the same peer set can deadlock outright (**REPRO009**);
- a blocking transport wait without an explicit deadline turns a dead
  peer into an infinite hang instead of a typed
  :class:`~repro.parallel.backend.base.BackendError` naming the culprit
  rank (**REPRO010**).

Rules REPRO008–REPRO010 are registered on import.  Test trees are
exempt (tests legitimately exercise leak/shutdown paths); targeted
``# lint: disable=`` comments remain available elsewhere.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.ast_rules import _call_name
from repro.lint.engine import Finding, SourceFile, register_rule

__all__ = [
    "HandleWaitedRule",
    "NoBlockingInFlightRule",
    "DeadlineOnWaitRule",
]

#: Calls returning an async handle: the issue half of an issue/wait pair.
_ISSUE_SUFFIX = "_issue"

#: Blocking collectives/waits that must not run inside an in-flight window.
_BLOCKING = {"tp_all_reduce", "tp_broadcast", "pipeline_transfer",
             "exchange", "barrier_wait"}

#: Receiver-name tokens that mark a call target as the shm transport.
_TRANSPORT_TOKENS = {"transport", "_transport", "channel", "channels",
                     "_channels", "chan", "barrier", "_barrier"}

_DISCHARGED, _LEAKS, _FALLS = "discharged", "leaks", "falls"


def _issue_call(node: ast.expr) -> ast.Call | None:
    """``node`` itself, when it is a ``*_issue(...)`` call."""
    if isinstance(node, ast.Call) and _call_name(node).endswith(_ISSUE_SUFFIX):
        return node
    return None


def _name_used(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(n, ast.Name) and n.id == name for n in ast.walk(node)
    )


def _is_wait_call(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wait"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name)


def _expr_discharges(node: ast.AST, name: str) -> bool:
    """Whether evaluating ``node`` waits ``name`` or lets it escape.

    Escapes — passing the handle to a call, storing it into an attribute
    / container, returning or yielding it, capturing it in a nested
    function — hand responsibility elsewhere, so the rule stops tracking
    (liberal on purpose: false silence beats false alarms in a linter).
    """
    for n in ast.walk(node):
        if _is_wait_call(n, name):
            return True
        if isinstance(n, ast.Call):
            pieces = list(n.args) + [kw.value for kw in n.keywords]
            if any(_name_used(p, name) for p in pieces):
                return True
        if isinstance(n, (ast.Yield, ast.YieldFrom)) and n.value is not None \
                and _name_used(n.value, name):
            return True
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) \
                and _name_used(n, name):
            return True  # closure capture (the finish/backward pattern)
    return False


def _stmt_discharges_simple(stmt: ast.stmt, name: str) -> bool:
    if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        value = stmt.value
        if value is not None and _name_used(value, name):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            if any(not isinstance(t, ast.Name) for t in targets):
                return True  # stored into an attribute/subscript/tuple
            # plain aliasing: the alias now carries the obligation; stop
            # tracking rather than double-report.
            return True
        return value is not None and _expr_discharges(value, name)
    return _expr_discharges(stmt, name)


def _block_outcome(stmts: list[ast.stmt], name: str) -> str:
    for stmt in stmts:
        outcome = _stmt_outcome(stmt, name)
        if outcome != _FALLS:
            return outcome
    return _FALLS


def _stmt_outcome(stmt: ast.stmt, name: str) -> str:
    """How executing ``stmt`` affects the pending handle ``name``.

    ``discharged``: every path through the statement waits/escapes it;
    ``leaks``: some path exits the function with the handle pending;
    ``falls``: control may continue past with the handle still pending.
    """
    if isinstance(stmt, ast.Return):
        if stmt.value is not None and (
                _name_used(stmt.value, name) or _expr_discharges(stmt.value, name)):
            return _DISCHARGED
        return _LEAKS
    if isinstance(stmt, ast.Raise):
        return _DISCHARGED  # error path; the gang is tearing down anyway
    if isinstance(stmt, ast.If):
        if _expr_discharges(stmt.test, name):
            return _DISCHARGED
        then = _block_outcome(stmt.body, name)
        alt = _block_outcome(stmt.orelse, name)
        if _LEAKS in (then, alt):
            return _LEAKS
        if then == alt == _DISCHARGED:
            return _DISCHARGED
        return _FALLS
    if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
        head = stmt.iter if isinstance(stmt, (ast.For, ast.AsyncFor)) else stmt.test
        if _expr_discharges(head, name):
            return _DISCHARGED
        if _block_outcome(stmt.body + stmt.orelse, name) == _LEAKS:
            return _LEAKS
        return _FALLS  # the body may run zero times
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        if any(_expr_discharges(item.context_expr, name) for item in stmt.items):
            return _DISCHARGED
        return _block_outcome(stmt.body, name)
    if isinstance(stmt, ast.Try):
        for handler in stmt.handlers:
            if _block_outcome(handler.body, name) == _LEAKS:
                return _LEAKS
        return _block_outcome(stmt.body + stmt.orelse + stmt.finalbody, name)
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return _DISCHARGED if _name_used(stmt, name) else _FALLS
    return _DISCHARGED if _stmt_discharges_simple(stmt, name) else _FALLS


def _iter_blocks(tree: ast.AST) -> Iterator[list[ast.stmt]]:
    """Every statement list in the file (module, bodies, branches, ...)."""
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if isinstance(block, list) and block \
                    and isinstance(block[0], ast.stmt):
                yield block


@register_rule
class HandleWaitedRule:
    """Every issued handle must reach ``.wait()`` on all control-flow paths."""

    id = "REPRO008"
    name = "handle-waited"
    summary = "every *_issue() handle must reach .wait() (or escape) on all paths"

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if source.is_test:
            return
        # conts: statement lists that execute after the current block,
        # innermost first — the continuation the handle lives through.
        def scan(block: list[ast.stmt], conts: list[list[ast.stmt]]):
            for i, stmt in enumerate(block):
                rest = block[i + 1:]
                yield from check_stmt(stmt, rest, conts)
                for inner in self._inner_blocks(stmt):
                    yield from scan(inner, [rest] + conts)

        def check_stmt(stmt, rest, conts):
            if isinstance(stmt, ast.Expr):
                call = _issue_call(stmt.value)
                if call is not None:
                    yield Finding(
                        self.id, self.name,
                        f"result of {_call_name(call)}() is discarded; the "
                        "handle can never be waited",
                        source.path, call.lineno, call.col_offset)
                return
            if not (isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)):
                return
            call = _issue_call(stmt.value)
            if call is None:
                return
            name = stmt.targets[0].id
            outcome = _FALLS
            for continuation in [rest] + conts:
                outcome = _block_outcome(continuation, name)
                if outcome != _FALLS:
                    break
            if outcome != _DISCHARGED:
                how = ("a control-flow path exits without waiting it"
                       if outcome == _LEAKS else "it is never waited")
                yield Finding(
                    self.id, self.name,
                    f"handle {name!r} from {_call_name(call)}() — {how}",
                    source.path, call.lineno, call.col_offset)

        yield from scan(source.tree.body, [])  # type: ignore[attr-defined]

    @staticmethod
    def _inner_blocks(stmt: ast.stmt) -> list[list[ast.stmt]]:
        blocks = []
        for field in ("body", "orelse", "finalbody"):
            block = getattr(stmt, field, None)
            if isinstance(block, list) and block \
                    and isinstance(block[0], ast.stmt):
                blocks.append(block)
        for handler in getattr(stmt, "handlers", []):
            blocks.append(handler.body)
        return blocks


@register_rule
class NoBlockingInFlightRule:
    """No blocking collective inside another handle's issue→wait window."""

    id = "REPRO009"
    name = "no-blocking-in-flight"
    summary = "no blocking collective between a handle's issue and its wait"

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if source.is_test:
            return
        for block in _iter_blocks(source.tree):
            yield from self._check_block(block, source)

    def _check_block(self, block, source) -> Iterator[Finding]:
        for i, stmt in enumerate(block):
            if not (isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and _issue_call(stmt.value) is not None):
                continue
            name = stmt.targets[0].id
            wait_at = None
            for j in range(i + 1, len(block)):
                if any(_is_wait_call(n, name) for n in ast.walk(block[j])):
                    wait_at = j
                    break
            if wait_at is None:
                continue  # cross-block wait: REPRO008 territory
            for k in range(i + 1, wait_at):
                for node in ast.walk(block[k]):
                    if isinstance(node, ast.Call) \
                            and _call_name(node) in _BLOCKING:
                        yield Finding(
                            self.id, self.name,
                            f"blocking {_call_name(node)}() inside the "
                            f"in-flight window of {name!r} (issued line "
                            f"{stmt.lineno}, waited line "
                            f"{block[wait_at].lineno}) serializes the "
                            "overlap and can deadlock against the same peers",
                            source.path, node.lineno, node.col_offset)


@register_rule
class DeadlineOnWaitRule:
    """Every blocking transport wait must carry an explicit deadline."""

    id = "REPRO010"
    name = "deadline-on-wait"
    summary = "blocking transport calls must pass an explicit timeout="

    #: Always transport-owned, regardless of receiver spelling.
    UNIQUE = {"exchange_issue", "barrier_wait"}
    #: Transport-owned only when the receiver names the transport.
    GATED = {"send", "recv", "exchange", "wait"}

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if source.is_test:
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = _call_name(node)
            if fn in self.UNIQUE:
                pass
            elif fn in self.GATED:
                if not isinstance(node.func, ast.Attribute):
                    continue
                if not self._transport_receiver(node.func.value):
                    continue
            else:
                continue
            if any(kw.arg == "timeout" for kw in node.keywords):
                continue
            yield Finding(
                self.id, self.name,
                f"blocking transport call {fn}() without an explicit "
                "timeout= deadline; a dead peer would hang forever instead "
                "of raising a typed BackendError naming the rank",
                source.path, node.lineno, node.col_offset)

    @staticmethod
    def _transport_receiver(node: ast.expr) -> bool:
        """Whether the receiver expression names the shm transport."""
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and n.id in _TRANSPORT_TOKENS:
                return True
            if isinstance(n, ast.Attribute) and n.attr in _TRANSPORT_TOKENS:
                return True
        return False
