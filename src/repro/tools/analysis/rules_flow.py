"""Control-flow rules: RT-POLL-LOOP, RT-EXCEPT-SWALLOW, RT-THREAD-LEAK."""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from repro.tools.analysis import astutil
from repro.tools.analysis.findings import ERROR, WARNING, Finding
from repro.tools.analysis.registry import rule

_NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _inline_nodes(body: List[ast.stmt]) -> Iterator[ast.AST]:
    """All nodes in ``body`` that execute inline (skip nested defs)."""
    for stmt in body:
        if isinstance(stmt, _NESTED):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, _NESTED):
                continue
            yield node


# -- RT-POLL-LOOP ------------------------------------------------------------


def _loop_calls(body, in_handler: bool) -> Iterator[Tuple[ast.Call, bool]]:
    """Calls executing per-iteration of this loop (skip nested defs and
    nested while loops — an inner loop is checked on its own)."""
    for stmt in body:
        if isinstance(stmt, _NESTED):
            continue
        if isinstance(stmt, ast.While):
            continue
        if isinstance(stmt, ast.Try):
            yield from _loop_calls(stmt.body, in_handler)
            for handler in stmt.handlers:
                yield from _loop_calls(handler.body, True)
            yield from _loop_calls(stmt.orelse, in_handler)
            yield from _loop_calls(stmt.finalbody, in_handler)
            continue
        if isinstance(stmt, (ast.If, ast.For, ast.AsyncFor, ast.With, ast.AsyncWith)):
            # Recurse explicitly so the handler/while exclusions compose.
            for header in _header_exprs(stmt):
                for node in ast.walk(header):
                    if isinstance(node, ast.Call):
                        yield node, in_handler
            blocks = [stmt.body]
            if hasattr(stmt, "orelse"):
                blocks.append(stmt.orelse)
            for block in blocks:
                yield from _loop_calls(block, in_handler)
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                yield node, in_handler


def _header_exprs(stmt):
    if isinstance(stmt, ast.If):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    return []


def _call_last(call: ast.Call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


@rule(
    "RT-POLL-LOOP",
    "while-loop that polls with time.sleep instead of waiting on the "
    "event layer",
)
def check_poll_loop(project):
    for module in project.modules:
        if module.tree is None:
            continue
        for loop in ast.walk(module.tree):
            if not isinstance(loop, ast.While):
                continue
            sleeps = []
            waits = False
            for call, in_handler in _loop_calls(loop.body, False):
                last = _call_last(call)
                if last == "sleep" and not in_handler:
                    sleeps.append(call)
                elif last in ("wait", "wait_for", "wait_any"):
                    waits = True
            if waits:
                # A loop that *also* waits on a condition/completion is the
                # missed-wakeup backstop idiom, not a poll loop.
                continue
            for call in sleeps:
                yield Finding(
                    rule_id="RT-POLL-LOOP",
                    severity=WARNING,
                    path=module.relpath,
                    line=call.lineno,
                    symbol=module.symbol_of(loop),
                    message=(
                        "sleep-polling loop: wait on a Completion / "
                        "condition (with a timed backstop) instead of "
                        "time.sleep"
                    ),
                )


# -- RT-EXCEPT-SWALLOW -------------------------------------------------------

_BROAD = {"Exception", "BaseException"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True

    def broad_name(node):
        if isinstance(node, ast.Name):
            return node.id in _BROAD
        if isinstance(node, ast.Attribute):
            return node.attr in _BROAD
        return False

    if isinstance(handler.type, ast.Tuple):
        return any(broad_name(element) for element in handler.type.elts)
    return broad_name(handler.type)


def _handles_error(handler: ast.ExceptHandler) -> bool:
    """Does the body re-raise, log (any call), or record state?"""
    for node in _inline_nodes(handler.body):
        if isinstance(node, (ast.Raise, ast.Call, ast.Assign, ast.AugAssign)):
            return True
        if isinstance(node, ast.Return) and node.value is not None:
            if not (
                isinstance(node.value, ast.Constant) and node.value.value is None
            ):
                return True
    return False


@rule(
    "RT-EXCEPT-SWALLOW",
    "broad except that neither re-raises, logs, nor records finish state",
)
def check_except_swallow(project):
    for module in project.modules:
        if module.tree is None:
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node) or _handles_error(node):
                continue
            yield Finding(
                rule_id="RT-EXCEPT-SWALLOW",
                severity=WARNING,
                path=module.relpath,
                line=node.lineno,
                symbol=module.symbol_of(node),
                message=(
                    "broad except swallows the error: re-raise, log, or "
                    "record completion state (or add a justified noqa)"
                ),
            )


# -- RT-THREAD-LEAK ----------------------------------------------------------


# The runtime's one thread factory: every other module of the runtime
# package builds its threads through lockwatch.make_thread.
_RUNTIME_PACKAGE = "src/repro/"
_THREAD_FACTORY = "src/repro/common/lockwatch.py"


@rule(
    "RT-THREAD-LEAK",
    "thread created without an explicit daemon= decision, or in the "
    "runtime outside make_thread",
)
def check_thread_leak(project):
    for module in project.modules:
        if module.tree is None:
            continue
        in_runtime = (
            module.relpath.startswith(_RUNTIME_PACKAGE)
            and module.relpath != _THREAD_FACTORY
        )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = astutil.dotted_name(node.func)
            if dotted not in ("threading.Thread", "Thread", "threading.Timer", "Timer"):
                continue
            if in_runtime:
                message = (
                    "runtime thread built outside make_thread: build it with "
                    "repro.common.lockwatch.make_thread (or run it on a Ticker)"
                )
            elif any(kw.arg == "daemon" for kw in node.keywords):
                continue
            else:
                message = (
                    "thread created without daemon=: pass daemon=True (and "
                    "join it in shutdown) or daemon=False with an owner "
                    "that joins it"
                )
            yield Finding(
                rule_id="RT-THREAD-LEAK",
                severity=ERROR,
                path=module.relpath,
                line=node.lineno,
                symbol=module.symbol_of(node),
                message=message,
            )
