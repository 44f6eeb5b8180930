"""Shared AST machinery for the concurrency rules.

The lock rules all need the same three ingredients:

* which expressions *are* locks (creation calls, name conventions, class
  lock attributes),
* which locks are held at any given AST node (``with`` nesting, plus the
  repo's documented conventions for lock-held helper methods), and
* per-class metadata (lock attributes, methods, inferred held-methods).

``iter_held`` is the core walker: it yields ``(node, held)`` for every node
in a function body where ``held`` is the frozenset of lock *tokens*
(``"self._lock"``, ``"state.cond"``, ``"gate"``) textually held at that
point.  Nested ``def``s are not entered inline — their bodies execute at
call time — but :func:`iter_function_regions` re-walks each closure with the
union of lock sets held at its call sites, which is how e.g. a blocking call
inside a helper closure invoked under a lock is still caught.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

LOCK_NAME_RE = re.compile(
    r"(?:^|_)(lock|rlock|cond|condition|mutex|gate|sem|semaphore|latch)s?$",
    re.IGNORECASE,
)

_LOCK_FACTORIES = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "make_lock",
    "make_rlock",
    "make_condition",
}

_HELD_DOC_RE = re.compile(r"lock\s+held|held\s+lock|caller\s+holds", re.IGNORECASE)

# Method calls on a guarded attribute that mutate it in place.
MUTATORS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "setdefault",
    "update",
}


def dotted_name(node: ast.AST) -> Optional[str]:
    """``self.store.put`` for an Attribute/Name chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def is_lock_creation(node: ast.AST) -> bool:
    """True for ``threading.Lock()``, ``make_condition(...)`` and kin."""
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    if name is None:
        return False
    return name.rsplit(".", 1)[-1] in _LOCK_FACTORIES


def lock_token(expr: ast.AST) -> Optional[str]:
    """Token for a ``with`` context expression, or None if not nameable."""
    return dotted_name(expr)


def make_is_lock(class_lock_attrs: Set[str]):
    """Predicate: does this token name a lock, by convention or by class?"""

    def is_lock(token: str) -> bool:
        last = token.rsplit(".", 1)[-1]
        if token.startswith("self.") and last in class_lock_attrs:
            return True
        return bool(LOCK_NAME_RE.search(last))

    return is_lock


_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _iter_expr(expr: Optional[ast.AST], held) -> Iterator[Tuple[ast.AST, FrozenSet[str]]]:
    if expr is None:
        return
    for node in ast.walk(expr):
        yield node, held


def iter_held(
    body: List[ast.stmt],
    held: FrozenSet[str],
    is_lock,
) -> Iterator[Tuple[ast.AST, FrozenSet[str]]]:
    """Yield ``(node, held_tokens)`` for every node reachable inline."""
    for stmt in body:
        yield from _iter_stmt(stmt, held, is_lock)


def _iter_stmt(stmt, held, is_lock):
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        yield stmt, held
        acquired = set(held)
        for item in stmt.items:
            yield from _iter_expr(item.context_expr, held)
            yield from _iter_expr(item.optional_vars, held)
            token = lock_token(item.context_expr)
            if token is not None and is_lock(token):
                acquired.add(token)
        yield from iter_held(stmt.body, frozenset(acquired), is_lock)
    elif isinstance(stmt, _NESTED_SCOPES):
        yield stmt, held  # body runs at call time, not here
    elif isinstance(stmt, ast.Try):
        yield stmt, held
        yield from iter_held(stmt.body, held, is_lock)
        for handler in stmt.handlers:
            yield handler, held
            yield from _iter_expr(handler.type, held)
            yield from iter_held(handler.body, held, is_lock)
        yield from iter_held(stmt.orelse, held, is_lock)
        yield from iter_held(stmt.finalbody, held, is_lock)
    elif isinstance(stmt, (ast.If, ast.While)):
        yield stmt, held
        yield from _iter_expr(stmt.test, held)
        yield from iter_held(stmt.body, held, is_lock)
        yield from iter_held(stmt.orelse, held, is_lock)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        yield stmt, held
        yield from _iter_expr(stmt.target, held)
        yield from _iter_expr(stmt.iter, held)
        yield from iter_held(stmt.body, held, is_lock)
        yield from iter_held(stmt.orelse, held, is_lock)
    else:
        yield stmt, held
        for node in ast.walk(stmt):
            if node is not stmt:
                yield node, held


def iter_function_regions(
    fn: ast.AST,
    entry_held: FrozenSet[str],
    is_lock,
) -> Iterator[Tuple[ast.AST, FrozenSet[str]]]:
    """``iter_held`` over a function body, then over each closure.

    Each directly nested ``def`` is re-walked with the union of lock sets
    held at its call sites inside this function (empty if never called or
    only called unlocked), so helpers like a ``try_transfer`` closure
    invoked under a lock are analyzed in their real lock context.
    """
    closures: Dict[str, ast.AST] = {}
    for stmt in fn.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            closures[stmt.name] = stmt
    call_held: Dict[str, Set[str]] = {name: set() for name in closures}
    for node, held in iter_held(fn.body, entry_held, is_lock):
        yield node, held
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in call_held
        ):
            call_held[node.func.id] |= held
    for name, closure in closures.items():
        yield from iter_function_regions(
            closure, frozenset(call_held[name]), is_lock
        )


# -- per-class metadata ------------------------------------------------------


@dataclass
class ClassInfo:
    node: ast.ClassDef
    name: str
    lock_attrs: Dict[str, int] = field(default_factory=dict)  # attr -> line
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    # method -> lock attrs (not tokens) held on entry, by convention or
    # by call-graph inference
    method_held: Dict[str, Set[str]] = field(default_factory=dict)

    def is_lock(self):
        return make_is_lock(set(self.lock_attrs))

    def entry_tokens(self, method: str) -> FrozenSet[str]:
        return frozenset(
            f"self.{attr}" for attr in self.method_held.get(method, ())
        )


def _self_attr(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def build_class_info(classdef: ast.ClassDef) -> ClassInfo:
    info = ClassInfo(node=classdef, name=classdef.name)
    for stmt in classdef.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[stmt.name] = stmt
    # Lock attributes: assigned from a lock-creation call anywhere in the
    # class, or used as ``with self.X`` where X follows the lock-name
    # convention.
    for fn in info.methods.values():
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and is_lock_creation(node.value):
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        info.lock_attrs.setdefault(attr, node.lineno)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    attr = _self_attr(item.context_expr)
                    if attr is not None and LOCK_NAME_RE.search(attr):
                        info.lock_attrs.setdefault(attr, node.lineno)
    _infer_method_held(info)
    return info


def _doc_claims_held(fn: ast.AST) -> bool:
    doc = ast.get_docstring(fn)
    return bool(doc and _HELD_DOC_RE.search(doc))


def _infer_method_held(info: ClassInfo) -> None:
    """Which methods run with a class lock already held?

    Seeds: the repo's two documented conventions — a ``_locked`` name
    suffix, or a docstring saying "lock held".  Then a bounded fixed point
    over the intra-class call graph: a private method whose every ``self.``
    call site holds lock L is itself treated as holding L.
    """
    all_locks = set(info.lock_attrs)
    if not all_locks:
        return
    held: Dict[str, Set[str]] = {}
    for name, fn in info.methods.items():
        if name.endswith("_locked") or _doc_claims_held(fn):
            held[name] = set(all_locks)
    for _ in range(4):
        call_sites: Dict[str, List[Set[str]]] = {m: [] for m in info.methods}
        for caller, fn in info.methods.items():
            entry = frozenset(f"self.{a}" for a in held.get(caller, ()))
            for node, tokens in iter_function_regions(
                fn, entry, info.is_lock()
            ):
                if not isinstance(node, ast.Call):
                    continue
                attr = _self_attr(node.func)
                if attr in call_sites:
                    call_sites[attr].append(
                        {
                            t[len("self."):]
                            for t in tokens
                            if t.startswith("self.") and t[len("self."):] in all_locks
                        }
                    )
        changed = False
        for method, sites in call_sites.items():
            if method in held or method == "__init__":
                continue
            if not method.startswith("_") or method.startswith("__"):
                continue  # public methods have unknowable external callers
            if not sites:
                continue
            common = set.intersection(*sites)
            if common and held.get(method) != common:
                held[method] = common
                changed = True
        if not changed:
            break
    info.method_held = held


# -- symbol map --------------------------------------------------------------


def symbol_map(tree: ast.Module) -> Dict[ast.AST, str]:
    """Map every node to its enclosing scope name ("Class.method", "fn",
    "<module>").  Nested defs keep the outermost two components."""
    symbols: Dict[ast.AST, str] = {}

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _NESTED_SCOPES):
                if scope == "<module>":
                    child_scope = child.name
                elif scope.count(".") == 0:
                    child_scope = f"{scope}.{child.name}"
                else:
                    child_scope = scope  # deeper nesting: keep Class.method
                symbols[child] = scope
                visit(child, child_scope)
            else:
                symbols[child] = scope
                visit(child, scope)

    symbols[tree] = "<module>"
    visit(tree, "<module>")
    return symbols
