"""Lockset-style concurrency analysis of the checkpoint capture path.

The PR-2 capture pipeline runs compression workers in a thread pool while
the coordinator thread owns the incremental dirty-tracking state.  The
safety argument is simple and worth machine-checking:

* Worker functions submitted to a pool (`.map` / `.submit`) may read the
  bytes handed to them, but must never touch ``Region`` dirty-tracking
  state — ``generation``, ``buffer`` — nor call the mutating entry
  point ``touch()``.  Those fields are
  read by the coordinator *while the pool is running* to decide which
  regions the next incremental capture may skip; a racing worker mutation
  makes a capture silently stale (the corruption Principle 3's WQE log
  exists to prevent on the network side).

This is a static approximation: we find call sites of ``<pool>.map(fn,
…)`` / ``<pool>.submit(fn, …)`` where the receiver's name looks like a
pool/executor, resolve ``fn`` when it is a module- or class-level
function or a lambda, and walk its body for the banned accesses.

Rule name: ``pool-region-mutation``.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from .findings import Finding, apply_suppressions, parse_suppressions

__all__ = ["CONCURRENCY_RULES", "check_file", "check_paths"]

CONCURRENCY_RULES: Dict[str, str] = {
    "pool-region-mutation": "thread-pool worker touches Region "
                            "dirty-tracking state owned by the "
                            "coordinator",
}

_POOL_HINTS = ("pool", "executor", "ex")
_BANNED_ATTRS = frozenset({"generation", "buffer"})
_BANNED_CALLS = frozenset({"touch"})


def _receiver_name(func: ast.AST) -> Optional[str]:
    """For ``x.map(...)`` / ``self._pool.submit(...)`` return the
    innermost receiver name ("x", "_pool")."""
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    while isinstance(value, ast.Attribute):
        value = value.value
    if isinstance(func.value, ast.Attribute):
        return func.value.attr
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Call):
        # _pool(workers).map(...) — receiver is the factory's name
        inner = value.func
        if isinstance(inner, ast.Name):
            return inner.id
        if isinstance(inner, ast.Attribute):
            return inner.attr
    return None


def _looks_like_pool(name: Optional[str]) -> bool:
    return name is not None and any(
        hint in name.lower() for hint in _POOL_HINTS)


class _WorkerBodyVisitor(ast.NodeVisitor):
    """Walk a worker function body for banned Region accesses."""

    def __init__(self) -> None:
        self.hits: List[ast.AST] = []

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in _BANNED_ATTRS:
            self.hits.append(node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else "")
        if name in _BANNED_CALLS:
            self.hits.append(node)
        self.generic_visit(node)


class _ConcurrencyVisitor(ast.NodeVisitor):
    def __init__(self, display_path: str):
        self.path = display_path
        self.findings: List[Finding] = []
        #: every def in the module, by name — flat namespace is enough for
        #: resolving `pool.map(_worker, …)` references
        self.defs: Dict[str, ast.AST] = {}

    # first pass fills self.defs; ast.walk in check_file handles it

    def check_call(self, node: ast.Call) -> None:
        if not isinstance(node.func, ast.Attribute) \
                or node.func.attr not in ("map", "submit"):
            return
        if not _looks_like_pool(_receiver_name(node.func)):
            return
        if not node.args:
            return
        worker = node.args[0]
        body: Optional[ast.AST] = None
        label = "<worker>"
        if isinstance(worker, ast.Lambda):
            body, label = worker, "<lambda>"
        elif isinstance(worker, ast.Name):
            body, label = self.defs.get(worker.id), worker.id
        elif isinstance(worker, ast.Attribute):
            body, label = self.defs.get(worker.attr), worker.attr
        if body is None:
            return
        scan = _WorkerBodyVisitor()
        scan.visit(body)
        for hit in scan.hits:
            what = getattr(hit, "attr", None) or "mutating call"
            if isinstance(hit, ast.Call):
                func = hit.func
                what = (func.attr if isinstance(func, ast.Attribute)
                        else getattr(func, "id", "call")) + "()"
            self.findings.append(Finding(
                rule="pool-region-mutation", path=self.path,
                line=node.lineno,
                message=f"worker {label} passed to {node.func.attr}() "
                        f"touches Region state ({what} at line "
                        f"{hit.lineno}); dirty tracking belongs to the "
                        "coordinator thread"))


def check_file(path: Path) -> List[Finding]:
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError:
        return []  # lint.py already reports syntax errors
    visitor = _ConcurrencyVisitor(os.path.relpath(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visitor.defs[node.name] = node
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            visitor.check_call(node)
    return apply_suppressions(visitor.findings, parse_suppressions(source))


def check_paths(paths: Iterable[str]) -> List[Finding]:
    from .lint import iter_sources
    findings: List[Finding] = []
    for path, _root in iter_sources(paths):
        findings.extend(check_file(path))
    return findings
