"""Dirty-write escape analysis: the static half of the chunk-stamp gate.

PR 7's incremental-capture wins (DESIGN.md §13) rest on one convention:
every mutation of region-backed memory flows through a write-interposed
:class:`~repro.memory.address_space.TrackedView` (``Region.view()``) or
is immediately declared with ``Region.touch(offset, length)``.  A write
through a raw buffer view or a missed ``touch()`` makes chunk stamps stale
and restores subtly wrong.  This intra-procedural alias/dataflow pass
makes the convention machine-checked:

``leaked-view-write``
    A raw buffer view — ``np.frombuffer(region.buffer, …)`` or anything
    derived from it — is written through: ``x[...] = ``, an in-place
    operator, ``.fill()``/``.sort()``/… , or passed as an ``out=`` /
    ``np.copyto`` destination — outside ``memory/``.  Fix: take a
    ``Region.view()`` (a TrackedView) so the write dirties exactly the
    chunks it lands in.

``leaked-view-escape``
    A raw buffer view escapes the expression that made it: returned,
    yielded, stored on an attribute (``self.x = view``), or put in a
    container — outside ``memory/``.  Once escaped, any later writer
    mutates bytes behind the stamps' back.  Read-only peeks through a
    raw view stay legal.

``untracked-buffer-write``
    A direct ``region.buffer[lo:hi] = …`` (or a write through a
    ``memoryview(region.buffer)`` alias) not followed, in the same
    statement suite, by a matching ``region.touch(…)`` covering the
    written span.  Coverage is proven numerically when both spans are
    constants, structurally when the touch offset is the same
    expression as the slice lower bound (the idiom every converted call
    site uses); anything else is flagged as an unproven span.

``rng-taint``
    A ``RngFactory`` stream that crosses a namespace boundary — the
    reserved ``faults/`` namespace drawn outside ``faults/`` (via
    ``fault_stream`` or a literal ``"faults/…"`` stream name) — or a
    seed/stream derived from the wall clock.  Both break the
    "faults-off runs are bit-identical" determinism argument.

Like every pass, findings are per-line suppressible with
``# repro: allow(rule)`` and charged against ``analysis_budget.json``.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .findings import Finding, apply_suppressions, parse_suppressions

__all__ = ["ESCAPE_RULES", "escape_file", "escape_paths"]

ESCAPE_RULES: Dict[str, str] = {
    "leaked-view-write": "write through a raw buffer view outside "
                         "memory/ — use Region.view() so the write "
                         "dirties only the chunks it touches",
    "leaked-view-escape": "raw buffer view escapes outside memory/ — "
                          "returned, stored, or put in a container",
    "untracked-buffer-write": "direct region.buffer write without a "
                              "matching touch() covering the written "
                              "span in the same suite",
    "rng-taint": "RngFactory stream crossing a namespace boundary "
                 "(faults/ stream outside faults/) or seeded from the "
                 "wall clock",
}

#: files under these package-relative prefixes own the tracking
#: implementation and may hold raw views / write buffers directly
_MEMORY_PREFIXES = ("memory/",)
_FAULTS_PREFIXES = ("faults/",)

_HINT = "; use Region.view() (a write-interposed TrackedView) instead"

#: ndarray methods that mutate the underlying buffer in place
_MUTATING_METHODS = frozenset({
    "fill", "sort", "put", "partition", "itemset", "setfield",
    "byteswap", "resize",
})
#: ndarray methods whose result shares the buffer (taint propagates)
_VIEW_METHODS = frozenset({
    "reshape", "view", "transpose", "swapaxes", "squeeze",
})
_VIEW_ATTRS = frozenset({"T"})
#: container methods that capture a reference to their argument
_CONTAINER_METHODS = frozenset({
    "append", "insert", "add", "extend", "appendleft", "setdefault",
})
_WALLCLOCK_FUNCS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "now", "utcnow",
})


def _dotted(node: ast.AST) -> List[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return []


def _contains_wallclock(node: ast.AST) -> bool:
    """Any wall-clock read (``time.time()``, ``datetime.now()``, …)
    anywhere inside ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            chain = _dotted(sub.func)
            if len(chain) >= 2 and chain[-1] in _WALLCLOCK_FUNCS \
                    and chain[0] in ("time", "datetime"):
                return True
            if chain and chain[-1] in ("now", "utcnow") \
                    and "datetime" in chain:
                return True
    return False


def _is_buffer_attr(node: ast.AST) -> Optional[ast.AST]:
    """``<receiver>.buffer`` → the receiver node, else None."""
    if isinstance(node, ast.Attribute) and node.attr == "buffer":
        return node.value
    return None


def _key(node: ast.AST) -> str:
    """Structural identity of an expression (linenos excluded)."""
    return ast.dump(node)


def _own_nodes(stmt: ast.stmt):
    """Walk the expressions belonging to ``stmt`` itself, stopping at
    nested statements (those are visited by their own suite walk)."""
    stack = list(ast.iter_child_nodes(stmt))
    yield stmt
    while stack:
        node = stack.pop()
        if isinstance(node, ast.stmt):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class _Scope:
    """Dataflow state for one function (or the module body)."""

    def __init__(self) -> None:
        #: names currently bound to a raw-buffer-derived view
        self.tainted: Set[str] = set()
        #: memoryview-of-buffer aliases: name → receiver expression key
        self.mv_alias: Dict[str, Tuple[str, ast.AST]] = {}


class _EscapeVisitor:
    def __init__(self, rel: str, display_path: str):
        self.rel = rel
        self.path = display_path
        self.findings: List[Finding] = []
        self.in_memory = rel.startswith(_MEMORY_PREFIXES)
        self.in_faults = rel.startswith(_FAULTS_PREFIXES)

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(rule=rule, path=self.path,
                                     line=node.lineno, message=message))

    # -- taint ---------------------------------------------------------------

    def _tainted(self, node: ast.AST, scope: _Scope) -> bool:
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and func.attr in _VIEW_METHODS \
                    and self._tainted(func.value, scope):
                return True
            # np.frombuffer(x.buffer, …): reads through it stay legal,
            # writes/escapes not
            chain = _dotted(func)
            if chain and chain[-1] == "frombuffer" and node.args:
                return _is_buffer_attr(node.args[0]) is not None
            return False
        if isinstance(node, ast.Name):
            return node.id in scope.tainted
        if isinstance(node, ast.Subscript):
            return self._tainted(node.value, scope)
        if isinstance(node, ast.Attribute):
            return node.attr in _VIEW_ATTRS \
                and self._tainted(node.value, scope)
        return False

    # -- per-function driver -------------------------------------------------

    def run(self, tree: ast.Module) -> None:
        funcs: List[ast.AST] = [
            n for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        # module-level statements (outside any def) form their own scope
        module_body = [s for s in tree.body
                       if not isinstance(s, (ast.FunctionDef,
                                             ast.AsyncFunctionDef,
                                             ast.ClassDef))]
        self._run_scope(module_body)
        for cls in [n for n in ast.walk(tree)
                    if isinstance(n, ast.ClassDef)]:
            self._run_scope([s for s in cls.body
                             if not isinstance(s, (ast.FunctionDef,
                                                   ast.AsyncFunctionDef,
                                                   ast.ClassDef))])
        for func in funcs:
            self._run_scope(func.body)

    def _run_scope(self, body: List[ast.stmt]) -> None:
        self._walk_suite(body, _Scope())

    # -- statements ----------------------------------------------------------

    def _walk_suite(self, body: List[ast.stmt], scope: _Scope) -> None:
        for i, stmt in enumerate(body):
            self._statement(stmt, body, i, scope)
            for attr in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, attr, None)
                if isinstance(sub, list) and sub \
                        and isinstance(sub[0], ast.stmt):
                    self._walk_suite(sub, scope)
            for handler in getattr(stmt, "handlers", []) or []:
                self._walk_suite(handler.body, scope)

    def _statement(self, stmt: ast.stmt, suite: List[ast.stmt],
                   index: int, scope: _Scope) -> None:
        if isinstance(stmt, ast.Assign):
            self._assign(stmt, suite, index, scope)
        elif isinstance(stmt, ast.AugAssign):
            if not self.in_memory and (
                    self._tainted(stmt.target, scope)):
                self._emit("leaked-view-write", stmt,
                           "in-place write through a raw buffer view"
                           + _HINT)
            self._buffer_write(stmt.target, stmt, suite, index, scope)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            if not self.in_memory and self._tainted(stmt.value, scope):
                self._emit("leaked-view-escape", stmt,
                           "raw buffer view returned to the caller"
                           + _HINT)
        # expression-level checks run over this statement's own
        # expressions only (nested suites are walked separately)
        for node in _own_nodes(stmt):
            if isinstance(node, ast.Call):
                self._call(node, scope)
            elif isinstance(node, (ast.List, ast.Tuple, ast.Set)) \
                    and not self.in_memory:
                for elt in node.elts:
                    if isinstance(elt, ast.Name) \
                            and elt.id in scope.tainted:
                        self._emit("leaked-view-escape", node,
                                   f"raw buffer view {elt.id!r} put in "
                                   "a container literal" + _HINT)
            elif isinstance(node, ast.Dict) and not self.in_memory:
                for val in node.values:
                    if isinstance(val, ast.Name) \
                            and val.id in scope.tainted:
                        self._emit("leaked-view-escape", node,
                                   f"raw buffer view {val.id!r} put in "
                                   "a dict literal" + _HINT)
            elif isinstance(node, (ast.Yield, ast.YieldFrom)) \
                    and not self.in_memory:
                if node.value is not None \
                        and self._tainted(node.value, scope):
                    self._emit("leaked-view-escape", node,
                               "raw buffer view yielded to the caller"
                               + _HINT)

    def _assign(self, stmt: ast.Assign, suite: List[ast.stmt],
                index: int, scope: _Scope) -> None:
        value_tainted = self._tainted(stmt.value, scope)
        for target in stmt.targets:
            # a write *through* a tainted view: x[...] = …
            if isinstance(target, ast.Subscript) and not self.in_memory \
                    and self._tainted(target.value, scope):
                self._emit("leaked-view-write", stmt,
                           "subscript write through a raw buffer view"
                           + _HINT)
            self._buffer_write(target, stmt, suite, index, scope)
            if value_tainted and not self.in_memory:
                if isinstance(target, ast.Attribute):
                    self._emit("leaked-view-escape", stmt,
                               "raw buffer view stored on an attribute "
                               f"({ast.unparse(target)})" + _HINT)
                elif isinstance(target, ast.Subscript) \
                        and not self._tainted(target.value, scope):
                    self._emit("leaked-view-escape", stmt,
                               "raw buffer view stored in a container"
                               + _HINT)
            # track aliases
            if isinstance(target, ast.Name):
                if value_tainted:
                    scope.tainted.add(target.id)
                else:
                    scope.tainted.discard(target.id)
                mv = self._memoryview_of_buffer(stmt.value)
                if mv is not None:
                    scope.mv_alias[target.id] = (_key(mv), mv)
                else:
                    scope.mv_alias.pop(target.id, None)
            elif isinstance(target, ast.Tuple) and value_tainted:
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        scope.tainted.add(elt.id)

    @staticmethod
    def _memoryview_of_buffer(node: ast.AST) -> Optional[ast.AST]:
        """``memoryview(x.buffer)`` → the receiver ``x``, else None."""
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "memoryview" and node.args:
            return _is_buffer_attr(node.args[0])
        return None

    # -- calls (writes-by-call, container escapes, rng taint) ----------------

    def _call(self, node: ast.Call, scope: _Scope) -> None:
        func = node.func
        chain = _dotted(func)
        name = chain[-1] if chain else ""
        if not self.in_memory:
            if isinstance(func, ast.Attribute) \
                    and func.attr in _MUTATING_METHODS \
                    and self._tainted(func.value, scope):
                self._emit("leaked-view-write", node,
                           f".{func.attr}() mutates through a raw buffer "
                           "view" + _HINT)
            for kw in node.keywords:
                if kw.arg == "out" and kw.value is not None \
                        and self._tainted(kw.value, scope):
                    self._emit("leaked-view-write", node,
                               "raw buffer view passed as out= buffer"
                               + _HINT)
            if name == "copyto" and node.args \
                    and self._tainted(node.args[0], scope):
                self._emit("leaked-view-write", node,
                           "raw buffer view passed as np.copyto "
                           "destination" + _HINT)
            if isinstance(func, ast.Attribute) \
                    and func.attr in _CONTAINER_METHODS \
                    and not (isinstance(func.value, ast.Name)
                             and func.value.id in ("np", "numpy")):
                for arg in node.args:
                    if self._tainted(arg, scope):
                        self._emit("leaked-view-escape", node,
                                   "raw buffer view captured by "
                                   f".{func.attr}()" + _HINT)
        # rng namespace / wall-clock taint
        if name == "fault_stream" and not self.in_faults:
            self._emit("rng-taint", node,
                       "faults/-reserved stream drawn outside faults/; "
                       "draw app streams from their own namespace")
        if name == "stream" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) \
                    and isinstance(first.value, str) \
                    and first.value.startswith("faults/") \
                    and not self.in_faults:
                self._emit("rng-taint", node,
                           f"stream({first.value!r}) bypasses "
                           "fault_stream() outside faults/")
        if name in ("RngFactory", "stream", "child", "fault_stream"):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if _contains_wallclock(arg):
                    self._emit("rng-taint", node,
                               f"{name}() seed/name derived from the "
                               "wall clock; same-seed runs diverge — "
                               "derive from the root seed instead")
                    break

    # -- direct buffer writes ------------------------------------------------

    def _buffer_write(self, target: ast.AST, stmt: ast.stmt,
                      suite: List[ast.stmt], index: int,
                      scope: _Scope) -> None:
        """Flag ``x.buffer[…] = …`` / ``mv[…] = …`` with no covering
        ``x.touch(…)`` later in the same suite."""
        if self.in_memory or not isinstance(target, ast.Subscript):
            return
        receiver = _is_buffer_attr(target.value)
        if receiver is None and isinstance(target.value, ast.Name):
            alias = scope.mv_alias.get(target.value.id)
            if alias is not None:
                receiver = alias[1]
        if receiver is None:
            return
        span = self._span(target.slice)
        touches = self._find_touches(suite[index + 1:], _key(receiver))
        if not touches:
            self._emit("untracked-buffer-write", stmt,
                       f"{ast.unparse(receiver)}.buffer written with no "
                       f"{ast.unparse(receiver)}.touch() in the rest of "
                       "the suite; the next incremental capture may "
                       "skip these bytes")
            return
        reasons = []
        for touch in touches:
            covered, why = self._covers(touch, span)
            if covered:
                return
            reasons.append(f"line {touch.lineno}: {why}")
        self._emit("untracked-buffer-write", stmt,
                   "no following touch() provably covers the written "
                   f"span ({'; '.join(reasons)})")

    @staticmethod
    def _span(slc: ast.AST) -> Tuple[Optional[ast.AST], Optional[ast.AST]]:
        """(lower, upper) expression nodes of the written span; a plain
        index ``i`` is the span ``[i, i+1)`` (upper returned as None
        with lower the index — handled by the structural match)."""
        if isinstance(slc, ast.Slice):
            return slc.lower, slc.upper
        return slc, None

    @staticmethod
    def _find_touches(rest: List[ast.stmt],
                      receiver_key: str) -> List[ast.Call]:
        touches: List[ast.Call] = []
        for stmt in rest:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "touch" \
                        and _key(node.func.value) == receiver_key:
                    touches.append(node)
        return touches

    @staticmethod
    def _covers(touch: ast.Call,
                span: Tuple[Optional[ast.AST], Optional[ast.AST]]
                ) -> Tuple[bool, str]:
        args = touch.args
        kwargs = {kw.arg: kw.value for kw in touch.keywords}
        offset = args[0] if args else kwargs.get("offset")
        length = args[1] if len(args) > 1 else kwargs.get("length")
        if offset is None or length is None:
            return True, "whole-region touch"
        lo, hi = span
        lo = lo if lo is not None else ast.Constant(0)
        consts = [n.value for n in (offset, length, lo, hi)
                  if isinstance(n, ast.Constant)
                  and isinstance(getattr(n, "value", None), (int, float))]
        if hi is not None and len(consts) == 4:
            off_v, len_v, lo_v, hi_v = consts
            if off_v <= lo_v and off_v + len_v >= hi_v:
                return True, "constant span covered"
            return False, (f"touch [{off_v}, {off_v + len_v}) vs "
                           f"written [{lo_v}, {hi_v})")
        if _key(offset) == _key(lo):
            # the converted-call-site idiom: touch(lo_expr, length); the
            # length is taken on faith once the offsets line up
            return True, "structural offset match"
        return False, "offsets are different expressions (unproven span)"


def escape_file(path: Path, root: Optional[Path] = None) -> List[Finding]:
    from .lint import _relative_module
    root = root if root is not None else path.parent
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError:
        return []  # lint.py already reports syntax errors
    visitor = _EscapeVisitor(_relative_module(path, root),
                             os.path.relpath(path))
    visitor.run(tree)
    visitor.findings.sort(key=lambda f: (f.line, f.rule))
    return apply_suppressions(visitor.findings, parse_suppressions(source))


def escape_paths(paths: Iterable[str]) -> List[Finding]:
    from .lint import iter_sources
    findings: List[Finding] = []
    for path, root in iter_sources(paths):
        findings.extend(escape_file(path, root))
    return findings
