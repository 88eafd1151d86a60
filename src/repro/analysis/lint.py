"""Shadow-isolation and determinism lint: AST passes over ``src/repro``.

Each rule machine-checks one convention the type system cannot see — the
paper's correctness argument depends on them:

``real-struct``
    Real verbs resource structs (``ibv_qp``, ``ibv_mr``, ``ibv_cq``, …)
    may only be imported or constructed inside the library model
    (``ibverbs/``) and the virtualization layers (``core/``).  Everywhere
    else the application must hold *virtual* structs (Principle 1) — a
    real struct cached above the plugin goes stale at the first restart.

``real-attr``
    Dereferencing ``.real`` / ``.real_ops`` (a shadow struct's private
    pointer to the current real resource) outside ``core/`` leaks exactly
    the handle Principle 1 exists to hide.

``raw-id-compare``
    ``==`` / ``!=`` on raw ``qp_num`` / ``lid`` / ``dlid`` / ``rkey`` /
    ``lkey`` attributes outside the shadow layers bypasses the §3.2
    translation tables: virtual and real ids are only interchangeable
    before the first restart, so such comparisons are silent restart bugs.

``wallclock``
    ``time.time()``-family calls inside ``sim/``, ``faults/``,
    ``dmtcp/``, or ``core/``: simulated components must read the
    simulation clock (``env.now``); wall-clock reads make same-seed runs
    diverge.

``unseeded-random``
    Any stdlib ``random`` use, numpy global-state draws
    (``np.random.<dist>`` / ``np.random.seed``), or a no-argument
    ``default_rng()`` in the deterministic subsystems.  All randomness
    must descend from the named-stream ``sim.rng.RngFactory`` namespace.

``bare-thread``
    ``threading`` / ``concurrent.futures`` construction anywhere but the
    vetted checkpoint-capture pool in ``dmtcp/image.py``.  Unvetted real
    concurrency next to the generation-counter dirty tracking is how
    incremental captures go silently stale.

``rng-taint``
    A ``RngFactory`` stream that crosses a namespace boundary — the
    reserved ``faults/`` namespace drawn outside ``faults/`` (via
    ``fault_stream`` or a literal ``"faults/…"`` stream name) — or a
    seed/stream derived from the wall clock.  Both break the
    "faults-off runs are bit-identical" determinism argument.

``unused-import``
    A module-level import whose name the module never reads.  Package
    ``__init__.py`` files (which import to re-export), names listed in
    ``__all__`` and ``from __future__`` imports are exempt.

Suppression: ``# repro: allow(<rule>[, <rule>…])`` on the offending line.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from .findings import Finding, apply_suppressions, parse_suppressions

__all__ = ["LINT_RULES", "lint_file", "lint_paths", "iter_sources"]

#: rule name → one-line description (also the CLI's --list-rules output)
LINT_RULES: Dict[str, str] = {
    "real-struct": "real verbs resource struct imported/constructed "
                   "outside ibverbs/ or core/ (Principle 1)",
    "real-attr": ".real/.real_ops shadow-pointer dereference outside "
                 "core/ (Principle 1)",
    "raw-id-compare": "raw qp_num/lid/dlid/rkey/lkey comparison bypassing "
                      "the §3.2 translation tables",
    "wallclock": "wall-clock time source inside the deterministic "
                 "subsystems (sim/, faults/, dmtcp/, core/)",
    "unseeded-random": "randomness outside the seeded sim.rng namespace "
                       "inside the deterministic subsystems",
    "bare-thread": "threading/concurrent.futures construction outside "
                   "the vetted pool in dmtcp/image.py",
    "rng-taint": "RngFactory stream crossing a namespace boundary "
                 "(faults/ stream outside faults/) or seeded from the "
                 "wall clock",
    "unused-import": "module-level import whose name the module never "
                     "reads (__init__.py, __all__ and __future__ exempt)",
}

#: real resource structs — value structs (sge/wr/wc/attr) are exempt:
#: applications legitimately build those
_REAL_STRUCTS = frozenset({
    "ibv_device", "ibv_context", "ibv_context_ops", "ibv_pd", "ibv_mr",
    "ibv_cq", "ibv_srq", "ibv_qp",
})

_SHADOW_PREFIXES = ("ibverbs/", "core/")
_DETERMINISTIC_PREFIXES = ("sim/", "faults/", "dmtcp/", "core/", "store/",
                           "migrate/", "memory/", "service/")
_ID_ATTRS = frozenset({"qp_num", "lid", "dlid", "rkey", "lkey"})
_WALLCLOCK_TIME = frozenset({
    "time", "monotonic", "perf_counter", "process_time",
    "time_ns", "monotonic_ns", "perf_counter_ns",
})
_THREAD_CTORS = frozenset({
    "Thread", "Timer", "ThreadPoolExecutor", "ProcessPoolExecutor",
})
_VETTED_POOL_MODULE = "dmtcp/image.py"
_FAULTS_PREFIX = "faults/"
_RNG_CALLS = frozenset({"RngFactory", "stream", "child", "fault_stream"})


def _dotted(node: ast.AST) -> List[str]:
    """``a.b.c`` → ["a", "b", "c"]; empty if not a plain name chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return []


def _is_wallclock(chain: List[str]) -> bool:
    """``time.time()``-family or ``datetime.now()``-family call chain."""
    return len(chain) >= 2 and (
        (chain[0] == "time" and chain[-1] in _WALLCLOCK_TIME)
        or (chain[-1] in ("now", "utcnow") and "datetime" in chain))


def _reads_wallclock(node: ast.AST) -> bool:
    """Any wall-clock read anywhere inside ``node``."""
    return any(isinstance(sub, ast.Call) and _is_wallclock(_dotted(sub.func))
               for sub in ast.walk(node))


class _LintVisitor(ast.NodeVisitor):
    def __init__(self, rel: str, display_path: str):
        self.rel = rel
        self.path = display_path
        self.findings: List[Finding] = []
        self.in_shadow = rel.startswith(_SHADOW_PREFIXES)
        self.in_deterministic = rel.startswith(_DETERMINISTIC_PREFIXES)
        self.is_vetted_pool = rel == _VETTED_POOL_MODULE
        self.in_faults = rel.startswith(_FAULTS_PREFIX)

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(rule=rule, path=self.path,
                                     line=node.lineno, message=message))

    # -- imports -------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root == "random" and self.in_deterministic:
                self._emit("unseeded-random", node,
                           "stdlib random imported; derive streams from "
                           "sim.rng.RngFactory instead")
            if root in ("threading", "concurrent") \
                    and not self.is_vetted_pool:
                self._emit("bare-thread", node,
                           f"{alias.name} imported outside the vetted "
                           "capture pool (dmtcp/image.py)")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        tail = module.rsplit(".", 1)[-1]
        if not self.in_shadow and ("ibverbs" in module
                                   or tail == "structs"):
            for alias in node.names:
                if alias.name in _REAL_STRUCTS:
                    self._emit("real-struct", node,
                               f"real struct {alias.name} imported outside "
                               "the shadow layers; hold virtual structs "
                               "(Principle 1)")
        if module == "random" and self.in_deterministic:
            self._emit("unseeded-random", node,
                       "stdlib random imported; derive streams from "
                       "sim.rng.RngFactory instead")
        if module == "time" and self.in_deterministic:
            for alias in node.names:
                if alias.name in _WALLCLOCK_TIME:
                    self._emit("wallclock", node,
                               f"time.{alias.name} imported in a "
                               "deterministic subsystem; use the "
                               "simulation clock (env.now)")
        if (module == "concurrent.futures" or module == "threading") \
                and not self.is_vetted_pool:
            self._emit("bare-thread", node,
                       f"{module} imported outside the vetted capture "
                       "pool (dmtcp/image.py)")
        self.generic_visit(node)

    # -- expressions ----------------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not self.rel.startswith("core/") \
                and node.attr in ("real", "real_ops"):
            self._emit("real-attr", node,
                       f"shadow-struct .{node.attr} dereferenced outside "
                       "core/; the real resource pointer is private to "
                       "the plugin (Principle 1)")
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if not self.in_shadow and any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            for side in [node.left, *node.comparators]:
                if isinstance(side, ast.Attribute) \
                        and side.attr in _ID_ATTRS:
                    self._emit(
                        "raw-id-compare", node,
                        f"raw .{side.attr} compared with ==/!=; virtual "
                        "and real ids diverge after restart — go through "
                        "the plugin's translation tables (§3.2)")
                    break
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        chain = _dotted(node.func)
        name = chain[-1] if chain else ""
        if not self.in_shadow and name in _REAL_STRUCTS:
            self._emit("real-struct", node,
                       f"real struct {name} constructed outside the "
                       "shadow layers (Principle 1)")
        if self.in_deterministic and chain:
            if len(chain) >= 2 and chain[0] == "time" \
                    and name in _WALLCLOCK_TIME:
                self._emit("wallclock", node,
                           f"time.{name}() read in a deterministic "
                           "subsystem; use the simulation clock (env.now)")
            if len(chain) >= 2 and name in ("now", "utcnow") \
                    and "datetime" in chain:
                self._emit("wallclock", node,
                           "datetime.now() read in a deterministic "
                           "subsystem; use the simulation clock (env.now)")
            if chain[0] == "random":
                self._emit("unseeded-random", node,
                           f"random.{'.'.join(chain[1:])}() draws from "
                           "global unseeded state; use a named "
                           "sim.rng stream")
            if len(chain) >= 3 and chain[-2] == "random" \
                    and chain[0] in ("np", "numpy"):
                if name == "default_rng":
                    if not node.args and not node.keywords:
                        self._emit("unseeded-random", node,
                                   "default_rng() without a seed is "
                                   "entropy-seeded; derive the seed from "
                                   "sim.rng.RngFactory")
                elif name != "Generator":
                    self._emit("unseeded-random", node,
                               f"np.random.{name}() uses numpy's global "
                               "RNG state; use a named sim.rng stream")
        if name in _THREAD_CTORS and not self.is_vetted_pool:
            self._emit("bare-thread", node,
                       f"{name} constructed outside the vetted capture "
                       "pool (dmtcp/image.py); real threads must not "
                       "touch Region dirty tracking")
        self._rng_taint(node, name)
        self.generic_visit(node)

    def _rng_taint(self, node: ast.Call, name: str) -> None:
        if name == "fault_stream" and not self.in_faults:
            self._emit("rng-taint", node,
                       "faults/-reserved stream drawn outside faults/; "
                       "draw app streams from their own namespace")
        if name == "stream" and node.args and not self.in_faults:
            first = node.args[0]
            if isinstance(first, ast.Constant) \
                    and isinstance(first.value, str) \
                    and first.value.startswith(_FAULTS_PREFIX):
                self._emit("rng-taint", node,
                           f"stream({first.value!r}) bypasses "
                           "fault_stream() outside faults/")
        if name in _RNG_CALLS and any(
                _reads_wallclock(arg) for arg in
                [*node.args, *(kw.value for kw in node.keywords)]):
            self._emit("rng-taint", node,
                       f"{name}() seed/name derived from the wall clock; "
                       "same-seed runs diverge — derive from the root "
                       "seed instead")


def _unused_imports(tree: ast.Module, display_path: str) -> List[Finding]:
    """``unused-import``: module-level import names never read."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    exported = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in stmt.targets) \
                and isinstance(stmt.value, (ast.List, ast.Tuple)):
            exported.update(elt.value for elt in stmt.value.elts
                            if isinstance(elt, ast.Constant))
    findings = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in stmt.names]
        elif isinstance(stmt, ast.ImportFrom) \
                and stmt.module != "__future__":
            names = [a.asname or a.name for a in stmt.names
                     if a.name != "*"]
        else:
            continue
        for name in names:
            if name not in read and name not in exported:
                findings.append(Finding(
                    rule="unused-import", path=display_path,
                    line=stmt.lineno,
                    message=f"{name} imported but never read; delete "
                            "the import"))
    return findings


def _relative_module(path: Path, root: Path) -> str:
    """Path of ``path`` relative to the ``repro`` package if it is inside
    one, else relative to the scan root — so fixture trees mirroring the
    package layout (``fixtures/sim/x.py``) scope the same way."""
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        rel = Path(path.name)
    parts = list(rel.parts)
    if "repro" in parts:
        parts = parts[len(parts) - parts[::-1].index("repro"):]
    return "/".join(parts)


def iter_sources(paths: Iterable[str]) -> List[Tuple[Path, Path]]:
    """Expand files/directories into (file, scan_root) pairs."""
    out: List[Tuple[Path, Path]] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                out.append((f, p))
        elif p.suffix == ".py":
            out.append((p, p.parent))
    return out


def lint_file(path: Path, root: Optional[Path] = None) -> List[Finding]:
    root = root if root is not None else path.parent
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding(rule="syntax-error", path=str(path),
                        line=exc.lineno or 1, message=str(exc.msg))]
    visitor = _LintVisitor(_relative_module(path, root),
                           os.path.relpath(path))
    visitor.visit(tree)
    findings = visitor.findings
    if path.name != "__init__.py":
        findings += _unused_imports(tree, visitor.path)
    return apply_suppressions(findings, parse_suppressions(source))


def lint_paths(paths: Iterable[str]) -> List[Finding]:
    findings: List[Finding] = []
    for path, root in iter_sources(paths):
        findings.extend(lint_file(path, root))
    return findings
