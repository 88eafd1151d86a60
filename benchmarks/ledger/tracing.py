"""The ledger's own tracing: driver-call spans and a per-layer profile fold.

Both observe ``src/repro`` from outside.  :class:`Recorder` wraps the
driver's calls into public functions (one span per call, kept in memory);
:func:`fold_profile` turns a ``cProfile`` pass into self time and call
counts per ``src/repro/<package>/``, with time spent in builtins and
third-party code (zlib, hashlib, numpy, heapq) handed to the layer that
called them.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from spec import LAYERS

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPRO = os.path.join(os.path.dirname(os.path.dirname(_HERE)),
                      "src", "repro") + os.sep


class Recorder:
    """Spans around driver calls: name, id, parent id, host start/end,
    sim start/end and the kernel's event-count delta.  Disabled (the
    end-to-end runs) it records nothing and reads no clock."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, env=None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        row = {"name": name, "id": len(self.spans),
               "parent": self._stack[-1] if self._stack else None,
               "sim_start": None if env is None else float(env.now),
               "events": 0 if env is None else -env.stats.events}
        self.spans.append(row)
        self._stack.append(row["id"])
        row["host_start"] = time.perf_counter()
        try:
            yield
        finally:
            row["host_end"] = time.perf_counter()
            self._stack.pop()
            if env is not None:
                row["sim_end"] = float(env.now)
                row["events"] += env.stats.events

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: summed host seconds, sim seconds, events, n."""
        out: Dict[str, Dict[str, float]] = {}
        for row in self.spans:
            agg = out.setdefault(row["name"], {"host_s": 0.0, "sim_s": 0.0,
                                               "events": 0, "n": 0})
            agg["host_s"] += row["host_end"] - row["host_start"]
            if row["sim_start"] is not None:
                agg["sim_s"] += row["sim_end"] - row["sim_start"]
            agg["events"] += row["events"]
            agg["n"] += 1
        return out


# -- profile fold --------------------------------------------------------------

def layer_of(filename: str) -> Optional[str]:
    """The named layer a source file belongs to; None for builtins,
    stdlib and third-party code (resolved through their callers)."""
    if filename.startswith(_REPRO):
        parts = filename[len(_REPRO):].split(os.sep)
        pkg = parts[0]
        if pkg == "core" and len(parts) > 1:
            pkg = f"core.{parts[1]}"    # ib_plugin and ib2tcp stay apart
        return pkg if pkg in LAYERS else "other"
    if filename.startswith(_HERE + os.sep):
        return "bench"
    return None


def fold_profile(stats: dict) -> Tuple[Dict[str, Dict[str, float]],
                                       Dict[str, int]]:
    """Fold ``pstats.Stats(...).stats`` by layer.

    Returns ``(layers, calls_by_function)``: per layer ``{"self_s",
    "calls"}``, and call counts keyed ``"<layer>:<function>"``
    for the named-layer functions (the wire counters read them).
    A function outside every layer passes its self time to its callers
    in proportion to the per-edge self time cProfile recorded.  A caller
    that is itself outside passes its part further up in proportion to
    per-edge *cumulative* time (what ran beneath it is what is being
    split).  What reaches no layer (a cycle of outside callers, or no
    recorded caller) is ``other``.
    """
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    calls: Dict[str, int] = {}
    func_layer = {func: layer_of(func[0]) for func in stats}
    memo: Dict[tuple, Dict[str, float]] = {}
    SELF, CUMULATIVE = 2, 3     # fields of a cProfile caller edge

    def shares(func: tuple, field: int, seen: frozenset) -> Dict[str, float]:
        """Which layers an outside function's time belongs to."""
        if (func, field) in memo:
            return memo[func, field]
        callers = stats[func][4]
        total = sum(edge[field] for edge in callers.values())
        if total <= 0.0:
            return {"other": 1.0}
        out: Dict[str, float] = {}
        for caller, edge in callers.items():
            w = edge[field] / total
            layer = func_layer.get(caller)
            if layer is not None:
                out[layer] = out.get(layer, 0.0) + w
            elif caller in seen or caller not in stats:
                out["other"] = out.get("other", 0.0) + w
            else:
                for name, share in shares(caller, CUMULATIVE,
                                          seen | {func}).items():
                    out[name] = out.get(name, 0.0) + w * share
        if not seen:
            memo[func, field] = out     # only a cycle-free answer is reusable
        return out

    for func, (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        layer = func_layer[func]
        if layer is not None:
            layers[layer]["self_s"] += tottime
            layers[layer]["calls"] += ncalls
            key = f"{layer}:{func[2]}"
            calls[key] = calls.get(key, 0) + ncalls
        else:
            for name, share in shares(func, SELF, frozenset()).items():
                layers[name]["self_s"] += tottime * share
    return layers, calls
