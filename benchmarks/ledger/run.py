#!/usr/bin/env python3
"""The layered performance ledger: one runner, five workloads.

    python3 benchmarks/ledger/run.py [--seed N] [--repeats K] [--traced]
                                     [--size bench|full|smoke | --smoke]
                                     [workload ...]

prints every end-to-end metric of every workload by name and unit (host
clocks as median, quartiles and n over K repeats, each in a fresh
interpreter, interleaved across workloads, after one discarded warm-up
that also pays for the costly cross-checks), checks the outputs, and
exits non-zero on any failed operation.  ``--traced`` adds one traced
pass per workload and prints every per-layer metric; spans and the
profile fold land in ``benchmarks/ledger/out/trace_<workload>.json``.

    run.py --workload W --seed N --seconds S --trace 0|1

is the same engine under the benchmark contract of ``BENCHMARK.json``:
one workload, repeats until S seconds are measured (never fewer than 5),
and one JSON object as the last line of stdout.

    run.py --selfcheck        two sets of runs must agree with each other
    run.py --pin              re-pin witnesses.json at the default seed
    run.py --write-manifest   regenerate BENCHMARK.json from spec.py

See README.md beside this file for why each workload, size and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WITNESSES = os.path.join(HERE, "witnesses.json")
#: a worker that takes longer than this is killed (contract: 180 s/run)
WORKER_TIMEOUT_S = 170


# -- one repeat in a fresh interpreter -------------------------------------------

def spawn(workload: str, size: str, seed: int, mode: str,
          handoff: Optional[dict] = None) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", workload,
           "--size", size, "--seed", str(seed), "--mode", mode,
           "--handoff", json.dumps(handoff or {}),
           "--t-spawn", repr(time.time())]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {workload}/{mode} exited "
                           f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worker_main(args) -> int:
    sys.path.insert(0, SRC)
    from workloads import run_worker
    row = run_worker(args.worker, spec.SIZES[args.size][args.worker],
                     args.seed, args.mode, json.loads(args.handoff),
                     args.t_spawn)
    print(json.dumps(row))
    return 0


# -- measuring one workload ---------------------------------------------------------

def spread(values: List[float]) -> dict:
    """Median, quartiles and n; ``iqr_share`` is (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "iqr_share": (q3 - q1) / med if med else 0.0}


class Measurement:
    """The repeats of one workload at one size and seed."""

    HOST = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")

    def __init__(self, workload: str, size: str, seed: int):
        self.workload, self.size, self.seed = workload, size, seed
        self.warm: Optional[dict] = None
        self.rows: List[dict] = []

    def step(self) -> float:
        """One more repeat (the first is the discarded warm-up, which
        runs the costly cross-checks).  Returns the seconds it took."""
        t0 = time.perf_counter()
        if self.warm is None:
            self.warm = spawn(self.workload, self.size, self.seed, "verify")
        else:
            self.rows.append(spawn(self.workload, self.size, self.seed,
                                   "plain", self.warm["handoff"]))
        return time.perf_counter() - t0

    def host(self, name: str) -> dict:
        return spread([row[name] for row in self.rows])

    @property
    def exact(self) -> dict:
        return self.warm["exact"]

    def verdict(self) -> dict:
        """attempted / failed over every repeat, with reasons.  Beyond
        each repeat's own checks: all repeats of a seed agree exactly
        (the same-seed replay), and at the default seed they agree with
        the pinned witnesses."""
        rows = [self.warm] + self.rows
        attempted = sum(row["attempted"] for row in rows)
        reasons = [f"repeat {i}: {why}" for i, row in enumerate(rows)
                   for why in row["failures"]]
        for i, row in enumerate(self.rows, 1):
            attempted += 1
            if row["exact"] != self.exact:
                diff = sorted(k for k in self.exact
                              if row["exact"].get(k) != self.exact[k])
                reasons.append(f"repeat {i}: same seed, different "
                               f"{', '.join(diff)}")
        pinned = load_witnesses().get(self.size, {}).get(self.workload)
        if pinned is not None and self.seed == spec.DEFAULT_SEED:
            for key, want in pinned.items():
                attempted += 1
                if self.exact.get(key) != want:
                    reasons.append(f"witness {key}: {self.exact.get(key)!r}"
                                   f" != pinned {want!r}")
        return {"attempted": attempted, "failed": len(reasons),
                "reasons": reasons}

    def end_to_end(self) -> Dict[str, dict]:
        """name -> {value, unit, ...}: host metrics carry their spread,
        exact ones the value every repeat agreed on."""
        out = {}
        for metric in spec.END_TO_END:
            if not spec.applies(metric, self.workload):
                row = {"value": spec.NOT_APPLICABLE, "applies": False}
            elif metric.exact:
                row = {"value": self.exact[metric.name], "exact": True}
            else:
                row = self.host(metric.name)
                row["value"] = row["median"]
            row["unit"] = metric.unit
            out[metric.name] = row
        return out


def load_witnesses() -> dict:
    if not os.path.exists(WITNESSES):
        return {}
    with open(WITNESSES) as fh:
        return json.load(fh)


# -- the traced pass ---------------------------------------------------------------

def traced_pass(m: Measurement, native: Optional[Measurement]) -> dict:
    """Spans, profile fold and (for lu_ckpt_restart) the repo's own
    tracer, each in its own interpreter; returns every per-layer metric
    plus the raw material for ``out/trace_<workload>.json``.  ``native``
    is the lu_native measurement at the same size and seed: the
    denominator of the plugin's run overhead."""
    handoff = m.warm["handoff"]
    spans = spawn(m.workload, m.size, m.seed, "spans", handoff)
    profile = spawn(m.workload, m.size, m.seed, "profile", handoff)
    obs = None
    if m.workload == "lu_ckpt_restart":
        obs = spawn(m.workload, m.size, m.seed, "obs", handoff)

    wall = m.host("wall_s")["median"]
    out = {metric.name: 0.0 for metric in spec.PER_LAYER}
    counters = dict(spans["counters"])
    # host-rate counters come from the untraced repeats, not the spans run
    for key in ("sim.storm_events_per_s", "service.jobs_per_wall_s"):
        if key in counters:
            counters[key] = statistics.median(
                row["counters"][key] for row in m.rows)
    if "sim.storm_ref_ratio" in m.warm["counters"]:   # raced in the warm-up
        counters["sim.storm_ref_ratio"] = \
            m.warm["counters"]["sim.storm_ref_ratio"]
    out.update({k: v for k, v in counters.items() if k in out})
    events = m.exact["events"]
    out["sim.host_us_per_event"] = wall / events * 1e6 if events else 0.0

    layers = profile["layers"]
    for layer, row in layers.items():
        out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.calls"] = row["calls"]
    named = sum(row["self_s"] for layer, row in layers.items()
                if layer != "other")
    out["trace.coverage"] = named / profile["wall_s"]
    out["trace.overhead_ratio"] = profile["wall_s"] / wall
    calls = profile["calls"]
    out["ibverbs.posts"] = sum(n for key, n in calls.items()
                               if "_drv_post_" in key)
    out["ibverbs.polls"] = calls.get("ibverbs:_drv_poll_cq", 0)

    totals = spans["span_totals"]
    for phase in spec.PHASES:
        row = totals.get(f"phase.{phase}")
        if row is not None:
            for field in ("host_s", "sim_s", "events"):
                out[f"phase.{phase}.{field}"] = row[field]
    for span_name in ("dmtcp.capture_full", "dmtcp.capture_incr",
                      "store.put", "store.fetch", "memory.restore"):
        if span_name in totals:
            out[f"{span_name}.host_s"] = totals[span_name]["host_s"]
    if "dmtcp.capture_full" in totals:
        out["dmtcp.capture_full_mb_per_s"] = \
            m.exact["capture_full_bytes"] / 1e6 \
            / totals["dmtcp.capture_full"]["host_s"]

    wrapper_calls = out["core.ib_plugin.wrapper_calls"]
    if wrapper_calls:
        out["core.ib_plugin.host_us_per_wrapper_call"] = \
            out["core.ib_plugin.self_s"] / wrapper_calls * 1e6
    if obs is not None:
        run = [totals["phase.run_pre"], totals["phase.run_post"]]
        us_per_event = sum(r["host_s"] for r in run) \
            / sum(r["events"] for r in run)
        native_us = native.host("wall_s")["median"] / native.exact["events"]
        out["core.ib_plugin.run_overhead_ratio"] = us_per_event / native_us
        out.update(obs["simphase"])
        out["obs.tracer_wall_ratio"] = obs["wall_s"] / wall
        out["obs.sim_drift"] = max(
            abs(obs["exact"][key] - m.exact[key])
            for key in ("sim_runtime_s", "sim_ckpt_s", "sim_restart_s"))
    detail = {"workload": m.workload, "size": m.size, "seed": m.seed,
              "untraced_wall_s": wall, "spans": spans["spans"],
              "span_totals": totals, "profiled_wall_s": profile["wall_s"],
              "layers": layers, "top_functions": profile["top_functions"]}
    if obs is not None:
        detail["obs"] = {"wall_s": obs["wall_s"], "exact": obs["exact"],
                         "simphase": obs["simphase"],
                         "tracer_dropped": obs["tracer_dropped"]}
    return {"per_layer": out, "detail": detail,
            "failures": [f"traced {row['mode']}: {why}"
                         for row in (spans, profile, obs) if row
                         for why in row["failures"]]}


# -- a set of runs -------------------------------------------------------------------

def run_set(workloads: List[str], size: str, seed: int, repeats: int,
            traced: bool, budget_s: Optional[float] = None) -> dict:
    """Warm-up then ``repeats`` measured repeats of each workload, the
    workloads interleaved (or, with ``budget_s``, repeats of the one
    workload until that many seconds are measured)."""
    ms = {w: Measurement(w, size, seed) for w in workloads}
    for m in ms.values():
        m.step()                        # the discarded warm-up
    if budget_s is None:
        for _rep in range(repeats):
            for m in ms.values():
                m.step()
    else:
        (m,) = ms.values()
        spent = 0.0
        while len(m.rows) < spec.MIN_REPEATS or (
                spent < budget_s and len(m.rows) < spec.MAX_REPEATS):
            spent += m.step()
    result = {}
    for w, m in ms.items():
        entry = {"end_to_end": m.end_to_end(), "verdict": m.verdict(),
                 "exact": m.exact, "repeats": len(m.rows),
                 "raw": [{k: row[k] for k in Measurement.HOST}
                         for row in m.rows]}
        if traced:
            native = ms.get("lu_native")
            if w == "lu_ckpt_restart" and native is None:
                native = Measurement("lu_native", size, seed)
                for _ in range(1 + 3):  # warm-up, then a median of three
                    native.step()
            t = traced_pass(m, native)
            entry["per_layer"] = t["per_layer"]
            entry["verdict"]["reasons"] += t["failures"]
            entry["verdict"]["failed"] += len(t["failures"])
            os.makedirs(OUT, exist_ok=True)
            with open(os.path.join(OUT, f"trace_{w}.json"), "w") as fh:
                json.dump(t["detail"], fh, indent=1)
        result[w] = entry
    return result


def print_set(result: dict, size: str, seed: int) -> None:
    bounds = {m.name: m.bound for m in spec.END_TO_END}
    for w, entry in result.items():
        verdict = entry["verdict"]
        share = verdict["failed"] / verdict["attempted"]
        print(f"\n== {w}  (size {size}, seed {seed}, {entry['repeats']} "
              f"repeats after 1 warm-up)")
        print(f"   ops attempted {verdict['attempted']}, failed "
              f"{verdict['failed']}, failed_share {share:.6f} ratio")
        for why in verdict["reasons"]:
            print(f"   FAILED {why}")
        for name, row in entry["end_to_end"].items():
            bound = f"bound {bounds[name]:.0%}"
            if row.get("applies") is False:
                note = "n/a on this workload"
            elif row.get("exact"):
                note = f"exact  {bound}"
            else:
                note = (f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} "
                        f"n {row['n']}  iqr {row['iqr_share']:.1%}  "
                        f"{bound}")
            print(f"   {name:<18}{row['value']:>16.9g} {row['unit']:<6} "
                  f"{note}")
        if entry["raw"]:
            print("   raw wall_s/cpu_s: " + "  ".join(
                f"{r['wall_s']:.3f}/{r['cpu_s']:.3f}"
                for r in entry["raw"]))
        for metric in spec.PER_LAYER if "per_layer" in entry else ():
            print(f"   {metric.name:<44}"
                  f"{entry['per_layer'][metric.name]:>16.9g} {metric.unit}")


def any_failed(result: dict) -> bool:
    return any(entry["verdict"]["failed"] for entry in result.values())


# -- modes ---------------------------------------------------------------------------

def contract_main(args) -> int:
    """``--workload W --seed N --seconds S --trace 0|1``: the last line
    of stdout is the one JSON object the driver reads."""
    traced = args.trace == 1
    # a traced run only needs an untraced reference: three repeats
    result = run_set([args.workload], "bench", args.seed,
                     repeats=3, traced=traced,
                     budget_s=None if traced else args.seconds)
    print_set(result, "bench", args.seed)
    entry = result[args.workload]
    if traced:
        units = {m.name: m.unit for m in spec.PER_LAYER}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in entry["per_layer"].items()}
    else:
        metrics = {name: {"value": row["value"], "unit": row["unit"]}
                   for name, row in entry["end_to_end"].items()}
    verdict = entry["verdict"]
    print(json.dumps({"correct": verdict["failed"] == 0,
                      "attempted": verdict["attempted"],
                      "failed": verdict["failed"], "metrics": metrics}))
    return 0


def selfcheck_main(args, workloads: List[str]) -> int:
    """Two sets of runs of the same code must agree: exact metrics
    bit-identical, host medians within their own bounds.  A host metric
    whose inter-quartile spread exceeds its bound cannot be resolved
    either way and is printed as such."""
    sets = [run_set(workloads, args.size, args.seed, args.repeats, False)
            for _ in range(2)]
    bad = sum(any_failed(s) for s in sets)
    for w in workloads:
        print(f"\n== {w}")
        same = sets[0][w]["exact"] == sets[1][w]["exact"]
        bad += not same
        print(f"   {'ok  ' if same else 'FAIL'} witnesses         "
              f"{'identical' if same else 'DIFFER'}: "
              f"{', '.join(sets[0][w]['exact'])}")
        for metric in spec.END_TO_END:
            if not spec.applies(metric, w):
                continue
            a, b = (s[w]["end_to_end"][metric.name] for s in sets)
            if metric.exact:
                ok = a["value"] == b["value"]
                note = "identical" if ok else \
                    f"DIFFERS {a['value']!r} vs {b['value']!r}"
            else:
                worse = b["value"] / a["value"] - 1.0
                ok = abs(worse) <= metric.bound
                note = f"second/first {worse:+.1%} (bound " \
                       f"{metric.bound:.0%})"
                if max(a["iqr_share"], b["iqr_share"]) > metric.bound:
                    note += "  UNRESOLVED: spread exceeds the bound"
                    ok = False
            bad += not ok
            print(f"   {'ok  ' if ok else 'FAIL'} {metric.name:<18}{note}")
    print(f"\nselfcheck: {'PASS' if not bad else f'{bad} problem(s)'}")
    return 1 if bad else 0


def ledger_main(args, workloads: List[str]) -> int:
    result = run_set(workloads, args.size, args.seed, args.repeats,
                     args.traced)
    print_set(result, args.size, args.seed)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"ledger_{args.size}.json"), "w") as fh:
        json.dump({"size": args.size, "seed": args.seed,
                   "workloads": result}, fh, indent=1)
    if args.pin:
        if args.seed != spec.DEFAULT_SEED or any_failed(result):
            print("\nnot pinning: needs the default seed and no failures")
            return 1
        pinned = load_witnesses()
        pinned.setdefault(args.size, {}).update(
            {w: entry["exact"] for w, entry in result.items()})
        with open(WITNESSES, "w") as fh:
            json.dump(pinned, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"\npinned {args.size} witnesses -> {WITNESSES}")
    return 1 if any_failed(result) else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", metavar="workload",
                   help=f"subset of: {' '.join(spec.WORKLOAD_NAMES)}")
    p.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    p.add_argument("--repeats", type=int, default=None,
                   help="measured repeats per workload (default 5; "
                        "2 with --smoke)")
    p.add_argument("--traced", action="store_true",
                   help="add the traced pass: every per-layer metric")
    p.add_argument("--size", choices=sorted(spec.SIZES), default="bench")
    p.add_argument("--smoke", action="store_true",
                   help="same as --size smoke")
    p.add_argument("--selfcheck", action="store_true")
    p.add_argument("--pin", action="store_true")
    p.add_argument("--write-manifest", action="store_true")
    # the benchmark contract
    p.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one repeat in this interpreter (internal)
    p.add_argument("--worker", choices=spec.WORKLOAD_NAMES,
                   help=argparse.SUPPRESS)
    p.add_argument("--mode", default="plain", help=argparse.SUPPRESS)
    p.add_argument("--handoff", default="{}", help=argparse.SUPPRESS)
    p.add_argument("--t-spawn", type=float, default=0.0,
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec.manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.worker:
        return worker_main(args)
    if args.workload:
        return contract_main(args)
    if args.smoke:
        args.size = "smoke"
    if args.repeats is None:
        args.repeats = 2 if args.size == "smoke" else spec.MIN_REPEATS
    unknown = set(args.workloads) - set(spec.WORKLOAD_NAMES)
    if unknown:
        p.error(f"unknown workload(s): {', '.join(sorted(unknown))}")
    workloads = [w for w in spec.WORKLOAD_NAMES
                 if not args.workloads or w in args.workloads]
    if args.selfcheck:
        return selfcheck_main(args, workloads)
    return ledger_main(args, workloads)


if __name__ == "__main__":
    raise SystemExit(main())
