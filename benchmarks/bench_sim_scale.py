#!/usr/bin/env python
"""BENCH_sim: simulator scaling gate (pingpong + LU at Table-1 ranks).

Three measurements land in BENCH_sim.json:

* **kernel storm** — the same timeout-storm generator program raced on
  ``repro.sim.ReferenceEnvironment`` (the pure ``(time, seq)`` heap the
  seed kernel was, kept in-tree as the one oracle) and on the production
  ``Environment``, in the same interpreter.  This isolates the
  event-core speedup from full-stack protocol cost.
* **pingpong** — N ranks of paired rendezvous exchanges over the full
  MPI/verbs stack (pure fabric + kernel load).
* **lu** — NAS LU under DMTCP with one global checkpoint (adds
  coordinator rounds, the drain protocol, and capture hashing).

"Before" numbers come from ``baseline_sim_seed.json``, recorded with
the seed kernel on the machine that produced the checked-in
BENCH_sim.json; re-runs on other hardware should compare their own
before/after pair (the kernel-storm ratio) rather than absolute seeds.
To match the baseline's methodology (one scenario per interpreter),
every (scenario, ranks) entry runs in a fresh subprocess — otherwise
the heap left behind by a 2048-rank run taxes whatever runs next and
the events/sec comparison is garbage-collector noise, not kernel
speed.

Gates (any failure exits non-zero):

* **determinism** — every scenario's ``events`` / ``sim_seconds`` (or
  ``ckpt_seconds``) / ``checksum`` must match the seed baseline
  *bit-identically*.  The optimized kernel must replay the seed event
  stream exactly; this is the non-negotiable gate.
* **floor** — absolute events/sec floors, set far below healthy numbers
  so they only trip on a catastrophic kernel regression, not on a slow
  CI runner.
* **kernel speedup** (``--smoke``) — reference wall ÷ production wall on
  the storm, both taken inside one interpreter run so the machine
  cancels out; the pair runs three times and the median is gated, so
  one preempted run cannot fail CI.

Each pingpong and LU row also carries ``peak_rss_mb``, the ``ru_maxrss``
of the fresh interpreter that ran it: host memory at the top rung, which
the ledger's 64- and 256-rank runs cannot show.  It is reported, not
gated.

``--smoke`` runs the 512-rank column only (the CI ``sim-scale`` job).

``--memory N`` splits host memory instead: the live bytes per rank at
the end of ``run_lu(N)`` (traced by ``tracemalloc``, charged to the
innermost ``src/repro/<package>/`` frame that allocated them) by
package, beside the ``ru_maxrss`` of an untraced run of the same
scenario.  Each runs in a fresh interpreter.  It is reported, not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from statistics import median

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "baseline_sim_seed.json")
DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "BENCH_sim.json")

#: conservative events/sec floors (see module docstring)
FLOORS = {"pingpong": 15_000.0, "lu": 10_000.0, "storm_new": 150_000.0}

#: reference wall / production wall on the storm (measured 2.0-2.3)
MIN_KERNEL_SPEEDUP = 1.4

#: per-rank timeout rounds of the kernel storm
STORM_ROUNDS = 120

#: the packages ``--memory`` splits live bytes by; the rest is "other"
MEMORY_PACKAGES = ("sim", "hardware", "ibverbs", "core", "mpi", "memory",
                   "dmtcp")

#: tracemalloc frames kept per allocation, to find its innermost
#: ``repro`` frame
MEMORY_FRAMES = 12


def _storm_program(environment_cls, ranks: int, rounds: int):
    """Run the storm on one kernel class; returns (wall, env).

    Every rank interleaves zero-delay timeouts (the bucket at ``now``)
    with small staggered delays (a few distinct future buckets) — the
    same mix the MPI wire-up storm produces.  Identical generator code
    runs on both kernels, so the wall-clock ratio is a pure kernel
    comparison."""
    env = environment_cls()

    def rank_proc(env, rank):
        for i in range(rounds):
            k = (rank + i) % 4
            if k == 0:
                yield env.timeout(0.0)
            else:
                yield env.timeout(k * 25e-9)

    for rank in range(ranks):
        env.process(rank_proc(env, rank))
    t0 = time.perf_counter()
    env.run()
    return time.perf_counter() - t0, env


def bench_storm(ranks: int, rounds: int = STORM_ROUNDS) -> dict:
    from repro.sim import Environment, ReferenceEnvironment

    ref_walls, new_walls = [], []
    for _ in range(3):
        ref_wall, ref = _storm_program(ReferenceEnvironment, ranks, rounds)
        new_wall, env = _storm_program(Environment, ranks, rounds)
        if (ref.now, ref.stats.snapshot()) != (env.now, env.stats.snapshot()):
            raise RuntimeError(
                f"storm@{ranks}: kernel disagrees with ReferenceEnvironment: "
                f"{env.stats.snapshot()} at {env.now!r} vs "
                f"{ref.stats.snapshot()} at {ref.now!r}")
        ref_walls.append(ref_wall)
        new_walls.append(new_wall)
    speedups = [r / n for r, n in zip(ref_walls, new_walls)]
    ref_wall, new_wall = median(ref_walls), median(new_walls)
    events = env.stats.events
    return {
        "ranks": ranks, "rounds": rounds, "events": events,
        "ref_wall": ref_wall, "new_wall": new_wall,
        "ref_events_per_sec": events / ref_wall,
        "new_events_per_sec": events / new_wall,
        "speedups": speedups,
        "kernel_speedup": median(speedups),
        "heap_peak": env.stats.heap_peak,
        "max_batch": env.stats.max_batch,
    }


def _package(traceback) -> str:
    """The ``MEMORY_PACKAGES`` entry of the innermost ``repro`` frame."""
    for frame in reversed(traceback):
        parts = frame.filename.replace(os.sep, "/").split("/repro/", 1)
        if len(parts) == 2:
            pkg = parts[1].split("/", 1)[0]
            return pkg if pkg in MEMORY_PACKAGES else "other"
    return "other"


def bench_memory(ranks: int) -> dict:
    """Live bytes per rank, by package, at the end of ``run_lu(ranks)``:
    the snapshot is taken as the last ``Environment.run`` of the
    scenario returns, before the scenario drops its clusters."""
    import tracemalloc

    from repro.experiments.sim_scale import run_lu
    from repro.sim import Environment

    last = {}
    run = Environment.run

    def run_then_snapshot(self, until=None):
        value = run(self, until)
        last["snapshot"] = tracemalloc.take_snapshot()
        return value

    Environment.run = run_then_snapshot
    tracemalloc.start(MEMORY_FRAMES)
    try:
        row = run_lu(ranks)
    finally:
        Environment.run = run
        tracemalloc.stop()
    split = dict.fromkeys(MEMORY_PACKAGES + ("other",), 0)
    for stat in last["snapshot"].statistics("traceback"):
        split[_package(stat.traceback)] += stat.size
    return {"events": row["events"], "checksum": row["checksum"],
            "live_bytes_per_rank": {k: v / ranks for k, v in split.items()}}


def _run_one(scenario: str, ranks: int) -> dict:
    """The ``--one`` worker: run a single entry in this interpreter."""
    if scenario == "storm":
        return bench_storm(ranks)
    if scenario == "lu_memory":
        return bench_memory(ranks)
    from repro.experiments.sim_scale import run_lu, run_pingpong
    row = {"pingpong": run_pingpong, "lu": run_lu}[scenario](ranks)
    row["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return row


def _run_fresh(scenario: str, ranks: int) -> dict:
    """Run one entry in a fresh interpreter (see module docstring)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--one", scenario, str(ranks)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"--one {scenario} {ranks} failed:\n{proc.stderr}")
    # the worker prints exactly one JSON object on its last line
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_determinism(entry: dict, base: dict, sim_key: str,
                       failures: list) -> bool:
    """Exact (bit-identical) witness comparison against the seed run."""
    ok = True
    for key in ("events", sim_key, "checksum"):
        if entry[key] != base[key]:
            failures.append(
                f"{entry['scenario']}@{entry['ranks']}: {key} "
                f"{entry[key]!r} != seed {base[key]!r}")
            ok = False
    return ok


def memory_report(ranks: int, out) -> int:
    """``--memory``: print (and with ``out``, write) the package split
    and the untraced run's peak RSS."""
    split = _run_fresh("lu_memory", ranks)
    plain = _run_fresh("lu", ranks)
    if (split["events"], split["checksum"]) != \
            (plain["events"], plain["checksum"]):
        raise RuntimeError("the traced run diverged from the plain one")
    per_rank = split["live_bytes_per_rank"]
    report = {"bench": "sim_scale_memory", "ranks": ranks,
              "live_bytes_per_rank": per_rank,
              "live_bytes_per_rank_total": sum(per_rank.values()),
              "peak_rss_mb": plain["peak_rss_mb"],
              "events": plain["events"], "checksum": plain["checksum"]}
    print(f"lu {ranks} ranks: live bytes per rank at the end of run_lu")
    for pkg, size in per_rank.items():
        print(f"  {pkg:<9} {size / 1024:9.1f} KiB")
    print(f"  {'total':<9} "
          f"{report['live_bytes_per_rank_total'] / 1024:9.1f} KiB")
    print(f"peak RSS (ru_maxrss, untraced run): "
          f"{plain['peak_rss_mb']:.1f} MiB")
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"# wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="512-rank column only (the CI gate)")
    parser.add_argument("--memory", type=int, metavar="RANKS",
                        help="split run_lu(RANKS)'s live host memory by "
                             "package instead of running the ladder")
    parser.add_argument("--out", default=None,
                        help="where to write the report (default "
                             "BENCH_sim.json; --memory prints only)")
    parser.add_argument("--one", nargs=2, metavar=("SCENARIO", "RANKS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.one:
        print(json.dumps(_run_one(args.one[0], int(args.one[1]))))
        return 0
    if args.memory:
        return memory_report(args.memory, args.out)
    out = args.out or DEFAULT_OUT

    from repro.experiments.sim_scale import RANK_LADDER

    with open(BASELINE) as fh:
        baseline = json.load(fh)

    ladder = (512,) if args.smoke else RANK_LADDER
    failures: list = []
    floor_failures: list = []
    speedup_failures: list = []
    report = {
        "bench": "sim_scale",
        "mode": "smoke" if args.smoke else "full",
        "rounds": {"storm_rounds": STORM_ROUNDS},
        "baseline": baseline["comment"],
        "kernel_storm": [], "pingpong": [], "lu": [],
    }

    for ranks in ladder:
        storm = _run_fresh("storm", ranks)
        print(f"storm    {ranks:>5}: reference {storm['ref_wall']:.3f}s, "
              f"new {storm['new_wall']:.3f}s "
              f"({storm['kernel_speedup']:.2f}x, "
              f"{storm['new_events_per_sec']:,.0f} ev/s)")
        if storm["new_events_per_sec"] < FLOORS["storm_new"]:
            floor_failures.append(
                f"storm@{ranks}: {storm['new_events_per_sec']:.0f} ev/s "
                f"< floor {FLOORS['storm_new']:.0f}")
        if args.smoke and storm["kernel_speedup"] < MIN_KERNEL_SPEEDUP:
            speedup_failures.append(
                f"storm@{ranks}: {storm['kernel_speedup']:.2f}x the "
                f"reference kernel < {MIN_KERNEL_SPEEDUP}x")
        report["kernel_storm"].append(storm)

    for scenario, sim_key in (("pingpong", "sim_seconds"),
                              ("lu", "ckpt_seconds")):
        for ranks in ladder:
            entry = _run_fresh(scenario, ranks)
            base = baseline[scenario][str(ranks)]
            entry["before"] = base
            entry["speedup_vs_seed"] = (
                entry["events_per_sec"] / base["events_per_sec"]
                if base["events_per_sec"] else 0.0)
            entry["deterministic"] = _check_determinism(
                entry, base, sim_key, failures)
            if entry["events_per_sec"] < FLOORS[scenario]:
                floor_failures.append(
                    f"{scenario}@{ranks}: {entry['events_per_sec']:.0f} "
                    f"ev/s < floor {FLOORS[scenario]:.0f}")
            print(f"{scenario:<8} {ranks:>5}: {entry['events']:>9} events, "
                  f"{entry['wallclock']:.2f}s wall, "
                  f"{entry['events_per_sec']:,.0f} ev/s "
                  f"({entry['speedup_vs_seed']:.2f}x vs seed), "
                  f"{entry['peak_rss_mb']:.1f} MiB peak RSS, "
                  f"deterministic={entry['deterministic']}")
            report[scenario].append(entry)

    report["gates"] = {
        "determinism": {"pass": not failures, "failures": failures},
        "floor": {"pass": not floor_failures, "floors": FLOORS,
                  "failures": floor_failures},
        "kernel_speedup": {"pass": not speedup_failures,
                           "min": MIN_KERNEL_SPEEDUP,
                           "failures": speedup_failures},
    }
    report["pass"] = not (failures or floor_failures or speedup_failures)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"# wrote {out}; pass={report['pass']}")
    if failures:
        print("# DETERMINISM FAILURES:", *failures, sep="\n#   ")
    if floor_failures:
        print("# FLOOR FAILURES:", *floor_failures, sep="\n#   ")
    if speedup_failures:
        print("# KERNEL SPEEDUP FAILURES:", *speedup_failures, sep="\n#   ")
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
