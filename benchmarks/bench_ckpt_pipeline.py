"""Bench: the incremental checkpoint capture pipeline (DESIGN.md §8).

Two measurements, written to ``BENCH_ckpt.json``:

**microbench** — real wall time of :meth:`CheckpointImage.capture` over a
synthetic address space in three modes (full, full recapture, incremental)
on a dirty-subset scenario (~10% of the regions rewritten between
captures).  ``full`` is a *cold*
capture — fresh regions holding the same bytes, so every region is
compressed; ``full_recapture`` is the same ``prev=None`` capture of the
*warm* address space, whose clean regions answer from the generation-keyed
ratio memo (:attr:`Region.gzip_ratio`) and only the dirty ones are
compressed.  Asserts the incremental capture is >= 3x faster than the cold
full capture, and that every mode's snapshot restores bit-identically to
the full one.  ``pool_speedup`` puts a number beside the one fork capture
keeps: the cold chunk set measured serially and the way capture measures
it on this host (``pool_width`` threads); reported, gated only on the two
giving identical lengths.

**simulated** — NAS LU and FT under the fault harness (failure-free
schedule), full vs incremental checkpointing: mean *simulated* wall
seconds per coordinated checkpoint and the delta bytes actually written.
With chunk-granularity dirty tracking (DESIGN.md §13) the incremental
mean must now be *strictly* below the full mean on both kernels —
end-to-end, not just in the microbench — and LU (whose per-sweep dirty
set is a few boundary strips plus a rotating relaxation slab) must beat
full capture by at least :data:`LU_MIN_E2E`.

Usage::

    PYTHONPATH=src python benchmarks/bench_ckpt_pipeline.py [--quick]
        [--out BENCH_ckpt.json]

Exits non-zero when an acceptance check fails (the CI smoke job runs
``--quick``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.dmtcp import RunConfig  # noqa: E402
from repro.dmtcp import image as image_mod  # noqa: E402
from repro.dmtcp.image import CheckpointImage  # noqa: E402
from repro.faults.harness import run_chaos_nas  # noqa: E402
from repro.faults.schedule import FixedSchedule  # noqa: E402
from repro.memory import AddressSpace  # noqa: E402

#: the acceptance bar: incremental capture on a <=10%-dirty space must beat
#: a cold full capture (every region compressed) by at least this factor
MIN_SPEEDUP = 3.0

#: end-to-end acceptance bar: simulated LU mean checkpoint time under
#: incremental capture must beat full capture by at least this factor
LU_MIN_E2E = 2.0


def _build_space(n_regions: int, region_bytes: int, seed: int = 2014):
    """A synthetic address space of semi-compressible regions."""
    rng = np.random.default_rng(seed)
    memory = AddressSpace("bench")
    for i in range(n_regions):
        data = rng.integers(0, 64, region_bytes, dtype=np.uint8).tobytes()
        memory.mmap(f"r{i:03d}", region_bytes, data=data)
    return memory, rng


def _dirty_subset(memory: AddressSpace, rng, fraction: float) -> int:
    regions = list(memory)
    n_dirty = max(1, int(len(regions) * fraction))
    for region in regions[:n_dirty]:
        fresh = rng.integers(0, 64, region.size, dtype=np.uint8).tobytes()
        memory.write(region.addr, fresh)
    return n_dirty


def _cold_copy(memory: AddressSpace) -> AddressSpace:
    """Fresh regions holding the same bytes: no ratio memo, no history."""
    cold = AddressSpace(memory.name)
    for region in memory:
        cold.mmap(region.name, region.size, data=bytes(region.buffer))
    return cold


def _capture(memory, prev=None):
    t0 = time.perf_counter()
    image = CheckpointImage.capture("bench", 1, "3.10.0", "mlx4", memory,
                                    prev=prev)
    return image, time.perf_counter() - t0


def _pool_speedup(image: CheckpointImage) -> dict:
    """Serial vs as-capture-decides measurement of one cold chunk set."""
    chunks = [window for r in image.memory_snapshot["regions"]
              for window in image_mod._windows(r["data"])]
    t0 = time.perf_counter()
    serial = [image_mod._zlen(c) for c in chunks]
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    decided = image_mod._measure_zlens(chunks)
    t_decided = time.perf_counter() - t0
    return {"pool_width": image_mod._WIDTH,
            "pool_speedup": t_serial / t_decided,
            "pool_identical": serial == decided}


def _restored_bytes(image: CheckpointImage) -> dict:
    memory = AddressSpace("check")
    image.restore_memory(memory)
    return {r.name: bytes(r.buffer) for r in memory}


def microbench(quick: bool) -> dict:
    n_regions, region_bytes = (32, 256 * 1024) if quick \
        else (64, 1024 * 1024)
    dirty_fraction = 0.10
    memory, rng = _build_space(n_regions, region_bytes)

    base, _ = _capture(memory)          # seed the chain, warm the memo
    n_dirty = _dirty_subset(memory, rng, dirty_fraction)

    def redirty():
        # each warm capture records the dirty regions' ratios; stale them
        # again (same bytes) so the next warm row measures the same work
        for region in list(memory)[:n_dirty]:
            region.touch()

    full, t_full = _capture(_cold_copy(memory))
    recapture, t_recapture = _capture(memory)
    redirty()
    incr, t_incr = _capture(memory, prev=base)

    others = (recapture, incr)
    reference = _restored_bytes(full)
    identical = all(_restored_bytes(img) == reference for img in others)
    ratios_match = all(
        abs(img.compression_ratio - full.compression_ratio) < 1e-12
        for img in others)

    return {
        "regions": n_regions,
        "region_bytes": region_bytes,
        "dirty_regions": n_dirty,
        "dirty_fraction": n_dirty / n_regions,
        "full_s": t_full,
        "full_recapture_s": t_recapture,
        "ratios_reused": recapture.capture_stats["compress_reused"],
        "incremental_s": t_incr,
        "speedup_incremental": t_full / t_incr,
        "regions_clean": incr.capture_stats["regions_clean_gen"],
        "delta_logical_bytes": incr.delta_logical_bytes,
        "full_logical_bytes": full.raw_logical_bytes
        * full.compression_ratio,
        "bit_identical": identical,
        "ratios_match": ratios_match,
        **_pool_speedup(full),
    }


def micro_checks(micro: dict) -> dict:
    """The microbench's acceptance gates (also asserted in tier-1 by
    ``tests/test_bench_gates.py``)."""
    return {
        "bit_identical": micro["bit_identical"],
        "ratios_match": micro["ratios_match"],
        "pooled and serial chunk lengths identical":
            micro["pool_identical"],
        f"incremental >= {MIN_SPEEDUP}x on dirty subset":
            micro["speedup_incremental"] >= MIN_SPEEDUP,
        "warm full recapture compresses only the dirty regions":
            micro["ratios_reused"]
            == micro["regions"] - micro["dirty_regions"],
    }


def simulated(quick: bool) -> dict:
    iters = 24 if quick else 120
    out = {}
    for app, klass in (("lu", "A"), ("ft", "B")):
        row = {}
        for label, incremental in (("full", False), ("incremental", True)):
            result = run_chaos_nas(
                app=app, klass=klass, nprocs=4, iters_sim=iters,
                ckpt_interval=0.3, schedule=FixedSchedule([]),
                config=RunConfig(incremental=incremental))
            rec = result.recovery
            row[label] = {
                "n_checkpoints": rec.n_checkpoints,
                "mean_ckpt_s": rec.mean_ckpt_seconds,
                "total_ckpt_s": rec.ckpt_overhead,
                "completion_s": rec.completion_seconds,
                "checksum": result.checksum,
            }
        row["checksums_match"] = (row["full"]["checksum"]
                                  == row["incremental"]["checksum"])
        row["e2e_speedup"] = (row["full"]["mean_ckpt_s"]
                              / max(row["incremental"]["mean_ckpt_s"],
                                    1e-12))
        out[app] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="incremental checkpoint pipeline benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="small configuration for CI (seconds)")
    parser.add_argument("--out", default="BENCH_ckpt.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    micro = microbench(args.quick)
    sim = simulated(args.quick)
    report = {"quick": args.quick, "microbench": micro, "simulated": sim}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")

    print(f"# capture over {micro['regions']} regions x "
          f"{micro['region_bytes'] >> 10} KiB, "
          f"{micro['dirty_regions']} dirty "
          f"({micro['dirty_fraction']:.0%})")
    print(f"{'mode':>24} {'wall(s)':>9} {'vs full':>8}")
    for key, label in (("full_s", "full"),
                       ("full_recapture_s", "full recapture (warm)"),
                       ("incremental_s", "incremental")):
        t = micro[key]
        print(f"{label:>24} {t:9.4f} {micro['full_s'] / t:7.1f}x")
    print(f"# cold chunk set, serial vs {micro['pool_width']} thread(s): "
          f"{micro['pool_speedup']:.2f}x")
    for app, row in sim.items():
        print(f"# {app.upper()} x4 simulated: full "
              f"{row['full']['mean_ckpt_s']:.3f}s/ckpt, incremental "
              f"{row['incremental']['mean_ckpt_s']:.3f}s/ckpt "
              f"({row['e2e_speedup']:.1f}x, "
              f"{row['full']['n_checkpoints']:.0f} ckpts)")

    checks = {
        **micro_checks(micro),
        "simulated checksums match": all(row["checksums_match"]
                                         for row in sim.values()),
        "simulated incremental strictly faster (LU + FT)": all(
            row["incremental"]["mean_ckpt_s"]
            < row["full"]["mean_ckpt_s"] for row in sim.values()),
        f"simulated LU e2e >= {LU_MIN_E2E}x":
            sim["lu"]["e2e_speedup"] >= LU_MIN_E2E,
    }
    ok = all(checks.values())
    for name, passed in checks.items():
        print(f"# {'PASS' if passed else 'FAIL'}: {name}")
    print(f"# report -> {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
