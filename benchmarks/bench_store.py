"""Bench: the content-addressed multi-tier checkpoint store (repro.store).

Two measurements, written to ``BENCH_store.json``:

**dedup** — a 4-rank checkpoint chain on an MGHPCC cluster with ~10% of
regions dirtied between epochs: logical bytes the store writes per
incremental put vs the full-image baseline (epoch 1), plus cross-rank
dedup.  Asserts bytes written per incremental checkpoint <= 0.3x the
full-image baseline (the ISSUE acceptance bar).

**tiers** — restart fetch routing and integrity: a replicated checkpoint
fetched (a) healthy -> all chunks from the node-local tier, (b) after a
node crash -> partner replica, (c) after crashing the partner too ->
Lustre; every path reassembles a bit-identical image.  A corrupt-chunk
pass verifies the digest check catches injected rot and heals it from a
replica.

Usage::

    PYTHONPATH=src python benchmarks/bench_store.py [--quick]
        [--out BENCH_store.json]

Exits non-zero when an acceptance check fails (the CI smoke job runs
``--quick``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.dmtcp.image import CheckpointImage  # noqa: E402
from repro.hardware import Cluster, MGHPCC  # noqa: E402
from repro.memory import AddressSpace  # noqa: E402
from repro.sim import Environment  # noqa: E402
from repro.store import CheckpointStore, chunk_path, digest_bytes  # noqa: E402

#: the acceptance bar: logical bytes written per incremental checkpoint at
#: ~10% dirty regions must not exceed this fraction of the full baseline
MAX_INCR_FRACTION = 0.30


def _build_space(name, n_regions, region_bytes, seed):
    rng = np.random.default_rng(seed)
    memory = AddressSpace(name)
    for i in range(n_regions):
        data = rng.integers(0, 64, region_bytes, dtype=np.uint8).tobytes()
        memory.mmap(f"r{i:03d}", region_bytes, data=data)
    return memory, rng


def _dirty_subset(memory, rng, fraction):
    regions = list(memory)
    n_dirty = max(1, int(len(regions) * fraction))
    for region in regions[:n_dirty]:
        fresh = rng.integers(0, 64, region.size, dtype=np.uint8).tobytes()
        memory.write(region.addr, fresh)
    return n_dirty


def _capture(memory, name, prev=None):
    return CheckpointImage.capture(name, 1, "3.10.0", "mlx4", memory,
                                   gzip=True, prev=prev)


def _run(env, gen):
    return env.run(until=env.process(gen))


def dedup_bench(quick: bool) -> dict:
    n_regions, region_bytes = (16, 64 * 1024) if quick else (32, 256 * 1024)
    n_ranks, n_epochs = 4, (3 if quick else 5)
    dirty_fraction = 0.10
    env = Environment()
    cluster = Cluster(env, MGHPCC, n_nodes=4, name="bench-dedup")
    store = CheckpointStore(cluster)
    spaces = [_build_space(f"p{r}", n_regions, region_bytes, seed=100 + r)
              for r in range(n_ranks)]
    prevs = [None] * n_ranks

    epochs = []
    for epoch in range(1, n_epochs + 1):
        written = new = deduped = 0.0
        for rank, (memory, rng) in enumerate(spaces):
            if epoch > 1:
                _dirty_subset(memory, rng, dirty_fraction)
            image = _capture(memory, f"p{rank}", prev=prevs[rank])
            prevs[rank] = image
            result = _run(env, store.put_image(
                rank=rank, node_index=rank, epoch=epoch, image=image))
            written += result.bytes_written
            new += result.chunks_new
            deduped += result.chunks_deduped
        store.schedule_replication(epoch)
        _run(env, store.drain_replication())
        epochs.append({"epoch": epoch, "bytes_written": written,
                       "chunks_new": new, "chunks_deduped": deduped})

    baseline = epochs[0]["bytes_written"]
    incr_fractions = [e["bytes_written"] / baseline for e in epochs[1:]]
    return {
        "ranks": n_ranks,
        "regions_per_rank": n_regions,
        "region_bytes": region_bytes,
        "dirty_fraction": dirty_fraction,
        "epochs": epochs,
        "full_baseline_bytes": baseline,
        "incr_fraction_worst": max(incr_fractions),
        "incr_fraction_mean": sum(incr_fractions) / len(incr_fractions),
        "stats": dict(store.stats),
    }


def tier_bench(quick: bool) -> dict:
    n_regions, region_bytes = (8, 64 * 1024) if quick else (16, 256 * 1024)
    env = Environment()
    cluster = Cluster(env, MGHPCC, n_nodes=4, name="bench-tiers")
    store = CheckpointStore(cluster)
    memory, _rng = _build_space("p0", n_regions, region_bytes, seed=7)
    image = _capture(memory, "p0")
    _run(env, store.put_image(rank=0, node_index=0, epoch=1, image=image))
    store.schedule_replication(1)
    _run(env, store.drain_replication())
    manifest = store.manifest("p0", 1)
    # taken after the put, which back-fills the image's per-chunk digests
    # (region_meta[*]["chunk_hashes"]) — the fetched image carries them too
    reference = image.to_bytes()

    passes = {}

    def fetch(label):
        t0 = env.now
        fetched = _run(env, store.fetch_image("p0", via_node_index=2))
        passes[label] = {
            "seconds": env.now - t0,
            "bit_identical": fetched.to_bytes() == reference,
            "hits": {k: store.stats[f"hits_{k}"]
                     for k in ("local", "partner", "lustre")},
        }

    fetch("healthy")                                   # all-local
    cluster.nodes[0].fail()                            # local tier gone
    fetch("node_crash")                                # partner serves
    cluster.nodes[manifest.partner_index].fail()       # partner gone too
    fetch("partner_crash")                             # Lustre serves

    # corruption pass on a fresh cluster: rot the local copy of chunk 0,
    # fetch, confirm detection + heal from the partner replica
    env2 = Environment()
    cluster2 = Cluster(env2, MGHPCC, n_nodes=4, name="bench-rot")
    store2 = CheckpointStore(cluster2)
    memory2, _ = _build_space("p0", n_regions, region_bytes, seed=9)
    image2 = _capture(memory2, "p0")
    _run(env2, store2.put_image(rank=0, node_index=0, epoch=1,
                                image=image2))
    store2.schedule_replication(1)
    _run(env2, store2.drain_replication())
    digest = store2.manifest("p0", 1).digests()[0]
    fs = cluster2.nodes[0].local_disk.fs
    good = fs.load(chunk_path(digest))
    fs.store(chunk_path(digest), bytes([good[0] ^ 0xFF]) + good[1:],
             fs.logical_size(chunk_path(digest)))
    fetched = _run(env2, store2.fetch_image("p0", via_node_index=0))
    passes["corrupt_heal"] = {
        "bit_identical": fetched.to_bytes() == image2.to_bytes(),
        "corrupt_detected": store2.stats["corrupt_detected"],
        "healed": store2.stats["healed"],
        "local_verifies_again":
            digest_bytes(fs.load(chunk_path(digest))) == digest,
    }
    return passes


def tier_checks(tiers: dict) -> dict:
    """The tier bench's acceptance gates (also asserted in tier-1 by
    ``tests/test_bench_gates.py``)."""
    expected = {"healthy": "local", "node_crash": "partner",
                "partner_crash": "lustre"}
    tier_hits_ok = True
    prev_hits = {"local": 0, "partner": 0, "lustre": 0}
    for label, tier in expected.items():
        gained = {k: tiers[label]["hits"][k] - prev_hits[k]
                  for k in prev_hits}
        tier_hits_ok &= gained[tier] > 0 and all(
            v == 0 for k, v in gained.items() if k != tier)
        prev_hits = tiers[label]["hits"]
    rot = tiers["corrupt_heal"]
    return {
        "every fetch path bit-identical": all(
            tiers[k]["bit_identical"]
            for k in ("healthy", "node_crash", "partner_crash",
                      "corrupt_heal")),
        "fetches route to the expected tier": tier_hits_ok,
        "corruption detected and healed":
            rot["corrupt_detected"] >= 1
            and rot["healed"] == rot["corrupt_detected"]
            and rot["local_verifies_again"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="content-addressed multi-tier checkpoint store "
                    "benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="small configuration for CI (seconds)")
    parser.add_argument("--out", default="BENCH_store.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    dedup = dedup_bench(args.quick)
    tiers = tier_bench(args.quick)
    report = {"quick": args.quick, "dedup": dedup, "tiers": tiers}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")

    print(f"# dedup: {dedup['ranks']} ranks x "
          f"{dedup['regions_per_rank']} regions, "
          f"{dedup['dirty_fraction']:.0%} dirtied per epoch")
    print(f"{'epoch':>6} {'MB written':>11} {'new':>6} {'deduped':>8} "
          f"{'vs full':>8}")
    for row in dedup["epochs"]:
        frac = row["bytes_written"] / dedup["full_baseline_bytes"]
        print(f"{row['epoch']:>6} {row['bytes_written'] / 1e6:>11.2f} "
              f"{row['chunks_new']:>6.0f} {row['chunks_deduped']:>8.0f} "
              f"{frac:>7.2f}x")
    for label in ("healthy", "node_crash", "partner_crash"):
        row = tiers[label]
        print(f"# fetch[{label}]: {row['seconds']:.4f}s sim, hits "
              f"{row['hits']} bit_identical={row['bit_identical']}")
    rot = tiers["corrupt_heal"]
    print(f"# corrupt-heal: detected {rot['corrupt_detected']}, healed "
          f"{rot['healed']}, local verifies again: "
          f"{rot['local_verifies_again']}")

    checks = {
        f"incremental bytes <= {MAX_INCR_FRACTION}x full baseline":
            dedup["incr_fraction_worst"] <= MAX_INCR_FRACTION,
        **tier_checks(tiers),
    }
    ok = all(checks.values())
    for name, passed in checks.items():
        print(f"# {'PASS' if passed else 'FAIL'}: {name}")
    print(f"# report -> {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
