"""The benches' own acceptance gates, asserted in tier-1 at their
``--quick`` sizes.

``bench_store.py --quick`` sat red from the change that made the store
write per-chunk digests back into the image until the one that fixed it:
the bench CI jobs run beside the tests, and nothing in tier-1 looked at
their verdicts.  Simulated results and bit-identity only, plus the one
wall-clock ratio the capture bench gates (incremental vs cold full, a
>10x effect against a 3x bar)."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..",
                                "benchmarks"))

import bench_ckpt_pipeline  # noqa: E402
import bench_store  # noqa: E402


def _failed(checks):
    return [name for name, ok in checks.items() if not ok]


def test_store_tier_bench_gates_hold():
    tiers = bench_store.tier_bench(quick=True)
    assert _failed(bench_store.tier_checks(tiers)) == []


@pytest.mark.no_chunksan   # times the capture path the oracle re-measures
def test_capture_microbench_gates_hold():
    micro = bench_ckpt_pipeline.microbench(quick=True)
    assert _failed(bench_ckpt_pipeline.micro_checks(micro)) == []
    # the rows mean what their names say: the cold capture compresses
    # every region, the warm recapture only the dirty tenth
    assert micro["full_recapture_s"] < micro["full_s"]
