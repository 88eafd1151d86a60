"""Ablation: the drain settle delay (paper §4).

The plugin re-drains the completion queues after a settle delay until a
whole round is globally quiet.  A longer settle makes checkpoints slower;
the delay must comfortably exceed the completion-skew (one ack latency)
or late completions would be missed.  This sweeps the knob and shows the
checkpoint-time cost is linear in the settle while correctness holds."""

import numpy as np
from conftest import run_once

from repro.apps.nas import lu_app
from repro.dmtcp import CostModel, RunConfig
from repro.experiments.runner import run_nas
from repro.hardware import BUFFALO_CCR

SETTLES = [0.1e-3, 0.5e-3, 2e-3, 10e-3, 50e-3]


def test_ablation_drain_settle(benchmark):
    def sweep():
        results = []
        for settle in SETTLES:
            costs = CostModel(drain_settle=settle)
            out = run_nas(lu_app, BUFFALO_CCR, 4, ppn=1, under="dmtcp",
                          app_kwargs={"klass": "A", "iters_sim": 12},
                          checkpoint_after=1.0, restart=True,
                          config=RunConfig(costs=costs))
            results.append((settle, out))
        return results

    results = run_once(benchmark, sweep)
    print()
    print(f"{'settle(ms)':>10}  {'ckpt(s)':>8}  {'checksum':>14}")
    baseline = results[0][1].checksum
    for settle, out in results:
        print(f"{settle * 1e3:10.1f}  {out.ckpt_seconds:8.3f}  "
              f"{out.checksum:14.4f}")
        # correctness never depends on the settle (the coordinator's
        # global-quiet protocol absorbs the skew)
        assert out.checksum == baseline
    # checkpoint time grows monotonically with the settle delay
    times = [out.ckpt_seconds for _, out in results]
    assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))
    # and the 50ms settle costs visibly more than the 0.1ms one
    assert times[-1] > times[0] + 0.04
