"""Live migration (repro.migrate): pre-copy, post-copy, elastic.

Covers the three migration modes end to end on the seeded LU job —
bit-identical checksums against the non-migrating baseline, stop-and-
copy downtime strictly below a full checkpoint+restart cycle, forced
round counts with monotonically shrinking residue, elastic shrink and
expand, post-copy demand paging (with and without the prefetcher, and
through a Lustre brownout), migrate-disrupt recovery via the
RecoveryManager, the two migration trace invariants, and the seeded
backoff jitter.
"""

import types

import pytest

from repro.faults import RecoveryConfig, RecoveryManager
from repro.migrate import (
    MigrationConfig,
    elastic_node_map,
    run_baseline_lu,
    run_cycle_lu,
    run_elastic_lu,
    run_postcopy_lu,
    run_precopy_lu,
)
from repro.obs import check_trace_invariants, migration_summary, \
    render_migration, traced
from repro.sim import Environment, RngFactory

pytestmark = pytest.mark.chunksan

SEED, N, ITERS = 2014, 2, 4


@pytest.fixture(scope="module")
def baseline():
    return run_baseline_lu(seed=SEED, nprocs=N, iters_sim=ITERS)


@pytest.fixture(scope="module")
def cycle():
    return run_cycle_lu(seed=SEED, nprocs=N, iters_sim=ITERS)


# -- pre-copy ------------------------------------------------------------------

def test_precopy_bit_identical_and_beats_cycle(baseline, cycle):
    """The headline acceptance: a live pre-copy migration lands the job
    on the target bit-for-bit, with stop-and-copy downtime strictly
    below the offline checkpoint+restart cycle."""
    assert cycle["checksum"] == baseline["checksum"]
    mig = run_precopy_lu(seed=SEED, nprocs=N, iters_sim=ITERS)
    assert mig["checksum"] == baseline["checksum"]
    assert mig["downtime_seconds"] < cycle["cycle_seconds"]
    assert mig["rounds"] >= 1
    assert mig["downtime_seconds"] == \
        pytest.approx(mig["result"].downtime_seconds)


def test_precopy_forced_rounds_shrink_monotonically(baseline):
    """min_rounds == max_rounds forces an exact transferred round
    count; the emitted per-round byte series never grows (the manager
    refuses to ship a non-shrinking residue)."""
    for rounds in (1, 3):
        mig = run_precopy_lu(seed=SEED, nprocs=N, iters_sim=ITERS,
                             rounds=rounds)
        assert mig["checksum"] == baseline["checksum"]
        assert mig["rounds"] == rounds
        assert len(mig["round_bytes"]) == rounds
        series = mig["round_bytes"]
        assert all(b <= a + 1e-9 for a, b in zip(series, series[1:]))
        assert mig["precopy_bytes"] == pytest.approx(sum(series))


def test_precopy_custom_config_convergence_break(baseline):
    """With chunk-granularity dirty tracking the LU residue genuinely
    shrinks between rounds — round 2 ships only the boundary strips and
    the rotating relaxation slab, far below the full round-1 image — so
    a loose convergence ratio now admits extra rounds instead of
    collapsing to one, and the final (small) residue still rides the
    stop-and-copy."""
    mig = run_precopy_lu(
        seed=SEED, nprocs=N, iters_sim=ITERS,
        config=MigrationConfig(max_rounds=8, min_rounds=1,
                               convergence_ratio=0.9))
    assert mig["checksum"] == baseline["checksum"]
    assert mig["rounds"] >= 2
    series = mig["round_bytes"]
    assert series[1] < 0.9 * series[0]
    assert all(b <= a + 1e-9 for a, b in zip(series, series[1:]))
    assert mig["stopcopy_bytes"] > 0.0


# -- elastic -------------------------------------------------------------------

def test_elastic_node_map_is_round_robin_in_rank_order():
    records = [types.SimpleNamespace(rank=r, node_index=r)
               for r in range(4)]
    ckpt = types.SimpleNamespace(records=records)
    target = types.SimpleNamespace(nodes=[object(), object()])
    assert elastic_node_map(ckpt, target) == {0: 0, 1: 1, 2: 0, 3: 1}
    # expand: each source node gets its own target node
    wide = types.SimpleNamespace(nodes=[object()] * 8)
    assert elastic_node_map(ckpt, wide) == {0: 0, 1: 1, 2: 2, 3: 3}


def test_elastic_shrink_and_expand_parity(baseline):
    shrink = run_elastic_lu(seed=SEED, nprocs=4, iters_sim=ITERS,
                            target_nodes=2)
    base4 = run_baseline_lu(seed=SEED, nprocs=4, iters_sim=ITERS)
    assert shrink["checksum"] == base4["checksum"]
    assert shrink["node_map"] == {0: 0, 1: 1, 2: 0, 3: 1}
    expand = run_elastic_lu(seed=SEED, nprocs=N, iters_sim=ITERS,
                            target_nodes=4)
    assert expand["checksum"] == baseline["checksum"]


# -- post-copy -----------------------------------------------------------------

def test_postcopy_prefetch_parity(baseline):
    pc = run_postcopy_lu(seed=SEED, nprocs=N, iters_sim=ITERS)
    assert pc["checksum"] == baseline["checksum"]
    stats = pc["pager_stats"]
    assert stats["prefetched"] + stats["pageins"] > 0
    assert stats["retries"] == 0


def test_postcopy_demand_only_faults_every_touched_region(baseline):
    pc = run_postcopy_lu(seed=SEED, nprocs=N, iters_sim=ITERS,
                         prefetch=False)
    assert pc["checksum"] == baseline["checksum"]
    stats = pc["pager_stats"]
    assert stats["prefetched"] == 0
    assert stats["faults"] > 0 and stats["pageins"] > 0


def test_postcopy_outwaits_lustre_brownout():
    """Page-ins pinned to a browned-out Lustre tier retry with a delay
    until the outage heals — recovery by waiting, and still
    bit-identical."""
    from repro.hardware import MGHPCC
    with traced() as tracer:
        bo = run_postcopy_lu(seed=SEED, nprocs=N, iters_sim=ITERS,
                             brownout=True)
    base = run_baseline_lu(seed=SEED, nprocs=N, iters_sim=ITERS,
                           spec=MGHPCC)
    assert bo["checksum"] == base["checksum"]
    assert bo["pager_stats"]["retries"] > 0
    assert any(r.kind == "lustre-brownout" and r.applied
               for r in bo["failures"])
    assert check_trace_invariants(tracer.events) == []


@pytest.mark.parametrize("variant, completion, pager_stats", [
    ({}, 5.906916520101072,
     {"faults": 0, "pageins": 0, "prefetched": 20, "retries": 0}),
    ({"prefetch": False}, 6.280602245235682,
     {"faults": 21, "pageins": 20, "prefetched": 0, "retries": 0}),
    ({"brownout": True}, 5.7208689978131835,
     {"faults": 0, "pageins": 0, "prefetched": 20, "retries": 12}),
], ids=["prefetch", "demand-only", "brownout"])
def test_postcopy_timeline_is_pinned(variant, completion, pager_stats):
    """The post-copy restart's simulated timeline, to the last bit:
    completion time, pager counters and checksum of a 4-rank LU run."""
    pc = run_postcopy_lu(seed=SEED, nprocs=4, iters_sim=6, **variant)
    assert pc["completion_seconds"] == completion
    assert pc["pager_stats"] == pager_stats
    assert pc["checksum"] == 1.8539793412474145e+36


@pytest.mark.parametrize("runner, kwargs, pinned", [
    (run_baseline_lu, {}, {"completion_seconds": 1.4679551984612564}),
    (run_cycle_lu, {}, {"completion_seconds": 4.9732652599364044,
                        "cycle_seconds": 3.534577968696705}),
    (run_precopy_lu, {}, {"completion_seconds": 5.006235268915663,
                          "downtime_seconds": 1.80574157142857,
                          "rounds": 2}),
    (run_elastic_lu, {"target_nodes": 2},
     {"completion_seconds": 5.057208013801789,
      "node_map": {0: 0, 1: 1, 2: 0, 3: 1}}),
], ids=["baseline", "cycle", "precopy", "elastic-shrink"])
def test_migration_timelines_are_pinned(runner, kwargs, pinned):
    """Each migration runner's simulated timeline, to the last bit, on a
    4-rank LU run.  A cluster's name seeds its RNG, so renaming a cluster
    or reordering what a runner builds moves these."""
    out = runner(seed=SEED, nprocs=4, iters_sim=6, **kwargs)
    assert out["checksum"] == 1.8539793412474145e+36
    assert {key: out[key] for key in pinned} == pinned


def test_baseline_and_cycle_fixtures_are_pinned(baseline, cycle):
    assert baseline["checksum"] == cycle["checksum"] \
        == 1.8539461447185987e+36
    assert baseline["completion_seconds"] == 1.3700819036321892
    assert cycle["completion_seconds"] == 5.312741644515155
    assert cycle["cycle_seconds"] == 4.00547805622857


# -- migrate-disrupt -----------------------------------------------------------

def test_disrupt_target_crash_recovers_with_fresh_target(baseline):
    """A target-node crash mid-pre-copy aborts that attempt (the source
    is still running); the RecoveryManager retries onto a fresh target
    and the job still lands bit-identical."""
    with traced() as tracer:
        dis = run_precopy_lu(seed=SEED, nprocs=N, iters_sim=ITERS,
                             disrupt=True)
    assert any(r.kind == "node-crash" and r.applied
               for r in dis["failures"])
    assert dis["outcome"].n_failures >= 1
    assert dis["checksum"] == baseline["checksum"]
    assert check_trace_invariants(tracer.events) == []
    summary = migration_summary(tracer.events)
    assert summary["migrations"] == 1 and summary["aborted"] >= 1


# -- observability -------------------------------------------------------------

def test_traced_precopy_summary_and_invariants(baseline):
    with traced() as tracer:
        mig = run_precopy_lu(seed=SEED, nprocs=N, iters_sim=ITERS,
                             rounds=2)
    assert mig["checksum"] == baseline["checksum"]
    events = tracer.events
    assert check_trace_invariants(events) == []
    summary = migration_summary(events)
    assert summary["migrations"] == 1 and summary["aborted"] == 0
    assert summary["rounds"] == 2
    assert summary["downtime_seconds"] == \
        pytest.approx(mig["downtime_seconds"])
    # the downtime decomposition covers the whole window
    assert 0.0 < summary["freeze_seconds"] < summary["downtime_seconds"]
    assert summary["freeze_seconds"] + summary["xfer_restart_seconds"] \
        == pytest.approx(summary["downtime_seconds"])
    text = render_migration(summary)
    assert "migration" in text and "downtime" in text


def _ev(kind, ev, proc, t, **fields):
    return dict(kind=kind, ev=ev, proc=proc, t=t, **fields)


def test_precopy_shrink_invariant_flags_growing_round():
    events = [
        _ev("migrate", "B", "m", 0.0),
        _ev("migrate.precopy.round", "B", "m", 0.1, round=1, bytes=100.0),
        _ev("migrate.precopy.round", "B", "m", 0.2, round=2, bytes=200.0),
    ]
    violations = check_trace_invariants(events)
    assert len(violations) == 1 and "precopy-shrink" in violations[0]
    # a retry (fresh migrate span) legitimately starts over
    events.append(_ev("migrate", "B", "m", 0.3))
    events.append(_ev("migrate.precopy.round", "B", "m", 0.4,
                      round=1, bytes=300.0))
    assert len(check_trace_invariants(events)) == 1


def test_pagein_before_compute_invariant_flags_early_tick():
    bad = [
        _ev("migrate.fault", "P", "p0", 0.0, region="r0"),
        _ev("migrate.compute", "P", "p0", 0.1, outstanding=1),
    ]
    violations = check_trace_invariants(bad)
    assert len(violations) == 1 \
        and "pagein-before-compute" in violations[0]
    good = [
        _ev("migrate.fault", "P", "p0", 0.0, region="r0"),
        _ev("migrate.pagein", "B", "p0", 0.0, region="r0", mode="demand"),
        _ev("migrate.pagein", "E", "p0", 0.2, region="r0", mode="demand"),
        _ev("migrate.compute", "P", "p0", 0.2, outstanding=0),
    ]
    assert check_trace_invariants(good) == []


# -- seeded backoff jitter -----------------------------------------------------

def _manager(seed, jitter, name="chaos"):
    env = Environment()
    return RecoveryManager(
        env, lambda tag: None, lambda cluster: [],
        RecoveryConfig(ckpt_interval=1e9, backoff_base=0.1,
                       backoff_max=10.0, backoff_jitter=jitter),
        rng=RngFactory(seed), name=name)


def test_backoff_jitter_is_seeded_and_deterministic():
    """Jitter draws come from the reserved faults/ RNG namespace: same
    seed → bit-identical delays; different seed → different delays;
    jitter off → the exact capped exponential."""
    mgr_a, mgr_b = _manager(7, 0.5), _manager(7, 0.5)
    a = [mgr_a._backoff(k) for k in range(1, 7)]
    b = [mgr_b._backoff(k) for k in range(1, 7)]
    assert a == b
    mgr_c = _manager(8, 0.5)
    c = [mgr_c._backoff(k) for k in range(1, 7)]
    assert a != c
    mgr_exact = _manager(7, 0.0)
    exact = [mgr_exact._backoff(k) for k in range(1, 7)]
    assert exact == [min(10.0, 0.1 * 2.0 ** (k - 1))
                     for k in range(1, 7)]
    # jittered delays stay within the configured relative band
    for got, base in zip(a, exact):
        assert 0.5 * base <= got <= 1.5 * base
