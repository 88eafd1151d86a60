"""Golden-trace tests: two canonical scenarios are pinned as
canonicalized JSONL traces under ``tests/golden_traces/``.

Comparison is *structural*: :func:`repro.obs.canonicalize` strips the
volatile keys (seq, sim/wall timestamps, durations, span ids) and keeps
event kinds, their order, the emitting process, and the deterministic
payload fields (region names and sizes, drain counts, replay balances,
...).  Any change to the instrumentation schema or the protocol's event
ordering shows up as a diff against the checked-in trace.

After an *intentional* schema change, regenerate with::

    PYTHONPATH=src python tests/test_obs_golden.py --regen
"""

import json
import os
import sys

import pytest

from repro.apps.pingpong import pingpong_app
from repro.core import InfinibandPlugin
from repro.dmtcp import AppSpec, dmtcp_launch, dmtcp_restart
from repro.faults.harness import run_chaos_nas
from repro.faults.schedule import FailureEvent, FixedSchedule
from repro.hardware import BUFFALO_CCR, Cluster
from repro.obs import canonicalize, check_trace_invariants, load_trace
from repro.obs.trace import traced
from repro.sim import Environment

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden_traces")


def pingpong_ckpt_restart_trace():
    """Two-rank verbs pingpong, frozen mid-flight with intent=restart,
    revived on a spare cluster — the paper's headline scenario."""
    with traced() as tracer:
        env = Environment()
        cluster = Cluster(env, BUFFALO_CCR, n_nodes=2,
                          name="golden-pp-prod")
        server = cluster.nodes[0].name
        specs = [
            AppSpec(0, "pp-server",
                    lambda ctx: pingpong_app(ctx, peer_host=None,
                                             is_server=True, iters=40)),
            AppSpec(1, "pp-client",
                    lambda ctx: pingpong_app(ctx, peer_host=server,
                                             is_server=False, iters=40)),
        ]

        def scenario():
            session = yield from dmtcp_launch(
                cluster, specs,
                plugin_factory=lambda: [InfinibandPlugin()])
            yield env.timeout(0.002)
            ckpt = yield from session.checkpoint(intent="restart")
            cluster.teardown()
            spare = Cluster(env, BUFFALO_CCR, n_nodes=2,
                            name="golden-pp-spare")
            session2 = yield from dmtcp_restart(spare, ckpt)
            results = yield from session2.wait()
            return results

        results = env.run(until=env.process(scenario()))
        assert all(r["errors"] == 0 for r in results)
    return tracer.events


def ft_crash_restart_trace():
    """NAS FT under chaos: a fatal node crash after the first completed
    checkpoint, recovered by a restart from the image."""
    with traced() as tracer:
        out = run_chaos_nas(app="ft", klass="B", nprocs=4, iters_sim=8,
                            seed=77, ckpt_interval=20.0,
                            schedule=FixedSchedule([FailureEvent(
                                t=60.0, kind="node-crash",
                                node_index=1)]),
                            backoff_base=0.25)
    assert out.recovery.n_restarts >= 1
    return tracer.events


def lu_precopy_migration_trace():
    """Canonical live migration: the LU job pre-copied over three forced
    rounds, frozen with intent=migrate, and revived preloaded on the
    target — pins the migrate/migrate.precopy.round/migrate.stopcopy
    span schema and their ordering."""
    from repro.migrate import run_precopy_lu
    with traced() as tracer:
        out = run_precopy_lu(seed=2014, nprocs=2, iters_sim=4, rounds=3)
    assert out["rounds"] == 3
    return tracer.events


SCENARIOS = {
    "pingpong_ckpt_restart": pingpong_ckpt_restart_trace,
    "ft_crash_restart": ft_crash_restart_trace,
    "lu_precopy_migration": lu_precopy_migration_trace,
}


def _golden_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.jsonl")


def recorded_trace(name, san):
    """The canonical trace of scenario ``name``.  Under the ChunkSan
    oracle ``san`` each audit adds one ``chunksan.check`` record: they
    must number exactly the audits it ran, and are dropped so the rest
    compares against the golden as if the oracle were off."""
    events = SCENARIOS[name]()
    if san is not None:
        audits = [e for e in events if e["kind"] == "chunksan.check"]
        assert len(audits) == san.checks > 0
        events = [e for e in events if e["kind"] != "chunksan.check"]
    return canonicalize(events)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_matches_golden(name, chunksan_oracle):
    recorded = recorded_trace(name, chunksan_oracle)
    golden = load_trace(_golden_path(name))
    assert len(recorded) == len(golden), (
        f"{name}: {len(recorded)} event(s) recorded vs {len(golden)} "
        "golden — regenerate only if the schema change is intentional")
    for i, (got, want) in enumerate(zip(recorded, golden)):
        assert got == want, f"{name}: event #{i} diverges"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_trace_is_invariant_clean(name):
    """The pinned traces themselves satisfy the ordering invariants
    (canonical form keeps order, kinds, and the balance fields)."""
    golden = load_trace(_golden_path(name))
    assert golden
    assert check_trace_invariants(golden) == []


def test_canonical_trace_is_deterministic():
    """Two same-seed runs canonicalize to the identical trace — the
    golden comparison is meaningful because nothing run-dependent
    survives canonicalization."""
    first = canonicalize(ft_crash_restart_trace())
    second = canonicalize(ft_crash_restart_trace())
    assert first == second


def regenerate():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, scenario in sorted(SCENARIOS.items()):
        path = _golden_path(name)
        events = canonicalize(scenario())
        with open(path, "w") as fh:
            for event in events:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
        print(f"wrote {len(events):5d} event(s) -> {path}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
