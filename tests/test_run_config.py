"""One run config: a job's checkpoint settings are chosen at launch and
travel with its checkpoints (DESIGN.md §7, "One run config").

Every restart path — revive, elastic, pre-copy migration, crash re-run
and post-copy — must bring the job back under the config it was
launched with, and no layer may declare a setting of its own.
"""

import ast
import inspect
from pathlib import Path

import pytest

from repro.apps.nas import lu_app
from repro.core import InfinibandPlugin
from repro.dmtcp import (CheckpointImage, CostModel, DmtcpProcess, RunConfig,
                         dmtcp_restart)
from repro.faults import FailureEvent, FixedSchedule, chaos_restart
from repro.faults.harness import run_chaos_nas
from repro.faults.recovery import ChaosGate, ChaosPlugin
from repro.hardware import BUFFALO_CCR
from repro.migrate import (MigrationManager, elastic_restart,
                           postcopy_restart, run_baseline_lu)
from repro.scenario import Scenario
from repro.store import CheckpointStore

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
SETTINGS = {"costs", "gzip", "incremental", "sink_factory"}

SEED, N, ITERS = 2014, 4, 6
COSTS = CostModel(drain_settle=1e-3)
CONFIG = RunConfig(costs=COSTS, gzip=False, incremental=True)


def _declarations(tree: ast.AST, rel: str):
    """Every function parameter and class-level annotated field named
    after a run setting, outside :class:`RunConfig`."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [a for a in (args.vararg, args.kwarg) if a]):
                if arg.arg in SETTINGS:
                    yield f"{rel}:{arg.lineno} parameter {arg.arg}"
        elif isinstance(node, ast.ClassDef) and node.name != "RunConfig":
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) \
                        and isinstance(stmt.target, ast.Name) \
                        and stmt.target.id in SETTINGS:
                    yield f"{rel}:{stmt.lineno} field {stmt.target.id}"


def test_run_settings_are_declared_once():
    """The four run settings live in RunConfig only.  The image format's
    gzip flag (``dmtcp/image.py``) and the BLCR baseline (``blcr/``) are
    not run settings."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "dmtcp/image.py" or rel.startswith("blcr/"):
            continue
        found.extend(_declarations(ast.parse(path.read_text()), rel))
    assert found == []


@pytest.mark.parametrize("restart", [dmtcp_restart, chaos_restart,
                                     postcopy_restart, elastic_restart])
def test_restarts_take_no_run_setting(restart):
    assert not SETTINGS & set(inspect.signature(restart).parameters)


def test_infiniband_plugin_takes_no_costs():
    assert "costs" not in inspect.signature(InfinibandPlugin).parameters


# -- every restart path runs under its launch config ---------------------------

def _move(restart, n_nodes=None):
    """Freeze the job with intent "restart", bring it back through
    ``restart`` on a fresh cluster, checkpoint it once more, run it to
    its end."""
    scn = Scenario(BUFFALO_CCR, N, "rc", ppn=1, seed=SEED, config=CONFIG)
    source = scn.cluster("src")
    specs = scn.mpi_specs(source, lu_app, klass="A", iters_sim=ITERS)

    def scenario():
        session = yield from scn.launch(source, specs)
        yield scn.env.timeout(0.25)
        _, session2, _, _ = yield from scn.move(
            session, source, lambda: scn.cluster("dst", n_nodes=n_nodes),
            restart=restart)
        if isinstance(session2, tuple):     # elastic: (session, node_map)
            session2 = session2[0]
        return (yield from _checkpoint_and_wait(scn.env, session2))

    return scn.run(scenario())


def _checkpoint_and_wait(env, session):
    yield env.timeout(0.05)
    yield from session.checkpoint(intent="resume")
    return (yield from session.wait())


def _revive():
    return _move(dmtcp_restart)


def _elastic():
    return _move(elastic_restart, n_nodes=2)


def _precopy():
    scn = Scenario(BUFFALO_CCR, N, "rc", ppn=1, seed=SEED, config=CONFIG)
    source = scn.cluster("src")
    specs = scn.mpi_specs(source, lu_app, klass="A", iters_sim=ITERS)

    def scenario():
        session = yield from scn.launch(source, specs)
        yield scn.env.timeout(0.25)
        result = yield from MigrationManager(
            session, scn.cluster("dst")).migrate()
        return (yield from _checkpoint_and_wait(scn.env, result.session))

    return scn.run(scenario())


def _crash_rerun():
    out = run_chaos_nas(app="lu", klass="A", nprocs=N, iters_sim=ITERS,
                        seed=SEED, ckpt_interval=0.2, config=CONFIG,
                        schedule=FixedSchedule([FailureEvent(
                            t=2.9, kind="node-crash", node_index=1)]))
    assert out.recovery.n_restarts == 1
    return out.recovery.results


def _postcopy():
    scn = Scenario(BUFFALO_CCR, N, "rc", ppn=1, seed=SEED, config=CONFIG)
    env = scn.env
    source = scn.cluster("src")
    specs = scn.mpi_specs(source, lu_app, klass="A", iters_sim=ITERS)
    gate = ChaosGate(env, world=N)

    def scenario():
        session = yield from scn.launch(
            source, specs, lambda: scn.plugins() + [ChaosPlugin(gate)])
        yield env.timeout(0.1)
        yield gate.request()
        ckpt = yield from session.checkpoint(intent="resume")
        scn.tracker.close()
        source.teardown()
        gate.reset()
        target = scn.cluster("dst")
        store = CheckpointStore(target)
        store.stage_from(ckpt)
        session2, pagers = yield from postcopy_restart(
            target, ckpt,
            scn.mpi_specs(target, lu_app, klass="A", iters_sim=ITERS),
            store, plugin_factory=scn.plugins, generation=2)
        results = yield from _checkpoint_and_wait(env, session2)
        for pager in pagers:
            pager.stop()
            pager.unwrap()
        store.stop()
        return results

    return scn.run(scenario())


@pytest.fixture(scope="module")
def failure_free_checksum():
    return run_baseline_lu(seed=SEED, nprocs=N, iters_sim=ITERS)["checksum"]


@pytest.mark.parametrize("path", [_revive, _elastic, _precopy,
                                  _crash_rerun, _postcopy],
                         ids=["revive", "elastic", "precopy", "crash-rerun",
                              "postcopy"])
def test_restart_runs_under_its_launch_config(path, monkeypatch,
                                              failure_free_checksum):
    """Launched incremental, without gzip and with a non-default cost
    model, the job keeps all three across the restart: the restarted
    ranks and their plugins hold the cost model, no capture is gzipped,
    and the first checkpoint after the restart recaptures only the
    chunks the job dirtied since."""
    procs, images = [], []
    init, capture = DmtcpProcess.__init__, CheckpointImage.capture.__func__

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        procs.append(self)

    def spy_capture(cls, *args, **kwargs):
        images.append(capture(cls, *args, **kwargs))
        return images[-1]

    monkeypatch.setattr(DmtcpProcess, "__init__", spy_init)
    monkeypatch.setattr(CheckpointImage, "capture",
                        classmethod(spy_capture))
    results = path()

    assert results[0].checksum == failure_free_checksum
    assert len(procs) == 2 * N      # the launched ranks, then the restarted
    for proc in procs:
        assert proc.config is CONFIG
        assert all(plugin.costs is COSTS for plugin in proc.plugins
                   if isinstance(plugin, InfinibandPlugin))
    assert images and not any(image.gzip for image in images)
    for proc in procs[N:]:
        stats = proc.last_record.image.capture_stats
        assert stats["mode"] == "incremental"
        assert stats["chunks_dirty"] < stats["chunks_total"]
