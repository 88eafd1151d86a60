"""One scenario: the environment, clusters and job an end-to-end run
builds, in one place.

Every harness that drives a job end to end — the table runners, the
migration and chaos runners, the scaling bench — makes the same things
in the same order: an :class:`~repro.sim.Environment`, an optional
seeded :class:`~repro.sim.RngFactory`, one or more clusters sized for
``nprocs`` ranks at ``ppn`` per node, the ranks' specs, the InfiniBand
plugin, and a :class:`~repro.dmtcp.launcher.JobTracker` to reap the
job's flows once the run is over.  :class:`Scenario` owns those.

A cluster's name seeds its RNG (``rng.child(name)``), so the names a
scenario gives — ``name`` or ``f"{name}-{tag}"`` — are part of every
run's determinism, as is the order clusters, sinks and processes are
made in.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Generator, Optional

from .core import InfinibandPlugin
from .dmtcp import RunConfig, dmtcp_launch, dmtcp_restart
from .dmtcp.launcher import JobTracker
from .hardware import Cluster, HardwareSpec
from .mpi import make_mpi_specs
from .sim import Environment, RngFactory

__all__ = ["Scenario"]


class Scenario:
    """The environment, RNG, node count, tracker and run config of one
    run of ``nprocs`` ranks on ``spec`` hardware.  ``seed=None`` leaves
    each cluster its spec's default RNG."""

    def __init__(self, spec: HardwareSpec, nprocs: int, name: str, *,
                 ppn: Optional[int] = None, seed: Optional[int] = None,
                 config: RunConfig = RunConfig()):
        self.env = Environment()
        self.rng = RngFactory(seed) if seed is not None else None
        self.spec = spec
        self.nprocs = nprocs
        self.name = name
        self.ppn = ppn or spec.cores_per_node
        self.n_nodes = max(1, -(-nprocs // self.ppn))
        self.tracker = JobTracker()
        self.config = config

    def cluster(self, tag: Optional[str] = None, *,
                spec: Optional[HardwareSpec] = None,
                n_nodes: Optional[int] = None) -> Cluster:
        """A cluster named ``name`` or ``f"{name}-{tag}"``."""
        return Cluster(self.env, spec or self.spec,
                       n_nodes=self.n_nodes if n_nodes is None else n_nodes,
                       rng=self.rng,
                       name=self.name if tag is None
                       else f"{self.name}-{tag}")

    def mpi_specs(self, cluster: Cluster, app: Callable, **app_kwargs):
        """The ranks' specs: ``app(ctx, comm, **app_kwargs)`` on each."""
        return make_mpi_specs(cluster, self.nprocs,
                              partial(app, **app_kwargs), ppn=self.ppn)

    def plugins(self) -> list:
        """A fresh plugin stack for one rank: the InfiniBand plugin."""
        return [InfinibandPlugin()]

    def launch(self, cluster: Cluster, specs,
               plugin_factory: Optional[Callable[[], list]] = None,
               **kw) -> Generator:
        """Process generator: :func:`~repro.dmtcp.dmtcp_launch` under this
        scenario's run config and tracker (plugins: :meth:`plugins`)."""
        return dmtcp_launch(cluster, specs,
                            plugin_factory=plugin_factory or self.plugins,
                            config=self.config, tracker=self.tracker, **kw)

    def move(self, session, source: Cluster, target: Callable[[], Cluster],
             restart=dmtcp_restart, **kw) -> Generator:
        """Process generator: checkpoint ``session`` with intent
        "restart", tear ``source`` down, build ``target()`` and
        ``restart`` the job there.  Returns ``(ckpt, restarted,
        t_stop, t0)``: the checkpoint, what ``restart`` returned, and the
        clock before the checkpoint and before the restart."""
        t_stop = self.env.now
        ckpt = yield from session.checkpoint(intent="restart")
        source.teardown()
        cluster = target()
        t0 = self.env.now
        restarted = yield from restart(cluster, ckpt, **kw)
        return ckpt, restarted, t_stop, t0

    def run(self, gen: Generator):
        """Run ``gen`` as a process to its end, then reap the job's
        flows; returns the process's value."""
        value = self.env.run(until=self.env.process(gen))
        self.tracker.kill_all()
        return value
