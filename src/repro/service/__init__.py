"""repro.service: a shared, long-lived, multi-tenant checkpoint service.

Promotes :class:`repro.store.CheckpointStore` from a per-job sidecar to
cluster infrastructure (DESIGN §16):

* :class:`ShardedChunkIndex` — the content-addressed chunk index,
  sharded by digest with per-shard locks and stats, so hundreds of
  concurrent jobs dedup against each other without a global lock;
* :class:`AdmissionController` — per-tenant byte quotas layered on
  :class:`~repro.hardware.FileSystem` capacity, with FIFO backpressure
  when the ingest tier saturates and a conservation ledger
  (``bytes_admitted == bytes_stored + bytes_rejected``) checked as a
  trace invariant;
* :class:`CheckpointService` / :class:`TenantStoreClient` — the service
  proper plus the per-(tenant, job) facade that plugs into the existing
  ``sink=`` seam of ``dmtcp_launch`` / ``dmtcp_restart`` /
  :class:`~repro.faults.RecoveryManager`;
* :class:`GangScheduler` — a Poisson stream of gang-scheduled jobs over
  a node-slot pool, with preemption-via-checkpoint and bit-identical
  restart-on-resume.
"""

from .admission import (AdmissionController, AdmissionRejected,
                        TenantState)
from .index import ShardedChunkIndex, ShardStats
from .scheduler import (GangScheduler, JobOutcome, ServiceJob, WORKLOADS,
                        job_mix, pingpong_mpi_app, poisson_arrivals,
                        service_scenario)
from .service import (CheckpointService, EPOCH_BASE_STEP,
                      TenantStoreClient)

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "CheckpointService",
    "EPOCH_BASE_STEP",
    "GangScheduler",
    "JobOutcome",
    "ServiceJob",
    "ShardedChunkIndex",
    "ShardStats",
    "TenantState",
    "TenantStoreClient",
    "WORKLOADS",
    "job_mix",
    "pingpong_mpi_app",
    "poisson_arrivals",
    "service_scenario",
]
