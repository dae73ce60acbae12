"""Fleet-as-a-service: the sharded async encode/decode frontend.

The serving layer (docs/service.md) behind ``repro serve``:

- :class:`~repro.service.server.FleetService` — asyncio job queues in
  front of sharded execution lanes, SLO-driven shed/reroute, graceful
  drain, and an optional stdlib HTTP surface (``/metrics``, ``/send``,
  ``/receive``, ...).
- :class:`~repro.service.shards.Shard` / :class:`FleetHost` — compute
  lanes over a shared simulated fleet; routing never changes device
  bits.
- :class:`~repro.service.admission.AdmissionController` — healthy-set
  bookkeeping on a :class:`~repro.faults.HealthLedger`.
- :class:`~repro.service.client.ServiceClient` /
  :class:`LoadGenerator` — the hardened HTTP client (timeouts, retries,
  circuit breaker, idempotency keys) and the deterministic
  send→receive→verify soak driver behind ``repro load``.
- :class:`~repro.service.ledger.Ledger` — the exactly-once ledger:
  idempotency cache, in-flight latching, the completed-seq frontier and
  every journal record.
- :class:`~repro.service.journal.Journal` and
  :mod:`~repro.service.recovery` — the write-ahead journal, fleet
  checkpoints and the crash-restart replay that make the service
  durable (``docs/service.md`` "Durability & recovery").
"""

from .admission import AdmissionController
from .client import CircuitBreaker, LoadGenerator, LoadReport, ServiceClient
from .journal import Journal, read_journal
from .ledger import Ledger
from .queue import BoundedJobQueue, Job
from .recovery import (
    RecoveryReport,
    latest_checkpoint,
    recover_components,
    results_digest,
)
from .server import FleetService, ServiceConfig, serve_forever
from .shards import FleetHost, Shard, ShardRouter, stable_seed

__all__ = [
    "AdmissionController",
    "BoundedJobQueue",
    "CircuitBreaker",
    "FleetHost",
    "FleetService",
    "Job",
    "Journal",
    "Ledger",
    "LoadGenerator",
    "LoadReport",
    "RecoveryReport",
    "ServiceClient",
    "ServiceConfig",
    "Shard",
    "ShardRouter",
    "latest_checkpoint",
    "read_journal",
    "recover_components",
    "results_digest",
    "serve_forever",
    "stable_seed",
]
