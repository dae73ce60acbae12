"""Workload definitions, the seeded request generator, and the report math.

Every workload is a fixed number of operations, never a fixed duration:
fleet size is a property of the workload, so a fixed duration would let
a faster program grow a bigger fleet and penalise itself.  The requests
a round issues come only from :func:`build_requests`, a pure function of
``(workload, seed)``.

Importing this module does not import ``repro``: the request classes are
passed in by the caller, so the orchestrator can stay free of the
program under test.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

#: Every workload shares the paper-§5.3 provisioning recipe of the
#: existing soak: 8-byte messages, 24 h stress (raw-BER margin across a
#: process-varied fleet), two lanes (one per core of the reference VM).
MESSAGE_BYTES = 8
STRESS_HOURS = 24.0
SHARDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    #: Messages sent in the timed phase (one send + one receive each).
    messages: int = 0
    #: Devices staged during set-up (``hot_reread`` only).
    working_set: int = 0
    #: Receives issued in the timed phase against the working set.
    rereads: int = 0
    #: Requests in flight at once (closed loop: each waits for its reply).
    in_flight: int = 64
    #: Staged devices received again after the durable restart.
    restart_sample: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fresh_soak", messages=2000),
        Workload("hot_reread", working_set=256, rereads=6144),
        Workload("durable_http", messages=200, in_flight=2, restart_sample=16),
    )
}


def _message(workload: str, seed: int, index: int) -> bytes:
    digest = hashlib.blake2b(
        f"{workload}:{seed}:{index}".encode(), digest_size=32
    ).digest()
    return digest[:MESSAGE_BYTES]


@dataclass(frozen=True)
class RequestPlan:
    """Everything one round sends, in issue order per phase.

    ``staging`` runs during set-up, ``timed`` is the measured phase (a
    list of per-message op lists: ``[send, receive]`` or ``[receive]``),
    ``after_restart`` is received once the durable server relaunches.
    ``expected`` maps each device to the message it must read back.
    """

    staging: tuple
    timed: tuple
    after_restart: tuple
    expected: dict

    @property
    def timed_ops(self) -> int:
        return sum(len(ops) for ops in self.timed)


def build_requests(workload: str, seed: int, send_cls, receive_cls) -> RequestPlan:
    """The one source of requests for ``(workload, seed)``.

    ``send_cls`` / ``receive_cls`` are :class:`repro.api.SendRequest` and
    :class:`repro.api.ReceiveRequest`.  Device ids and payloads both
    derive from the seed, so another seed exercises other silicon.
    Durable requests carry deterministic idempotency keys, so the plan
    (not the client) fixes every byte the server receives.
    """
    spec = WORKLOADS[workload]
    keyed = workload == "durable_http"
    expected: dict = {}

    def send(index: int):
        device_id = f"{workload}-{seed}-{index:06d}"
        message = _message(workload, seed, index)
        expected[device_id] = message
        return send_cls(
            device_id=device_id,
            message=message,
            stress_hours=STRESS_HOURS,
            idempotency_key=f"bench-{seed}-{index}-send" if keyed else None,
        )

    def receive(device_id: str, key: "str | None" = None):
        return receive_cls(device_id=device_id, idempotency_key=key)

    if workload == "hot_reread":
        staging = tuple(send(i) for i in range(spec.working_set))
        ids = [r.device_id for r in staging]
        timed = tuple(
            (receive(ids[i % len(ids)]),) for i in range(spec.rereads)
        )
        return RequestPlan(staging, timed, (), expected)
    timed = []
    for index in range(spec.messages):
        request = send(index)
        key = f"bench-{seed}-{index}-recv" if keyed else None
        timed.append((request, receive(request.device_id, key)))
    after = tuple(
        receive(ops[0].device_id, f"bench-{seed}-{i}-restart")
        for i, ops in enumerate(timed[: spec.restart_sample])
    )
    return RequestPlan((), tuple(timed), after, expected)


# -- report math --------------------------------------------------------------


def percentile(samples, p: float) -> "float | None":
    """Nearest-rank ``p`` percentile (0 < p < 1), or ``None`` when fewer
    than ten samples lie beyond it — too few to say where it is."""
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(p * n))
    if n - rank < 10:
        return None
    return sorted(samples)[rank - 1]


def failed_share(*, attempted: int, errors: int, shed: int, mismatched: int,
                 lost: int) -> float:
    """Share of attempted ops that did not end in a verified result."""
    if attempted < 1:
        raise ValueError(f"attempted must be >= 1, got {attempted}")
    return (errors + shed + mismatched + lost) / attempted


def tail_rate(done_at) -> "float | None":
    """Ops per second over the final quarter of the completion times
    (``None`` with fewer than four completions)."""
    times = sorted(done_at)
    if len(times) < 4:
        return None
    start = times[(3 * len(times)) // 4 - 1]
    count = len(times) - (3 * len(times)) // 4
    span = times[-1] - start
    return count / span if span > 0 else None


def quarter_bounds(done_at, t0: float) -> "list[tuple[float, float]]":
    """Wall-clock windows of the four quarters of the timed ops."""
    times = sorted(done_at)
    n = len(times)
    edges = [t0] + [times[(q * n) // 4 - 1] for q in (1, 2, 3)] + [times[-1]]
    return list(zip(edges[:-1], edges[1:]))
