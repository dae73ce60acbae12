"""Deterministic fault injection and the recovery machinery around it.

The paper's channel is *defined* by its error sources (manufacturing
mismatch floor, natural recovery, normal-operation wear); this package
adds the bench-level ones a real deployment meets — brownouts
mid-capture, stuck-at regions, drifting thermal chambers, interrupted
stress epochs, flaky debug ports — as seeded, composable
:class:`FaultModel` s bundled into a :class:`FaultPlan`, plus the pieces
that let the pipeline degrade gracefully under them:

- :class:`FaultInjector` — turns a plan into a deterministic live fault
  schedule at the :class:`~repro.harness.controlboard.ControlBoard` hook
  points (never touching physics code);
- :class:`RetryPolicy` — capped exponential backoff with deterministic
  jitter and errors.py-derived retryability, used by the capture path
  and by :meth:`repro.core.pipeline.InvisibleBits.receive`'s adaptive
  capture escalation;
- :class:`HealthLedger` — consecutive-failure quarantine for
  :class:`~repro.harness.rack.EncodingRack` fleets and the service's
  lane admission.

Chaos-test quickly::

    from repro.faults import transient_capture_plan, FaultInjector

    board = ControlBoard(device, fault_injector=FaultInjector(
        transient_capture_plan(rate=0.05, flaky_rate=0.02, seed=7)))
    channel = InvisibleBits(board, scheme=paper_end_to_end_scheme(key))
    result = channel.receive()           # self-heals; see provenance()
    print(result.provenance()["escalation"])

Setting ``REPRO_FAULT_PLAN`` (a JSON plan path or a compact spec like
``flaky:0.02``) makes every new ``ControlBoard`` fault-injected by
default — how CI runs its chaos smoke.  See docs/faults.md.
"""

from __future__ import annotations

from .health import HealthLedger
from .injector import FaultInjector
from .models import (
    CaptureBrownout,
    FaultModel,
    FlakyDebugPort,
    InterruptedStress,
    SetpointDrift,
    StuckRegion,
    model_from_dict,
)
from .plan import FaultPlan, plan_from_env, transient_capture_plan
from .retry import RetryPolicy, is_retryable

__all__ = [
    "CaptureBrownout",
    "FaultInjector",
    "FaultModel",
    "FaultPlan",
    "FlakyDebugPort",
    "HealthLedger",
    "InterruptedStress",
    "RetryPolicy",
    "SetpointDrift",
    "StuckRegion",
    "is_retryable",
    "model_from_dict",
    "plan_from_env",
    "transient_capture_plan",
]
