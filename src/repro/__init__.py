"""Invisible Bits — a full-system reproduction of Mahmod & Hicks, ASPLOS 2022.

Hide messages in the analog domain of SRAM by directing NBTI aging, and
recover them from power-on states.  The physical devices of the paper are
replaced by a calibrated physics simulator (see DESIGN.md section 2);
everything host-side — ECC, AES-CTR, statistics, planning — is implemented
in full and usable against real captures.

Quickstart::

    from repro import InvisibleBits, make_device, ControlBoard, paper_end_to_end_scheme

    device = make_device("MSP432P401", rng=1, sram_kib=8)
    board = ControlBoard(device)
    scheme = paper_end_to_end_scheme(key=b"0123456789abcdef")
    channel = InvisibleBits(board, scheme=scheme)
    channel.send(b"meet at the dead drop at dawn")
    print(channel.receive().message)

To see what the channel did — spans for stress, capture, vote, decrypt and
ECC decode, with per-capture bit error rates — attach a telemetry sink
before sending (see :mod:`repro.telemetry` and ``docs/telemetry.md``), or
run any CLI command under ``repro --trace out.jsonl ...`` and inspect it
with ``repro telemetry summarize out.jsonl``.
"""

import importlib
import os

from . import api, metrics, service, telemetry
from .api import (
    ReceiveRequest,
    ReceiveResult,
    SendRequest,
    SendResult,
    bits_digest,
)
from .bitutils import (
    Captures,
    bit_error_rate,
    bits_to_bytes,
    bytes_to_bits,
    hamming_distance,
    hamming_weight,
    invert_bits,
    majority_vote,
)
from .core import (
    ChannelModel,
    CodingScheme,
    DecodeResult,
    EncodeResult,
    FrameFormat,
    InvisibleBits,
    MultipleSnapshotAdversary,
    SteganalysisReport,
    adversarial_aging_attack,
    analyze_power_on_state,
    bsc_capacity,
    capacity_error_tradeoff,
    compare_device_populations,
    measure_channel_error,
    normal_operation_effect,
    paper_end_to_end_scheme,
    parallel_device_selection,
    plan_scheme,
    restore_encoding,
)
from .crypto import AES, AesCbc, AesCtr, NormalOperationPrng, nonce_from_device_id
from .device import (
    DebugPort,
    Device,
    DeviceSpec,
    EncodingRecipe,
    all_device_specs,
    device_spec,
    make_device,
)
from .ecc import (
    BCHCode,
    BlockInterleaver,
    Code,
    ConcatenatedCode,
    HammingCode,
    RepetitionCode,
    hamming_3_1,
    hamming_7_4,
)
from .ecc.product import paper_end_to_end_code
from .errors import (
    AdmissionError,
    CircuitOpenError,
    JournalError,
    QuarantinedDeviceError,
    ReproError,
    RetryExhaustedError,
    ServiceError,
    ServiceStoppedError,
    ServiceUnavailableError,
)
from .faults import (
    FaultInjector,
    FaultPlan,
    HealthLedger,
    RetryPolicy,
    transient_capture_plan,
)
from .harness import ControlBoard, PowerSupply, ThermalChamber
from .harness.rack import EncodingRack, SlotResult
from .io import load_captures, save_captures
from .metrics import MetricsRegistry, TelemetryBridge
from .service import (
    FleetService,
    LoadGenerator,
    ServiceClient,
    ServiceConfig,
    serve_forever,
)
from .puf import (
    FuzzyExtractor,
    PowerOnTrng,
    SramPuf,
    clone_power_on_state,
    degrade_puf,
)
from .sram import SRAMArray, TechnologyProfile
from .stats import morans_i, normalized_entropy, shannon_entropy, welch_t_test

__version__ = "1.0.0"

if os.environ.get("REPRO_PROFILE"):
    # Importing the profiler starts the global profiler REPRO_PROFILE asks
    # for, from import to interpreter exit.
    from . import profile


def __getattr__(name: str):
    # Exports the serving path never uses resolve on first access, so
    # ``import repro.service`` compiles neither the verify harness nor the
    # monitor.
    if name in ("monitor", "profile", "verify"):
        return importlib.import_module(f".{name}", __name__)
    if name in ("AlertRule", "FleetMonitor", "default_slo_rules"):
        return getattr(importlib.import_module(".monitor", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AES",
    "AdmissionError",
    "AesCbc",
    "AesCtr",
    "AlertRule",
    "BCHCode",
    "BlockInterleaver",
    "Captures",
    "ChannelModel",
    "CircuitOpenError",
    "Code",
    "CodingScheme",
    "ConcatenatedCode",
    "ControlBoard",
    "DebugPort",
    "DecodeResult",
    "Device",
    "DeviceSpec",
    "EncodeResult",
    "EncodingRack",
    "EncodingRecipe",
    "FaultInjector",
    "FaultPlan",
    "FleetMonitor",
    "FleetService",
    "FrameFormat",
    "FuzzyExtractor",
    "HammingCode",
    "HealthLedger",
    "InvisibleBits",
    "JournalError",
    "LoadGenerator",
    "MetricsRegistry",
    "MultipleSnapshotAdversary",
    "NormalOperationPrng",
    "PowerOnTrng",
    "PowerSupply",
    "QuarantinedDeviceError",
    "ReceiveRequest",
    "ReceiveResult",
    "RepetitionCode",
    "ReproError",
    "RetryExhaustedError",
    "RetryPolicy",
    "SRAMArray",
    "SendRequest",
    "SendResult",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceStoppedError",
    "ServiceUnavailableError",
    "SlotResult",
    "SramPuf",
    "SteganalysisReport",
    "TechnologyProfile",
    "TelemetryBridge",
    "ThermalChamber",
    "__version__",
    "adversarial_aging_attack",
    "all_device_specs",
    "analyze_power_on_state",
    "api",
    "bit_error_rate",
    "bits_digest",
    "bits_to_bytes",
    "bsc_capacity",
    "bytes_to_bits",
    "capacity_error_tradeoff",
    "clone_power_on_state",
    "compare_device_populations",
    "default_slo_rules",
    "degrade_puf",
    "device_spec",
    "hamming_3_1",
    "hamming_7_4",
    "hamming_distance",
    "hamming_weight",
    "invert_bits",
    "load_captures",
    "majority_vote",
    "make_device",
    "measure_channel_error",
    "metrics",
    "monitor",
    "morans_i",
    "nonce_from_device_id",
    "normal_operation_effect",
    "normalized_entropy",
    "paper_end_to_end_code",
    "paper_end_to_end_scheme",
    "parallel_device_selection",
    "plan_scheme",
    "profile",
    "restore_encoding",
    "save_captures",
    "serve_forever",
    "service",
    "shannon_entropy",
    "telemetry",
    "transient_capture_plan",
    "verify",
    "welch_t_test",
]
