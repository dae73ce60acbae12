"""Invisible Bits: the paper's primary contribution.

The end-to-end steganographic system of §4 and Figure 13: message
pre-processing (ECC, then encryption), SRAM analog-domain payload encoding,
power-on-state decoding, and post-processing — plus the planning,
steganalysis and adversary machinery of §5-§7.
"""

from .adversary import (
    AdversarialAgingResult,
    MultipleSnapshotAdversary,
    adversarial_aging_attack,
    normal_operation_effect,
    restore_encoding,
)
from .channel import ChannelModel, bsc_capacity, measure_channel_error
from .message import FrameFormat, build_payload, extract_message, extract_messages
from .pipeline import DecodeResult, EncodeResult, InvisibleBits
from .scheme import CodingScheme, paper_end_to_end_scheme
from .planner import (
    CapacityPoint,
    capacity_error_tradeoff,
    parallel_device_selection,
    plan_scheme,
)
from .steganalysis import SteganalysisReport, analyze_power_on_state, compare_device_populations

__all__ = [
    "AdversarialAgingResult",
    "ChannelModel",
    "CapacityPoint",
    "CodingScheme",
    "DecodeResult",
    "EncodeResult",
    "FrameFormat",
    "InvisibleBits",
    "MultipleSnapshotAdversary",
    "SteganalysisReport",
    "adversarial_aging_attack",
    "analyze_power_on_state",
    "bsc_capacity",
    "build_payload",
    "capacity_error_tradeoff",
    "compare_device_populations",
    "extract_message",
    "extract_messages",
    "measure_channel_error",
    "normal_operation_effect",
    "paper_end_to_end_scheme",
    "parallel_device_selection",
    "plan_scheme",
    "restore_encoding",
]
