"""The repro.api façade: exact ``__all__``, validation, wire round-trips."""

from __future__ import annotations

import numpy as np
import pytest

from repro import api
from repro.api import (
    ReceiveRequest,
    ReceiveResult,
    SendRequest,
    SendResult,
    bits_digest,
    receive_result,
    send_result,
)
from repro.errors import ConfigurationError


def _public_names(module) -> set:
    import types

    return {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and not isinstance(obj, types.ModuleType)
        and getattr(obj, "__module__", module.__name__) == module.__name__
    }


def test_all_is_exact():
    """Everything public in the façade is exported, and nothing else."""
    assert set(api.__all__) == _public_names(api)
    assert api.__all__ == sorted(api.__all__)
    assert len(set(api.__all__)) == len(api.__all__)


def test_star_import_gets_the_facade():
    namespace: dict = {}
    exec("from repro.api import *", namespace)
    assert set(api.__all__) <= set(namespace)


def test_facade_is_reexported_at_top_level():
    import repro

    for name in ("SendRequest", "SendResult", "ReceiveRequest",
                 "ReceiveResult", "bits_digest"):
        assert getattr(repro, name) is getattr(api, name)


# -- bits_digest -------------------------------------------------------------------


def test_bits_digest_stable_and_length_aware():
    bits = np.array([1, 0, 1, 1], dtype=np.uint8)
    assert bits_digest(bits) == bits_digest(bits.copy())
    assert len(bits_digest(bits)) == 16
    # Same packed bytes, different bit count -> different digest.
    assert bits_digest([1, 0]) != bits_digest([1, 0, 0])


def test_bits_digest_rejects_2d():
    with pytest.raises(ConfigurationError):
        bits_digest(np.zeros((2, 2), dtype=np.uint8))


# -- request validation ------------------------------------------------------------


def test_send_request_validation():
    with pytest.raises(ConfigurationError):
        SendRequest(device_id="", message=b"x")
    with pytest.raises(ConfigurationError):
        SendRequest(device_id="d", message=b"")
    with pytest.raises(ConfigurationError):
        SendRequest(device_id="d", message="not bytes")  # type: ignore[arg-type]
    with pytest.raises(ConfigurationError):
        SendRequest(device_id="d", message=b"x", stress_hours=0)


def test_receive_request_validation():
    with pytest.raises(ConfigurationError):
        ReceiveRequest(device_id="")
    with pytest.raises(ConfigurationError):
        ReceiveRequest(device_id="d", message_len=0)


def test_requests_are_frozen():
    request = SendRequest(device_id="d", message=b"x")
    with pytest.raises(AttributeError):
        request.device_id = "other"  # type: ignore[misc]


# -- wire round-trips --------------------------------------------------------------


def test_send_request_dict_roundtrip():
    request = SendRequest(
        device_id="dev-1", message=b"\x00\xff", stress_hours=2.5,
        camouflage=False,
    )
    assert SendRequest.from_dict(request.to_dict()) == request
    with pytest.raises(ConfigurationError):
        SendRequest.from_dict({"device_id": "d"})  # no message_hex


def test_receive_request_dict_roundtrip():
    request = ReceiveRequest(device_id="dev-2", message_len=12)
    assert ReceiveRequest.from_dict(request.to_dict()) == request


def test_send_result_dict_roundtrip():
    result = SendResult(
        device_id="dev-3", message_bytes=8, coded_bits=1024,
        stress_hours=12.0, encrypted=True, payload_digest="ab" * 8,
        shard="shard-1",
    )
    assert SendResult.from_dict(result.to_dict()) == result


def test_receive_result_dict_roundtrip():
    result = ReceiveResult(
        device_id="dev-4", message=b"hi", n_captures=5, total_captures=7,
        raw_ber=0.06, ecc_corrections=3, escalation_rounds=1,
        degraded=False, state_digest="cd" * 8, shard=None,
    )
    data = result.to_dict()
    assert "message" not in data and data["message_hex"] == b"hi".hex()
    assert ReceiveResult.from_dict(data) == result


def _asdict_reference(result) -> dict:
    """The ``dataclasses.asdict`` wire form the explicit ``to_dict``
    replaced: every field in declaration order, ``message`` last as hex."""
    from dataclasses import asdict

    data = asdict(result)
    if "message" in data:
        data["message_hex"] = data.pop("message").hex()
    return data


@pytest.mark.parametrize(
    "result",
    [
        SendResult(
            device_id="dev-3", message_bytes=8, coded_bits=1024,
            stress_hours=12.0, encrypted=True, payload_digest="ab" * 8,
            shard="shard-1",
        ),
        SendResult(
            device_id="d", message_bytes=0, coded_bits=0, stress_hours=0.0,
            encrypted=False, payload_digest="", shard=None,
        ),
        ReceiveResult(
            device_id="dev-4", message=b"hi", n_captures=5, total_captures=7,
            raw_ber=0.06, ecc_corrections=3, escalation_rounds=1,
            degraded=True, state_digest="cd" * 8, shard="replay",
        ),
        ReceiveResult(
            device_id="dev-5", message=b"", n_captures=1, total_captures=1,
            raw_ber=None, ecc_corrections=None, escalation_rounds=0,
            degraded=False, state_digest="", shard=None,
        ),
    ],
    ids=["send", "send-empty", "receive", "receive-none-empty"],
)
def test_result_to_dict_matches_the_asdict_wire_form(result):
    """Journal records and HTTP bodies stay byte-identical: same keys,
    same order, same values as the ``asdict`` form."""
    import json

    data = result.to_dict()
    reference = _asdict_reference(result)
    assert list(data) == list(reference)
    assert json.dumps(data) == json.dumps(reference)


# -- converters against the real pipeline ------------------------------------------


def test_converters_match_pipeline_results(small_board):
    from repro.core.pipeline import InvisibleBits
    from repro.core.scheme import paper_end_to_end_scheme

    channel = InvisibleBits(
        small_board, scheme=paper_end_to_end_scheme(copies=7),
        use_firmware=False,
    )
    encode = channel.send(b"facade")
    sent = send_result("dev-9", encode, shard="shard-0")
    assert sent.message_bytes == 6
    assert sent.coded_bits == encode.coded_bits
    assert sent.shard == "shard-0"
    assert sent.payload_digest == bits_digest(encode.payload_bits)

    decode = channel.receive(expected_payload=encode.payload_bits)
    received = receive_result("dev-9", decode)
    assert received.message == b"facade"
    assert received.raw_ber == decode.raw_error_vs
    assert received.state_digest == bits_digest(decode.power_on_state)
    assert received.shard is None


def test_handle_send_and_receive_round_trip(small_board):
    from repro.core.pipeline import InvisibleBits
    from repro.core.scheme import paper_end_to_end_scheme

    channel = InvisibleBits(
        small_board, scheme=paper_end_to_end_scheme(copies=7),
        use_firmware=False,
    )
    sent = channel.handle_send(
        SendRequest(device_id="dev-7", message=b"typed path")
    )
    assert isinstance(sent, SendResult)
    assert sent.device_id == "dev-7"
    received = channel.handle_receive(ReceiveRequest(device_id="dev-7"))
    assert isinstance(received, ReceiveResult)
    assert received.message == b"typed path"
