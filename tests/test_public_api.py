"""The public surface: the Quickstart runs verbatim, __all__ is honest."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import textwrap

import repro


def _quickstart_source() -> str:
    """Extract the literal Quickstart code block from repro.__doc__."""
    doc = repro.__doc__
    assert "Quickstart::" in doc
    block = doc.split("Quickstart::", 1)[1]
    lines = []
    for line in block.splitlines()[1:]:
        if line.strip() and not line.startswith("    "):
            break  # first unindented line ends the literal block
        lines.append(line)
    code = textwrap.dedent("\n".join(lines)).strip()
    assert code, "Quickstart block is empty"
    return code


def test_quickstart_runs_verbatim():
    code = _quickstart_source()
    assert "scheme=" in code  # the documented API is the scheme API
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(code, "<repro-quickstart>", "exec"), {})
    assert "meet at the dead drop at dawn" in stdout.getvalue()


def test_all_names_are_importable():
    missing = [name for name in repro.__all__ if not hasattr(repro, name)]
    assert missing == []


def test_star_import_matches_all():
    namespace: dict = {}
    exec("from repro import *", namespace)
    imported = {name for name in namespace if name != "__builtins__"}
    assert imported == set(repro.__all__)


def test_all_is_sorted_and_unique():
    assert len(repro.__all__) == len(set(repro.__all__))
    assert list(repro.__all__) == sorted(repro.__all__)


def test_new_api_exported():
    from repro import Captures, CodingScheme, paper_end_to_end_scheme, telemetry

    assert CodingScheme is repro.core.scheme.CodingScheme
    assert callable(paper_end_to_end_scheme)
    assert hasattr(telemetry, "trace") and hasattr(telemetry, "add_sink")
    assert Captures is not None


def test_configuration_surface_is_pinned():
    """The settings a caller can pass.  A new option changes this test on
    purpose; receiver policy (escalation, SLO limits, fsync batching)
    lives in module constants."""
    from repro.service import ServiceConfig

    def names(cls) -> "list[str]":
        return [f.name for f in dataclasses.fields(cls)]

    assert names(repro.CodingScheme) == [
        "key", "ecc", "frame", "n_captures", "decision",
    ]
    assert names(ServiceConfig) == [
        "shards", "queue_depth", "max_batch", "device_name", "sram_kib",
        "seed", "scheme", "fault_plan", "fault_shards", "host", "port",
        "journal_dir", "checkpoint_every", "max_resident",
        "probe_interval_s", "readmit_after",
    ]
    assert repro.CodingScheme().describe() == {
        "ecc": "identity",
        "ecc_rate": 1.0,
        "framed": True,
        "n_captures": 5,
        "capture_ceiling": 25,
        "encrypted": False,
        "decision": "hard",
    }
    paper = repro.paper_end_to_end_scheme(bytes(range(16)), copies=7)
    assert paper.describe() == {
        "ecc": "hamming(7,4)+repetition(x7,block)",
        "ecc_rate": 0.081633,
        "framed": True,
        "n_captures": 5,
        "capture_ceiling": 25,
        "encrypted": True,
        "decision": "hard",
    }
