"""CodingScheme: validation, the paper preset, and the scheme-only channel
constructor."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    CodingScheme,
    ControlBoard,
    FrameFormat,
    InvisibleBits,
    RepetitionCode,
    make_device,
    paper_end_to_end_scheme,
)
from repro.errors import ConfigurationError

KEY = b"0123456789abcdef"


class TestCodingScheme:
    def test_defaults(self):
        scheme = CodingScheme()
        assert scheme.key is None
        assert scheme.ecc is None
        assert scheme.frame.framed
        assert scheme.n_captures == 5
        assert not scheme.encrypted

    def test_frozen(self):
        with pytest.raises(AttributeError):
            CodingScheme().n_captures = 7

    def test_bad_key_length_rejected(self):
        with pytest.raises(ConfigurationError):
            CodingScheme(key=b"short")

    @pytest.mark.parametrize("n", [0, -1, 2, 4])
    def test_even_or_nonpositive_captures_rejected(self, n):
        with pytest.raises(ConfigurationError):
            CodingScheme(n_captures=n)

    def test_cipher_binds_device_id(self):
        scheme = CodingScheme(key=KEY)
        a = scheme.cipher(b"\x01" * 16)
        b = scheme.cipher(b"\x02" * 16)
        bits = np.zeros(128, dtype=np.uint8)
        assert not np.array_equal(a.process_bits(bits), b.process_bits(bits))
        assert CodingScheme().cipher(b"\x01" * 16) is None

    def test_with_captures(self):
        scheme = CodingScheme(n_captures=5)
        assert scheme.with_captures(7).n_captures == 7
        assert scheme.n_captures == 5  # original untouched

    def test_describe_is_jsonable_provenance(self):
        import json

        desc = paper_end_to_end_scheme(KEY).describe()
        json.dumps(desc)
        assert desc["encrypted"] is True
        assert desc["ecc"].startswith("hamming(7,4)")
        assert desc["n_captures"] == 5

    def test_paper_preset(self):
        scheme = paper_end_to_end_scheme(KEY, copies=5, n_captures=7)
        assert scheme.key == KEY
        assert scheme.ecc.name == "hamming(7,4)+repetition(x5,block)"
        assert scheme.frame.framed
        assert scheme.n_captures == 7


class TestLegacyKwargs:
    """The loose ``key=``/``ecc=``/``frame=``/``n_captures=`` constructor
    keywords are gone: ``scheme=`` is the only way to configure a channel."""

    def _board(self, seed: int) -> ControlBoard:
        return ControlBoard(make_device("MSP432P401", rng=seed, sram_kib=1))

    def test_scheme_alone_does_not_warn(self, recwarn):
        InvisibleBits(
            self._board(1), scheme=CodingScheme(key=KEY), use_firmware=False
        )
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_scheme_plus_legacy_rejected(self):
        for legacy in (
            {"key": KEY},
            {"ecc": RepetitionCode(3)},
            {"frame": FrameFormat()},
            {"n_captures": 5},
        ):
            with pytest.raises(TypeError, match="unexpected keyword"):
                InvisibleBits(self._board(1), **legacy)
            with pytest.raises(TypeError, match="unexpected keyword"):
                InvisibleBits(self._board(1), scheme=CodingScheme(), **legacy)

    def test_properties_delegate_to_scheme(self):
        scheme = CodingScheme(
            key=KEY, ecc=RepetitionCode(3), frame=FrameFormat(), n_captures=7
        )
        channel = InvisibleBits(self._board(1), scheme=scheme, use_firmware=False)
        assert channel.key == KEY
        assert channel.ecc is scheme.ecc
        assert channel.frame is scheme.frame
        assert channel.n_captures == 7
