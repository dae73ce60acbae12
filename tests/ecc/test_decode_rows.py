"""``Code.decode_rows``: the stacked decoder ``decode`` is the one-row case of."""

import numpy as np
import pytest

from repro import telemetry
from repro.ecc import Code, IdentityCode
from repro.errors import BlockLengthError
from repro.telemetry import RingBufferSink
from repro.verify.oracles import _code_catalog, _reference_decode


def _noisy_words(code, n_rows, blocks, seed):
    rng = np.random.default_rng(seed)
    words = []
    for _ in range(n_rows):
        data = rng.integers(0, 2, blocks * code.k).astype(np.uint8)
        word = code.encode(data)
        flips = rng.random(word.size) < rng.choice([0.0, 0.05, 0.15])
        words.append(word ^ flips.astype(np.uint8))
    return np.stack(words)


def _one_row_decode(code, word):
    """``decode`` on one word, with the counters it counts, in order."""
    sink = RingBufferSink(capacity=256)
    telemetry.add_sink(sink)
    try:
        with telemetry.trace("test.decode"):
            decoded = code.decode(word)
    finally:
        telemetry.remove_sink(sink)
    counted = [(r["name"], r["value"]) for r in sink.records(type="counter")]
    return decoded, counted


@pytest.mark.parametrize("name", list(_code_catalog()))
def test_decode_rows_equals_per_row_decode(name):
    code = _code_catalog()[name]()
    words = _noisy_words(code, 6, 3, seed=len(name))
    decoded, counts = code.decode_rows(words)
    assert decoded.shape == (6, words.shape[1] // code.n * code.k)
    assert decoded.dtype == np.uint8
    for index, word in enumerate(words):
        one, counted = _one_row_decode(code, word)
        assert decoded[index].tolist() == one.tolist()
        assert [(n, int(v[index])) for n, v in counts] == counted
        reference, reference_counts = _reference_decode(code, word)
        assert one.tolist() == reference.tolist()
        assert counted == reference_counts


@pytest.mark.parametrize("name", list(_code_catalog()))
def test_decode_rows_of_no_rows(name):
    code = _code_catalog()[name]()
    decoded, counts = code.decode_rows(np.zeros((0, 3 * code.n), dtype=np.uint8))
    assert decoded.shape == (0, 3 * code.k)
    assert all(values.size == 0 for _, values in counts)


def test_decode_counts_only_while_telemetry_is_active():
    code = _code_catalog()["paper-x3"]()
    word = code.encode(np.ones(8, dtype=np.uint8))
    sink = RingBufferSink(capacity=64)
    telemetry.add_sink(sink)
    try:
        with telemetry.mute():
            code.decode(word)
    finally:
        telemetry.remove_sink(sink)
    assert sink.records(type="counter") == []


def test_decode_rows_validates_its_stack():
    code = _code_catalog()["hamming74"]()
    with pytest.raises(BlockLengthError, match="n_rows, n_bits"):
        code.decode_rows(np.zeros(14, dtype=np.uint8))
    with pytest.raises(BlockLengthError, match="multiple of n=7"):
        code.decode_rows(np.zeros((2, 8), dtype=np.uint8))
    with pytest.raises(BlockLengthError, match="other than 0/1"):
        code.decode_rows(np.full((2, 7), 2, dtype=np.uint8))


def test_a_code_needs_decode_or_decode_rows():
    class Undecodable(Code):
        k = n = 1

        def encode(self, data):
            return data

    with pytest.raises(NotImplementedError, match="neither decode"):
        Undecodable().decode(np.zeros(4, dtype=np.uint8))


def test_identity_rows_are_copies():
    rows = np.ones((2, 4), dtype=np.uint8)
    decoded, counts = IdentityCode().decode_rows(rows)
    decoded[0, 0] = 0
    assert rows[0, 0] == 1 and counts == []
