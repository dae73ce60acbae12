"""Receive-path tests for the scheme's ``decision`` knob.

``decision`` is receiver-side only: the encoded image is identical either
way, so one capture stack can be decoded under both modes and compared.
"""

import numpy as np
import pytest

from repro.core.pipeline import InvisibleBits
from repro.core.scheme import CodingScheme, paper_end_to_end_scheme
from repro.device import make_device
from repro.errors import ConfigurationError
from repro.faults import FaultInjector, transient_capture_plan
from repro.harness import ControlBoard

KEY = bytes(range(16))
MESSAGE = b"margins are data"


def make_channel(decision="hard", rng=31):
    device = make_device("MSP432P401", rng=rng, sram_kib=2)
    scheme = paper_end_to_end_scheme(KEY, copies=3).with_decision(decision)
    return InvisibleBits(
        ControlBoard(device), scheme=scheme, use_firmware=False
    )


class TestSchemeKnob:
    def test_default_is_hard(self):
        assert CodingScheme().decision == "hard"

    def test_with_decision_round_trip(self):
        scheme = CodingScheme()
        soft = scheme.with_decision("soft")
        assert soft.decision == "soft"
        assert scheme.decision == "hard"  # original untouched
        assert soft.with_decision("hard") == scheme

    def test_invalid_decision_rejected(self):
        with pytest.raises(ConfigurationError):
            CodingScheme(decision="fuzzy")

    def test_describe_includes_decision(self):
        assert CodingScheme(decision="soft").describe()["decision"] == "soft"


class TestReceiveModes:
    @pytest.mark.parametrize("decision", ["hard", "soft"])
    def test_round_trip(self, decision):
        channel = make_channel(decision)
        channel.send(MESSAGE)
        result = channel.receive()
        assert result.message == MESSAGE
        assert result.decision == decision

    def test_soft_result_metadata(self):
        channel = make_channel("soft")
        channel.send(MESSAGE)
        result = channel.receive()
        assert 0.0 < result.p_flip_estimate < 0.5
        # One vote round on a healthy channel; the histogram covers every
        # cell and only odd margins can occur with an odd vote.
        assert result.round_margin_hists == (result.vote_margin_hist,)
        assert sum(result.vote_margin_hist) == result.power_on_state.size
        assert result.vote_margin_hist[0] == 0
        prov = result.provenance()
        assert prov["decision"] == "soft"
        assert prov["p_flip_estimate"] == result.p_flip_estimate
        assert prov["round_margin_hists"] == [list(result.vote_margin_hist)]

    def test_hard_result_has_no_estimate(self):
        channel = make_channel("hard")
        channel.send(MESSAGE)
        result = channel.receive()
        assert result.p_flip_estimate is None
        assert result.decision == "hard"

    def test_modes_agree_on_voted_state(self):
        # decision is receiver-side: the state, raw diagnostics and (on a
        # healthy channel) the message must match across modes.
        sent_payload = {}
        results = {}
        for mode in ("hard", "soft"):
            channel = make_channel(mode, rng=47)
            sent_payload[mode] = channel.send(MESSAGE).payload_bits
            results[mode] = channel.receive(
                expected_payload=sent_payload[mode]
            )
        np.testing.assert_array_equal(
            sent_payload["hard"], sent_payload["soft"]
        )
        np.testing.assert_array_equal(
            results["hard"].power_on_state, results["soft"].power_on_state
        )
        assert results["hard"].raw_error_vs == results["soft"].raw_error_vs
        assert results["hard"].message == results["soft"].message == MESSAGE


class TestDecodeCaptures:
    @pytest.mark.parametrize("decision", ["hard", "soft"])
    def test_stack_round_trip(self, decision):
        channel = make_channel()
        channel.send(MESSAGE)
        samples = channel.capture_samples(5)
        offline = InvisibleBits(
            channel.board,
            scheme=channel.scheme.with_decision(decision),
            use_firmware=False,
        )
        result = offline.decode_captures(samples)
        assert result.message == MESSAGE
        assert result.decision == decision
        assert result.n_captures == 5

    def test_even_stack_drops_most_marginal_row(self):
        channel = make_channel("soft")
        channel.send(MESSAGE)
        result = channel.decode_captures(channel.capture_samples(4))
        assert result.message == MESSAGE
        assert result.n_captures == 3  # one row sat the vote out
        assert result.captures.shape[0] == 4  # ...but is still recorded

    def test_rejects_bad_shapes(self):
        channel = make_channel()
        with pytest.raises(ConfigurationError):
            channel.decode_captures(np.zeros(16, dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            channel.decode_captures(np.zeros((0, 16), dtype=np.uint8))


class TestDecodeState:
    def test_soft_scheme_without_ones_raises(self):
        # A voted state alone carries no margins: a soft scheme must
        # refuse rather than silently decode hard.
        channel = make_channel("soft")
        channel.send(MESSAGE)
        state = channel.receive().power_on_state
        with pytest.raises(ConfigurationError, match="ones="):
            channel.decode_state(state)
        # The hard view of the same channel decodes the voted state.
        channel.scheme = channel.scheme.with_decision("hard")
        result = channel.decode_state(state)
        assert result.message == MESSAGE
        assert result.decision == "hard"

    def test_soft_scheme_with_ones_decodes_soft(self):
        channel = make_channel("soft")
        channel.send(MESSAGE)
        samples = channel.capture_samples(5)
        from repro.bitutils import majority_vote

        state = majority_vote(samples)
        ones = samples.sum(axis=0, dtype=np.int64)
        result = channel.decode_state(state, ones=ones, n_captures=5)
        assert result.message == MESSAGE
        assert result.decision == "soft"
        assert result.p_flip_estimate is not None


class TestUnderFaults:
    @pytest.mark.parametrize("decision", ["hard", "soft"])
    def test_transient_plan_recovers(self, decision):
        # The chaos-smoke invariant holds in both decision modes; seed 0
        # lands a brownout in the first capture window so escalation
        # genuinely fires.
        channel = make_channel(decision, rng=77)
        channel.send(MESSAGE)
        channel.board.fault_injector = FaultInjector(
            transient_capture_plan(0.05, flaky_rate=0.02, seed=0)
        )
        result = channel.receive()
        assert result.message == MESSAGE
        assert result.decision == decision

    def test_escalation_accumulates_round_histograms(self):
        channel = make_channel("soft", rng=77)
        channel.send(MESSAGE)
        channel.board.fault_injector = FaultInjector(
            transient_capture_plan(0.05, flaky_rate=0.02, seed=0)
        )
        result = channel.receive()
        # One histogram per vote round; the last one is the final vote's.
        assert len(result.round_margin_hists) == result.escalation_rounds + 1
        assert result.escalation_rounds >= 1
        assert result.round_margin_hists[-1] == result.vote_margin_hist
        for hist in result.round_margin_hists:
            assert sum(hist) == result.power_on_state.size
