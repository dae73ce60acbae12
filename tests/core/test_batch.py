"""Unit tests for fleet encoding and selection (§5.3 workflow)."""

import pytest

from repro.core.batch import encode_fleet
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def fleet():
    return encode_fleet(n_devices=5, sram_kib=1, rng=3)


def test_members_ranked_by_error(fleet):
    errors = fleet.errors
    assert errors == sorted(errors)
    assert fleet.winner.measured_error == errors[0]


def test_winner_beats_the_mean(fleet):
    mean = sum(fleet.errors) / len(fleet.errors)
    assert fleet.winner.measured_error <= mean


def test_scheme_meets_target(fleet):
    from repro.ecc.analysis import exact_residual_ber, repetition_residual_error
    from repro.ecc import RepetitionCode

    code = fleet.scheme
    if isinstance(code, RepetitionCode):
        residual = repetition_residual_error(
            fleet.winner.measured_error, code.copies
        )
    else:
        from repro.ecc.analysis import concatenated_residual_error

        residual = concatenated_residual_error(
            fleet.winner.measured_error, code.inner.copies
        )
    assert residual <= 1e-4 * 1.01


def test_winner_board_still_usable(fleet):
    state = fleet.winner.board.majority_power_on_state(3)
    assert state.size == fleet.winner.board.device.sram.n_bits


def test_single_device_fleet():
    fleet = encode_fleet(n_devices=1, sram_kib=1, rng=4)
    assert len(fleet.members) == 1


def test_validation():
    with pytest.raises(ConfigurationError):
        encode_fleet(n_devices=0)
