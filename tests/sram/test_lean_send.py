"""The lean send path equals the mask-form reference it replaced.

``SRAMArray.hold`` ages each side through ``NBTIModel.stress_cells`` on
index sets, and a never-stressed bank samples its power-on state from
the mismatch alone.  The references are the deleted code, kept in
``repro.verify.send_reference`` (the ``sram.lean_send_vs_reference``
oracle sweeps whole send histories through them).
"""

import numpy as np
import pytest

from repro.device.catalog import device_spec
from repro.physics.nbti import NBTIModel, NBTIState
from repro.sram import SRAMArray
from repro.units import hours
from repro.verify.send_reference import (
    reference_band_decisions,
    reference_hold,
    reference_refresh_capture_cache,
    reference_stress,
)


def _array(seed=3, kib=0.25):
    return SRAMArray.from_kib(kib, device_spec("MSP432P401").technology, rng=seed)


def _state_with_mixed_clocks(rng, n=256):
    state = NBTIState.fresh(n)
    state.stress_seconds[:] = rng.uniform(0.0, 1e5, n) * (rng.random(n) < 0.7)
    state.relax_seconds[:] = rng.uniform(0.0, 1e6, n) * (rng.random(n) < 0.5)
    state.pending_relax = float(rng.choice([0.0, 250.0]))
    return state


def _same_state(a, b):
    assert a.stress_seconds.tobytes() == b.stress_seconds.tobytes()
    assert a.relax_seconds.tobytes() == b.relax_seconds.tobytes()
    assert (a.pending_relax, a.flushes) == (b.pending_relax, b.flushes)


@pytest.mark.parametrize("seed", range(4))
def test_stress_and_stress_cells_equal_the_mask_form(seed):
    rng = np.random.default_rng(seed)
    model = NBTIModel(k_scale=0.05)
    base = _state_with_mixed_clocks(rng)
    eq = rng.uniform(1.0, 5e4, base.stress_seconds.size) * (rng.random(256) < 0.6)

    reference, wrapped, indexed = base.copy(), base.copy(), base.copy()
    reference_stress(model, reference, eq)
    model.stress(wrapped, eq)
    cells = np.flatnonzero(eq > 0)
    model.stress_cells(indexed, cells, eq[cells])
    _same_state(wrapped, reference)
    _same_state(indexed, reference)

    scalar_ref, scalar = base.copy(), base.copy()
    reference_stress(model, scalar_ref, 3600.0)
    model.stress(scalar, 3600.0)
    _same_state(scalar, scalar_ref)


def test_stress_cells_with_no_cells_only_flushes():
    model = NBTIModel(k_scale=0.05)
    state = NBTIState.fresh(8)
    state.pending_relax = 5.0
    model.stress_cells(state, np.empty(0, dtype=np.intp), 10.0)
    assert state.flushes == 1 and not state.stress_seconds.any()
    assert (state.relax_seconds == 5.0).all()


@pytest.mark.parametrize("payload", ["random", "zeros", "ones"])
def test_hold_equals_the_mask_form_hold(payload):
    lean, reference = _array(), _array()
    rng = np.random.default_rng(9)
    bits = {
        "random": rng.integers(0, 2, lean.n_bits),
        "zeros": np.zeros(lean.n_bits),
        "ones": np.ones(lean.n_bits),
    }[payload].astype(np.uint8)
    for array, hold in ((lean, SRAMArray.hold), (reference, reference_hold)):
        array.apply_power()
        array.write(bits)
        array.set_voltage(3.0)
        hold(array, hours(12))
        array.remove_power()
        array.shelve(hours(30))  # deferred relax, folded by the next hold
        array.apply_power()
        array.write(1 - bits)
        hold(array, hours(4))
        hold(array, 60)  # an integer duration
    for side in ("age_when_1", "age_when_0"):
        _same_state(getattr(lean, side), getattr(reference, side))
    assert lean._aging_epoch == reference._aging_epoch


def test_all_zero_hold_leaves_the_bank_stressed():
    array = _array()
    array.apply_power()
    array.fill(0)
    assert array._never_stressed()
    array.hold(hours(1))
    assert not array.age_when_1.stress_seconds.any()
    assert not array._never_stressed()


def test_never_stressed_refresh_equals_the_full_refresh():
    lean, reference = _array(5), _array(5)
    lean.shelve(3600.0)  # a relax clock that is not zero
    reference.shelve(3600.0)
    sigma = lean._effective_noise_sigma()
    fast = lean._refresh_capture_cache(sigma)
    full = reference_refresh_capture_cache(reference, sigma)
    assert fast.keys() == full.keys()
    for key, value in full.items():
        if isinstance(value, np.ndarray):
            assert fast[key].dtype == value.dtype, key
            assert np.array_equal(fast[key], value), key
        else:
            assert fast[key] == value, key
    assert fast["full_max"] == 0.0


def test_never_stressed_decisions_equal_the_full_expression():
    array = _array(6)
    sigma = array._effective_noise_sigma()
    cache = array._refresh_capture_cache(sigma)
    noise = np.random.default_rng(2).standard_normal(cache["band"].size)
    assert np.array_equal(
        array._band_decisions(cache, sigma, noise),
        reference_band_decisions(array, cache, sigma, noise),
    )


def test_never_stressed_bursts_equal_the_reference_loop():
    lean, reference = _array(7), _array(7)
    reference._refresh_capture_cache = (
        lambda sigma, lean=False: reference_refresh_capture_cache(
            reference, sigma
        )
    )
    reference._band_decisions = (
        lambda cache, sigma, noise: reference_band_decisions(
            reference, cache, sigma, noise
        )
    )
    stacked = lean.capture_power_on_states(5)
    loop = np.stack([reference.power_cycle() for _ in range(5)])
    assert np.array_equal(stacked, loop)
    assert lean.capture_stats == reference.capture_stats
    assert lean._rng.bit_generator.state == reference._rng.bit_generator.state


def test_staging_power_on_skips_the_relax_clocks_until_a_burst_reads_them():
    """A never-stressed bank's single power-on caches only what it reads;
    a burst planned on that cache adds the rest, equal to the full
    refresh's arrays, and samples the same bits."""
    lean, reference = _array(8), _array(8)
    reference._refresh_capture_cache = (
        lambda sigma, lean=False: reference_refresh_capture_cache(
            reference, sigma
        )
    )
    assert np.array_equal(
        lean.power_cycle(off_seconds=3600.0),
        reference.power_cycle(off_seconds=3600.0),
    )
    assert "r1_b" not in lean._capture_cache
    refreshed = set(reference._capture_cache)
    assert np.array_equal(
        lean.capture_power_on_states(5), reference.capture_power_on_states(5)
    )
    # The burst also memoises relax tables in the cache; compare what the
    # refresh itself builds.
    fast, full = lean._capture_cache, reference._capture_cache
    assert refreshed <= set(fast)
    for key in refreshed:
        value = full[key]
        if isinstance(value, np.ndarray):
            assert fast[key].dtype == value.dtype, key
            assert np.array_equal(fast[key], value), key
        else:
            assert fast[key] == value, key
    assert lean.capture_stats == reference.capture_stats
    assert lean._rng.bit_generator.state == reference._rng.bit_generator.state
