"""Batch capture engine: bit-exact equivalence with the power-cycle loop.

The batch path in :meth:`SRAMArray.capture_power_on_states` must be
indistinguishable from calling :meth:`power_cycle` N times on an identical
twin — same seed, same aging history, same captures, same decode.  These
tests build twin arrays and compare bit-for-bit across every start
condition the harness can produce, plus the cache-invalidation edges.
"""

import numpy as np
import pytest

from repro.bitutils import majority_vote
from repro.errors import ConfigurationError
from repro.sram.array import SRAMArray
from repro.units import days, hours


def _aged_array(profile, *, seed=7, kib=1, stress_h=4.0):
    """A deterministically aged, unpowered array."""
    array = SRAMArray.from_kib(kib, profile, rng=seed)
    array.apply_power()
    payload = np.random.default_rng(99).integers(0, 2, array.n_bits)
    array.write(payload.astype(np.uint8))
    array.set_voltage(min(3.0, profile.vdd_abs_max))
    array.hold(hours(stress_h))
    array.remove_power()
    return array


def _twins(profile, **kwargs):
    return _aged_array(profile, **kwargs), _aged_array(profile, **kwargs)


def _loop_captures(array, n, **kwargs):
    return np.stack([array.power_cycle(**kwargs) for _ in range(n)])


def test_batch_equals_loop_from_unpowered(msp432_profile):
    a, b = _twins(msp432_profile)
    batch = a.capture_power_on_states(5)
    loop = _loop_captures(b, 5)
    assert np.array_equal(batch, loop)
    assert np.array_equal(majority_vote(batch), majority_vote(loop))


def test_batch_equals_loop_from_powered(msp432_profile):
    a, b = _twins(msp432_profile)
    a.apply_power()
    b.apply_power()
    assert np.array_equal(a.capture_power_on_states(5), _loop_captures(b, 5))


def test_batch_equals_loop_undrained(msp432_profile):
    a, b = _twins(msp432_profile)
    a.apply_power()
    b.apply_power()
    batch = a.capture_power_on_states(5, off_seconds=0.05, drain=False)
    loop = _loop_captures(b, 5, off_seconds=0.05, drain=False)
    assert np.array_equal(batch, loop)


def test_batch_equals_loop_with_retained_start(msp432_profile):
    """Remanence from an earlier undrained power-off reaches capture 0."""
    a, b = _twins(msp432_profile)
    for array in (a, b):
        array.apply_power()
        array.fill(1)
        array.remove_power(drain=False)
        array.shelve(0.05)
    batch = a.capture_power_on_states(5)
    loop = _loop_captures(b, 5)
    assert np.array_equal(batch, loop)


def test_batch_equals_loop_on_fresh_array(msp432_profile):
    a = SRAMArray.from_kib(1, msp432_profile, rng=3)
    b = SRAMArray.from_kib(1, msp432_profile, rng=3)
    assert np.array_equal(a.capture_power_on_states(7), _loop_captures(b, 7))


def test_batch_equals_loop_across_long_gaps(msp432_profile):
    """Off times long enough to exhaust the drift budget force per-capture
    cache refreshes; the fallback schedule must still match the loop."""
    a, b = _twins(msp432_profile)
    a.shelve(days(30))
    b.shelve(days(30))
    batch = a.capture_power_on_states(4, off_seconds=days(2))
    loop = _loop_captures(b, 4, off_seconds=days(2))
    assert np.array_equal(batch, loop)


def test_batch_equals_loop_after_toggle_widening(msp432_profile):
    """Write traffic widens the noise sigma; the cache must notice."""
    a, b = _twins(msp432_profile)
    for array in (a, b):
        array.capture_power_on_states(2)
        array.fill(0)
        array.fill(1)
        array.operate(60.0, duty=0.25)
    assert np.array_equal(a.capture_power_on_states(3), _loop_captures(b, 3))


def test_batch_equals_loop_at_elevated_temperature(msp432_profile):
    a, b = _twins(msp432_profile)
    a.set_ambient(358.15)
    b.set_ambient(358.15)
    assert np.array_equal(a.capture_power_on_states(5), _loop_captures(b, 5))


def test_interleaved_batches_and_cycles_stay_in_lockstep(msp432_profile):
    a, b = _twins(msp432_profile)
    first = a.capture_power_on_states(3)
    assert np.array_equal(first, _loop_captures(b, 3))
    # Age both again, then capture again: cache was invalidated on `a`.
    for array in (a, b):  # both ended their captures powered
        array.fill(0)
        array.hold(hours(1))
        array.remove_power()
    assert np.array_equal(a.capture_power_on_states(3), _loop_captures(b, 3))


def test_offsets_exact_after_batch_captures(msp432_profile):
    """The offsets vector equals a from-scratch recompute on state copies."""
    array = _aged_array(msp432_profile)
    array.capture_power_on_states(5)
    nbti = array._nbti
    expected = (
        array.mismatch
        + nbti.dvth(array.age_when_0.copy())
        - nbti.dvth(array.age_when_1.copy())
    )
    assert np.array_equal(array.offsets(), expected)


def test_offsets_returns_a_copy(msp432_profile):
    array = _aged_array(msp432_profile)
    first = array.offsets()
    first[:] = 0.0
    assert not np.array_equal(array.offsets(), first)


def test_invalidate_analog_caches_survives_external_mutation(msp432_profile):
    a, b = _twins(msp432_profile)
    a.capture_power_on_states(2)
    b.capture_power_on_states(2)
    # Mutate aging state behind the array's back on both twins.
    for array in (a, b):
        array.age_when_1.stress_seconds *= 0.5
        array.invalidate_analog_caches()
    assert np.array_equal(a.capture_power_on_states(3), _loop_captures(b, 3))


def _remanent(array):
    """Leave remanence behind: an undrained power-off just before."""
    array.apply_power()
    array.fill(1)
    array.remove_power(drain=False)


@pytest.mark.parametrize(
    "prepare, n, off_seconds, stress_h",
    [
        (None, 5, 1.0, 4.0),  # drained burst: the stacked kernel
        (_remanent, 5, 0.05, 4.0),  # remanence reaches capture 0: the loop
        (None, 4, days(2), 100.0),  # crosses a cache refresh: the loop
        (None, 5, 0.0, 4.0),  # shelve(0) is a no-op on both paths
    ],
    ids=["drained", "remanence", "refresh-crossing", "zero-off"],
)
def test_burst_leaves_the_loops_end_state(
    msp432_profile, prepare, n, off_seconds, stress_h
):
    """Not just the captures: every piece of state the next operation
    reads must match the power_cycle loop's."""
    a, b = _twins(msp432_profile, stress_h=stress_h)
    if prepare is not None:
        prepare(a)
        prepare(b)
    batch = a.capture_power_on_states(n, off_seconds=off_seconds)
    loop = _loop_captures(b, n, off_seconds=off_seconds)
    assert np.array_equal(batch, loop)
    assert (a.powered, a.vdd) == (b.powered, b.vdd)
    assert np.array_equal(a.read(), b.read())
    assert a.capture_stats == b.capture_stats
    for state_a, state_b in (
        (a.age_when_1, b.age_when_1),
        (a.age_when_0, b.age_when_0),
    ):
        assert state_a.pending_relax == state_b.pending_relax
        assert np.array_equal(state_a.relax_seconds, state_b.relax_seconds)
    assert a._rng.standard_normal() == b._rng.standard_normal()
    if off_seconds > days(1):
        assert a.capture_stats["cache_refreshes"] > 1  # really crossed one


def test_capture_count_validation(msp432_profile):
    array = SRAMArray.from_kib(1, msp432_profile, rng=0)
    with pytest.raises(ConfigurationError):
        array.capture_power_on_states(0)


def test_batch_shapes_and_dtype(msp432_profile):
    array = SRAMArray.from_kib(1, msp432_profile, rng=0)
    samples = array.capture_power_on_states(5)
    assert samples.shape == (5, array.n_bits)
    assert samples.dtype == np.uint8
    assert set(np.unique(samples)) <= {0, 1}
