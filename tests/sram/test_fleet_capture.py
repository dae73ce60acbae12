"""SRAMArray's stacked-capture surface: the fast cache rebuild and the
plan/commit pair.

The capture-cache refresh (`_refresh_capture_cache`) shares the
`k * t^n` power-law between the offsets and the locked-in magnitudes,
skips zero-stress cells, and collapses uniform relax clocks to a scalar
`log1p` — all transformations that must leave every cached double
bit-identical to the textbook composition through `NBTIModel.dvth`.
"""

import numpy as np
import pytest

from repro.device.catalog import device_spec
from repro.errors import ConfigurationError
from repro.sram import SRAMArray
from repro.units import hours


def _aged(seed, kib=0.25, stress_h=4.0, mixed_relax=False):
    tech = device_spec("MSP432P401").technology
    arr = SRAMArray.from_kib(kib, tech, rng=seed)
    arr.apply_power()
    payload = (
        np.random.default_rng(seed + 1)
        .integers(0, 2, arr.n_bits)
        .astype(np.uint8)
    )
    arr.write(payload)
    arr.set_voltage(min(3.0, tech.vdd_abs_max))
    arr.hold(hours(stress_h))
    if mixed_relax:
        # A second stress segment with the inverse payload gives both
        # inverters non-uniform relax clocks.
        arr.write((1 - payload).astype(np.uint8))
        arr.hold(hours(stress_h / 2))
    arr.remove_power()
    return arr


def _reference_cache(arr, sigma):
    """The cached doubles, composed the textbook way through dvth."""
    nbti, st1, st0 = arr._nbti, arr.age_when_1, arr.age_when_0
    offs = arr.mismatch + nbti.dvth(st0) - nbti.dvth(st1)  # flushes relax
    full1 = nbti.dvth_unrecovered(st1)
    full0 = nbti.dvth_unrecovered(st0)
    band = np.flatnonzero(np.abs(offs) < arr.NOISE_TAIL_SIGMA * sigma)
    return {
        "sigma_ref": sigma,
        "decision_base": (offs > 0.0).astype(np.uint8),
        "band": band,
        "mismatch_b": arr.mismatch[band],
        "full1_b": full1[band],
        "full0_b": full0[band],
        "r1_b": st1.relax_seconds[band],
        "r0_b": st0.relax_seconds[band],
        "r1_min": float(st1.relax_seconds.min()),
        "r0_min": float(st0.relax_seconds.min()),
        "full_max": float(full1.max()) + float(full0.max()),
        "offsets": offs,
    }


@pytest.mark.parametrize("mixed_relax", [False, True])
@pytest.mark.parametrize("seed", [0, 7])
def test_fleet_refresh_is_bit_identical_to_reference(seed, mixed_relax):
    a = _aged(seed, mixed_relax=mixed_relax)
    b = _aged(seed, mixed_relax=mixed_relax)
    sigma = a._effective_noise_sigma()
    ref = _reference_cache(a, sigma)
    fast = b._refresh_capture_cache(sigma)
    # The refresh also memoises the offsets vector offsets() serves.
    assert np.array_equal(b.offsets(), ref.pop("offsets"))
    assert set(ref) <= set(fast)
    for key in ref:
        left, right = ref[key], fast[key]
        if isinstance(left, np.ndarray):
            assert np.array_equal(left, right), key
        else:
            assert left == right, key


def test_plan_rejects_bad_counts_and_powered_arrays():
    arr = _aged(1)
    with pytest.raises(ConfigurationError):
        arr.plan_fleet_capture(0)
    arr.apply_power()
    assert arr.plan_fleet_capture(3) is None  # powered: loop handles it


def test_plan_trajectories_accumulate_like_the_loop():
    arr = _aged(2)
    plan = arr.plan_fleet_capture(5, off_seconds=1.0)
    assert plan is not None
    p = arr.age_when_1.pending_relax
    expected = []
    for _ in range(5):
        expected.append(p)
        p += 1.0
    assert plan["pend1"] == expected
    assert plan["pend0"] == expected


def test_commit_matches_loop_relax_and_stats():
    arr = _aged(3)
    twin = _aged(3)
    plan = arr.plan_fleet_capture(3)
    assert plan is not None
    before = dict(arr.capture_stats)
    arr.commit_fleet_capture(plan)
    # The loop equivalent: three deferred shelf gaps.
    for _ in range(3):
        twin._nbti.relax_uniform(twin.age_when_1, 1.0)
        twin._nbti.relax_uniform(twin.age_when_0, 1.0)
    assert arr.age_when_1.pending_relax == twin.age_when_1.pending_relax
    assert arr.age_when_0.pending_relax == twin.age_when_0.pending_relax
    assert arr.capture_stats["captures"] == before["captures"] + 3
    assert (
        arr.capture_stats["band_cells"]
        == before["band_cells"] + 3 * plan["cache"]["band"].size
    )


def test_plan_refuses_burst_exceeding_drift_budget():
    """A burst whose accumulated shelf relax would invalidate the cache
    mid-flight returns None (the exact loop handles it) instead of
    risking a divergent refresh point."""
    arr = _aged(4)
    sigma = arr._effective_noise_sigma()
    arr._refresh_capture_cache(sigma)
    giant_gap = 10 * 365 * 24 * 3600.0
    assert arr.plan_fleet_capture(3, off_seconds=giant_gap) is None


def _shelved(arr, gaps, off):
    for _ in range(gaps):
        arr.shelve(off)
    return arr.age_when_1.pending_relax, arr.age_when_0.pending_relax


@pytest.mark.parametrize("off", [0.1, 1.0, 3, 1e-7, 7.3e5])
@pytest.mark.parametrize("n_captures", [1, 3, 9])
def test_one_step_commit_lands_on_the_loops_doubles(off, n_captures):
    """The commit reads the end of the planned trajectory; with gaps whose
    sum rounds differently from ``n * off`` (0.1, 1e-7) its doubles
    still equal ``n_captures`` shelve calls, and the capture stats and
    ``physics.relax_seconds`` counts too."""
    from repro import telemetry

    arr, twin = _aged(5), _aged(5)
    for a in (arr, twin):
        a.plan_fleet_capture(1)  # refreshes the cache (and flushes)
        a.shelve(0.3)  # a non-zero pending relax to accumulate onto
    plan = arr.plan_fleet_capture(n_captures, off_seconds=off)
    assert plan is not None and plan["pend1"][0] == 0.3
    with telemetry.trace("commit", force=True) as fast:
        arr.commit_fleet_capture(plan)
    with telemetry.trace("loop", force=True) as loop:
        expected = _shelved(twin, n_captures, off)
    assert (arr.age_when_1.pending_relax, arr.age_when_0.pending_relax) == expected
    assert fast.counters == loop.counters
    assert arr.capture_stats["captures"] == twin.capture_stats["captures"] + n_captures


def test_commit_keeps_the_loop_for_zero_gaps(monkeypatch):
    """Gaps of zero take the ``shelve`` loop (which counts nothing for
    them); a plan is never made for an array holding remanence, so the
    one-step commit has no off-time clock to advance."""
    from repro.sram import array as sram_array

    calls = []
    shelve = sram_array.SRAMArray.shelve
    monkeypatch.setattr(
        sram_array.SRAMArray,
        "shelve",
        lambda self, seconds: calls.append(seconds) or shelve(self, seconds),
    )
    arr = _aged(6)
    plan = arr.plan_fleet_capture(3, off_seconds=0.0)
    arr.commit_fleet_capture(plan)
    assert calls == [0.0] * 3
    calls.clear()
    plan = arr.plan_fleet_capture(3, off_seconds=2.0)
    arr.commit_fleet_capture(plan)
    assert calls == []
    arr._retained = np.zeros(arr.n_bits, dtype=np.uint8)
    assert arr.plan_fleet_capture(3, off_seconds=2.0) is None
