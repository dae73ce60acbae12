"""The send path as it was before the lean one: the differential reference.

The mask-form ``NBTIModel.stress`` and ``SRAMArray.hold`` (four float
masks over the bank, stress and relax applied to every cell), the
capture-cache refresh without the never-stressed shortcut, and band
decisions through the full offset expression.  The send bench and
``tests/sram/test_lean_send.py`` bind these onto a twin array with
:func:`reference_twin`, and :func:`run_send_history` is the
``sram.lean_send_vs_reference`` oracle's body.  The oracle imports this
module when it runs, so nothing on the serving path loads it.
"""

from __future__ import annotations

import types

import numpy as np

from .. import telemetry
from ..errors import ConfigurationError
from ..sram.array import _locked_shift, _recovered_fraction
from .oracles import _DEVICE
from .runner import check_that

__all__ = [
    "reference_band_decisions",
    "reference_hold",
    "reference_refresh_capture_cache",
    "reference_stress",
    "reference_twin",
    "run_send_history",
]


def reference_stress(nbti, state, equivalent_seconds) -> None:
    """The mask-form ``NBTIModel.stress`` body the cell form replaced."""
    state.flush_relax()
    eq = np.broadcast_to(
        np.asarray(equivalent_seconds, dtype=np.float64), state.stress_seconds.shape
    )
    active = eq > 0
    if not np.any(active):
        return
    recovered = nbti._recovered_fraction(state.relax_seconds[active])
    rewind = (1.0 - recovered) ** (1.0 / nbti.time_exponent)
    state.stress_seconds[active] = state.stress_seconds[active] * rewind + eq[active]
    state.relax_seconds[active] = 0.0


def reference_hold(array, seconds: float) -> None:
    """The deleted mask-form :meth:`SRAMArray.hold`: four float masks over
    the bank, stress and relax applied to every cell."""
    array._require_power()
    if seconds < 0:
        raise ConfigurationError(f"negative duration: {seconds}")
    if seconds == 0:
        return
    array.technology.check_operating_point(array.vdd, array.temp_k)
    af = array._accel.factor(array.vdd, array.temp_k)
    nbti = array._nbti
    with telemetry.trace(
        "physics.stress",
        seconds=seconds,
        vdd=array.vdd,
        temp_k=array.temp_k,
        acceleration=af,
    ) as span:
        holding_1 = array._data.astype(np.float64)
        holding_0 = 1.0 - holding_1
        reference_stress(nbti, array.age_when_1, af * seconds * holding_1)
        reference_stress(nbti, array.age_when_0, af * seconds * holding_0)
        nbti.relax(array.age_when_1, seconds * holding_0)
        nbti.relax(array.age_when_0, seconds * holding_1)
        span.count("physics.stress_seconds_equivalent", af * seconds)
    array._bump_aging_epoch()


def reference_refresh_capture_cache(
    array, sigma: float, lean: bool = False
) -> dict:
    """The capture-cache refresh without the never-stressed shortcut; it
    builds every array whether or not ``lean`` asks for less."""
    st1, st0 = array.age_when_1, array.age_when_0
    st1.flush_relax()
    st0.flush_relax()
    nbti = array._nbti
    full1 = _locked_shift(nbti, st1.stress_seconds)
    full0 = _locked_shift(nbti, st0.stress_seconds)
    offs = (
        array.mismatch
        + full0 * (1.0 - _recovered_fraction(nbti, st0.relax_seconds))
        - full1 * (1.0 - _recovered_fraction(nbti, st1.relax_seconds))
    )
    band = np.flatnonzero(np.abs(offs) < array.NOISE_TAIL_SIGMA * sigma)
    array._capture_cache = {
        "aging_epoch": array._aging_epoch,
        "flushes": (st1.flushes, st0.flushes),
        "sigma_ref": sigma,
        "decision_base": (offs > 0.0).astype(np.uint8),
        "band": band,
        "mismatch_b": array.mismatch[band],
        "full1_b": full1[band],
        "full0_b": full0[band],
        "r1_b": st1.relax_seconds[band],
        "r0_b": st0.relax_seconds[band],
        "r1_min": float(st1.relax_seconds.min()),
        "r0_min": float(st0.relax_seconds.min()),
        "full_max": float(full1.max()) + float(full0.max()),
    }
    array.capture_stats["cache_refreshes"] += 1
    return array._capture_cache


def reference_band_decisions(array, cache: dict, sigma: float, noise) -> np.ndarray:
    """Band decisions through the full offset expression, power law and
    recovery included even when both are zero."""
    nbti = array._nbti
    tau = nbti.rec_tau_s
    r1 = cache["r1_b"] + array.age_when_1.pending_relax
    r0 = cache["r0_b"] + array.age_when_0.pending_relax
    rec1 = np.minimum(nbti.rec_log_coeff * np.log1p(r1 / tau), nbti.rec_ceiling)
    rec0 = np.minimum(nbti.rec_log_coeff * np.log1p(r0 / tau), nbti.rec_ceiling)
    offs = (
        cache["mismatch_b"]
        + cache["full0_b"] * (1.0 - rec0)
        - cache["full1_b"] * (1.0 - rec1)
    )
    return (offs + sigma * noise > 0.0).astype(np.uint8)


def reference_twin(board):
    """Route ``board``'s array through the reference hold, refresh and band
    decisions (instance attributes shadow the lean methods)."""
    sram = board.device.sram
    sram.hold = types.MethodType(reference_hold, sram)
    sram._refresh_capture_cache = types.MethodType(
        reference_refresh_capture_cache, sram
    )
    sram._band_decisions = types.MethodType(reference_band_decisions, sram)
    return board


def _same_arrays(lean, reference, step: str) -> None:
    """Every piece of analog and stream state two twin arrays carry."""
    for side in ("age_when_1", "age_when_0"):
        a, b = getattr(lean, side), getattr(reference, side)
        check_that(
            a.stress_seconds.tobytes() == b.stress_seconds.tobytes()
            and a.relax_seconds.tobytes() == b.relax_seconds.tobytes(),
            f"{step}: {side} clocks diverged from the reference",
        )
        check_that(
            a.pending_relax == b.pending_relax and a.flushes == b.flushes,
            f"{step}: {side} pending relax / flushes diverged",
        )
    check_that(
        lean.capture_stats == reference.capture_stats,
        f"{step}: capture stats {lean.capture_stats} != {reference.capture_stats}",
    )
    check_that(
        lean.toggle_count == reference.toggle_count,
        f"{step}: toggle count diverged",
    )
    check_that(
        lean._rng.bit_generator.state == reference._rng.bit_generator.state,
        f"{step}: noise stream position diverged",
    )


def run_send_history(seed: int, payload: str, faulted: bool) -> None:
    """One seeded send history through a lean board and its reference
    twin; after every step both arrays must agree bit for bit.
    ``payload`` is ``"random"``, ``"zeros"`` or ``"ones"``."""
    import pathlib
    import tempfile

    from ..core.scheme import CodingScheme
    from ..faults import FaultInjector, FaultPlan
    from ..io import device_state_arrays
    from ..service.shards import FleetHost, _load_device_file, _write_device_file

    rng = np.random.default_rng(seed)
    host = FleetHost(
        seed=seed, scheme=CodingScheme(), device_name=_DEVICE, sram_kib=0.25
    )

    def twins():
        boards = [host._fresh_channel("dev").board for _ in range(2)]
        if faulted:
            for board in boards:
                board.fault_injector = FaultInjector(
                    FaultPlan.from_spec(f"drift:3.0,interrupt:0.5@seed={seed}")
                )
        reference_twin(boards[1])
        return boards

    def run(step, fn):
        """``fn(board)`` on both twins; the bit arrays it returns (power-on
        states, capture samples) must be equal too."""
        results = [fn(board) or [] for board in boards]
        for a, b in zip(*results):
            check_that(
                np.array_equal(a, b),
                f"{step}: power-on bits diverged from the reference",
            )
        _same_arrays(boards[0].device.sram, boards[1].device.sram, step)

    def bursts(n_captures):
        # The lean twin captures through the stacked kernel, the
        # reference through the per-capture power-cycle loop.
        def burst(board):
            sram = board.device.sram
            if board is boards[0]:
                samples = sram.capture_power_on_states(n_captures)
            else:
                samples = np.stack([sram.power_cycle() for _ in range(n_captures)])
            sram.remove_power()
            return [samples]

        return burst

    def stage_and_stress(bits, hours):
        def send(board):
            states = [board.power_on_nominal()]
            board.stage_payload(bits, use_firmware=False)
            board.encode(stress_hours=hours)
            board.power_off()
            return states

        return send

    boards = twins()
    n_bits = boards[0].device.sram.n_bits
    bits = {
        "random": rng.integers(0, 2, n_bits),
        "zeros": np.zeros(n_bits),
        "ones": np.ones(n_bits),
    }[payload].astype(np.uint8)
    run("never-stressed capture", bursts(int(rng.integers(1, 6))))
    run("stage and stress", stage_and_stress(bits, float(rng.uniform(1.0, 48.0))))
    run("capture after stress", bursts(5))
    shelf = float(rng.uniform(1.0, 30.0)) * 86400.0
    run("shelve", lambda board: board.device.advance(shelf))
    again = rng.integers(0, 2, n_bits).astype(np.uint8)
    run("re-stress", stage_and_stress(again, float(rng.uniform(1.0, 24.0))))

    operate, hold = (float(t) for t in rng.uniform(60.0, 86400.0, 2))

    def operate_then_hold(board):
        states = [board.power_on_nominal()]
        board.device.run_workload(operate)
        board.device.advance(hold)
        board.power_off()
        return states

    run("operate then hold", operate_then_hold)
    run("capture after operate", bursts(3))

    with tempfile.TemporaryDirectory() as tmp:
        paths = [pathlib.Path(tmp) / f"twin-{i}.state" for i in range(2)]
        for board, path in zip(boards, paths):
            _write_device_file(path, device_state_arrays(board.device), None)
        boards = twins()
        for board, path in zip(boards, paths):
            _load_device_file(path, board.device)
    _same_arrays(boards[0].device.sram, boards[1].device.sram, "restore")
    restored_hold = float(rng.uniform(1.0, 12.0)) * 3600.0

    def hold_restored(board):
        states = [board.power_on_nominal()]
        board.device.advance(restored_hold)
        board.power_off()
        return states

    run("hold after restore", hold_restored)
    run("capture after restore", bursts(5))
