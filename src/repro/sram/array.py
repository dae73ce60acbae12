"""The simulated SRAM bank.

An :class:`SRAMArray` is the analog-domain stand-in for the paper's physical
SRAM: every cell carries a static manufacturing mismatch, two NBTI aging
accumulators (one per inverter), and per-power-up noise.  The power-on state
of a cell is the sign of::

    offset = mismatch + dvth(aged while holding 0) - dvth(aged while holding 1)
    power_on = (offset + noise) > 0

so stressing a cell holding value ``v`` biases its future power-on state
toward ``~v`` — the paper's data-directed aging (§2.2), and the reason the
decoded payload is the *complement* of the power-on state (§4.3).

Time is explicit: callers advance it with :meth:`hold` (powered, holding
data — this is what ages cells), :meth:`shelve` (unpowered — this is what
lets aging recover), and :meth:`operate` (powered, running a write workload).

Capture engine
--------------

The receiver's hot path is §4.3's power-cycle/majority-vote loop, so
power-on sampling works from a *capture cache* keyed on the aging state:
the expensive power-law ``k * t^n`` terms of both inverters plus a **noise
band** — the cells whose offset lies within ``NOISE_TAIL_SIGMA`` noise
sigmas of the decision threshold.  Cells outside the band power on to
``sign(offset)`` (the probability of a Gaussian draw beyond 8 sigma is
~6e-16, far below any observable error-rate resolution); only the band is
re-evaluated per capture, with the exact logarithmic-recovery increment
applied to its relax clocks.  The noise-free :meth:`offsets` vector is a
diagnostic view computed on demand; nothing on the capture path reads it.

Shelf gaps between captures are uniform across cells, so they are deferred
as one scalar (:meth:`repro.physics.nbti.NBTIState.flush_relax`) instead of
a full-array add.  A rigorous drift bound (the recovery increment is largest
for the least-relaxed cell) decides when accumulated shelf time has moved
out-of-band offsets enough to force a cache refresh, so arbitrarily long
capture sequences stay correct.  A burst the bound proves refresh-free
runs as one stacked kernel — plan, one ``(n_captures, band)`` noise draw,
decisions, commit.  The kernel (``_stacked_decisions``) takes a list of
plans: a single array passes its one plan, whose cached arrays and draw
it uses without copies, and :mod:`repro.core.fleetcapture` passes a
chunk of a tray's plans, whose bands it concatenates so the whole chunk
is one pass, each cell with its own slot's pending relax, recovery
constants and noise sigma.  The recovery is evaluated once per unique
relax value (memoised per slot on the capture cache) in one table for
the chunk.  Code that mutates aging state behind the array's back (e.g.
snapshot restore) must call :meth:`invalidate_analog_caches`.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .. import metrics, telemetry
from ..errors import ConfigurationError, PowerError
from ..bitutils import as_bit_array
from ..physics.hci import HCIModel
from ..physics.nbti import NBTIState
from ..rng import make_rng
from .remanence import RemanenceModel
from .technology import TechnologyProfile

#: Direct hot-path instrument: one attribute test while metrics stay
#: disabled (same contract as the telemetry null-span, docs/metrics.md).
_CAPTURE_CELLS_TOTAL = metrics.counter(
    "repro_capture_cells_total",
    "Cells evaluated across all power-on captures",
)


def _locked_shift(nbti, stress_seconds: np.ndarray) -> np.ndarray:
    """``k * t^n`` with zero-stress cells skipped.

    Elementwise-identical to ``nbti.dvth_unrecovered``: nonzero entries go
    through the same ``np.power`` call and scale, zero entries are exactly
    ``k * 0**n == 0.0``.  Skipping the zeros matters because the libm
    ``pow`` slow path for a zero base costs ~4x the finite-base path, and
    freshly staged banks are half zeros per inverter.
    """
    nz = np.flatnonzero(stress_seconds)
    if nz.size == stress_seconds.size:
        return nbti.k_scale * np.power(stress_seconds, nbti.time_exponent)
    full = np.zeros_like(stress_seconds)
    if nz.size:
        full[nz] = nbti.k_scale * np.power(
            stress_seconds[nz], nbti.time_exponent
        )
    return full


def _recovered_fraction(nbti, relax_seconds: np.ndarray):
    """``min(c * log1p(r/tau), ceiling)``; uniform clocks take a scalar.

    After a tray-wide stress every relax clock in a state is the same
    value, so one ``log1p`` stands in for the full-array pass — the
    subsequent broadcast multiplies are the same double operations the
    elementwise form performs.
    """
    lo = relax_seconds.min()
    if lo == relax_seconds.max():
        return np.minimum(
            nbti.rec_log_coeff * np.log1p(lo / nbti.rec_tau_s),
            nbti.rec_ceiling,
        )
    return np.minimum(
        nbti.rec_log_coeff * np.log1p(relax_seconds / nbti.rec_tau_s),
        nbti.rec_ceiling,
    )


def _cat(pieces: list) -> np.ndarray:
    """The slots' pieces end to end; a lone piece is used as it is."""
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=-1)


def _cells(caches: list, key: str) -> np.ndarray:
    """The slots' cached ``key`` arrays end to end; a lone one as it is."""
    if len(caches) == 1:
        return caches[0][key]
    return np.concatenate([cache[key] for cache in caches])


def _starts(sizes: list) -> list:
    """Where each of ``sizes``' pieces begins once they are laid end to end."""
    return [0, *itertools.accumulate(sizes[:-1])]


def _cat_shifted(pieces: list, starts: list) -> np.ndarray:
    """Index arrays end to end, each shifted by its piece's start."""
    if len(pieces) == 1:
        return pieces[0] + starts[0] if starts[0] else pieces[0]
    return np.concatenate(pieces) + np.repeat(starts, [p.size for p in pieces])


def _per_slot(plans: list, key: str):
    """A plan entry as one scalar when every slot shares it, else an
    array with one value per slot."""
    if len(plans) == 1:
        return plans[0][key]
    values = [plan[key] for plan in plans]
    if values.count(values[0]) == len(values):
        return values[0]
    return np.array(values)


def _spread(values, sizes: list):
    """Per-slot values (the last axis) laid over each slot's cells: slot
    ``i``'s value repeated ``sizes[i]`` times, so each cell meets its own
    slot's double.  A value every slot shares stays a scalar."""
    if isinstance(values, float):
        return values
    return np.repeat(values, sizes, axis=-1)


def _relax_table(cache: dict, r_key: str) -> "tuple[np.ndarray, np.ndarray | None]":
    """A slot's band relax clocks as ``(values, inverse)``.

    Relax clocks take few distinct values (a shared stress period leaves
    two: stressed-at-0 and never-stressed), so the recovery is evaluated
    once per *unique* value and selected per cell through ``inverse``.
    Clocks too varied for that to pay off come back as themselves with
    ``inverse=None``.  Memoised on the capture cache (once per refresh).
    """
    table = cache.get(r_key + "_table")
    if table is None:
        r = cache[r_key]
        u, inverse = np.unique(r, return_inverse=True)
        table = (u, inverse) if u.size <= max(64, r.size // 8) else (r, None)
        cache[r_key + "_table"] = table
    return table


def _held_fraction(
    plans: list, pend_key: str, r_key: str, coeff, tau, ceiling
) -> np.ndarray:
    """One inverter's ``(n_captures, band)`` unrecovered fractions
    ``1 - rec`` over the chunk.

    One table of ``min(coeff * log1p((r + pend) / tau), ceiling)`` over
    every slot's relax values (each with its own slot's per-capture
    ``pend`` and constants), then one selection into the concatenated
    bands.  The selected doubles are the ones elementwise evaluation
    produces, so bit-identity with :meth:`SRAMArray._band_decisions` is
    preserved.  The result is a fresh array the caller may overwrite.
    """
    if len(plans) == 1:
        values, inverse = _relax_table(plans[0]["cache"], r_key)
        pends = np.array(plans[0][pend_key])[:, None]
    else:
        tables = [_relax_table(plan["cache"], r_key) for plan in plans]
        sizes = [values.size for values, _ in tables]
        values = np.concatenate([values for values, _ in tables])
        pends = _spread(np.array([plan[pend_key] for plan in plans]).T, sizes)
        coeff, tau, ceiling = (_spread(c, sizes) for c in (coeff, tau, ceiling))
        inverse = _cat_shifted(
            [
                np.arange(size) if inverse is None else inverse
                for size, (_, inverse) in zip(sizes, tables)
            ],
            _starts(sizes),
        )
    rec = np.minimum(coeff * np.log1p((values + pends) / tau), ceiling)
    held = np.subtract(1.0, rec, out=rec)
    return held if inverse is None else held.take(inverse, axis=1)


def _stacked_decisions(plans: list, noises: list) -> np.ndarray:
    """Planned bursts' band decisions, all slots and captures in one pass.

    ``plans`` are :meth:`SRAMArray.plan_fleet_capture` records sharing one
    capture count and ``noises`` their ``(n_captures, band)`` draws; the
    result is ``(n_captures, sum of bands)`` with slot ``i``'s band in
    the columns after slots ``0..i-1``'s.  Evaluates
    :meth:`SRAMArray._band_decisions`'s exact operation tree,
    ``mismatch + full0 * (1 - rec0) - full1 * (1 - rec1) + sigma * noise``,
    each cell with its own slot's per-capture pending relax, constants and
    sigma — elementwise the same IEEE doubles as the per-capture loop's —
    in place, so a wide band costs no extra full-size temporaries.  One
    plan is the single array's burst: its cached arrays and its draw are
    used without copies.
    """
    caches = [plan["cache"] for plan in plans]
    constants = (
        _per_slot(plans, "coeff"),
        _per_slot(plans, "tau"),
        _per_slot(plans, "ceiling"),
    )
    offs = _held_fraction(plans, "pend0", "r0_b", *constants)
    offs *= _cells(caches, "full0_b")
    offs += _cells(caches, "mismatch_b")
    held1 = _held_fraction(plans, "pend1", "r1_b", *constants)
    held1 *= _cells(caches, "full1_b")
    offs -= held1
    noise = _cat(noises)
    noise *= _spread(
        _per_slot(plans, "sigma"), [block.shape[1] for block in noises]
    )
    offs += noise
    return (offs > 0.0).view(np.uint8)


class SRAMArray:
    """A bank of simulated 6T cells.

    Parameters
    ----------
    n_bits:
        Number of cells.
    technology:
        The :class:`TechnologyProfile` describing the cells' physics.
    rng:
        Seed or generator for process variation and power-up noise.
    row_width:
        Physical row width in cells; defines the 2-D die layout used for
        spatially correlated variation and Moran's I analysis.
    """

    #: Power-up noise is evaluated only for cells within this many noise
    #: sigmas of the decision threshold; everything further out powers on to
    #: the sign of its offset (tail probability ~6e-16 per cell per capture).
    NOISE_TAIL_SIGMA = 8.0

    #: Fraction of the current noise sigma that out-of-band offsets may
    #: drift (through deferred shelf-time recovery) before the capture cache
    #: is refreshed.  With the 8-sigma band this leaves a >7-sigma guard.
    OFFSET_DRIFT_BUDGET = 0.5

    def __init__(
        self,
        n_bits: int,
        technology: TechnologyProfile,
        *,
        rng: "int | np.random.Generator | None" = None,
        row_width: int = 256,
    ):
        if n_bits <= 0:
            raise ConfigurationError(f"n_bits must be positive, got {n_bits}")
        if row_width <= 0:
            raise ConfigurationError(f"row_width must be positive, got {row_width}")
        from ..physics.variation import sample_mismatch

        self._rng = make_rng(rng)
        self.technology = technology
        self.n_bits = int(n_bits)
        self.row_width = int(row_width)

        self.mismatch = sample_mismatch(
            n_bits,
            row_width=row_width,
            correlated_share=technology.correlated_share,
            coarse_tile=technology.coarse_tile,
            rng=self._rng,
        ).astype(np.float64)

        self._nbti = technology.nbti_model()
        self._accel = technology.acceleration_model()
        self._hci = HCIModel()
        self._remanence = RemanenceModel(
            technology.remanence_tau_s, temp_nominal_k=technology.temp_nominal_k
        )

        #: Aging accrued while the cell held 1 / held 0.
        self.age_when_1 = NBTIState.fresh(n_bits)
        self.age_when_0 = NBTIState.fresh(n_bits)

        self.powered = False
        self.vdd: float | None = None
        self.temp_k = technology.temp_nominal_k
        self.toggle_count = 0.0

        self._data: np.ndarray | None = None
        self._retained: np.ndarray | None = None
        self._off_seconds = 0.0

        #: Bumped on every stress event; the capture cache keys on it.
        self._aging_epoch = 0
        self._capture_cache: "dict | None" = None

        #: Cheap always-on counters the telemetry layer snapshots around
        #: capture bursts: power-on samples taken, noise-band cells
        #: re-evaluated, and capture-cache rebuilds.  Plain int bumps —
        #: microseconds against millisecond-scale captures.
        self.capture_stats = {
            "captures": 0,
            "band_cells": 0,
            "cache_refreshes": 0,
        }

    # -- construction helpers --------------------------------------------------

    @classmethod
    def from_kib(
        cls,
        kib: float,
        technology: TechnologyProfile,
        *,
        rng: "int | np.random.Generator | None" = None,
        row_width: int = 256,
    ) -> "SRAMArray":
        """An array of ``kib`` KiB (8192 cells per KiB)."""
        return cls(int(kib * 8192), technology, rng=rng, row_width=row_width)

    @property
    def n_bytes(self) -> int:
        """Capacity in bytes."""
        return self.n_bits // 8

    # -- environment -----------------------------------------------------------

    def set_ambient(self, temp_k: float) -> None:
        """Set the ambient temperature (the thermal chamber knob).

        The new temperature is validated against the *live* operating point:
        a powered array at stress Vdd gets the (derated) envelope for that
        supply, not the nominal-supply envelope.
        """
        vdd = self.vdd if self.powered else self.technology.vdd_nominal
        self.technology.check_operating_point(vdd, temp_k)
        self.temp_k = float(temp_k)

    def set_voltage(self, vdd: float) -> None:
        """Change the supply voltage while powered (the supply knob)."""
        self._require_power()
        self.technology.check_operating_point(vdd, self.temp_k)
        self.vdd = float(vdd)

    # -- power events ------------------------------------------------------------

    def apply_power(self, vdd: "float | None" = None) -> np.ndarray:
        """Power the array up and return a copy of its power-on state.

        Cells whose charge survived the power gap (see
        :class:`RemanenceModel`) return their previous value instead of the
        true power-on state — the effect the paper's harness eliminates by
        draining the rail.
        """
        if self.powered:
            raise PowerError("array is already powered")
        vdd = self.technology.vdd_nominal if vdd is None else float(vdd)
        self.technology.check_operating_point(vdd, self.temp_k)

        state = self._sample_power_on()
        if self._retained is not None:
            keep = self._remanence.retained_mask(
                self.n_bits, self._off_seconds, self.temp_k, self._rng
            )
            state[keep] = self._retained[keep]
        self._retained = None
        self._off_seconds = 0.0

        self.powered = True
        self.vdd = vdd
        self._data = state
        return state.copy()

    def remove_power(self, *, drain: bool = True) -> None:
        """Cut power.  ``drain=True`` pulls the rail to ground, destroying
        remanence (the paper's measurement discipline, §5)."""
        self._require_power()
        self._retained = None if drain else self._data.copy()
        self._off_seconds = 0.0
        self.powered = False
        self.vdd = None
        self._data = None

    def power_cycle(
        self,
        *,
        off_seconds: float = 1.0,
        drain: bool = True,
        vdd: "float | None" = None,
    ) -> np.ndarray:
        """Cut power, wait ``off_seconds``, reapply, return the power-on
        state.  The off time counts as shelf time for aging recovery."""
        if self.powered:
            self.remove_power(drain=drain)
        self.shelve(off_seconds)
        return self.apply_power(vdd)

    def capture_power_on_states(
        self,
        n_captures: int,
        *,
        off_seconds: float = 1.0,
        drain: bool = True,
    ) -> np.ndarray:
        """Capture ``n_captures`` successive power-on states (§4.3's
        sampling loop); returns shape ``(n_captures, n_bits)``.

        Drained bursts run through the stacked kernel the fleet capture
        uses (:meth:`plan_fleet_capture`, :meth:`burst_decisions`): one
        ``(n_captures, band)`` noise draw from this array's generator,
        which consumes the stream exactly like successive per-capture
        draws.  Bursts the plan declines — undrained, remanence reaching
        the first capture, or long enough to cross a cache refresh — take
        the :meth:`power_cycle` loop.  Either way the result and the
        array's end state are bit-identical to calling :meth:`power_cycle`
        ``n_captures`` times.
        """
        if n_captures <= 0:
            raise ConfigurationError(f"need at least one capture, got {n_captures}")
        with telemetry.trace(
            "sram.capture",
            n_bits=self.n_bits,
            n_captures=n_captures,
            drain=drain,
        ) as span:
            stats_before = dict(self.capture_stats)
            # The loop's first iteration: power down, then shelve.  The
            # plan is taken after that shelf gap, where the loop's first
            # capture would validate (or refresh) the capture cache.
            if self.powered:
                self.remove_power(drain=drain)
            self.shelve(off_seconds)
            plan = self.plan_fleet_capture(n_captures, off_seconds) if drain else None
            if plan is None:
                rows = [self.apply_power()]
                rows += [
                    self.power_cycle(off_seconds=off_seconds, drain=drain)
                    for _ in range(n_captures - 1)
                ]
                samples = np.stack(rows)
            else:
                samples = self._run_planned_burst(plan, n_captures)
            for key, before in stats_before.items():
                span.count(f"sram.{key}", self.capture_stats[key] - before)
            _CAPTURE_CELLS_TOTAL.inc(n_captures * self.n_bits)
            return samples

    def _run_planned_burst(self, plan: dict, n_captures: int) -> np.ndarray:
        """Evaluate a planned drained burst and leave the loop's end state.

        The remaining ``n_captures - 1`` shelf gaps are the loop's
        between-capture :meth:`shelve` calls, applied in one step from the
        plan's trajectory (:meth:`_shelve_planned`); the array ends
        powered at nominal supply holding the last capture.
        """
        cache = plan["cache"]
        band = cache["band"]
        samples = np.empty((n_captures, self.n_bits), dtype=np.uint8)
        samples[...] = cache["decision_base"]
        samples[:, band] = self.burst_decisions(plan)
        self._shelve_planned(plan, n_captures - 1)
        self._count_captures(n_captures, band.size)
        self.powered = True
        self.vdd = self.technology.vdd_nominal
        self._data = samples[-1].copy()
        return samples

    # -- memory operations ----------------------------------------------------

    def write(self, bits: "np.ndarray | bytes", bit_offset: int = 0) -> None:
        """Store ``bits`` starting at ``bit_offset`` (digital write)."""
        self._require_power()
        bits = as_bit_array(bits)
        if bit_offset < 0 or bit_offset + bits.size > self.n_bits:
            raise ConfigurationError(
                f"write of {bits.size} bits at offset {bit_offset} exceeds "
                f"array size {self.n_bits}"
            )
        region = self._data[bit_offset : bit_offset + bits.size]
        self.toggle_count += float(np.count_nonzero(region != bits))
        region[...] = bits

    def fill(self, value: int) -> None:
        """Write a single logic value to every cell (the §5.1.2 workload)."""
        if value not in (0, 1):
            raise ConfigurationError(f"fill value must be 0 or 1, got {value}")
        self._require_power()
        self.toggle_count += float(np.count_nonzero(self._data != value))
        self._data[...] = value

    def read(self, n_bits: "int | None" = None, bit_offset: int = 0) -> np.ndarray:
        """Read stored bits (digital read; never disturbs the analog state)."""
        self._require_power()
        n_bits = self.n_bits - bit_offset if n_bits is None else n_bits
        if bit_offset < 0 or n_bits < 0 or bit_offset + n_bits > self.n_bits:
            raise ConfigurationError(
                f"read of {n_bits} bits at offset {bit_offset} exceeds "
                f"array size {self.n_bits}"
            )
        return self._data[bit_offset : bit_offset + n_bits].copy()

    # -- the passage of time ----------------------------------------------------

    def hold(self, seconds: float) -> None:
        """Remain powered, holding the current contents, for ``seconds``.

        This is the encoding primitive: the active inverter of every cell
        accrues NBTI stress at the current (Vdd, T) acceleration factor while
        the inactive inverter's recovery clock runs.  Only the cells on each
        side are touched (:meth:`NBTIModel.stress_cells`).
        """
        self._require_power()
        if seconds < 0:
            raise ConfigurationError(f"negative duration: {seconds}")
        if seconds == 0:
            return
        self.technology.check_operating_point(self.vdd, self.temp_k)
        af = self._accel.factor(self.vdd, self.temp_k)
        with telemetry.trace(
            "physics.stress",
            seconds=seconds,
            vdd=self.vdd,
            temp_k=self.temp_k,
            acceleration=af,
        ) as span:
            # Each cell stresses the inverter of the value it holds and
            # lets the other one's recovery clock run: index form, so the
            # cost is two index sets, not four float masks over the bank.
            nbti, st1, st0 = self._nbti, self.age_when_1, self.age_when_0
            ones = (self._data != 0).nonzero()[0]
            zeros = (self._data == 0).nonzero()[0]
            equivalent = af * seconds
            # stress_cells flushes each state's pending relax first, so
            # the relax adds below land on flushed clocks.
            nbti.stress_cells(st1, ones, equivalent)
            nbti.stress_cells(st0, zeros, equivalent)
            st1.relax_seconds[zeros] += seconds
            st0.relax_seconds[ones] += seconds
            span.count("physics.stress_seconds_equivalent", equivalent)
        self._bump_aging_epoch()

    def shelve(self, seconds: float) -> None:
        """Remain unpowered for ``seconds``: both inverters recover and any
        undrained remanence decays.

        The recovery increment is uniform across cells, so it is deferred as
        a scalar (O(1)) and folded into the per-cell clocks on demand.
        """
        if self.powered:
            raise PowerError("cannot shelve a powered array")
        if seconds < 0:
            raise ConfigurationError(f"negative duration: {seconds}")
        if seconds == 0:
            return
        self._nbti.relax_uniform(self.age_when_1, seconds)
        self._nbti.relax_uniform(self.age_when_0, seconds)
        if telemetry.active():
            telemetry.count("physics.relax_seconds", seconds)
        if self._retained is not None:
            self._off_seconds += seconds

    def operate(
        self,
        seconds: float,
        *,
        duty: float = 0.5,
        writes_per_second: float = 1e6,
    ) -> None:
        """Run a general-purpose write workload for ``seconds`` (§5.1.4).

        Each cell alternates values on sub-millisecond scales, so each
        inverter sees duty-scaled AC stress (no recovery re-lock) while its
        recovery clock advances only during the fraction of time it is
        unbiased.  The net effect — about half the natural-recovery rate plus
        negligible counter-stress — reproduces the paper's ~1.2x-per-week
        versus ~1.4x-per-week observation.
        """
        self._require_power()
        if seconds < 0:
            raise ConfigurationError(f"negative duration: {seconds}")
        if not 0.0 <= duty <= 1.0:
            raise ConfigurationError(f"duty must be in [0, 1], got {duty}")
        if seconds == 0:
            return
        self.technology.check_operating_point(self.vdd, self.temp_k)
        af = self._accel.factor(self.vdd, self.temp_k)
        with telemetry.trace(
            "physics.operate", seconds=seconds, duty=duty, acceleration=af
        ) as span:
            self._nbti.stress_ac(self.age_when_1, af * seconds * duty)
            self._nbti.stress_ac(self.age_when_0, af * seconds * duty)
            self._nbti.relax(self.age_when_1, seconds * (1.0 - duty))
            self._nbti.relax(self.age_when_0, seconds * (1.0 - duty))
            span.count("physics.ac_stress_seconds_equivalent", af * seconds * duty)
        # Cells toggle only while the workload is actually writing them.
        self.toggle_count += writes_per_second * seconds * duty
        self._bump_aging_epoch()
        # Contents after a random workload are whatever was last written;
        # callers that care write explicitly afterwards.

    # -- observables --------------------------------------------------------------

    def offsets(self) -> np.ndarray:
        """Noise-free effective offsets: positive means the cell prefers to
        power on to 1.  Diagnostic view of the analog domain, computed on
        each call (folding any deferred shelf relax into the aging clocks).
        """
        return (
            self.mismatch
            + self._nbti.dvth(self.age_when_0)
            - self._nbti.dvth(self.age_when_1)
        )

    def grid_shape(self) -> tuple[int, int]:
        """Die layout ``(rows, row_width)`` used for spatial statistics."""
        return (-(-self.n_bits // self.row_width), self.row_width)

    # -- cache management ---------------------------------------------------------

    def invalidate_analog_caches(self) -> None:
        """Drop the capture cache.

        Required after mutating ``mismatch``, ``age_when_1``/``age_when_0``
        or ``toggle_count`` directly (e.g. restoring a snapshot); the
        array's own mutators invalidate automatically.
        """
        self._bump_aging_epoch()

    def _bump_aging_epoch(self) -> None:
        self._aging_epoch += 1
        self._capture_cache = None

    def _effective_noise_sigma(self) -> float:
        sigma = self._hci.noise_widening(
            self.toggle_count, self.technology.noise_sigma
        )
        # Power-up noise is thermal: sigma scales as sqrt(T/Tnom), so a cold
        # capture is slightly cleaner and a hot one slightly noisier.
        return sigma * float(np.sqrt(self.temp_k / self.technology.temp_nominal_k))

    def _capture_cache_valid(
        self, cache: "dict | None", sigma: float, extra_relax: float = 0.0
    ) -> bool:
        """True when sampling may keep using ``cache``.

        The cache was built at some flushed relax state; shelf time since
        then only *adds* recovery.  The recovery increment ``c*(log1p((r+p)/
        tau) - log1p(r/tau))`` is monotonically decreasing in ``r``, so the
        worst-case out-of-band offset drift is bounded by the least-relaxed
        cell's increment times the largest power-law magnitudes.  While that
        bound stays under ``OFFSET_DRIFT_BUDGET`` noise sigmas, out-of-band
        decisions cannot change (>7-sigma guard) and in-band cells — which
        are recomputed exactly every capture — need no refresh either.
        """
        if cache is None or cache["aging_epoch"] != self._aging_epoch:
            return False
        st1, st0 = self.age_when_1, self.age_when_0
        if (st1.flushes, st0.flushes) != cache["flushes"]:
            return False
        if sigma > cache["sigma_ref"] * (1.0 + 1e-12):
            return False
        if cache["full_max"] == 0.0:
            return True  # unstressed cells have nothing to recover
        nbti = self._nbti
        tau = nbti.rec_tau_s
        p1 = st1.pending_relax + extra_relax
        p0 = st0.pending_relax + extra_relax
        d1 = math.log1p((cache["r1_min"] + p1) / tau) - math.log1p(
            cache["r1_min"] / tau
        )
        d0 = math.log1p((cache["r0_min"] + p0) / tau) - math.log1p(
            cache["r0_min"] / tau
        )
        drift = nbti.rec_log_coeff * cache["full_max"] * max(d1, d0)
        return drift <= self.OFFSET_DRIFT_BUDGET * sigma

    def _never_stressed(self) -> bool:
        """True while neither inverter of any cell has stress seconds."""
        return not (
            self.age_when_1.stress_seconds.any()
            or self.age_when_0.stress_seconds.any()
        )

    def _band_decisions(
        self, cache: dict, sigma: float, noise: np.ndarray
    ) -> np.ndarray:
        """Exact power-on decisions for the noise-band cells.

        Applies the deferred recovery increment to the band's relax clocks
        and re-evaluates the same offset expression :meth:`offsets` uses —
        identical physics, restricted to the cells noise can actually flip.
        """
        if cache["full_max"] == 0.0:  # no power law: the offset is the mismatch
            return (cache["mismatch_b"] + sigma * noise > 0.0).astype(np.uint8)
        nbti = self._nbti
        tau = nbti.rec_tau_s
        r1 = cache["r1_b"] + self.age_when_1.pending_relax
        r0 = cache["r0_b"] + self.age_when_0.pending_relax
        rec1 = np.minimum(nbti.rec_log_coeff * np.log1p(r1 / tau), nbti.rec_ceiling)
        rec0 = np.minimum(nbti.rec_log_coeff * np.log1p(r0 / tau), nbti.rec_ceiling)
        offs = (
            cache["mismatch_b"]
            + cache["full0_b"] * (1.0 - rec0)
            - cache["full1_b"] * (1.0 - rec1)
        )
        return (offs + sigma * noise > 0.0).astype(np.uint8)

    # -- internals -----------------------------------------------------------------

    def _sample_power_on(self) -> np.ndarray:
        sigma = self._effective_noise_sigma()
        cache = self._capture_cache
        if not self._capture_cache_valid(cache, sigma):
            cache = self._refresh_capture_cache(sigma, lean=True)
        state = cache["decision_base"].copy()
        band = cache["band"]
        if band.size:
            noise = self._rng.standard_normal(band.size)
            state[band] = self._band_decisions(cache, sigma, noise)
        self._count_captures(1, band.size)
        return state

    def _count_captures(self, n_captures: int, band_size: int) -> None:
        stats = self.capture_stats
        stats["captures"] += n_captures
        stats["band_cells"] += n_captures * int(band_size)

    def _refresh_capture_cache(self, sigma: float, lean: bool = False) -> dict:
        """Rebuild the sampling cache at the current (flushed) aging state.

        The power-law magnitude ``k * t^n`` is evaluated once per inverter
        and shared between the offsets and the locked-in values — the same
        composition :meth:`NBTIModel.dvth` uses — zero-stress cells skip the
        ``t^n`` ufunc (``0**n == 0`` exactly), and uniform relax clocks
        collapse the recovered fraction to one scalar (the per-element
        double operations are unchanged).  A never-stressed bank skips the
        power law and the recovery altogether: its offsets are the
        mismatch.  With ``lean`` it also skips the relax clocks there,
        which :meth:`_sample_power_on` does not read (a fresh send's
        staging power-on, whose cache the stress that follows discards);
        :meth:`plan_fleet_capture` adds them before a burst reads them.
        tests/sram/test_fleet_capture.py pins every cached double against
        ``NBTIModel.dvth``.
        """
        st1, st0 = self.age_when_1, self.age_when_0
        st1.flush_relax()
        st0.flush_relax()
        nbti = self._nbti
        pristine = self._never_stressed()
        if pristine:
            # Both power laws are exactly 0.0, so the offsets are the
            # mismatch (``m + 0.0 - 0.0`` differs only in the sign of a
            # zero, which neither ``> 0`` nor ``abs`` can see).
            offs = self.mismatch
        else:
            full1 = _locked_shift(nbti, st1.stress_seconds)
            full0 = _locked_shift(nbti, st0.stress_seconds)
            offs = (
                self.mismatch
                + full0 * (1.0 - _recovered_fraction(nbti, st0.relax_seconds))
                - full1 * (1.0 - _recovered_fraction(nbti, st1.relax_seconds))
            )
        band = np.flatnonzero(np.abs(offs) < self.NOISE_TAIL_SIGMA * sigma)
        cache = {
            "aging_epoch": self._aging_epoch,
            "flushes": (st1.flushes, st0.flushes),
            "sigma_ref": sigma,
            "decision_base": (offs > 0.0).astype(np.uint8),
            "band": band,
            "mismatch_b": self.mismatch[band],
            "full_max": 0.0,
        }
        if not pristine:
            cache.update(
                full1_b=full1[band],
                full0_b=full0[band],
                full_max=float(full1.max()) + float(full0.max()),
            )
        if not (pristine and lean):
            self._complete_capture_cache(cache)
        self._capture_cache = cache
        self.capture_stats["cache_refreshes"] += 1
        return cache

    def _complete_capture_cache(self, cache: dict) -> None:
        """Add what the burst kernel and the drift bound read beyond the
        band decisions: the band's relax clocks, both clocks' minima and,
        for a never-stressed bank, its zero power laws.  The clocks are
        still the ones the refresh flushed, since any later flush
        invalidates the cache."""
        st1, st0 = self.age_when_1, self.age_when_0
        band = cache["band"]
        if "full1_b" not in cache:
            cache["full1_b"] = np.zeros(band.size, dtype=self.mismatch.dtype)
            cache["full0_b"] = np.zeros(band.size, dtype=self.mismatch.dtype)
        cache.update(
            r1_b=st1.relax_seconds[band],
            r0_b=st0.relax_seconds[band],
            r1_min=float(st1.relax_seconds.min()) if self.n_bits else 0.0,
            r0_min=float(st0.relax_seconds.min()) if self.n_bits else 0.0,
        )

    # -- the stacked capture kernel (single array and repro.core.fleetcapture) --

    def plan_fleet_capture(
        self,
        n_captures: int,
        off_seconds: float = 1.0,
        *,
        vdd: "float | None" = None,
    ) -> "dict | None":
        """Stage a capture burst for the stacked kernel.

        Validates the operating point, performs the same capture-cache
        refresh (and deferred-relax flush) the burst's first per-capture
        loop iteration would, and — when the drift bound guarantees no
        mid-burst refresh — returns the record :meth:`burst_decisions`
        evaluates: the cached band arrays, the noise sigma, the shelf gap,
        and both inverters' per-capture ``pending_relax`` trajectories
        (accumulated float-by-float exactly as ``n_captures`` deferred
        shelf gaps would, so the commit reads its end state from them).
        Returns ``None`` when the burst cannot be guaranteed refresh-free,
        the array is powered, or remanence could reach the first capture;
        callers then take the exact per-capture loop, which is
        bit-identical either way.
        """
        if n_captures < 1:
            raise ConfigurationError(
                f"need at least one capture, got {n_captures}"
            )
        if self.powered or self._retained is not None:
            return None
        vdd = self.technology.vdd_nominal if vdd is None else float(vdd)
        self.technology.check_operating_point(vdd, self.temp_k)
        off = float(off_seconds)
        sigma = self._effective_noise_sigma()
        cache = self._capture_cache
        if not self._capture_cache_valid(cache, sigma):
            cache = self._refresh_capture_cache(sigma)
        elif "r1_b" not in cache:  # a lean staging cache
            self._complete_capture_cache(cache)
        if not self._capture_cache_valid(
            cache, sigma, extra_relax=(n_captures - 1) * off
        ):
            return None
        p1 = self.age_when_1.pending_relax
        p0 = self.age_when_0.pending_relax
        pend1, pend0 = [], []
        for _ in range(n_captures):
            pend1.append(p1)
            pend0.append(p0)
            p1 += off  # relax_uniform's exact scalar accumulation
            p0 += off
        nbti = self._nbti
        return {
            "cache": cache,
            "sigma": sigma,
            "off_seconds": off_seconds,
            "pend1": pend1,
            "pend0": pend0,
            "tau": nbti.rec_tau_s,
            "coeff": nbti.rec_log_coeff,
            "ceiling": nbti.rec_ceiling,
        }

    def burst_noise(self, plan: dict) -> np.ndarray:
        """The planned burst's ``(n_captures, band)`` noise block.

        One draw from this array's own generator, which consumes the
        stream exactly like the per-capture loop's successive draws.
        """
        return self._rng.standard_normal(
            (len(plan["pend1"]), plan["cache"]["band"].size)
        )

    def burst_decisions(self, plan: dict) -> np.ndarray:
        """The planned burst's ``(n_captures, band)`` noise-band decisions:
        the stacked kernel over this one array."""
        return _stacked_decisions([plan], [self.burst_noise(plan)])

    def commit_fleet_capture(self, plan: dict) -> None:
        """Apply the state the equivalent board loop would have left.

        Each capture's power-down is one shelf gap; all ``n_captures`` of
        them land in one step (:meth:`_shelve_planned`), and the capture
        stats advance by the whole burst.
        """
        n_captures = len(plan["pend1"])
        self._shelve_planned(plan, n_captures)
        self._count_captures(n_captures, plan["cache"]["band"].size)

    def _shelve_planned(self, plan: dict, gaps: int) -> None:
        """Shelve for ``gaps`` of the plan's gaps in one step.

        ``plan["pend1"][k]`` is the relax clock after ``k`` gaps, summed
        one ``+= off`` at a time as :meth:`shelve` would, so reading the
        end of the trajectory (one more add for the last gap) gives the
        same doubles as ``gaps`` :meth:`shelve` calls (a plan is only made
        for a drained array, so no remanence clock has to advance).  Gaps
        of zero or less take the loop: ``shelve(0)`` counts nothing and a
        negative gap raises.  With telemetry active,
        ``physics.relax_seconds`` is counted once per gap, as the loop
        counts it.
        """
        off = plan["off_seconds"]
        if off <= 0:
            for _ in range(gaps):
                self.shelve(off)
            return
        for state, pend in (
            (self.age_when_1, plan["pend1"]),
            (self.age_when_0, plan["pend0"]),
        ):
            state.pending_relax = (
                pend[gaps] if gaps < len(pend) else pend[-1] + float(off)
            )
        if telemetry.active():
            for _ in range(gaps):
                telemetry.count("physics.relax_seconds", off)

    def _require_power(self) -> None:
        if not self.powered:
            raise PowerError("array is not powered")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "on" if self.powered else "off"
        return (
            f"SRAMArray({self.n_bits} bits, {self.technology.name}, power {state})"
        )
