"""Instrument semantics: kinds, labels, the enable switch, exposition."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    exponential_buckets,
    linear_buckets,
    snapshot_delta,
)


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    reg.enable()
    return reg


class TestEnableSwitch:
    def test_disabled_by_default(self):
        reg = MetricsRegistry()
        assert not reg.enabled
        counter = reg.counter("repro_x_total")
        counter.inc(5)
        assert counter.series()[()].value == 0.0

    def test_disabled_fast_path_covers_all_kinds(self):
        reg = MetricsRegistry()
        counter = reg.counter("c_total", labelnames=("device",))
        gauge = reg.gauge("g")
        hist = reg.histogram("h")
        counter.inc(1, device="a")
        # labels() pre-binds (and so creates) the series, but the inc
        # through it must still be swallowed.
        counter.labels(device="a").inc()
        gauge.set(3.0)
        gauge.inc()
        hist.observe(0.5)
        reg.enable()
        snap = reg.snapshot()["metrics"]
        assert snap["c_total"]["series"] == [
            {"labels": {"device": "a"}, "value": 0.0}
        ]
        assert snap["g"]["series"][0]["value"] == 0.0
        assert snap["h"]["series"][0]["count"] == 0.0

    def test_enable_is_retroactive_for_existing_instruments(self):
        reg = MetricsRegistry()
        counter = reg.counter("c_total")
        reg.enable()
        counter.inc(2)
        assert counter.series()[()].value == 2.0
        reg.disable()
        counter.inc(2)
        assert counter.series()[()].value == 2.0


class TestCounter:
    def test_inc_accumulates(self, registry):
        counter = registry.counter("captures_total", "help text")
        counter.inc()
        counter.inc(4)
        assert counter.series()[()].value == 5.0

    def test_labelled_series_are_independent(self, registry):
        counter = registry.counter("c_total", labelnames=("device",))
        counter.inc(1, device="a")
        counter.inc(2, device="b")
        series = counter.series()
        assert series[("a",)].value == 1.0
        assert series[("b",)].value == 2.0

    def test_negative_inc_rejected(self, registry):
        counter = registry.counter("c_total")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_wrong_labels_rejected(self, registry):
        counter = registry.counter("c_total", labelnames=("device",))
        with pytest.raises(ConfigurationError):
            counter.inc(1, slot="3")
        with pytest.raises(ConfigurationError):
            counter.inc(1)

    @pytest.mark.parametrize(
        "labels",
        [
            {},
            {"device": "a"},
            {"device": "a", "lane": "1"},
            {"device": "a", "slot": "1", "lane": "2"},
        ],
        ids=["none", "missing", "renamed", "extra"],
    )
    def test_every_update_rejects_a_wrong_label_set(self, registry, labels):
        names = ("device", "slot")
        counter = registry.counter("c_total", labelnames=names)
        gauge = registry.gauge("g", labelnames=names)
        hist = registry.histogram("h", labelnames=names, buckets=(1.0,))
        updates = (
            lambda: counter.inc(1, **labels),
            lambda: gauge.set(1, **labels),
            lambda: hist.observe(0.5, **labels),
            lambda: counter.labels(**labels),
        )
        for update in updates:
            with pytest.raises(ConfigurationError, match="takes labels"):
                update()
        assert not counter.series() and not gauge.series()
        assert not hist.series()

    def test_label_order_and_value_types_key_one_series(self, registry):
        counter = registry.counter("c_total", labelnames=("device", "slot"))
        counter.inc(1, device="a", slot=3)
        counter.inc(2, slot="3", device="a")
        assert list(counter.series()) == [("a", "3")]
        assert 'c_total{device="a",slot="3"} 3' in registry.expose()


class TestGauge:
    def test_set_overwrites_inc_accumulates(self, registry):
        gauge = registry.gauge("g")
        gauge.set(7.0)
        gauge.set(3.0)
        assert gauge.series()[()].value == 3.0
        gauge.inc(2.0)
        assert gauge.series()[()].value == 5.0


class TestHistogram:
    def test_bucket_placement_is_cumulative_in_exposition(self, registry):
        hist = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        text = registry.expose()
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="2"} 2' in text
        assert 'h_bucket{le="4"} 3' in text
        assert 'h_bucket{le="+Inf"} 4' in text
        assert "h_count 4" in text

    def test_weighted_observe(self, registry):
        hist = registry.histogram("h", buckets=(1.0, 3.0))
        hist.observe(2.0, n=10)
        state = hist.series()[()]
        assert state.count == 10.0
        assert state.sum == 20.0
        assert state.bucket_counts == [0.0, 10.0, 0.0]

    def test_boundary_lands_in_bucket(self, registry):
        hist = registry.histogram("h", buckets=(1.0, 2.0))
        hist.observe(1.0)  # le is inclusive
        assert hist.series()[()].bucket_counts == [1.0, 0.0, 0.0]

    def test_nonpositive_weight_rejected(self, registry):
        hist = registry.histogram("h")
        with pytest.raises(ConfigurationError):
            hist.observe(1.0, n=0)

    def test_unsorted_buckets_rejected(self, registry):
        with pytest.raises(ConfigurationError):
            registry.histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("h2", buckets=(1.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self, registry):
        a = registry.counter("c_total", labelnames=("device",))
        b = registry.counter("c_total", labelnames=("device",))
        assert a is b

    def test_kind_mismatch_rejected(self, registry):
        registry.counter("x_total")
        with pytest.raises(ConfigurationError):
            registry.gauge("x_total")

    def test_labelnames_mismatch_rejected(self, registry):
        registry.counter("x_total", labelnames=("device",))
        with pytest.raises(ConfigurationError):
            registry.counter("x_total", labelnames=("slot",))

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(ConfigurationError):
            registry.counter("bad name")
        with pytest.raises(ConfigurationError):
            registry.counter("ok_total", labelnames=("bad-label",))
        with pytest.raises(ConfigurationError):
            registry.counter("ok_total", labelnames=("a", "a"))

    def test_zero_label_series_visible_at_zero(self, registry):
        registry.counter("quiet_total", "never ticked")
        assert "quiet_total 0" in registry.expose()

    def test_reset_values_keeps_instruments(self, registry):
        counter = registry.counter("c_total")
        counter.inc(9)
        registry.reset_values()
        assert registry.get("c_total") is counter
        assert counter.series()[()].value == 0.0

    def test_bound_handle_updates_hot_series(self, registry):
        counter = registry.counter("c_total", labelnames=("device",))
        bound = counter.labels(device="a")
        bound.inc()
        bound.inc(2)
        assert counter.series()[("a",)].value == 3.0
        with pytest.raises(ConfigurationError):
            bound.inc(-1)


class TestExposition:
    def test_label_escaping(self, registry):
        counter = registry.counter("c_total", labelnames=("device",))
        counter.inc(1, device='we"ird\nname\\x')
        text = registry.expose()
        assert r'device="we\"ird\nname\\x"' in text

    def test_help_and_type_lines(self, registry):
        registry.counter("c_total", "what it counts")
        text = registry.expose()
        assert "# HELP c_total what it counts" in text
        assert "# TYPE c_total counter" in text

    def test_metric_names_sorted(self, registry):
        registry.counter("z_total")
        registry.counter("a_total")
        text = registry.expose()
        assert text.index("a_total") < text.index("z_total")

    def test_empty_registry_exposes_empty_string(self):
        assert MetricsRegistry().expose() == ""


class TestBuckets:
    def test_exponential(self):
        assert exponential_buckets(1.0, 2.0, 3) == (1.0, 2.0, 4.0)

    def test_linear(self):
        assert linear_buckets(1.0, 2.0, 3) == (1.0, 3.0, 5.0)

    def test_default_span(self):
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)
        assert len(DEFAULT_BUCKETS) == 12
        assert all(b < a for b, a in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:]))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            exponential_buckets(0.0, 2.0, 3)
        with pytest.raises(ConfigurationError):
            exponential_buckets(1.0, 1.0, 3)
        with pytest.raises(ConfigurationError):
            linear_buckets(0.0, -1.0, 3)


class TestSnapshots:
    def test_snapshot_shape(self, registry):
        counter = registry.counter("c_total", labelnames=("device",))
        counter.inc(2, device="a")
        hist = registry.histogram("h", buckets=(1.0,))
        hist.observe(0.5)
        snap = registry.snapshot()
        assert snap["schema"] == 1
        c = snap["metrics"]["c_total"]
        assert c["kind"] == "counter"
        assert c["series"] == [{"labels": {"device": "a"}, "value": 2.0}]
        h = snap["metrics"]["h"]["series"][0]
        assert h["buckets"] == {"1": 1.0, "+Inf": 0.0}
        assert h["count"] == 1.0

    def test_delta_subtracts_counters_passes_gauges(self, registry):
        counter = registry.counter("c_total")
        gauge = registry.gauge("g")
        counter.inc(5)
        gauge.set(10.0)
        old = registry.snapshot()
        counter.inc(3)
        gauge.set(4.0)
        delta = snapshot_delta(old, registry.snapshot())
        assert delta["metrics"]["c_total"]["series"][0]["value"] == 3.0
        assert delta["metrics"]["g"]["series"][0]["value"] == 4.0

    def test_delta_subtracts_histogram_buckets(self, registry):
        hist = registry.histogram("h", buckets=(1.0,))
        hist.observe(0.5)
        old = registry.snapshot()
        hist.observe(0.5)
        hist.observe(5.0)
        delta = snapshot_delta(old, registry.snapshot())
        entry = delta["metrics"]["h"]["series"][0]
        assert entry["buckets"] == {"1": 1.0, "+Inf": 1.0}
        assert entry["count"] == 2.0
        assert entry["sum"] == pytest.approx(5.5)

    def test_new_series_counts_from_zero(self, registry):
        counter = registry.counter("c_total", labelnames=("device",))
        old = registry.snapshot()
        counter.inc(4, device="new")
        delta = snapshot_delta(old, registry.snapshot())
        assert delta["metrics"]["c_total"]["series"][0]["value"] == 4.0

    def test_snapshot_is_json_ready(self, registry):
        import json

        registry.histogram("h").observe(0.5)
        text = json.dumps(registry.snapshot())
        assert "h" in text and not math.isnan(len(text))
