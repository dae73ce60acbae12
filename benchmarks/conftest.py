"""Benchmark-harness fixtures and the bench-history plugin.

Every bench regenerates one of the paper's tables or figures through
:mod:`repro.experiments`, checks its paper-shape invariants, and writes the
rendered table to ``benchmarks/out/<id>.txt`` so EXPERIMENTS.md's measured
numbers are auditable from a single run of::

    pytest benchmarks/ --benchmark-only

On a fully green session the plugin also persists a machine-readable
record of the run (see :mod:`repro.bench`):

- every passed test's call-phase wall time becomes a ``wall_<test>``
  metric (``better="lower"``);
- tests may publish derived numbers (speedups, overhead ratios) through
  the ``record_metric`` fixture with an explicit good direction;
- the snapshot is appended to ``BENCH_history.jsonl`` (a growing local
  log, gitignored) and written to ``BENCH_substrate.json`` at the repo
  root — the committed baseline ``repro bench compare`` gates against.
"""

from __future__ import annotations

import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent
OUT_DIR = pathlib.Path(__file__).parent / "out"

#: Metrics published by tests via ``record_metric`` this session.
_RECORDED: dict = {}
#: Wall times harvested from passed call-phase reports this session.
_DURATIONS: dict = {}


@pytest.fixture(scope="session", autouse=True)
def _out_dir():
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture(scope="session", autouse=True)
def _scipy_stats_loaded():
    """Import ``scipy.stats`` once, before any bench is timed.

    The statistics helpers import it inside the functions that need it
    (the serving path loads no scipy), so without this the first bench
    to call one — ``test_ext_soft_decision`` in CI's smoke subset —
    would time a ~1 s module import, not its own code.
    """
    import scipy.stats  # noqa: F401


@pytest.fixture(autouse=True)
def _global_metrics_isolated():
    """Zero the global metrics registry around every bench.

    Service benches enable the global registry for their soaks (the
    fleet kernel bumps ``repro_capture_cells_total`` and friends while
    it is on), which leaks accumulated values into later benches that
    assert a cold registry — the disabled-fast-path bench in particular.
    Value reset keeps the suite order-independent; enabled-state is
    restored so a bench can never leave the registry on for the next.
    """
    from repro import metrics

    was_enabled = metrics.registry.enabled
    metrics.registry.reset_values()
    yield
    if was_enabled:
        metrics.registry.enable()
    else:
        metrics.disable()
    metrics.registry.reset_values()


@pytest.fixture
def frozen_heap():
    """Exclude the session's accumulated heap from GC for one bench.

    Late in a full bench session the live heap is huge (cached arrays,
    experiment results, earlier soaks), so every collection an
    allocation-heavy soak triggers sweeps that whole heap — wall times
    then depend on suite position, not on the code under test (measured
    as a ~25% slowdown on the 10k service soak).  ``gc.freeze()`` moves
    the pre-existing objects to the permanent generation: the bench
    still pays for its *own* garbage, but not for the session's.
    """
    import gc

    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


@pytest.fixture
def save_report():
    """Persist an ExperimentResult (or raw text) under benchmarks/out/."""

    def _save(name: str, result) -> None:
        text = result if isinstance(result, str) else result.to_text()
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)

    return _save


@pytest.fixture
def record_metric():
    """Publish a named number into this run's bench-history snapshot.

    ``better`` declares the metric's good direction ("lower" for times,
    "higher" for speedups/throughput) so the regression gate knows which
    way is bad.
    """

    def _record(
        name: str, value: float, *, better: str = "lower", unit: str = ""
    ) -> None:
        _RECORDED[name] = {
            "value": float(value),
            "better": better,
            "unit": unit,
        }

    return _record


def pytest_runtest_logreport(report):
    if report.when == "call" and report.passed:
        test_name = report.nodeid.split("::")[-1]
        _DURATIONS[f"wall_{test_name}"] = {
            "value": float(report.duration),
            "better": "lower",
            "unit": "s",
        }


def pytest_sessionfinish(session, exitstatus):
    # Only a fully green session is a trustworthy baseline; partial or
    # red runs must never overwrite the substrate snapshot.
    if exitstatus != 0 or not (_RECORDED or _DURATIONS):
        return
    from repro import bench

    snapshot = bench.make_snapshot({**_DURATIONS, **_RECORDED})
    bench.append_history(snapshot, ROOT / "BENCH_history.jsonl")
    bench.write_snapshot(snapshot, ROOT / "BENCH_substrate.json")
    tw = getattr(session.config, "_tw", None)
    message = (
        f"bench history: {len(_DURATIONS) + len(_RECORDED)} metric(s) -> "
        f"BENCH_substrate.json (sha {snapshot.get('git_sha') or '?'})"
    )
    if tw is not None:  # pragma: no cover - cosmetic
        tw.line(message)
    else:
        print(message)
