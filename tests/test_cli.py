"""Unit tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_roundtrip_defaults(self):
        args = build_parser().parse_args(["roundtrip"])
        assert args.device == "MSP432P401"
        assert args.copies == 7


class TestCommands:
    def test_list_devices(self, capsys):
        assert main(["list-devices"]) == 0
        out = capsys.readouterr().out
        assert "MSP432P401" in out
        assert "BCM2837" in out
        assert out.count("\n") >= 13  # header + 12 devices

    def test_experiment_list(self, capsys):
        assert main(["experiment", "--list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("fig06", "tab04", "sec74"):
            assert exp_id in out

    def test_experiment_unknown_id(self, capsys):
        assert main(["experiment", "nope"]) == 2

    def test_experiment_runs(self, capsys):
        assert main(["experiment", "ablation-order"]) == 0
        out = capsys.readouterr().out
        assert "ECC order" in out

    def test_roundtrip_fast(self, capsys):
        code = main([
            "roundtrip", "--fast", "--sram-kib", "2", "--message", "cli test",
        ])
        assert code == 0
        assert "round trip exact" in capsys.readouterr().out

    def test_roundtrip_prints_sub_kib_slice(self, capsys):
        code = main([
            "roundtrip", "--fast", "--sram-kib", "0.25", "--message", "hi",
        ])
        assert code == 0
        assert "(0.25 KiB slice)" in capsys.readouterr().out

    def test_roundtrip_without_key(self, capsys):
        code = main([
            "roundtrip", "--fast", "--sram-kib", "2", "--key", "",
            "--message", "plain",
        ])
        assert code == 0

    def test_survey(self, capsys):
        assert main(["survey"]) == 0
        out = capsys.readouterr().out
        assert "MSP432P401" in out

    def test_report_writes_combined_artifact(self, capsys, tmp_path, monkeypatch):
        # Shrink the experiment set so the test stays fast.
        from repro import cli

        monkeypatch.setattr(
            cli, "EXPERIMENTS",
            {"ablation-order": cli.EXPERIMENTS["ablation-order"],
             "fig02": cli.EXPERIMENTS["fig02"]},
        )
        out = tmp_path / "report.txt"
        assert main(["report", "--out", str(out)]) == 0
        text = out.read_text()
        assert "[ablation-order]" in text
        assert "[fig02]" in text
        assert "Figure 2" in text

    def test_inspect_clean_device(self, capsys, tmp_path):
        import numpy as np

        from repro.device import make_device
        from repro.io import save_captures

        device = make_device("MSP432P401", rng=400, sram_kib=2)
        samples = device.sram.capture_power_on_states(5)
        path = tmp_path / "caps.json"
        save_captures(path, samples, device_name="MSP432P401")
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_inspect_flags_plaintext_payload(self, capsys, tmp_path):
        from repro.core.payloads import synthetic_image_bytes
        from repro.core.pipeline import InvisibleBits
        from repro.device import make_device
        from repro.harness import ControlBoard
        from repro.io import save_captures

        device = make_device("MSP432P401", rng=401, sram_kib=2)
        board = ControlBoard(device)
        InvisibleBits(board, use_firmware=False).send(
            synthetic_image_bytes(1800, rng=1)
        )
        path = tmp_path / "caps.json"
        save_captures(path, board.capture_power_on_states(5))
        assert main(["inspect", str(path)]) == 1
        assert "SUSPICIOUS" in capsys.readouterr().out

    def test_inspect_bad_row_width(self, tmp_path, capsys):
        import numpy as np

        from repro.io import save_captures

        path = tmp_path / "caps.json"
        save_captures(
            path, np.zeros((1, 1024), dtype=np.uint8) | 1
        )
        assert main(["inspect", str(path), "--row-width", "100"]) == 2

    def test_puf_clone(self, capsys):
        assert main(["puf-clone", "--sram-kib", "1"]) == 0
        out = capsys.readouterr().out
        assert "clone distance" in out
        assert "True" in out

    def test_trng(self, capsys):
        assert main(["trng", "--sram-kib", "2", "--bytes", "32"]) == 0
        out = capsys.readouterr().out
        assert "monobit" in out
        assert "FAIL" not in out

    def test_every_experiment_id_maps_to_a_module(self):
        import importlib

        for exp_id, (module_name, func_name) in EXPERIMENTS.items():
            module = importlib.import_module(f"repro.experiments.{module_name}")
            assert callable(getattr(module, func_name)), exp_id

    def test_faults_show_prints_resolved_plan(self, capsys):
        assert main(["faults", "--show", "--plan", "flaky:0.02@seed=7"]) == 0
        out = capsys.readouterr().out
        assert '"flaky_port"' in out
        assert '"seed": 7' in out

    def test_faults_chaos_roundtrip(self, capsys):
        code = main([
            "faults", "--device", "MSP430G2553", "--sram-kib", "0.5",
            "--rate", "0.2", "--flaky-rate", "0.1", "--schedule",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "[exact]" in out
        assert "escalation provenance" in out
        assert "total_captures" in out

    def test_faults_rejects_bad_plan(self, capsys):
        from repro.errors import ConfigurationError

        import pytest

        with pytest.raises(ConfigurationError):
            main(["faults", "--plan", "gremlins:1.0"])

    def test_global_fault_plan_sets_env_for_the_command(self, capsys,
                                                        monkeypatch):
        import os

        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        code = main([
            "--fault-plan", "flaky:0.05", "roundtrip",
            "--device", "MSP430G2553", "--sram-kib", "0.5", "--fast",
        ])
        assert code == 0
        assert "round trip exact" in capsys.readouterr().out
        assert "REPRO_FAULT_PLAN" not in os.environ  # restored afterwards

    def test_global_fault_plan_validates_early(self):
        import pytest

        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["--fault-plan", "bogus:x", "list-devices"])


class TestTelemetryCommand:
    def test_summarize_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["telemetry", "summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_summarize_empty_trace_diagnoses_and_exits_1(self, tmp_path, capsys):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        assert main(["telemetry", "summarize", str(trace)]) == 1
        err = capsys.readouterr().err
        assert "trace is empty" in err
        assert "REPRO_TRACE" in err

    def test_summarize_real_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        code = main([
            "--trace", str(trace), "roundtrip", "--fast",
            "--sram-kib", "2", "--message", "hi",
        ])
        assert code == 0
        assert main(["telemetry", "summarize", str(trace)]) == 0
        assert "channel.send" in capsys.readouterr().out


@pytest.fixture
def traced_run(tmp_path):
    """A real JSONL trace plus the metrics exposition from one roundtrip."""
    trace = tmp_path / "trace.jsonl"
    prom = tmp_path / "metrics.prom"
    code = main([
        "--trace", str(trace), "--metrics-out", str(prom),
        "roundtrip", "--fast", "--sram-kib", "2", "--message", "hi",
    ])
    assert code == 0
    return trace, prom


class TestMonitorCommand:
    def test_report_on_healthy_trace(self, traced_run, capsys):
        trace, _ = traced_run
        assert main(["monitor", "report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "# Fleet monitor report" in out
        assert "raw-ber-ceiling" in out

    def test_report_exits_1_when_rule_fires(self, traced_run, capsys):
        trace, _ = traced_run
        # An absurd SLO: any successful roundtrip violates it.
        code = main([
            "monitor", "report", str(trace), "--ber-ceiling", "0.0001",
        ])
        assert code == 1
        assert "FIRING" in capsys.readouterr().out

    def test_report_html_to_file(self, traced_run, tmp_path, capsys):
        trace, _ = traced_run
        out = tmp_path / "report.html"
        assert main([
            "monitor", "report", str(trace), "--html", "--out", str(out),
        ]) == 0
        assert out.read_text().startswith("<!DOCTYPE html>")

    def test_watch_once_renders_ascii_dashboard(self, traced_run, capsys):
        trace, _ = traced_run
        assert main(["monitor", "watch", str(trace), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro fleet monitor" in out
        assert all(ord(ch) < 128 for ch in out)

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        assert main(["monitor", "report", str(tmp_path / "no.jsonl")]) == 2
        assert main(["monitor", "watch", str(tmp_path / "no.jsonl"),
                     "--once"]) == 2


class TestMetricsOutOption:
    def test_exposition_written_after_command(self, traced_run):
        _, prom = traced_run
        text = prom.read_text()
        assert "# TYPE repro_messages_total counter" in text
        assert 'phase="send"' in text
        assert "repro_capture_ber_bucket" in text

    def test_registry_state_restored(self, traced_run):
        from repro import metrics

        assert not metrics.registry.enabled


class TestBenchCommand:
    @staticmethod
    def _snapshot(path, value):
        import json

        path.write_text(json.dumps({
            "schema": 1,
            "metrics": {
                "batch_capture_ms": {"value": value, "better": "lower"},
            },
        }))
        return path

    def test_compare_ok(self, tmp_path, capsys):
        old = self._snapshot(tmp_path / "old.json", 100.0)
        new = self._snapshot(tmp_path / "new.json", 105.0)
        assert main(["bench", "compare", str(old), str(new)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_regression_exits_1(self, tmp_path, capsys):
        old = self._snapshot(tmp_path / "old.json", 100.0)
        new = self._snapshot(tmp_path / "new.json", 130.0)
        assert main(["bench", "compare", str(old), str(new)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_gate_is_tunable(self, tmp_path):
        old = self._snapshot(tmp_path / "old.json", 100.0)
        new = self._snapshot(tmp_path / "new.json", 130.0)
        assert main(["bench", "compare", str(old), str(new),
                     "--gate", "50"]) == 0

    def test_missing_snapshot_exits_2(self, tmp_path, capsys):
        old = self._snapshot(tmp_path / "old.json", 1.0)
        assert main(["bench", "compare", str(old),
                     str(tmp_path / "absent.json")]) == 2

    def test_malformed_snapshot_exits_2(self, tmp_path, capsys):
        old = self._snapshot(tmp_path / "old.json", 1.0)
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a snapshot"}')
        assert main(["bench", "compare", str(old), str(bad)]) == 2
        assert capsys.readouterr().err


class TestVerifyCommand:
    def test_verify_list(self, capsys):
        assert main(["verify", "--list"]) == 0
        out = capsys.readouterr().out
        assert "ecc.roundtrip" in out
        assert "capture.batch_vs_loop" in out

    def test_verify_selected_oracles(self, capsys):
        code = main([
            "verify", "--examples", "2", "--seed", "3",
            "--oracle", "ecc.roundtrip", "--oracle", "crypto.ctr_involution",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2/2 oracles ok" in out
        assert "ecc.roundtrip" in out

    def test_verify_unknown_oracle(self, capsys):
        assert main(["verify", "--oracle", "bogus.name"]) == 2
        assert "unknown oracle" in capsys.readouterr().err

    def test_verify_mutation_smoke(self, capsys):
        code = main([
            "verify", "--examples", "1", "--mutation-smoke",
            "--oracle", "bitutils.pack_roundtrip",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "planted defects caught" in out
        assert "MISSED" not in out


class TestGlobalFlagPositions:
    """The shared parent parser: global flags before OR after the command."""

    def test_trace_after_subcommand(self, tmp_path, capsys):
        trace = tmp_path / "after.jsonl"
        code = main([
            "roundtrip", "--trace", str(trace), "--fast",
            "--device", "MSP430G2553", "--sram-kib", "0.25", "--message", "hi",
        ])
        assert code == 0
        assert trace.exists() and trace.stat().st_size > 0

    def test_trace_before_subcommand_still_works(self, tmp_path):
        trace = tmp_path / "before.jsonl"
        code = main([
            "--trace", str(trace), "roundtrip", "--fast",
            "--device", "MSP430G2553", "--sram-kib", "0.25", "--message", "hi",
        ])
        assert code == 0
        assert trace.exists() and trace.stat().st_size > 0

    def test_root_value_not_clobbered_by_subparser(self, tmp_path):
        """SUPPRESS defaults: the subparser must not reset a root flag."""
        args = build_parser().parse_args([
            "--metrics-out", str(tmp_path / "m.prom"), "list-devices",
        ])
        assert args.metrics_out == str(tmp_path / "m.prom")

    def test_metrics_out_after_subcommand(self, tmp_path, capsys):
        out = tmp_path / "m.prom"
        code = main(["list-devices", "--metrics-out", str(out)])
        assert code == 0
        assert "repro" in out.read_text() or out.read_text() == ""

    def test_every_subcommand_accepts_the_global_flags(self):
        parser = build_parser()
        # Probing via parse_args would run commands; inspect the actions.
        sub = next(
            action for action in parser._actions
            if isinstance(action, __import__("argparse")._SubParsersAction)
        )
        for name, subparser in sub.choices.items():
            flags = {
                flag
                for action in subparser._actions
                for flag in action.option_strings
            }
            assert {"--trace", "--fault-plan", "--metrics-out"} <= flags, name


class TestServeAndLoadCommands:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.shards == 4
        assert args.port == 8642
        assert args.duration is None

    def test_load_parser_defaults(self):
        args = build_parser().parse_args(["load"])
        assert args.messages == 200
        assert args.url.endswith(":8642")

    def test_serve_duration_runs_and_drains(self, capsys):
        code = main([
            "serve", "--shards", "2", "--port", "0", "--duration", "0.3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "serving 2 shards on http://127.0.0.1:" in out
        assert '"completed"' in out  # final stats JSON

    def test_serve_rejects_unknown_fault_shard(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="fault_shards"):
            main([
                "serve", "--shards", "2", "--port", "0",
                "--duration", "0.1", "--fault-shards", "shard-9",
                "--shard-fault-plan", "flaky:0.5",
            ])

    def test_load_against_dead_endpoint_exits_nonzero(self, capsys):
        code = main([
            "load", "--url", "http://127.0.0.1:9",  # discard port: refused
            "--messages", "2", "--concurrency", "1", "--timeout", "2",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "soak failed" in captured.err

    def test_recover_rebuilds_the_served_config(
        self, tmp_path, monkeypatch, capsys
    ):
        """``serve --journal-dir`` persists exactly the listed fields, and
        ``recover`` rebuilds the same config from them."""
        import json

        import repro.service
        from repro.cli import _PERSISTED_CONFIG_FIELDS

        built = {}

        def fake_serve(config, **_kwargs):
            built["serve"] = config
            return {}

        def spy_recover(config):
            built["recover"] = config
            return recover_components(config)

        recover_components = repro.service.recover_components
        monkeypatch.setattr(repro.service, "serve_forever", fake_serve)
        monkeypatch.setattr(repro.service, "recover_components", spy_recover)
        journal_dir = str(tmp_path / "jd")
        assert main([
            "serve", "--journal-dir", journal_dir, "--shards", "3",
            "--queue-depth", "9", "--max-batch", "5", "--device", "MSP432P401",
            "--sram-kib", "0.5", "--seed", "7", "--checkpoint-every", "4",
            "--max-resident", "11",
        ]) == 0
        saved = json.loads((tmp_path / "jd" / "config.json").read_text())
        assert list(saved) == list(_PERSISTED_CONFIG_FIELDS)
        assert main(["recover", journal_dir]) == 0
        capsys.readouterr()
        for field in _PERSISTED_CONFIG_FIELDS:
            assert getattr(built["recover"], field) == getattr(
                built["serve"], field
            ), field


class TestTraceCommand:
    def test_search_lists_roundtrip_traces(self, traced_run, capsys):
        trace, _ = traced_run
        assert main(["trace", "search", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace(s)" in out
        assert "channel.send" in out

    def test_search_no_match_exits_1(self, traced_run, capsys):
        trace, _ = traced_run
        code = main([
            "trace", "search", str(trace), "--min-dur-ms", "1e12",
        ])
        assert code == 1
        assert "no traces matched" in capsys.readouterr().out

    def test_search_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["trace", "search", str(tmp_path / "no.jsonl")]) == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_show_renders_tree_from_prefix(self, traced_run, capsys):
        from repro.telemetry import load_records, traceview

        trace, _ = traced_run
        summaries = traceview.search_traces(
            load_records(trace), name="channel.send"
        )
        assert summaries
        trace_id = summaries[0].trace_id
        assert main(["trace", "show", str(trace), trace_id[:10]]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"trace {trace_id}:")
        assert "channel.send" in out

    def test_show_without_id_exits_2(self, traced_run, capsys):
        trace, _ = traced_run
        assert main(["trace", "show", str(trace)]) == 2
        assert "TRACE_ID" in capsys.readouterr().err

    def test_show_unknown_id_exits_2(self, traced_run, capsys):
        trace, _ = traced_run
        assert main(["trace", "show", str(trace), "ffffffff"]) == 2
        assert "no trace matching" in capsys.readouterr().err

    def test_critical_path_aggregate(self, traced_run, capsys):
        trace, _ = traced_run
        assert main(["trace", "critical-path", str(trace)]) == 0
        assert "aggregate critical path" in capsys.readouterr().out

    def test_critical_path_single_trace(self, traced_run, capsys):
        from repro.telemetry import load_records, traceview

        trace, _ = traced_run
        trace_id = traceview.search_traces(load_records(trace))[0].trace_id
        code = main(["trace", "critical-path", str(trace), trace_id])
        assert code == 0
        assert f"critical path of trace {trace_id}" in capsys.readouterr().out


class TestProfileOutOption:
    def test_profiles_any_command(self, tmp_path, capsys):
        out = tmp_path / "profile.txt"
        code = main([
            "--profile-out", str(out), "roundtrip", "--fast",
            "--sram-kib", "2", "--message", "hi",
        ])
        assert code == 0
        text = out.read_text()
        assert "# repro-profile mode=wall" in text

    def test_profile_mode_cpu(self, tmp_path):
        out = tmp_path / "profile.txt"
        code = main([
            "--profile-out", str(out), "--profile-mode", "cpu",
            "list-devices",
        ])
        assert code == 0
        assert "mode=cpu" in out.read_text()
