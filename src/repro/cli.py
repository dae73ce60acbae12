"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list-devices`` — the Table 1 catalog with recipes;
- ``roundtrip`` — run the full protocol on a simulated device;
- ``survey`` — capacity/error planning across the catalog;
- ``experiment`` — regenerate one of the paper's tables/figures by ID
  (``fig06``, ``tab04``, ...; ``--list`` shows all);
- ``telemetry summarize <path>`` — render a JSONL trace written by the
  global ``--trace PATH`` option (or the ``REPRO_TRACE`` env var);
- ``monitor watch|report <trace>`` — replay (or tail) a trace through
  the SLO monitor: a live ASCII dashboard, or a markdown/HTML report
  (see docs/metrics.md); exits 1 while any rule is firing;
- ``bench compare OLD NEW`` — diff two ``BENCH_substrate.json``
  snapshots and exit nonzero on a regression past ``--gate`` percent;
- ``faults`` — chaos-test the protocol under an injected fault plan and
  report the schedule, counters and escalation provenance;
- ``verify`` — sweep the seeded differential verification oracles
  (``repro.verify``) and optionally the mutation smoke that plants known
  defects the oracles must catch;
- ``serve`` — run the sharded async encode/decode service
  (:mod:`repro.service`) with its HTTP frontend until SIGINT/SIGTERM,
  ``POST /shutdown``, or ``--duration`` elapses, then drain gracefully;
- ``load`` — fire a deterministic send→receive→verify soak at a running
  service and exit nonzero unless every message is accounted for.

The global options — ``--trace PATH``, ``--fault-plan SPEC``,
``--metrics-out PATH`` — live in one shared parent parser, so they are
accepted both before and after any subcommand (``repro --trace t.jsonl
serve`` and ``repro serve --trace t.jsonl`` are the same invocation).
``--fault-plan`` (a JSON plan path or a compact spec like
``flaky:0.02``) runs the command with fault injection enabled on every
control board — equivalent to setting ``REPRO_FAULT_PLAN``.
``--metrics-out`` enables the metrics registry, bridges telemetry into
it, and writes the Prometheus exposition to PATH when the command
finishes.
"""

from __future__ import annotations

import argparse
import sys

from .device.catalog import all_device_specs, device_spec

#: Experiment IDs -> (module name, callable name).  Modules are imported
#: lazily so ``--help`` stays instant.
EXPERIMENTS = {
    "fig01": ("fig01_image", "run"),
    "fig02": ("fig02_waveforms", "run"),
    "fig03": ("fig03_directed_aging", "run"),
    "fig06": ("fig06_stress_time", "run"),
    "fig07": ("fig07_recovery", "run"),
    "fig08": ("fig08_repetition_visual", "run"),
    "fig09": ("fig09_copies_stress", "run"),
    "fig10": ("fig10_hamming", "run"),
    "fig11": ("fig11_weights", "run"),
    "fig12": ("fig12_entropy", "run"),
    "fig13": ("fig13_end_to_end", "run"),
    "fig14": ("fig14_multisnapshot", "run"),
    "fig15": ("fig15_tradeoff", "run"),
    "tab01": ("tab01_devices", "run"),
    "tab02": ("tab02_spatial", "run"),
    "tab03": ("tab03_comparison", "run"),
    "tab04": ("tab04_devices", "run"),
    "tab05": ("tab05_indistinguishability", "run"),
    "sec514": ("sec514_normal_operation", "run"),
    "sec72": ("sec72_complex_systems", "run"),
    "sec74": ("sec74_adversarial", "run"),
    "ext-soft": ("ext_soft_decision", "run"),
    "ext-soft-ladder": ("ext_soft_decision", "run_recovery_ladder"),
    "ablation-noise": ("ablation_noise", "run"),
    "ablation-votes": ("ablations", "run_capture_votes"),
    "ablation-cipher": ("ablations", "run_cipher_mode"),
    "ablation-order": ("ablations", "run_ecc_order"),
    "ablation-interleave": ("ablations", "run_interleaver"),
}


def _cmd_list_devices(_args) -> int:
    print(f"{'device':<18}{'core':<28}{'SRAM':>9}{'Flash':>8}"
          f"{'Vacc':>6}{'hours':>6}{'bit rate':>9}")
    for spec in all_device_specs():
        print(
            f"{spec.name:<18}{spec.cpu_core:<28}"
            f"{spec.sram_kib:>7.1f}Ki{spec.flash_kib:>6.0f}Ki"
            f"{spec.recipe.vdd_stress:>5.1f}V{spec.recipe.stress_hours:>6.0f}"
            f"{spec.recipe.bit_rate:>8.1%}"
        )
    return 0


def _cmd_roundtrip(args) -> int:
    from .core.pipeline import InvisibleBits
    from .core.scheme import paper_end_to_end_scheme
    from .device.catalog import make_device
    from .harness.controlboard import ControlBoard

    device = make_device(args.device, rng=args.seed, sram_kib=args.sram_kib)
    board = ControlBoard(device)
    key = bytes.fromhex(args.key) if args.key else None
    scheme = paper_end_to_end_scheme(
        key, copies=args.copies
    ).with_decision(args.decision)
    channel = InvisibleBits(board, scheme=scheme, use_firmware=not args.fast)
    message = args.message.encode()
    print(f"encoding {len(message)} bytes on {device.spec.name} "
          f"({device.sram.n_bytes / 1024:g} KiB slice)...")
    sent = channel.send(message)
    print(f"  stress: {sent.stress_hours:.0f} h at the Table 4 recipe; "
          f"payload {sent.capacity_used:.1%} of SRAM")
    result = channel.receive(expected_payload=sent.payload_bits)
    print(f"recovered: {result.message.decode(errors='replace')!r}")
    if result.raw_error_vs is not None:
        print(f"  raw channel BER vs truth: {result.raw_error_vs:.2%}")
    if result.message != message:
        print("MISMATCH", file=sys.stderr)
        return 1
    print("round trip exact")
    return 0


def _cmd_survey(_args) -> int:
    from .core.channel import ChannelModel
    from .core.message import max_message_bytes
    from .core.planner import plan_scheme

    print(f"{'device':<18}{'err@recipe':>11}{'scheme':>36}{'payload':>10}")
    for spec in all_device_specs():
        error = ChannelModel(spec).recipe_error()
        scheme = plan_scheme(error, 0.001)
        capacity = max_message_bytes(spec.sram_bits, ecc=scheme)
        print(f"{spec.name:<18}{error:>10.2%} {scheme.name:>35}{capacity:>9,}B")
    return 0


def _cmd_report(args) -> int:
    """Run every experiment and write one combined artifact report."""
    import importlib
    import time

    sections = []
    for exp_id in sorted(EXPERIMENTS):
        module_name, func_name = EXPERIMENTS[exp_id]
        module = importlib.import_module(f"repro.experiments.{module_name}")
        started = time.time()
        out = getattr(module, func_name)()
        elapsed = time.time() - started
        results = []
        if hasattr(out, "to_text"):
            results.append(out)
        if hasattr(out, "result"):
            results.append(out.result)
        for attr in ("result_abc", "result_d"):
            if hasattr(out, attr):
                results.append(getattr(out, attr))
        body = "\n\n".join(r.to_text() for r in results)
        sections.append(f"[{exp_id}] ({elapsed:.1f}s)\n{body}")
        print(f"{exp_id}: done in {elapsed:.1f}s")
    report = (
        "INVISIBLE BITS — full experiment report\n"
        "========================================\n\n"
        + "\n\n".join(sections)
        + "\n"
    )
    import pathlib

    pathlib.Path(args.out).write_text(report)
    print(f"wrote {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    """Run the steganalysis suite over a saved capture file."""
    from .bitutils import majority_vote
    from .core.steganalysis import analyze_power_on_state
    from .io import load_captures

    samples, info = load_captures(args.captures)
    voted = majority_vote(samples)
    width = args.row_width
    if voted.size % width:
        print(f"row width {width} does not divide {voted.size} bits",
              file=sys.stderr)
        return 2
    report = analyze_power_on_state(voted, (voted.size // width, width))
    name = info["device_name"] or "<unknown device>"
    print(f"device:             {name} ({samples.shape[0]} captures, "
          f"{voted.size} bits)")
    print(f"Moran's I:          {report.morans_i.statistic:+.4f} "
          f"(p = {report.morans_i.p_value:.3f})")
    print(f"mean power-on bias: {report.mean_bias:.4f}")
    print(f"normalized entropy: {report.normalized_entropy:.4f} "
          f"(fresh SRAM: ~0.0312)")
    verdict = "SUSPICIOUS" if report.looks_encoded() else "clean"
    print(f"verdict:            {verdict}")
    return 1 if report.looks_encoded() else 0


def _cmd_puf_clone(args) -> int:
    from .device.catalog import make_device
    from .puf import SramPuf, clone_power_on_state

    victim = make_device(args.device, rng=args.seed, sram_kib=args.sram_kib)
    fingerprint = SramPuf(victim).response()
    blank = make_device(args.device, rng=args.seed + 1, sram_kib=args.sram_kib)
    result = clone_power_on_state(
        fingerprint, blank, stress_hours=args.stress_hours
    )
    print(f"victim fingerprint: {result.target_bits} bits")
    print(f"blank-device distance before attack: {result.baseline_distance:.1%}")
    print(f"clone distance after {result.stress_hours:.0f} h directed aging: "
          f"{result.clone_distance:.1%}")
    print(f"fools a 20% authentication threshold: "
          f"{result.fools_threshold(0.20)}")
    return 0


def _cmd_trng(args) -> int:
    from .bitutils import bytes_to_bits
    from .device.catalog import make_device
    from .puf import PowerOnTrng
    from .stats.randomness import run_battery

    device = make_device(args.device, rng=args.seed, sram_kib=args.sram_kib)
    trng = PowerOnTrng(device)
    trng.characterize()
    print(f"noisy cells: {trng.noisy_cell_count} / {device.sram.n_bits}")
    data = trng.random_bytes(args.bytes)
    print(f"harvested {len(data)} bytes: {data[:16].hex()}...")
    for verdict in run_battery(bytes_to_bits(data)):
        status = "pass" if verdict.passed else "FAIL"
        print(f"  {verdict.test}: p = {verdict.p_value:.3f} [{status}]")
    return 0


def _cmd_telemetry(args) -> int:
    """Inspect trace files written by ``--trace`` or ``REPRO_TRACE``."""
    from .telemetry import EmptyTraceError, summarize_file

    if args.action != "summarize":  # argparse choices already guard this
        print(f"unknown telemetry action {args.action!r}", file=sys.stderr)
        return 2
    try:
        print(summarize_file(args.path))
    except FileNotFoundError:
        print(f"{args.path}: no such trace file", file=sys.stderr)
        return 2
    except EmptyTraceError:
        print(
            f"{args.path}: trace is empty — was a sink attached? "
            f"(run under `repro --trace {args.path} ...` or set REPRO_TRACE)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_trace(args) -> int:
    """Query a JSONL trace by trace_id: search, span tree, critical path."""
    from .telemetry import load_records, traceview

    try:
        records = load_records(args.path)
    except FileNotFoundError:
        print(f"{args.path}: no such trace file", file=sys.stderr)
        return 2
    try:
        if args.action == "search":
            summaries = traceview.search_traces(
                records,
                trace_id=args.trace_id,
                name=args.name,
                status=args.status,
                min_dur_ms=args.min_dur_ms,
                limit=args.limit,
            )
            if args.complete:
                summaries = [s for s in summaries if s.complete]
            print(traceview.render_search(summaries))
            return 0 if summaries else 1
        if args.action == "show":
            if not args.trace_id:
                print("show needs a TRACE_ID (or unique prefix)",
                      file=sys.stderr)
                return 2
            print(traceview.render_tree(records, args.trace_id))
            return 0
        # critical-path: one trace when an id is given, else aggregate.
        print(traceview.render_critical_path(records, args.trace_id or None))
        return 0
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


def _cmd_monitor(args) -> int:
    """Replay (or tail) a JSONL trace through the SLO fleet monitor."""
    import pathlib
    import time

    from .metrics import MetricsRegistry
    from .monitor import FleetMonitor, default_slo_rules

    rules = default_slo_rules(
        raw_ber_ceiling=args.ber_ceiling,
        vote_margin_floor=args.margin_floor,
        retry_budget=args.retry_budget,
        quarantine_budget=args.quarantine_budget,
    )
    # A private registry: watching a recorded trace must not disturb the
    # process-wide one (or double-count direct hot-path instruments).
    monitor = FleetMonitor(rules, registry=MetricsRegistry())
    monitor.registry.enable()

    if args.action == "report":
        try:
            monitor.feed_jsonl(args.path)
        except FileNotFoundError:
            print(f"{args.path}: no such trace file", file=sys.stderr)
            return 2
        monitor.sample()
        text = monitor.report(fmt="html" if args.html else "markdown")
        if args.out:
            pathlib.Path(args.out).write_text(text, encoding="utf-8")
            print(f"wrote {args.out}")
        else:
            print(text, end="")
        return 1 if monitor.active_alerts() else 0

    offset = 0
    try:
        while True:
            try:
                offset = monitor.feed_jsonl(args.path, start=offset)
            except FileNotFoundError:
                print(f"{args.path}: no such trace file", file=sys.stderr)
                return 2
            monitor.sample()
            frame = monitor.dashboard()
            if args.once:
                print(frame)
                break
            # ANSI clear+home: the only escape the dashboard ever needs.
            print("\x1b[2J\x1b[H" + frame, flush=True)
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        print()
    return 1 if monitor.active_alerts() else 0


def _cmd_bench(args) -> int:
    """Diff two bench snapshots; exit 1 when a metric regressed."""
    from . import bench

    if args.action != "compare":  # argparse choices already guard this
        print(f"unknown bench action {args.action!r}", file=sys.stderr)
        return 2
    try:
        old = bench.load_snapshot(args.old)
        new = bench.load_snapshot(args.new)
    except FileNotFoundError as exc:
        print(f"{exc.filename}: no such snapshot", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    comparison = bench.compare_snapshots(old, new, gate_pct=args.gate)
    print(bench.render_comparison(comparison))
    return 0 if comparison.ok else 1


def _cmd_faults(args) -> int:
    """Chaos-test the full protocol under an injected fault plan."""
    import json

    from .core.pipeline import InvisibleBits
    from .core.scheme import paper_end_to_end_scheme
    from .device.catalog import make_device
    from .faults import FaultInjector, FaultPlan, transient_capture_plan
    from .harness.controlboard import ControlBoard

    if args.plan:
        plan = FaultPlan.from_spec(args.plan)
    else:
        plan = transient_capture_plan(
            args.rate, flaky_rate=args.flaky_rate, seed=args.seed
        )
    if args.show:
        print(plan.to_json())
        return 0

    device = make_device(args.device, rng=args.seed, sram_kib=args.sram_kib)
    injector = FaultInjector(plan)
    board = ControlBoard(device, fault_injector=injector)
    key = bytes.fromhex(args.key) if args.key else None
    channel = InvisibleBits(
        board, scheme=paper_end_to_end_scheme(key), use_firmware=False
    )
    message = args.message.encode()
    print(f"plan: {json.dumps(plan.to_dict())}")
    print(f"chaos roundtrip of {len(message)} bytes on {device.spec.name}...")
    channel.send(message)
    result = channel.receive()
    ok = result.message == message
    print(f"recovered: {result.message.decode(errors='replace')!r} "
          f"[{'exact' if ok else 'MISMATCH'}]")
    escalation = result.provenance()["escalation"]
    print("escalation provenance:")
    for key_, value in escalation.items():
        print(f"  {key_}: {value}")
    print("injector counters:")
    for name in sorted(injector.counters):
        print(f"  {name}: {injector.counters[name]}")
    if args.schedule:
        print("fault schedule (event, kind, detail):")
        for event, kind, detail in injector.schedule:
            print(f"  {event:>4}  {kind:<20} {detail}")
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    """Sweep the differential oracle registry (and the mutation smoke)."""
    from .verify import all_oracles, run_mutation_smoke, run_verification

    if args.list:
        name_w = max(len(o.name) for o in all_oracles())
        for orc in all_oracles():
            cap = f" (<= {orc.examples} examples)" if orc.examples else ""
            print(f"{orc.name.ljust(name_w)}  {orc.doc}{cap}")
        return 0
    try:
        summary = run_verification(
            seed=args.seed,
            max_examples=args.examples,
            names=args.oracle or None,
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.mutation_smoke:
        summary = type(summary)(
            seed=summary.seed,
            max_examples=summary.max_examples,
            reports=summary.reports,
            mutation_reports=run_mutation_smoke(seed=args.seed),
        )
    print(summary.to_text())
    return 0 if summary.ok else 1


def _cmd_serve(args) -> int:
    """Run the sharded fleet service with its HTTP frontend."""
    import json

    from .faults import FaultPlan
    from .service import ServiceConfig, serve_forever

    plan = (
        FaultPlan.from_spec(args.shard_fault_plan)
        if args.shard_fault_plan
        else None
    )
    fault_shards = tuple(
        name for name in (args.fault_shards or "").split(",") if name
    )
    config = ServiceConfig(
        shards=args.shards,
        queue_depth=args.queue_depth,
        max_batch=args.max_batch,
        device_name=args.device,
        sram_kib=args.sram_kib,
        seed=args.seed,
        host=args.host,
        port=args.port,
        fault_plan=plan,
        fault_shards=fault_shards,
        journal_dir=args.journal_dir,
        checkpoint_every=args.checkpoint_every,
        max_resident=args.max_resident,
        probe_interval_s=args.probe_interval,
        readmit_after=args.readmit_after,
    )
    if args.journal_dir is not None:
        _write_service_config_json(config)

    def on_ready(service) -> None:
        recovered = ""
        r = service.ledger.report
        if r is not None:
            recovered = (
                f" (recovered: checkpoint={r.checkpoint} "
                f"cached={r.cached} replayed={r.replayed} "
                f"torn_tail={r.torn_tail})"
            )
        print(
            f"serving {config.shards} shards on "
            f"http://{config.host}:{service.port}{recovered} "
            "(SIGINT/SIGTERM or POST /shutdown drains and exits)",
            flush=True,
        )

    stats = serve_forever(config, duration=args.duration, on_ready=on_ready)
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


#: ServiceConfig fields persisted to <journal_dir>/config.json so that
#: ``repro recover`` can rebuild the exact fleet without re-passing flags.
_PERSISTED_CONFIG_FIELDS = (
    "shards", "queue_depth", "max_batch", "device_name", "sram_kib",
    "seed", "journal_dir", "checkpoint_every", "max_resident",
)


def _write_service_config_json(config) -> None:
    import json
    import pathlib

    directory = pathlib.Path(config.journal_dir)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {f: getattr(config, f) for f in _PERSISTED_CONFIG_FIELDS}
    (directory / "config.json").write_text(json.dumps(payload, indent=1))


def _cmd_recover(args) -> int:
    """Offline recovery: replay a journal dir, print the report.

    With ``--digest`` also prints the recovered fleet's state digest and
    the digest of every journaled ok result — the CI crash-recovery job
    compares these against an uninterrupted reference run.
    """
    import json
    import pathlib

    from .service import ServiceConfig, recover_components, results_digest

    config_path = pathlib.Path(args.journal_dir) / "config.json"
    overrides = {}
    if config_path.exists():
        raw = json.loads(config_path.read_text())
        overrides = {
            k: raw[k] for k in _PERSISTED_CONFIG_FIELDS if k in raw
        }
    overrides["journal_dir"] = args.journal_dir
    config = ServiceConfig(**overrides)
    host, ledger = recover_components(config)
    ledger.journal.close()
    out = {"recovery": ledger.report.to_dict()}
    if args.digest:
        out["state_digest"] = host.state_digest()
        out["results_digest"] = results_digest(
            [
                outcome.to_dict()
                for outcome in ledger.cache.values()
                if not isinstance(outcome, BaseException)
            ]
        )
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_load(args) -> int:
    """Soak a running service; nonzero exit unless fully accounted."""
    import json

    from .service import CircuitBreaker, LoadGenerator, ServiceClient

    generator = LoadGenerator(
        seed=args.seed,
        message_bytes=args.message_bytes,
        stress_hours=args.stress_hours,
        idempotency=args.idempotency or args.restart_retries > 0,
    )
    client = ServiceClient(
        args.url,
        timeout=args.timeout,
        breaker=CircuitBreaker() if args.restart_retries > 0 else None,
    )
    report = generator.run_remote(
        client,
        args.messages,
        concurrency=args.concurrency,
        restart_retries=args.restart_retries,
        restart_backoff_s=args.restart_backoff,
    )
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    ok = report.lost == 0 and report.mismatched == 0 and report.failed == 0
    if not ok:
        print(
            f"soak failed: lost={report.lost} failed={report.failed} "
            f"mismatched={report.mismatched}",
            file=sys.stderr,
        )
    return 0 if ok else 1


def _cmd_experiment(args) -> int:
    if args.list or not args.id:
        for exp_id in sorted(EXPERIMENTS):
            print(exp_id)
        return 0
    if args.id not in EXPERIMENTS:
        print(f"unknown experiment {args.id!r}; use --list", file=sys.stderr)
        return 2
    import importlib

    module_name, func_name = EXPERIMENTS[args.id]
    module = importlib.import_module(f"repro.experiments.{module_name}")
    out = getattr(module, func_name)()
    results = []
    if hasattr(out, "to_text"):
        results.append(out)
    if hasattr(out, "result"):
        results.append(out.result)
    for attr in ("result_abc", "result_d"):
        if hasattr(out, attr):
            results.append(getattr(out, attr))
    for result in results:
        print(result.to_text())
    return 0


def _global_options() -> argparse.ArgumentParser:
    """The shared parent parser carrying the cross-command options.

    Attached to the root parser *and* to every subcommand, so the flags
    work in either position.  Defaults are ``argparse.SUPPRESS`` — a
    subcommand parse must never clobber a value the root already set —
    and :func:`main` reads them with ``getattr(args, name, None)``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("global options")
    group.add_argument(
        "--trace",
        metavar="PATH",
        default=argparse.SUPPRESS,
        help="write a JSONL telemetry trace of the command to PATH "
        "(inspect with `repro telemetry summarize PATH`)",
    )
    group.add_argument(
        "--fault-plan",
        metavar="SPEC",
        default=argparse.SUPPRESS,
        help="enable fault injection on every control board: a JSON plan "
        "path or compact spec like 'flaky:0.02' or "
        "'brownout:0.05,flaky:0.01@seed=7' (see docs/faults.md)",
    )
    group.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=argparse.SUPPRESS,
        help="enable the metrics registry for the command and write the "
        "Prometheus exposition to PATH afterwards (see docs/metrics.md)",
    )
    group.add_argument(
        "--profile-out",
        metavar="PATH",
        default=argparse.SUPPRESS,
        help="run the command under the sampling profiler and write "
        "collapsed stacks to PATH (see docs/telemetry.md); equivalent "
        "to setting REPRO_PROFILE",
    )
    group.add_argument(
        "--profile-mode",
        choices=("wall", "cpu"),
        default=argparse.SUPPRESS,
        help="what --profile-out samples: wall time (default) or "
        "on-CPU only (idle wait leaves dropped)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    common = _global_options()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Invisible Bits (ASPLOS 2022) reproduction toolkit",
        parents=[common],
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    class _Sub:
        """``sub.add_parser`` that threads the shared global options in."""

        @staticmethod
        def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
            kwargs.setdefault("parents", [common])
            return subparsers.add_parser(name, **kwargs)

    sub = _Sub()

    sub.add_parser("list-devices", help="show the Table 1 catalog").set_defaults(
        func=_cmd_list_devices
    )

    roundtrip = sub.add_parser("roundtrip", help="run the full protocol")
    roundtrip.add_argument("--device", default="MSP432P401")
    roundtrip.add_argument("--message", default="meet at the dead drop at dawn")
    roundtrip.add_argument("--key", default="00112233445566778899aabbccddeeff",
                           help="hex AES key; empty string disables encryption")
    roundtrip.add_argument("--copies", type=int, default=7)
    roundtrip.add_argument("--sram-kib", type=float, default=4)
    roundtrip.add_argument("--seed", type=int, default=0)
    roundtrip.add_argument("--fast", action="store_true",
                           help="debugger bulk-write instead of firmware")
    roundtrip.add_argument("--decision", choices=("hard", "soft"),
                           default="hard",
                           help="receiver decode mode: majority bits or "
                                "vote-margin LLRs (docs/api.md)")
    roundtrip.set_defaults(func=_cmd_roundtrip)

    sub.add_parser(
        "survey", help="capacity/error planning across the catalog"
    ).set_defaults(func=_cmd_survey)

    experiment = sub.add_parser("experiment", help="regenerate a table/figure")
    experiment.add_argument("id", nargs="?", help="experiment ID (see --list)")
    experiment.add_argument("--list", action="store_true")
    experiment.set_defaults(func=_cmd_experiment)

    report = sub.add_parser(
        "report", help="run every experiment into one combined report file"
    )
    report.add_argument("--out", default="invisible_bits_report.txt")
    report.set_defaults(func=_cmd_report)

    inspect = sub.add_parser(
        "inspect", help="steganalyse a saved capture file (adversary view)"
    )
    inspect.add_argument("captures", help="path from `repro` save_captures")
    inspect.add_argument("--row-width", type=int, default=256)
    inspect.set_defaults(func=_cmd_inspect)

    clone = sub.add_parser("puf-clone", help="run the footnote-2 PUF clone attack")
    clone.add_argument("--device", default="MSP432P401")
    clone.add_argument("--sram-kib", type=float, default=1)
    clone.add_argument("--stress-hours", type=float, default=None)
    clone.add_argument("--seed", type=int, default=0)
    clone.set_defaults(func=_cmd_puf_clone)

    trng = sub.add_parser("trng", help="harvest randomness from power-up noise")
    trng.add_argument("--device", default="MSP432P401")
    trng.add_argument("--sram-kib", type=float, default=4)
    trng.add_argument("--bytes", type=int, default=64)
    trng.add_argument("--seed", type=int, default=0)
    trng.set_defaults(func=_cmd_trng)

    telemetry_cmd = sub.add_parser(
        "telemetry", help="inspect a JSONL telemetry trace"
    )
    telemetry_cmd.add_argument("action", choices=["summarize"])
    telemetry_cmd.add_argument("path", help="trace file from --trace/REPRO_TRACE")
    telemetry_cmd.set_defaults(func=_cmd_telemetry)

    trace_cmd = sub.add_parser(
        "trace", help="query a JSONL trace by trace_id (docs/telemetry.md)"
    )
    trace_cmd.add_argument(
        "action",
        choices=["search", "show", "critical-path"],
        help="search: one line per trace; show: span tree of one trace; "
        "critical-path: latency-dominating chain (aggregate without an id)",
    )
    trace_cmd.add_argument("path", help="JSONL trace file (from --trace)")
    trace_cmd.add_argument(
        "trace_id", nargs="?", default=None,
        help="trace id or unique prefix (required for show; filters "
        "search; optional for critical-path)",
    )
    trace_cmd.add_argument("--name", default=None,
                           help="search: keep traces containing a span "
                           "with this name")
    trace_cmd.add_argument("--status", choices=["ok", "error"], default=None,
                           help="search: keep traces with this overall status")
    trace_cmd.add_argument("--min-dur-ms", type=float, default=None,
                           help="search: keep traces at least this long")
    trace_cmd.add_argument("--limit", type=int, default=None,
                           help="search: cap results (keeps the slowest)")
    trace_cmd.add_argument("--complete", action="store_true",
                           help="search: only traces with a root span to "
                           "hang a tree on")
    trace_cmd.set_defaults(func=_cmd_trace)

    monitor_cmd = sub.add_parser(
        "monitor", help="SLO-monitor a fleet run from its telemetry trace"
    )
    monitor_cmd.add_argument(
        "action",
        choices=["watch", "report"],
        help="watch: live ASCII dashboard; report: static markdown/HTML",
    )
    monitor_cmd.add_argument("path", help="JSONL trace file (from --trace)")
    monitor_cmd.add_argument("--interval", type=float, default=2.0,
                             help="watch poll interval in seconds (default 2)")
    monitor_cmd.add_argument("--once", action="store_true",
                             help="render one watch frame and exit")
    monitor_cmd.add_argument("--out", default=None,
                             help="write the report here instead of stdout")
    monitor_cmd.add_argument("--html", action="store_true",
                             help="report as a standalone HTML page")
    monitor_cmd.add_argument("--ber-ceiling", type=float, default=0.20,
                             help="page when max raw BER exceeds this "
                             "(default 0.20)")
    monitor_cmd.add_argument("--margin-floor", type=float, default=1.5,
                             help="warn when mean vote margin drops below "
                             "this (default 1.5)")
    monitor_cmd.add_argument("--retry-budget", type=float, default=25.0,
                             help="warn when retries per sample exceed this "
                             "(default 25)")
    monitor_cmd.add_argument("--quarantine-budget", type=float, default=0.0,
                             help="page when quarantined slots exceed this "
                             "(default 0)")
    monitor_cmd.set_defaults(func=_cmd_monitor)

    bench_cmd = sub.add_parser(
        "bench", help="compare bench-history snapshots (BENCH_substrate.json)"
    )
    bench_cmd.add_argument("action", choices=["compare"])
    bench_cmd.add_argument("old", help="baseline snapshot JSON")
    bench_cmd.add_argument("new", help="candidate snapshot JSON")
    bench_cmd.add_argument("--gate", type=float, default=20.0,
                           help="regression gate in percent (default 20)")
    bench_cmd.set_defaults(func=_cmd_bench)

    faults = sub.add_parser(
        "faults", help="chaos-test the protocol under an injected fault plan"
    )
    faults.add_argument("--plan", default=None,
                        help="JSON plan path or compact spec; overrides "
                        "--rate/--flaky-rate")
    faults.add_argument("--rate", type=float, default=0.05,
                        help="transient capture brownout rate (default 0.05)")
    faults.add_argument("--flaky-rate", type=float, default=0.02,
                        help="flaky debug-port rate (default 0.02)")
    faults.add_argument("--device", default="MSP432P401")
    faults.add_argument("--message", default="meet at the dead drop at dawn")
    faults.add_argument("--key", default="00112233445566778899aabbccddeeff",
                        help="hex AES key; empty string disables encryption")
    faults.add_argument("--sram-kib", type=float, default=4)
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument("--show", action="store_true",
                        help="print the resolved plan as JSON and exit")
    faults.add_argument("--schedule", action="store_true",
                        help="also print the realized fault schedule")
    faults.set_defaults(func=_cmd_faults)

    verify = sub.add_parser(
        "verify",
        help="sweep the differential verification oracles (docs/verify.md)",
    )
    verify.add_argument("--seed", type=int, default=0,
                        help="sweep seed (default 0); every example is "
                        "replayable from (seed, example index)")
    verify.add_argument("--examples", type=int, default=25,
                        help="max examples per oracle (default 25; heavy "
                        "oracles declare lower caps)")
    verify.add_argument("--oracle", action="append", metavar="NAME",
                        help="run only this oracle (repeatable; see --list)")
    verify.add_argument("--list", action="store_true",
                        help="list registered oracles and exit")
    verify.add_argument("--mutation-smoke", action="store_true",
                        help="also replay the planted defects and require "
                        "every one to be caught")
    verify.set_defaults(func=_cmd_verify)

    serve = sub.add_parser(
        "serve",
        help="run the sharded async encode/decode service (docs/service.md)",
    )
    serve.add_argument("--shards", type=int, default=4,
                       help="number of execution lanes (default 4)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="bounded queue depth per shard (default 64)")
    serve.add_argument("--max-batch", type=int, default=8,
                       help="max jobs per worker batch (default 8)")
    serve.add_argument("--device", default="MSP430G2553")
    serve.add_argument("--sram-kib", type=float, default=0.25)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="HTTP port; 0 picks an ephemeral one "
                       "(default 8642)")
    serve.add_argument("--duration", type=float, default=None,
                       help="exit (with a graceful drain) after this many "
                       "seconds instead of waiting for a signal")
    serve.add_argument("--fault-shards", default=None, metavar="NAMES",
                       help="comma-separated shard names (e.g. 'shard-2') "
                       "whose harness lane runs under --shard-fault-plan")
    serve.add_argument("--shard-fault-plan", default=None, metavar="SPEC",
                       help="fault plan (JSON path or compact spec) for the "
                       "lanes named by --fault-shards; unlike the global "
                       "--fault-plan this is lane-scoped, not fleet-wide")
    serve.add_argument("--journal-dir", default=None, metavar="DIR",
                       help="enable crash-safe durability: write-ahead "
                       "journal + checkpoints under DIR; restarting on the "
                       "same DIR recovers bit-identically")
    serve.add_argument("--checkpoint-every", type=int, default=0,
                       help="auto-checkpoint after this many journaled "
                       "completions (default 0 = only on graceful stop)")
    serve.add_argument("--max-resident", type=int, default=None,
                       help="LRU cap on in-memory simulated devices; "
                       "overflow archives to the journal dir")
    serve.add_argument("--probe-interval", type=float, default=0.0,
                       help="re-probe tripped lanes with synthetic traffic "
                       "every this many seconds (default 0 = off)")
    serve.add_argument("--readmit-after", type=int, default=3,
                       help="consecutive clean probes before a tripped lane "
                       "is re-admitted (default 3)")
    serve.set_defaults(func=_cmd_serve)

    recover = sub.add_parser(
        "recover",
        help="replay a service journal dir offline and print the report",
    )
    recover.add_argument("journal_dir", metavar="DIR",
                         help="the --journal-dir a service ran with")
    recover.add_argument("--digest", action="store_true",
                         help="also print the recovered fleet state digest "
                         "and the digest of all journaled ok results")
    recover.set_defaults(func=_cmd_recover)

    load = sub.add_parser(
        "load",
        help="soak a running service with verified send/receive traffic",
    )
    load.add_argument("--url", default="http://127.0.0.1:8642",
                      help="service endpoint (default http://127.0.0.1:8642)")
    load.add_argument("--messages", type=int, default=200,
                      help="messages to round-trip (default 200)")
    load.add_argument("--concurrency", type=int, default=8,
                      help="parallel client workers (default 8)")
    load.add_argument("--message-bytes", type=int, default=8,
                      help="payload size per message (default 8)")
    load.add_argument("--seed", type=int, default=0,
                      help="device-id/payload seed (default 0)")
    load.add_argument("--timeout", type=float, default=120.0,
                      help="per-request HTTP timeout in seconds")
    load.add_argument("--stress-hours", type=float, default=None,
                      help="encode stress per message (default: device "
                           "recipe; raise for raw-BER margin on big soaks)")
    load.add_argument("--idempotency", action="store_true",
                      help="stamp deterministic idempotency keys on every "
                      "op (rerunning the same soak resumes instead of "
                      "re-executing against a journaled service)")
    load.add_argument("--restart-retries", type=int, default=0,
                      help="retry an op this many times across service "
                      "restart windows before counting it lost "
                      "(implies --idempotency)")
    load.add_argument("--restart-backoff", type=float, default=0.5,
                      help="seconds between restart-window retries "
                      "(default 0.5)")
    load.set_defaults(func=_cmd_load)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # ``repro trace search ... | head`` closes our stdout early;
        # that is a normal way to consume tabular output, not an error.
        # Reopen stdout on devnull so the interpreter's shutdown flush
        # does not raise a second time.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    # The shared global options use SUPPRESS defaults (so a subcommand
    # parse never clobbers a root-position value) — read them defensively.
    fault_plan = getattr(args, "fault_plan", None)
    metrics_out = getattr(args, "metrics_out", None)
    trace = getattr(args, "trace", None)
    profile_out = getattr(args, "profile_out", None)
    profile_mode = getattr(args, "profile_mode", None) or "wall"

    def run() -> int:
        if not fault_plan:
            return args.func(args)
        import os

        from .faults import FaultPlan

        FaultPlan.from_spec(fault_plan)  # fail fast on a bad spec
        previous = os.environ.get("REPRO_FAULT_PLAN")
        os.environ["REPRO_FAULT_PLAN"] = fault_plan
        try:
            return args.func(args)
        finally:
            if previous is None:
                os.environ.pop("REPRO_FAULT_PLAN", None)
            else:
                os.environ["REPRO_FAULT_PLAN"] = previous

    if metrics_out:
        inner = run

        def run() -> int:
            import pathlib

            from . import metrics, telemetry

            was_enabled = metrics.registry.enabled
            metrics.registry.enable()
            bridge = metrics.TelemetryBridge(metrics.registry)
            telemetry.add_sink(bridge)
            try:
                return inner()
            finally:
                telemetry.remove_sink(bridge)
                exposition = metrics.registry.expose()
                if not was_enabled:
                    metrics.registry.disable()
                pathlib.Path(metrics_out).write_text(
                    exposition, encoding="utf-8"
                )

    if profile_out:
        inner_profiled = run

        def run() -> int:
            from .profile import profiling

            with profiling(profile_out, mode=profile_mode):
                return inner_profiled()

    if trace:
        from . import telemetry

        sink = telemetry.JsonlSink(trace)
        telemetry.add_sink(sink)
        try:
            return run()
        finally:
            telemetry.remove_sink(sink)
            sink.close()
    return run()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
