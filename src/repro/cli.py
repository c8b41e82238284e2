"""``clio`` — a command-line front end for the log service.

Stores a volume sequence as device images in a directory (one
``vol-NNN.img`` per volume, plus ``nvram.img`` staging the tail), so log
files persist across invocations:

    clio init /tmp/store --block-size 1024 --degree 16 --capacity 4096
    clio create /tmp/store /mail
    clio create /tmp/store /mail/smith
    clio append /tmp/store /mail/smith "hello smith"
    echo "piped body" | clio append /tmp/store /mail/smith --stdin
    clio cat /tmp/store /mail               # sublog entries included
    clio ls /tmp/store /mail
    clio info /tmp/store
    clio fsck /tmp/store

Every append invocation syncs the tail to the NVRAM sidecar before
returning, so each command is durable; ``--stdin --lines`` batches one
entry per input line under a single sync.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys

from repro.core import LogService
from repro.core.catalog import UnknownLogFile
from repro.core.fsck import check_service
from repro.worm.filebacked import FileBackedNvram, FileBackedWormDevice

__all__ = ["build_parser", "main"]


def _volume_paths(directory: str) -> list[str]:
    return sorted(glob.glob(os.path.join(directory, "vol-*.img")))


def _make_factory(directory: str, block_size: int, capacity: int):
    def factory() -> FileBackedWormDevice:
        index = len(_volume_paths(directory))
        path = os.path.join(directory, f"vol-{index:03d}.img")
        return FileBackedWormDevice.create(
            path, block_size=block_size, capacity_blocks=capacity
        )

    return factory


def _mount(
    directory: str,
    read_only: bool = False,
    observability: bool = False,
    readahead_blocks: int = 0,
) -> LogService:
    paths = _volume_paths(directory)
    if not paths:
        raise SystemExit(f"error: no Clio store in {directory!r} (run `clio init`)")
    devices = [FileBackedWormDevice.open_path(path) for path in paths]
    block_size = devices[0].block_size
    capacity = devices[0].capacity_blocks
    nvram = FileBackedNvram(
        os.path.join(directory, "nvram.img"), capacity_bytes=block_size
    )
    service, _report = LogService.mount(
        devices,
        nvram,
        device_factory=_make_factory(directory, block_size, capacity),
        read_only=read_only,
        observability=observability,
        readahead_blocks=readahead_blocks,
    )
    return service


# ---------------------------------------------------------------------- #
# Commands
# ---------------------------------------------------------------------- #


def _cmd_init(args) -> int:
    os.makedirs(args.store, exist_ok=True)
    if _volume_paths(args.store):
        print(f"error: {args.store!r} already contains a Clio store", file=sys.stderr)
        return 1
    factory = _make_factory(args.store, args.block_size, args.capacity)
    nvram = FileBackedNvram(
        os.path.join(args.store, "nvram.img"), capacity_bytes=args.block_size
    )
    LogService.create(
        block_size=args.block_size,
        degree_n=args.degree,
        volume_capacity_blocks=args.capacity,
        device_factory=factory,
        nvram=nvram,
    )
    print(
        f"initialized Clio store in {args.store}: {args.block_size}-byte "
        f"blocks, N={args.degree}, {args.capacity} blocks/volume"
    )
    return 0


def _cmd_create(args) -> int:
    service = _mount(args.store)
    log = service.create_log_file(args.path, permissions=args.mode)
    print(f"created {log.path} (log file id {log.logfile_id})")
    return 0


def _cmd_ls(args) -> int:
    service = _mount(args.store, read_only=True)
    for name, handle in service.list_dir(args.path).items():
        print(f"{handle.logfile_id:5d}  {name}")
    return 0


def _cmd_append(args) -> int:
    service = _mount(args.store, observability=args.trace)
    if args.stdin:
        raw = sys.stdin.buffer.read()
        payloads = raw.splitlines() if args.lines else [raw]
    elif args.data is not None:
        payloads = [args.data.encode()]
    else:
        print("error: provide DATA or --stdin", file=sys.stderr)
        return 1
    if args.trace:
        return _traced_append(service, args.path, payloads)
    if len(payloads) > 1:
        # One server-side group commit for the whole batch: one IPC and
        # timestamp charge, one tail re-encode, instead of per-line costs.
        results = service.append_many(args.path, payloads)
        last = results[-1]
    else:
        last = service.append(args.path, payloads[0])
    # The CLI process exits after this command, so the batch is synced to
    # the NVRAM sidecar before returning — per-invocation durability.
    service.sync()
    total = sum(len(p) for p in payloads)
    print(
        f"appended {len(payloads)} entr{'y' if len(payloads) == 1 else 'ies'} "
        f"({total} bytes), last ts={last.timestamp}"
    )
    return 0


def _traced_append(service: LogService, path: str, payloads: list[bytes]) -> int:
    """Append through the asynchronous client under one causal trace.

    Routes the batch over an :class:`~repro.vsystem.ipc.AsyncPort` with
    server-side group commit, so the persisted trace shows the full
    request: the client-side flush, the deferred server delivery, and the
    post-reply device force (Section 3.3's delayed-write window).  The
    forced batch is already durable; the trace-log persist performs the
    invocation's sync.
    """
    from repro.core.asyncclient import AsyncLogClient
    from repro.obs.tracelog import TraceLog
    from repro.vsystem.clock import SkewedClock
    from repro.vsystem.ipc import AsyncPort

    trace_log = TraceLog(service)
    log_file = service.open_log_file(path)
    port = AsyncPort(service.clock, tracer=service.tracer)
    client = AsyncLogClient(
        log_file,
        port,
        SkewedClock(service.clock, skew_us=0),
        batch_size=max(len(payloads), 1),
        server_batching=True,
        force_batches=True,
    )
    for payload in payloads:
        client.submit(payload)
    client.flush()
    port.drain()
    trace_log.persist()
    total = sum(len(p) for p in payloads)
    print(
        f"appended {len(payloads)} entr{'y' if len(payloads) == 1 else 'ies'} "
        f"({total} bytes)"
    )
    print(f"trace {client.last_trace_id}")
    return 0


def _cmd_cat(args) -> int:
    service = _mount(
        args.store, read_only=True, readahead_blocks=args.readahead
    )
    count = 0
    iterator = service.read_entries(
        args.path, reverse=args.reverse, since=args.since_us
    )
    for entry in iterator:
        if args.limit is not None and count >= args.limit:
            break
        prefix = f"[{entry.timestamp}] " if args.timestamps else ""
        sys.stdout.write(prefix)
        sys.stdout.flush()
        sys.stdout.buffer.write(entry.data)
        sys.stdout.write("\n")
        count += 1
    return 0


def _cmd_info(args) -> int:
    service = _mount(args.store, read_only=True)
    sequence = service.store.sequence
    config = service.store.config
    print(f"volumes:        {len(sequence.volumes)}")
    for index, volume in enumerate(sequence.volumes):
        written = max(0, volume.next_data_block)
        status = "active" if not volume.is_sealed else "sealed"
        print(
            f"  vol {index}: {written}/{volume.data_capacity} data blocks "
            f"written ({status})"
        )
    print(f"block size:     {config.block_size}")
    print(f"entrymap N:     {config.degree_n}")
    # Space counters are per-session; derive the persistent totals by
    # scanning the volume sequence log file (id 0 = everything).
    client_entries = 0
    client_bytes = 0
    for entry in service.reader.iter_entries(0, start_global=0):
        if entry.logfile_id >= 8:
            client_entries += 1
            client_bytes += len(entry.data)
    print(f"client entries: {client_entries}")
    print(f"client bytes:   {client_bytes}")
    print("log files:")

    def walk(path: str, depth: int) -> None:
        for name, handle in service.list_dir(path).items():
            print(f"  {'  ' * depth}{handle.path}  (id {handle.logfile_id})")
            walk(handle.path, depth + 1)

    walk("/", 0)
    return 0


def _cmd_volumes(args) -> int:
    """List the volume sequence (the offline/online state is a property of
    a running server session; the CLI mounts all images fresh each time)."""
    service = _mount(args.store, read_only=True)
    for index, volume in enumerate(service.store.sequence.volumes):
        written = max(0, volume.next_data_block)
        state = []
        state.append("sealed" if volume.is_sealed else "active")
        state.append("online" if volume.is_online else "offline")
        print(
            f"vol {index}: {written}/{volume.data_capacity} blocks, "
            f"{', '.join(state)}"
        )
    return 0


def _cmd_fsck(args) -> int:
    service = _mount(args.store, read_only=True)
    report = check_service(service)
    print(
        f"checked {report.blocks_checked} blocks, {report.entries_checked} "
        f"entries, {report.entrymap_records_checked} entrymap records, "
        f"{report.catalog_records_checked} catalog records"
    )
    for finding in report.findings:
        location = (
            f"vol {finding.volume_index} block {finding.block}"
            if finding.block is not None
            else f"vol {finding.volume_index}"
        )
        print(f"{finding.severity.upper()}: {location}: {finding.message}")
    if report.clean:
        print("clean")
        return 0
    return 2


def _render_stats_table(service: LogService) -> None:
    from repro.obs.registry import HistogramValue

    for family in service.metrics.collect():
        printed_header = False
        for labels, value in family.samples:
            label_text = (
                "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
                if labels
                else ""
            )
            if isinstance(value, HistogramValue):
                if value.count == 0:
                    continue  # an unobserved histogram is noise in a table
                mean = value.sum / value.count
                rendered = (
                    f"count={value.count} sum={value.sum:g} mean={mean:g} "
                    f"p50={value.quantile(0.50):g} "
                    f"p95={value.quantile(0.95):g} "
                    f"p99={value.quantile(0.99):g}"
                )
            elif float(value).is_integer():
                rendered = str(int(value))
            else:
                rendered = f"{value:g}"
            if not printed_header:
                print(f"{family.name}  ({family.kind})")
                printed_header = True
            print(f"  {label_text or '-':<24} {rendered}")


def _cmd_stats(args) -> int:
    """Live counters for a store: mount it (running real recovery, which
    itself populates the recovery metric family) and render the registry."""
    service = _mount(args.store, read_only=True, observability=True)
    if args.touch:
        # Exercise one locate + read per named log file so the locate and
        # cache families reflect this store's actual read behaviour.
        for path in args.touch:
            for _ in service.read_entries(path):
                break
    if args.watch is not None:
        # Replay the whole store as a read workload, re-rendering the
        # table every --watch milliseconds of *simulated* time: a live
        # dashboard over a deterministic clock.
        next_render_ms = service.now_ms + args.watch
        for _ in service.read_entries("/"):
            if service.now_ms >= next_render_ms:
                print(f"--- sim t={service.now_ms:.3f}ms ---")
                _render_stats_table(service)
                while next_render_ms <= service.now_ms:
                    next_render_ms += args.watch
        print(f"--- sim t={service.now_ms:.3f}ms (replay complete) ---")
        _render_stats_table(service)
        return 0
    from repro.obs.export import json_snapshot, openmetrics_text, prometheus_text

    if args.format == "prometheus":
        sys.stdout.write(prometheus_text(service.metrics))
    elif args.format == "openmetrics":
        sys.stdout.write(openmetrics_text(service.metrics))
    elif args.format == "json":
        import json

        print(json.dumps(json_snapshot(service.metrics), indent=2, sort_keys=True))
    else:
        _render_stats_table(service)
    return 0


def _cmd_trace_live(args) -> int:
    """Span trees from a traced mount (and optional reads).

    All timestamps are simulated time, so the same store produces the same
    trace on every invocation — diffs between two ``trace live`` runs are
    real behaviour changes, never scheduling noise.
    """
    service = _mount(args.store, read_only=True, observability=True)
    if args.read:
        for path in args.read:
            with service.tracer.span("read", path=path) as sp:
                count = sum(1 for _ in service.read_entries(path))
                sp.set("entries", count)
    from repro.obs.tracing import format_span_tree

    roots = service.tracer.recent(limit=args.limit)
    if not roots:
        print("no spans recorded")
        return 0
    if args.format == "json":
        import json

        print(json.dumps([span.as_dict() for span in roots], indent=2, sort_keys=True))
    else:
        for span in roots:
            print(format_span_tree(span))
    return 0


def _persisted_traces(store: str):
    """Mount ``store`` read-only and decode its ``/traces`` sublog, grouped
    by trace id (each group in append order)."""
    from repro.obs.tracelog import decode_span

    roots = _read_back(_mount(store, read_only=True), "/traces", decode_span)
    if roots is None:
        raise SystemExit(
            "error: this store has no /traces log "
            "(run `clio append --trace` to record one)"
        )
    grouped: dict = {}
    for root in roots:
        grouped.setdefault(root.trace_id or "", []).append(root)
    return grouped


def _read_back(service, path: str, decode) -> list | None:
    """Decode every record of the log file ``path`` with ``decode``.

    None when the store has no such log; a record ``decode`` rejects is an
    error naming the log, never an empty or truncated history."""
    try:
        log = service.open_log_file(path)
    except UnknownLogFile:
        return None
    records = []
    for index, entry in enumerate(log.entries()):
        try:
            records.append(decode(entry.data))
        except (ValueError, KeyError, TypeError) as exc:
            raise SystemExit(
                f"error: undecodable record #{index} in {path}: {exc!r}"
            ) from None
    return records


def _cmd_trace_show(args) -> int:
    """One persisted trace: its span forest, or its critical path."""
    from repro.obs.critical_path import (
        critical_path,
        format_critical_path,
        summarize_trace,
    )
    from repro.obs.tracing import format_span_tree

    grouped = _persisted_traces(args.store)
    roots = grouped.get(args.trace_id)
    if not roots:
        print(f"error: no persisted trace {args.trace_id!r}", file=sys.stderr)
        return 1
    if args.critical_path:
        summary = summarize_trace(args.trace_id, roots)
        print(format_critical_path(summary, critical_path(roots)))
        return 0
    if args.format == "json":
        import json

        print(json.dumps([span.as_dict() for span in roots], indent=2, sort_keys=True))
        return 0
    for root in sorted(roots, key=lambda r: (r.start_us, r.span_id)):
        print(format_span_tree(root))
    return 0


def _cmd_trace_find(args) -> int:
    """List persisted traces (one summary line each), oldest first."""
    from repro.obs.critical_path import format_trace_summary, summarize_traces

    summaries = summarize_traces(_persisted_traces(args.store))
    if args.name:
        summaries = [s for s in summaries if args.name in s.root_names]
    if args.errors:
        summaries = [s for s in summaries if s.error]
    if not summaries:
        print("no matching persisted traces")
        return 0
    for summary in summaries:
        print(format_trace_summary(summary))
    return 0


def _cmd_trace_top(args) -> int:
    """The costliest persisted traces — by duration, or by one component."""
    from repro.obs.critical_path import (
        format_trace_summary,
        summarize_traces,
        top_traces,
    )

    summaries = summarize_traces(_persisted_traces(args.store))
    ranked = top_traces(summaries, count=args.slowest, component=args.component)
    if not ranked:
        print("no persisted traces")
        return 0
    for summary in ranked:
        print(format_trace_summary(summary))
    return 0


def _cmd_events(args) -> int:
    """The structured event journal for a mount (and optional reads).

    Mounting itself emits the recovery-phase events, so even a bare
    ``clio events STORE`` shows the store's latest recovery as a timeline.
    """
    from repro.obs.events import Event, format_event

    service = _mount(args.store, read_only=True, observability=True)
    if args.read:
        for path in args.read:
            for _ in service.read_entries(path):
                pass
    if args.persisted:
        events = _read_back(service, "/events", Event.decode)
        if events is None:
            print("no persisted /events log in this store", file=sys.stderr)
            return 1
    else:
        events = service.journal.events()
    if args.kind:
        events = [event for event in events if event.kind == args.kind]
    if args.since is not None:
        events = [event for event in events if event.ts_us >= args.since]
    if args.limit is not None:
        events = events[-args.limit :]
    if not events:
        print("no events recorded")
        return 0
    for event in events:
        print(format_event(event))
    dropped = getattr(service.journal, "dropped", 0)
    if not args.persisted and dropped:
        print(f"({dropped} older events dropped from the ring)")
    return 0


def _cmd_profile(args) -> int:
    """Cost-attribution profile: where the simulated time of a workload
    went, by operation and cost-model component (Section 3's
    decomposition, live)."""
    from repro.obs.profile import format_profile, profile_roots

    service = _mount(args.store, read_only=True, observability=True)
    # Every root span matters for attribution; don't let a long workload
    # evict the early ones.
    service.tracer.max_roots = 1_000_000
    for path in args.read or ["/"]:
        for _ in range(args.repeat):
            with service.tracer.span("read", path=path) as sp:
                count = sum(1 for _ in service.read_entries(path))
                sp.set("entries", count)
    breakdowns = profile_roots(service.tracer.recent())
    print(format_profile(breakdowns))
    return 0


def _cmd_health(args) -> int:
    """Evaluate SLO rules against a store; nonzero exit when alerts fire.

    The default ruleset checks the paper's own bounds (recovery and locate
    model deltas) plus cache and corruption health; ``--rule`` adds custom
    threshold/ratio rules (see ``repro.obs.slo.parse_rule`` for syntax).
    """
    from repro.obs.slo import (
        Alert,
        AlertLog,
        SloEngine,
        default_ruleset,
        format_alert,
        parse_rule,
    )

    service = _mount(
        args.store, read_only=not args.persist, observability=True
    )
    if args.read:
        for path in args.read:
            for _ in service.read_entries(path):
                pass
    rules = default_ruleset()
    for spec in args.rule or []:
        rules.append(parse_rule(spec))
    alert_log = AlertLog(service) if args.persist else None
    engine = SloEngine(service, rules=rules, alert_log=alert_log)
    fired = engine.evaluate()
    if args.show_log:
        for alert in _read_back(service, "/alerts", Alert.decode) or []:
            print(f"(history) {format_alert(alert)}")
    if not fired:
        print(f"healthy: {len(rules)} rules evaluated, 0 alerts")
        return 0
    for alert in fired:
        print(format_alert(alert))
    if args.persist:
        print(f"({len(fired)} alerts appended to /alerts)")
    return 1


def _cmd_lint(args) -> int:
    from repro.lint.cli import run as lint_run

    return lint_run(args)


def _run_checked(run, check: bool):
    """Run a deterministic harness: ``run()`` returns a result whose
    ``encode()`` is its artifact.  With ``check``, run it a second time and
    byte-compare the artifacts.  Returns ``(result, artifact)``, or
    ``None`` (after reporting) when the two runs differ."""
    result = run()
    artifact = result.encode()
    if check:
        if run().encode() != artifact:
            print(
                "determinism: ARTIFACTS DIFFER between two identical runs",
                file=sys.stderr,
            )
            return None
        print("determinism: artifact byte-identical across two runs")
    return result, artifact


def _cmd_perf_run(args) -> int:
    """Run the sim-count harness on a throwaway store (see
    docs/PERFORMANCE.md); exit 2 when --check-determinism finds two runs
    that differ."""
    import tempfile

    from repro.obs import perfbench

    if args.profile not in perfbench.PROFILES:
        print(f"error: unknown profile {args.profile!r}", file=sys.stderr)
        return 1

    def run():
        with tempfile.TemporaryDirectory(prefix="clio-perf-") as workdir:
            return perfbench.run_profile(args.profile, workdir)

    checked = _run_checked(run, args.check_determinism)
    if checked is None:
        return 2
    report, _ = checked
    print(perfbench.format_report(perfbench.report_to_dict(report)))
    if args.out:
        perfbench.write_record(report, args.out)
        print(f"(wrote {args.out})")
    recorded = perfbench.maybe_record(report)
    if recorded:
        print(f"(recorded {recorded})")
    return 0


def _load_json(path: str):
    import json

    with open(path) as handle:
        return json.load(handle)


def _cmd_perf_report(args) -> int:
    from repro.obs import perfbench

    print(perfbench.format_report(_load_json(args.file)))
    return 0


def _cmd_perf_compare(args) -> int:
    """The CI gate: non-zero exit on a deterministic count regression."""
    from repro.obs import perfbench

    failures, advisories = perfbench.compare_reports(
        _load_json(args.current), _load_json(args.baseline), threshold=args.threshold
    )
    for line in advisories:
        print(f"advisory: {line}")
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    if failures:
        print(
            f"{len(failures)} count regression(s) beyond "
            f"{args.threshold:.0%} of baseline",
            file=sys.stderr,
        )
        return 2
    print(
        f"ok: counts within {args.threshold:.0%} of baseline "
        f"({len(advisories)} advisory note(s))"
    )
    return 0


def _cmd_campaign_run(args) -> int:
    """Run the deterministic fault campaign; exit 2 on any silent miss,
    control mismatch, or determinism failure (see docs/FAULTS.md)."""
    from repro.obs import campaign

    try:
        checked = _run_checked(
            lambda: campaign.run_campaign(args.menu), args.check_determinism
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if checked is None:
        return 2
    report, artifact = checked
    print(campaign.format_report(report.as_dict()))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(artifact + "\n")
        print(f"(wrote {args.out})")
    if report.silent_misses:
        print(
            "FAIL: silent misses (fault detected by no channel): "
            + ", ".join(report.silent_misses),
            file=sys.stderr,
        )
        return 2
    if not report.control_ok:
        print(
            "FAIL: no-fault control drive diverged from the plain workload",
            file=sys.stderr,
        )
        return 2
    return 0


def _diff_artifacts(args, diff, same: str, kind: str) -> int:
    """Print ``diff(OLD, NEW)`` over two JSON artifacts line by line; exit 2
    when any line is a regression (starts with ``!``)."""
    changes = diff(_load_json(args.old), _load_json(args.new))
    if not changes:
        print(same)
        return 0
    for line in changes:
        print(line)
    regressions = [line for line in changes if line.startswith("!")]
    if regressions:
        print(f"{len(regressions)} {kind} regression(s)", file=sys.stderr)
        return 2
    return 0


def _cmd_campaign_report(args) -> int:
    from repro.obs import campaign

    print(campaign.format_report(_load_json(args.file)))
    return 0


def _cmd_campaign_diff(args) -> int:
    """Compare two campaign artifacts; exit 2 on a detection regression
    (a lost channel or a coverage drop)."""
    from repro.obs import campaign

    return _diff_artifacts(
        args, campaign.diff_reports, "no channel-level differences", "detection"
    )


def _cmd_workload_run(args) -> int:
    """Replay a long-horizon workload profile; exit 2 on an attribution
    shortfall, an alert-log divergence, a silent miss in the under-load
    campaign, or a determinism failure (see docs/WORKLOADS.md)."""
    from repro.obs import workload

    menu = args.campaign or None
    try:
        checked = _run_checked(
            lambda: workload.run_workload(args.profile, menu=menu),
            args.check_determinism,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if checked is None:
        return 2
    run, artifact = checked
    print(workload.format_run(run.as_dict()))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(artifact + "\n")
        print(f"(wrote {args.out})")
    if args.register:
        path = workload.register_run(args.register, run)
        print(f"(registered {run.run_id} -> {path})")
    if not run.passed:
        for reason in run.failures:
            print(f"FAIL: {reason}", file=sys.stderr)
        return 2
    return 0


def _cmd_workload_report(args) -> int:
    from repro.obs import workload

    print(workload.format_run(_load_json(args.file)))
    return 0


def _cmd_workload_diff(args) -> int:
    """Compare two workload-run artifacts; exit 2 on a phase-level
    regression (changed coverage, ops, sim time, or trace digest)."""
    from repro.obs import workload

    return _diff_artifacts(
        args, workload.diff_runs, "no phase-level differences", "phase"
    )


def _cmd_workload_index(args) -> int:
    """Render the run catalog; with --verify, re-hash every cataloged
    artifact and exit 2 on a missing file or digest mismatch."""
    from repro.obs import workload

    rows = workload.read_index(args.runs_dir)
    print(workload.format_index(rows))
    if args.verify:
        problems = workload.verify_index(args.runs_dir)
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}", file=sys.stderr)
            return 2
        print(f"catalog verified: {len(rows)} run(s), all digests match")
    return 0


# ---------------------------------------------------------------------- #
# Argument parsing
# ---------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clio", description="Clio log files on write-once storage"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("init", help="initialize a new store directory")
    p.add_argument("store")
    p.add_argument("--block-size", type=int, default=1024)
    p.add_argument("--degree", type=int, default=16)
    p.add_argument("--capacity", type=int, default=4096, help="blocks per volume")
    p.set_defaults(handler=_cmd_init)

    p = commands.add_parser("create", help="create a log file / sublog")
    p.add_argument("store")
    p.add_argument("path")
    p.add_argument("--mode", type=lambda v: int(v, 8), default=0o644)
    p.set_defaults(handler=_cmd_create)

    p = commands.add_parser("ls", help="list sublogs of a log file")
    p.add_argument("store")
    p.add_argument("path", nargs="?", default="/")
    p.set_defaults(handler=_cmd_ls)

    p = commands.add_parser("append", help="append one entry")
    p.add_argument("store")
    p.add_argument("path")
    p.add_argument("data", nargs="?", default=None)
    p.add_argument("--stdin", action="store_true")
    p.add_argument(
        "--lines",
        action="store_true",
        help="with --stdin: append each input line as its own entry",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="append via the async client under one causal trace, persist "
        "it to /traces, and print the trace id",
    )
    p.set_defaults(handler=_cmd_append)

    p = commands.add_parser("cat", help="print a log file's entries")
    p.add_argument("store")
    p.add_argument("path")
    p.add_argument("--reverse", action="store_true")
    p.add_argument("--since-us", type=int, default=None)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--timestamps", action="store_true")
    p.add_argument(
        "--readahead",
        type=int,
        default=0,
        metavar="BLOCKS",
        help="sequential read-ahead window in blocks (0 = off, the "
        "paper's one-block-per-access model)",
    )
    p.set_defaults(handler=_cmd_cat)

    p = commands.add_parser("info", help="store summary")
    p.add_argument("store")
    p.set_defaults(handler=_cmd_info)

    p = commands.add_parser("fsck", help="consistency check")
    p.add_argument("store")
    p.set_defaults(handler=_cmd_fsck)

    p = commands.add_parser("volumes", help="list the volume sequence")
    p.add_argument("store")
    p.set_defaults(handler=_cmd_volumes)

    p = commands.add_parser(
        "stats", help="live metrics for a store (device/cache/locate/recovery)"
    )
    p.add_argument("store")
    p.add_argument(
        "--format",
        choices=("table", "prometheus", "openmetrics", "json"),
        default="table",
        help="output format (default: table; openmetrics adds histogram "
        "exemplars and the # EOF terminator)",
    )
    p.add_argument(
        "--touch",
        action="append",
        metavar="PATH",
        help="read one entry of PATH first so locate/cache counters move "
        "(repeatable)",
    )
    p.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SIM_MS",
        help="replay the store as a read workload, re-rendering the table "
        "every SIM_MS milliseconds of simulated time",
    )
    p.set_defaults(handler=_cmd_stats)

    p = commands.add_parser(
        "trace", help="sim-time span trees: live mounts and the /traces log"
    )
    trace_commands = p.add_subparsers(dest="trace_command", required=True)

    tp = trace_commands.add_parser(
        "live", help="trace a fresh mount (and optional reads) in-process"
    )
    tp.add_argument("store")
    tp.add_argument(
        "--read",
        action="append",
        metavar="PATH",
        help="also trace a full read of PATH (repeatable)",
    )
    tp.add_argument("--limit", type=int, default=None, help="show at most N trees")
    tp.add_argument("--format", choices=("tree", "json"), default="tree")
    tp.set_defaults(handler=_cmd_trace_live)

    tp = trace_commands.add_parser(
        "show", help="one persisted trace's span forest or critical path"
    )
    tp.add_argument("store")
    tp.add_argument("trace_id")
    tp.add_argument(
        "--critical-path",
        action="store_true",
        help="print the longest-child path and component accounting",
    )
    tp.add_argument("--format", choices=("tree", "json"), default="tree")
    tp.set_defaults(handler=_cmd_trace_show)

    tp = trace_commands.add_parser(
        "find", help="list persisted traces, oldest first"
    )
    tp.add_argument("store")
    tp.add_argument("--name", help="only traces containing this root span name")
    tp.add_argument(
        "--errors", action="store_true", help="only traces that recorded errors"
    )
    tp.set_defaults(handler=_cmd_trace_find)

    tp = trace_commands.add_parser(
        "top", help="the costliest persisted traces"
    )
    tp.add_argument("store")
    tp.add_argument(
        "--slowest",
        type=int,
        default=10,
        metavar="N",
        help="show the top N traces (default: 10)",
    )
    tp.add_argument(
        "--component",
        default=None,
        metavar="NAME",
        help="rank by one cost component (e.g. device, ipc) instead of "
        "total duration",
    )
    tp.set_defaults(handler=_cmd_trace_top)

    p = commands.add_parser(
        "events", help="structured event journal for a mount"
    )
    p.add_argument("store")
    p.add_argument(
        "--read",
        action="append",
        metavar="PATH",
        help="also read PATH so its events appear (repeatable)",
    )
    p.add_argument("--kind", help="only events of this kind")
    p.add_argument(
        "--type",
        dest="kind",
        help="only events of this kind (alias for --kind)",
    )
    p.add_argument(
        "--since",
        type=int,
        default=None,
        metavar="US",
        help="only events at or after this simulated timestamp (µs)",
    )
    p.add_argument("--limit", type=int, default=None, help="newest N events")
    p.add_argument(
        "--persisted",
        action="store_true",
        help="read back the durable /events log instead of the live ring",
    )
    p.set_defaults(handler=_cmd_events)

    p = commands.add_parser(
        "profile",
        help="per-operation cost breakdown (Section 3's decomposition)",
    )
    p.add_argument("store")
    p.add_argument(
        "--read",
        action="append",
        metavar="PATH",
        help="profile full reads of PATH (repeatable; default: /)",
    )
    p.add_argument(
        "--repeat", type=int, default=1, help="read each path N times"
    )
    p.set_defaults(handler=_cmd_profile)

    p = commands.add_parser(
        "health", help="evaluate SLO rules; nonzero exit on alerts"
    )
    p.add_argument("store")
    p.add_argument(
        "--rule",
        action="append",
        metavar="SPEC",
        help="extra rule, e.g. 'clio_cache_hit_ratio < 0.5 [critical]' "
        "(repeatable)",
    )
    p.add_argument(
        "--read",
        action="append",
        metavar="PATH",
        help="read PATH first so read-side rules see traffic (repeatable)",
    )
    p.add_argument(
        "--persist",
        action="store_true",
        help="append fired alerts to the /alerts sublog (writable mount)",
    )
    p.add_argument(
        "--show-log",
        action="store_true",
        help="also print previously persisted alerts from /alerts",
    )
    p.set_defaults(handler=_cmd_health)

    p = commands.add_parser(
        "lint",
        help="run the clio-lint invariant analyzer (see docs/LINTING.md)",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(p)
    p.set_defaults(handler=_cmd_lint)

    p = commands.add_parser(
        "perf",
        help="sim-count harness: run, report, compare (CI gate)",
    )
    perf_commands = p.add_subparsers(dest="perf_command", required=True)

    pp = perf_commands.add_parser(
        "run", help="run the sim-count harness on a throwaway store"
    )
    pp.add_argument(
        "--profile",
        default="smoke",
        help="workload size: smoke (CI) or full (default: smoke)",
    )
    pp.add_argument(
        "--out", metavar="FILE", help="also write the JSON record to FILE"
    )
    pp.add_argument(
        "--check-determinism",
        action="store_true",
        help="run the profile twice and require byte-identical records "
        "(exit 2 if not)",
    )
    pp.set_defaults(handler=_cmd_perf_run)

    pp = perf_commands.add_parser(
        "report", help="render a recorded perf JSON file"
    )
    pp.add_argument("file")
    pp.set_defaults(handler=_cmd_perf_report)

    pp = perf_commands.add_parser(
        "compare",
        help="gate a perf record against a baseline: non-zero exit on "
        "count regressions; count improvements are advisory",
    )
    pp.add_argument("current")
    pp.add_argument("--baseline", required=True)
    pp.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="relative regression tolerance (default: 0.30)",
    )
    pp.set_defaults(handler=_cmd_perf_compare)

    p = commands.add_parser(
        "campaign",
        help="deterministic fault-injection campaign: run, report, diff "
        "(silent-miss gate)",
    )
    campaign_commands = p.add_subparsers(
        dest="campaign_command", required=True
    )

    cp = campaign_commands.add_parser(
        "run",
        help="inject every fault of a menu on throwaway stores and score "
        "detection coverage",
    )
    cp.add_argument(
        "--menu",
        default="small",
        help="fault menu: small (CI smoke) or full (default: small)",
    )
    cp.add_argument(
        "--out", metavar="FILE", help="write the coverage-matrix JSON to FILE"
    )
    cp.add_argument(
        "--check-determinism",
        action="store_true",
        help="run the campaign twice and require byte-identical artifacts "
        "(exit 2 if not)",
    )
    cp.set_defaults(handler=_cmd_campaign_run)

    cp = campaign_commands.add_parser(
        "report", help="render a recorded coverage-matrix JSON file"
    )
    cp.add_argument("file")
    cp.set_defaults(handler=_cmd_campaign_report)

    cp = campaign_commands.add_parser(
        "diff",
        help="compare two coverage matrices: non-zero exit when a fault "
        "lost a detection channel",
    )
    cp.add_argument("old")
    cp.add_argument("new")
    cp.set_defaults(handler=_cmd_campaign_diff)

    p = commands.add_parser(
        "workload",
        help="year-in-the-life workload observatory: long-horizon replay, "
        "run catalog, fault campaigns under load",
    )
    workload_commands = p.add_subparsers(
        dest="workload_command", required=True
    )

    wp = workload_commands.add_parser(
        "run",
        help="replay a phased traffic profile against an observable "
        "service and score it through the four obs channels",
    )
    wp.add_argument(
        "--profile",
        default="smoke",
        help="workload profile: smoke (CI) or year (default: smoke)",
    )
    wp.add_argument(
        "--campaign",
        metavar="MENU",
        help="also re-prove the fault menu (small/full) injected "
        "mid-replay under this profile's load",
    )
    wp.add_argument(
        "--out", metavar="FILE", help="write the run-artifact JSON to FILE"
    )
    wp.add_argument(
        "--register",
        metavar="RUNS_DIR",
        help="register the run (artifact + INDEX.csv row) in the catalog "
        "directory",
    )
    wp.add_argument(
        "--check-determinism",
        action="store_true",
        help="run the profile twice and require byte-identical artifacts "
        "(exit 2 if not)",
    )
    wp.set_defaults(handler=_cmd_workload_run)

    wp = workload_commands.add_parser(
        "report", help="render a recorded workload-run JSON artifact"
    )
    wp.add_argument("file")
    wp.set_defaults(handler=_cmd_workload_report)

    wp = workload_commands.add_parser(
        "diff",
        help="compare two workload-run artifacts: non-zero exit on a "
        "phase-level regression",
    )
    wp.add_argument("old")
    wp.add_argument("new")
    wp.set_defaults(handler=_cmd_workload_diff)

    wp = workload_commands.add_parser(
        "index",
        help="render (and optionally verify) the benchmarks/runs catalog",
    )
    wp.add_argument(
        "runs_dir",
        nargs="?",
        default="benchmarks/runs",
        help="catalog directory (default: benchmarks/runs)",
    )
    wp.add_argument(
        "--verify",
        action="store_true",
        help="re-hash every cataloged artifact; exit 2 on a mismatch",
    )
    wp.set_defaults(handler=_cmd_workload_index)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
