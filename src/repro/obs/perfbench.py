"""The sim-count harness behind ``clio perf``.

It drives a file-backed store (:mod:`repro.worm.filebacked`) through a
fixed workload — single appends, server-side batched ``append_many``,
entrymap locates, a sequential scan, and repeated read-only recovery
mounts — and records the deterministic sim-side counts of each family
(entries, device writes, entrymap entries examined, blocks parsed, blocks
recovered, ...) plus the service's metrics-registry snapshot.  Every
number in a record is a pure function of the profile, so two runs encode
byte-identically and :func:`compare_reports` can gate a change on them
hermetically: a count that grows beyond the threshold is an algorithmic
regression on any machine.

Real (wall-clock) time is not measured here.  ``clio_bench`` times the
real operation path from outside the program, with medians and spread;
see ``clio_bench/README.md``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from repro.core.service import LogService

__all__ = [
    "PerfProfile",
    "PROFILES",
    "Measurement",
    "PerfReport",
    "run_profile",
    "counts_fingerprint",
    "report_to_dict",
    "write_record",
    "maybe_record",
    "format_report",
    "compare_reports",
]


@dataclass(frozen=True, slots=True)
class PerfProfile:
    """One named workload size for the harness."""

    name: str
    #: Each family runs ``warmup + reps`` repetitions; the recovery
    #: family counts only the last ``reps`` of its mounts.
    reps: int
    warmup: int
    #: Single appends per repetition.
    entries: int
    #: Entries per batched-append repetition ...
    batch_entries: int
    #: ... grouped into ``append_many`` calls of this size.
    batch_size: int
    #: Locate operations per repetition.
    locates: int
    #: Payload bytes per appended entry.
    payload_bytes: int
    #: File-backed store geometry.
    block_size: int
    capacity_blocks: int


#: ``smoke`` is sized for CI (well under a second); ``full`` is what the
#: checked-in ``BENCH_wallclock.json`` records.
PROFILES: dict[str, PerfProfile] = {
    "smoke": PerfProfile(
        name="smoke",
        reps=3,
        warmup=1,
        entries=64,
        batch_entries=128,
        batch_size=32,
        locates=24,
        payload_bytes=96,
        block_size=512,
        capacity_blocks=4096,
    ),
    "full": PerfProfile(
        name="full",
        reps=5,
        warmup=2,
        entries=400,
        batch_entries=1024,
        batch_size=64,
        locates=120,
        payload_bytes=160,
        block_size=1024,
        capacity_blocks=16384,
    ),
}


@dataclass(frozen=True, slots=True)
class Measurement:
    """One workload family's deterministic sim-side counts."""

    name: str
    #: The family's rate unit: a label only, no rate is measured here.
    unit: str
    counts: dict[str, float]


@dataclass(frozen=True, slots=True)
class PerfReport:
    """Everything one harness run produced."""

    profile: str
    measurements: list[Measurement]
    #: Metrics-registry snapshot of the workload service.
    metrics: dict[str, Any]

    def encode(self) -> str:
        """The record as canonical JSON (byte-identical across runs)."""
        return json.dumps(
            report_to_dict(self), indent=2, sort_keys=True, default=str
        )


def _device_writes(service: "LogService") -> int:
    return sum(device.stats.writes for device in service.devices)


def run_profile(profile: PerfProfile | str, workdir: str) -> PerfReport:
    """Run the harness workload in ``workdir`` (which must exist and be
    empty-ish; image files are created under ``workdir/store``)."""
    from repro.core.service import LogService
    from repro.obs.export import json_snapshot
    from repro.worm.filebacked import FileBackedNvram, FileBackedWormDevice

    if isinstance(profile, str):
        profile = PROFILES[profile]
    store_dir = os.path.join(workdir, "store")
    os.makedirs(store_dir, exist_ok=True)

    def volume_paths() -> list[str]:
        return sorted(
            os.path.join(store_dir, name)
            for name in os.listdir(store_dir)
            if name.startswith("vol-") and name.endswith(".img")
        )

    def factory() -> Any:
        index = len(volume_paths())
        return FileBackedWormDevice.create(
            os.path.join(store_dir, f"vol-{index:03d}.img"),
            block_size=profile.block_size,
            capacity_blocks=profile.capacity_blocks,
        )

    nvram_path = os.path.join(store_dir, "nvram.img")
    service = LogService.create(
        block_size=profile.block_size,
        volume_capacity_blocks=profile.capacity_blocks,
        cache_capacity_blocks=profile.capacity_blocks,
        device_factory=factory,
        nvram=FileBackedNvram(nvram_path, capacity_bytes=profile.block_size),
    )
    service.enable_observability()

    def repeat(phase: str, rep: Callable[[], None]) -> None:
        # One root span per repetition: the operations inside it share its
        # trace id, which the latency histograms keep as exemplars — part
        # of the metrics snapshot, and so of the fingerprint.
        for _ in range(profile.warmup + profile.reps):
            with service.tracer.span("perf.phase", phase=phase):
                rep()

    log = service.create_log_file("/perf")
    payload = b"w" * profile.payload_bytes
    rounds = float(profile.warmup + profile.reps)

    # -- single appends, one entry per call ----------------------------- #
    def append_single() -> None:
        for _ in range(profile.entries):
            service.append(log, payload)

    writes0, sim0 = _device_writes(service), service.now_ms
    repeat("append_single", append_single)
    single_m = Measurement(
        "append_single",
        "appends/s",
        {
            "entries": profile.entries * rounds,
            "device_writes": float(_device_writes(service) - writes0),
            "sim_ms": service.now_ms - sim0,
        },
    )

    # -- server-side batched appends ------------------------------------ #
    batches = profile.batch_entries // profile.batch_size
    batch = [payload] * profile.batch_size

    def append_batched() -> None:
        for _ in range(batches):
            service.append_many(log, batch)

    writes0, sim0 = _device_writes(service), service.now_ms
    repeat("append_batched", append_batched)
    batched_m = Measurement(
        "append_batched",
        "appends/s",
        {
            "entries": batches * profile.batch_size * rounds,
            "device_writes": float(_device_writes(service) - writes0),
            "sim_ms": service.now_ms - sim0,
        },
    )

    # -- locates -------------------------------------------------------- #
    logfile_id = log.logfile_id
    reader = service.reader
    search0 = reader.stats.snapshot()

    def locate() -> None:
        # One tiny append first: it bumps the store's append generation,
        # invalidating the locate memo so every repetition pays the real
        # entrymap search rather than a memo hit.
        service.append(log, b"x", timestamped=False)
        extent = reader.global_extent()
        for i in range(profile.locates):
            before = 1 + (extent - 1) * (i + 1) // (profile.locates + 1)
            reader.locate_prev_global(logfile_id, before)

    repeat("locate", locate)
    search_delta = reader.stats.delta(search0)
    locate_m = Measurement(
        "locate",
        "locates/s",
        {
            "locates": profile.locates * rounds,
            "entrymap_entries_examined": float(
                search_delta.search.entrymap_entries_examined
            ),
            "block_accesses": float(search_delta.block_accesses),
        },
    )

    # -- sequential scan: one extra pass, then the repetitions --------- #
    read0 = reader.stats.snapshot()
    scanned = {"bytes": 0, "entries": 0}

    def scan() -> None:
        total = 0
        count = 0
        for entry in service.read_entries(log):
            total += len(entry.data)
            count += 1
        scanned["bytes"] = total
        scanned["entries"] = count

    scan()
    repeat("scan", scan)
    read_delta = reader.stats.delta(read0)
    scan_m = Measurement(
        "scan",
        "MB/s",
        {
            "entries": float(scanned["entries"]),
            "bytes": float(scanned["bytes"]),
            "blocks_parsed": float(read_delta.blocks_parsed),
            "device_reads": float(read_delta.device_reads),
        },
    )

    metrics = json_snapshot(service.metrics)
    remains = service.shutdown()
    for device in remains.devices:
        close = getattr(device, "close", None)
        if close is not None:
            close()

    # -- recovery: read-only mounts of the image files ------------------ #
    examined = replayed = 0
    paths = volume_paths()
    for index in range(profile.warmup + profile.reps):
        devices = [FileBackedWormDevice.open_path(path) for path in paths]
        nvram = FileBackedNvram(nvram_path, capacity_bytes=profile.block_size)
        mounted, report = LogService.mount(
            devices, nvram, read_only=True, observability=True
        )
        if index >= profile.warmup:
            examined += report.total_blocks_examined
            replayed += report.catalog_records_replayed
        for device in mounted.devices:
            device.close()
    recovery_m = Measurement(
        "recovery",
        "blocks/s",
        {
            "mounts": float(profile.reps),
            "blocks_examined": float(examined),
            "catalog_records_replayed": float(replayed),
        },
    )

    return PerfReport(
        profile=profile.name,
        measurements=[single_m, batched_m, locate_m, scan_m, recovery_m],
        metrics=metrics,
    )


# ---------------------------------------------------------------------- #
# Records, rendering, and the CI gate
# ---------------------------------------------------------------------- #


def counts_fingerprint(report: PerfReport | dict[str, Any]) -> str:
    """Every sim-side count and the metrics snapshot, canonically
    serialized — also from an older record that carries wall-clock rates
    beside its counts (the rates are left out)."""
    data = report if isinstance(report, dict) else report_to_dict(report)
    return json.dumps(
        {
            "profile": data["profile"],
            "counts": {
                m["name"]: m["counts"] for m in data["measurements"]
            },
            "metrics": data["metrics"],
        },
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )


def report_to_dict(report: PerfReport) -> dict[str, Any]:
    """The ``BENCH_wallclock.json`` record shape."""
    return {
        "bench": "wallclock",
        "profile": report.profile,
        "measurements": [
            {"name": m.name, "unit": m.unit, "counts": m.counts}
            for m in report.measurements
        ],
        "metrics": report.metrics,
    }


def write_record(report: PerfReport, path: str) -> str:
    """Write the encoded record to ``path`` (``clio perf run --out`` and
    :func:`maybe_record` both land here)."""
    with open(path, "w") as handle:
        handle.write(report.encode() + "\n")
    return path


def maybe_record(report: PerfReport) -> str | None:
    """Write ``BENCH_wallclock.json`` into ``CLIO_BENCH_RECORD_DIR``, as
    the sim benches do; a no-op when the variable is unset."""
    out_dir = os.environ.get("CLIO_BENCH_RECORD_DIR")
    if not out_dir:
        return None
    os.makedirs(out_dir, exist_ok=True)
    return write_record(report, os.path.join(out_dir, "BENCH_wallclock.json"))


def format_report(data: dict[str, Any]) -> str:
    """Render a record for ``clio perf run`` / ``clio perf report`` (older
    records' wall-clock fields are ignored)."""
    lines = [f"profile: {data['profile']}"]
    for m in data["measurements"]:
        counts = "  ".join(
            f"{key}={value:g}" for key, value in sorted(m["counts"].items())
        )
        lines.append(f"{m['name']:<16s} {counts}")
    return "\n".join(lines)


def compare_reports(
    current: dict[str, Any],
    baseline: dict[str, Any],
    threshold: float = 0.30,
) -> tuple[list[str], list[str]]:
    """The CI regression gate: ``(failures, advisories)``.

    A count that grew more than ``threshold`` over the baseline — e.g.
    30% more entrymap entries examined for the same profile — is a
    failure; so is any growth from a baseline of zero.  A count that
    shrank beyond the threshold is an advisory (an improvement: update
    the baseline).
    """
    failures: list[str] = []
    advisories: list[str] = []
    if current.get("profile") != baseline.get("profile"):
        failures.append(
            f"profile mismatch: current {current.get('profile')!r} vs "
            f"baseline {baseline.get('profile')!r} (not comparable)"
        )
        return failures, advisories
    cur_by_name = {m["name"]: m for m in current["measurements"]}
    for base_m in baseline["measurements"]:
        name = base_m["name"]
        cur_m = cur_by_name.get(name)
        if cur_m is None:
            failures.append(f"{name}: measurement missing from current run")
            continue
        for key, base_value in base_m["counts"].items():
            if key not in cur_m["counts"]:
                failures.append(f"{name}.{key}: count missing from current run")
                continue
            cur_value = cur_m["counts"][key]
            if cur_value > base_value * (1.0 + threshold):
                failures.append(
                    f"{name}.{key}: count regression {base_value:g} -> "
                    f"{cur_value:g} (> {threshold:.0%} over baseline)"
                )
            elif cur_value < base_value * (1.0 - threshold):
                advisories.append(
                    f"{name}.{key}: count shrank {base_value:g} -> "
                    f"{cur_value:g} (improvement? update the baseline)"
                )
    return failures, advisories
