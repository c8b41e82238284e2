"""The ``clio perf`` sim-count bench on a file-backed store.

It drives the :mod:`repro.obs.perfbench` workload — single and batched
appends, locates, a sequential scan, recovery mounts — and checks:

* all five workload families are present, each with its deterministic
  sim counts;
* the metrics-registry snapshot rides along in the record;
* two runs encode byte-identically, and the fingerprint holds counts
  only;
* the record lands in BENCH_wallclock.json when CLIO_BENCH_RECORD_DIR is
  set, alongside the sim benches' records.

Real (wall-clock) time is measured by ``clio_bench`` (see
``clio_bench/README.md``), not here.
"""

import pytest

from repro.obs.perfbench import (
    counts_fingerprint,
    maybe_record,
    report_to_dict,
    run_profile,
)

from _support import print_table

PROFILE = "full"
FAMILIES = {
    "append_single": "appends/s",
    "append_batched": "appends/s",
    "locate": "locates/s",
    "scan": "MB/s",
    "recovery": "blocks/s",
}


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("wallclock")
    report = run_profile(PROFILE, str(workdir))
    maybe_record(report)
    print_table(
        f"clio perf counts ({PROFILE} profile)",
        ["measurement", "counts"],
        [
            [
                m.name,
                "  ".join(f"{k}={v:g}" for k, v in sorted(m.counts.items())),
            ]
            for m in report.measurements
        ],
    )
    return report


def test_all_families_present_with_counts(report):
    by_name = {m.name: m for m in report.measurements}
    assert set(by_name) == set(FAMILIES)
    for name, unit in FAMILIES.items():
        measurement = by_name[name]
        assert measurement.unit == unit
        assert measurement.counts, f"{name} recorded no sim counts"


def test_registry_snapshot_rides_along(report):
    record = report_to_dict(report)
    assert record["metrics"]["families"], "registry snapshot missing"
    names = {family["name"] for family in record["metrics"]["families"]}
    assert "clio_append_latency_ms" in names


def test_two_runs_encode_byte_identically(report, tmp_path):
    assert run_profile(PROFILE, str(tmp_path)).encode() == report.encode()


def test_counts_fingerprint_excludes_wall_fields(report):
    fingerprint = counts_fingerprint(report)
    assert "wall" not in fingerprint
    assert "rep_rates" not in fingerprint


def test_benchmark_single_append(benchmark, tmp_path):
    """pytest-benchmark timing of the hottest harness op, for the suite's
    usual --benchmark-only sweep."""
    from repro.core.service import LogService
    from repro.worm.filebacked import FileBackedNvram, FileBackedWormDevice

    def factory():
        index = len(list(tmp_path.glob("vol-*.img")))
        return FileBackedWormDevice.create(
            str(tmp_path / f"vol-{index:03d}.img"),
            block_size=512,
            capacity_blocks=1 << 16,
        )

    service = LogService.create(
        block_size=512,
        volume_capacity_blocks=1 << 16,
        cache_capacity_blocks=1 << 16,
        device_factory=factory,
        nvram=FileBackedNvram(str(tmp_path / "nvram.img"), capacity_bytes=512),
    )
    log = service.create_log_file("/bench")
    payload = b"w" * 96
    benchmark(lambda: service.append(log, payload))
