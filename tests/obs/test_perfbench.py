"""Tests for the ``clio perf`` harness: two runs encode byte-identically,
the fingerprint reads old records that still carry wall-clock rates, and
the compare gate fails exactly on injected count regressions."""

import copy

from repro.obs.perfbench import (
    PROFILES,
    PerfProfile,
    compare_reports,
    counts_fingerprint,
    format_report,
    maybe_record,
    report_to_dict,
    run_profile,
)

#: A minimal profile so each test runs in well under a second.
TINY = PerfProfile(
    name="tiny",
    reps=2,
    warmup=1,
    entries=8,
    batch_entries=16,
    batch_size=8,
    locates=4,
    payload_bytes=48,
    block_size=512,
    capacity_blocks=1024,
)


class TestRunProfile:
    def test_all_measurements_and_counts(self, tmp_path):
        report = run_profile(TINY, str(tmp_path))
        names = [m.name for m in report.measurements]
        assert names == [
            "append_single",
            "append_batched",
            "locate",
            "scan",
            "recovery",
        ]
        for m in report.measurements:
            assert m.counts
            assert all(value >= 0 for value in m.counts.values())
        assert report.metrics["families"]

    def test_fake_clock_makes_rates_reproducible(self, tmp_path):
        """The simulated clock is the harness's only clock, so the sim-time
        append rates (entries per simulated millisecond) repeat exactly."""
        a = run_profile(TINY, str(tmp_path / "a"))
        b = run_profile(TINY, str(tmp_path / "b"))

        def sim_rates(report):
            return {
                m.name: m.counts["entries"] / m.counts["sim_ms"]
                for m in report.measurements
                if "sim_ms" in m.counts
            }

        rates = sim_rates(a)
        assert set(rates) == {"append_single", "append_batched"}
        assert all(rate > 0.0 for rate in rates.values())
        assert rates == sim_rates(b)

    def test_named_profiles_exist(self):
        assert set(PROFILES) == {"smoke", "full"}
        assert PROFILES["smoke"].reps >= 3


class TestDeterminism:
    def test_instrumented_and_bare_runs_agree(self):
        """Observability (metrics, spans, events) never perturbs the sim:
        an instrumented and a bare service doing the same work end with
        the same simulated time, device writes and reader counts."""
        from repro.core.service import LogService

        def drive(observability):
            service = LogService.create(
                block_size=512,
                volume_capacity_blocks=1024,
                observability=observability,
            )
            log = service.create_log_file("/perf")
            for _ in range(TINY.entries):
                service.append(log, b"w" * TINY.payload_bytes)
            service.append_many(log, [b"b" * TINY.payload_bytes] * 8)
            scanned = sum(len(e.data) for e in service.read_entries(log))
            stats = service.reader.stats
            return (
                service.now_ms,
                sum(device.stats.writes for device in service.devices),
                scanned,
                stats.blocks_parsed,
                stats.device_reads,
            )

        assert drive(True) == drive(False)

    def test_two_runs_encode_byte_identically(self, tmp_path):
        a = run_profile(TINY, str(tmp_path / "a"))
        b = run_profile(TINY, str(tmp_path / "b"))
        assert a.encode() == b.encode()

    def test_record_carries_no_wall_fields(self, tmp_path):
        encoded = run_profile(TINY, str(tmp_path)).encode()
        for key in ("rep_rates", "median", "wall_ns", "harness_wall_ns"):
            assert f'"{key}"' not in encoded

    def test_fingerprint_ignores_wall_fields(self, tmp_path):
        """Records written before the harness dropped its rates (the
        checked-in baseline among them) fingerprint by their counts."""
        record = report_to_dict(run_profile(TINY, str(tmp_path)))
        old_shape = copy.deepcopy(record)
        old_shape["harness_wall_ns"] = 123
        old_shape["wall_attribution_ns"] = {"ipc": 100}
        for m in old_shape["measurements"]:
            m.update(rep_rates=[1.0, 2.0], median=1.5, wall_ns=99)
        assert counts_fingerprint(old_shape) == counts_fingerprint(record)


class TestRecords:
    def test_format_report_ignores_wall_fields(self, tmp_path):
        record = report_to_dict(run_profile(TINY, str(tmp_path)))
        old_shape = copy.deepcopy(record)
        for m in old_shape["measurements"]:
            m.update(rep_rates=[1.0, 2.0], median=1.5, wall_ns=99)
        text = format_report(old_shape)
        assert text == format_report(record)
        assert "entrymap_entries_examined=" in text

    def test_maybe_record_is_a_noop_without_the_variable(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("CLIO_BENCH_RECORD_DIR", raising=False)
        assert maybe_record(run_profile(TINY, str(tmp_path))) is None


class TestCompareGate:
    def _record(self, tmp_path):
        return report_to_dict(run_profile(TINY, str(tmp_path)))

    def test_identical_records_pass(self, tmp_path):
        record = self._record(tmp_path)
        failures, advisories = compare_reports(record, record)
        assert failures == []
        assert advisories == []

    def test_injected_count_regression_fails(self, tmp_path):
        baseline = self._record(tmp_path)
        current = copy.deepcopy(baseline)
        for m in current["measurements"]:
            if m["name"] == "locate":
                m["counts"]["locates"] *= 1.5
        failures, _ = compare_reports(current, baseline)
        assert any("locate.locates" in f for f in failures)

    def test_within_threshold_count_drift_passes(self, tmp_path):
        baseline = self._record(tmp_path)
        current = copy.deepcopy(baseline)
        for m in current["measurements"]:
            if m["name"] == "locate":
                m["counts"]["locates"] *= 1.2
        failures, _ = compare_reports(current, baseline)
        assert failures == []

    def test_growth_from_zero_baseline_fails(self, tmp_path):
        """A count whose baseline is 0 (the warm scan's device reads) can
        still regress: any growth from zero is a failure."""
        baseline = self._record(tmp_path)
        current = copy.deepcopy(baseline)
        for m in baseline["measurements"]:
            if m["name"] == "scan":
                m["counts"]["device_reads"] = 0.0
        for m in current["measurements"]:
            if m["name"] == "scan":
                m["counts"]["device_reads"] = 158.0
        failures, _ = compare_reports(current, baseline)
        assert any("scan.device_reads" in f for f in failures)

    def test_zero_baseline_staying_zero_passes(self, tmp_path):
        baseline = self._record(tmp_path)
        for m in baseline["measurements"]:
            if m["name"] == "scan":
                m["counts"]["device_reads"] = 0.0
        assert compare_reports(copy.deepcopy(baseline), baseline) == ([], [])

    def test_missing_count_fails(self, tmp_path):
        baseline = self._record(tmp_path)
        current = copy.deepcopy(baseline)
        for m in current["measurements"]:
            if m["name"] == "locate":
                del m["counts"]["block_accesses"]
        failures, _ = compare_reports(current, baseline)
        assert any("locate.block_accesses" in f for f in failures)

    def test_count_shrink_is_advisory(self, tmp_path):
        baseline = self._record(tmp_path)
        current = copy.deepcopy(baseline)
        for m in current["measurements"]:
            if m["name"] == "scan":
                m["counts"]["blocks_parsed"] *= 0.5
        failures, advisories = compare_reports(current, baseline)
        assert failures == []
        assert any("blocks_parsed" in a for a in advisories)

    def test_missing_measurement_fails(self, tmp_path):
        baseline = self._record(tmp_path)
        current = copy.deepcopy(baseline)
        current["measurements"] = [
            m for m in current["measurements"] if m["name"] != "recovery"
        ]
        failures, _ = compare_reports(current, baseline)
        assert any("recovery" in f for f in failures)

    def test_profile_mismatch_fails(self, tmp_path):
        baseline = self._record(tmp_path)
        current = copy.deepcopy(baseline)
        current["profile"] = "other"
        failures, _ = compare_reports(current, baseline)
        assert any("profile mismatch" in f for f in failures)
