"""Integration tests for ``repro stats`` / ``repro trace`` against a
file-backed store directory (the ``make obs-demo`` walkthrough)."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import parse_openmetrics_text, parse_prometheus_text


@pytest.fixture
def store(tmp_path):
    """A small file-backed store with a few appended entries."""
    path = str(tmp_path / "store")
    assert main(["init", path, "--block-size", "512", "--degree", "8"]) == 0
    assert main(["create", path, "/app"]) == 0
    for i in range(8):
        assert main(["append", path, "/app", f"event {i}"]) == 0
    return path


def run(capsys, *argv) -> str:
    capsys.readouterr()
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestStatsCommand:
    def test_table_lists_every_metric_family_group(self, store, capsys):
        out = run(capsys, "stats", store, "--touch", "/app")
        # One representative per required family group: device, cache,
        # writer, locate, recovery.
        assert "clio_device_reads_total" in out
        assert "clio_cache_misses_total" in out
        assert "clio_writer_client_entries_total" in out
        assert "clio_locate_entrymap_entries_examined_total" in out
        assert "clio_recovery_blocks_scanned_total" in out

    def test_figure3_and_figure4_counters_present(self, store, capsys):
        out = run(capsys, "stats", store, "--touch", "/app")
        # Figure 3's y-axis: entrymap entries examined per locate.
        assert "clio_locate_entrymap_entries_examined_total" in out
        # Figure 4's y-axis: blocks examined reconstructing the entrymap.
        assert "clio_recovery_blocks_scanned_total" in out

    def test_prometheus_format_parses_and_counts_moved(self, store, capsys):
        out = run(capsys, "stats", store, "--format", "prometheus", "--touch", "/app")
        families = parse_prometheus_text(out)
        assert families["clio_device_reads_total"]["kind"] == "counter"
        reads = sum(
            value
            for (name, _), value in families["clio_device_reads_total"][
                "samples"
            ].items()
            if name == "clio_device_reads_total"
        )
        assert reads > 0
        recovery = families["clio_recovery_blocks_scanned_total"]["samples"]
        assert sum(recovery.values()) > 0

    def test_json_format(self, store, capsys):
        out = run(capsys, "stats", store, "--format", "json")
        snap = json.loads(out)
        names = {family["name"] for family in snap["families"]}
        assert "clio_cache_hit_ratio" in names
        assert "clio_recovery_blocks_scanned_total" in names


class TestTraceLiveCommand:
    def test_mount_recovery_span_rendered(self, store, capsys):
        out = run(capsys, "trace", "live", store)
        assert "recovery" in out
        assert "recovery.rebuild_entrymap" in out
        assert "us]" in out  # sim-time stamps, not wall time

    def test_read_span_with_entry_count(self, store, capsys):
        out = run(capsys, "trace", "live", store, "--read", "/app")
        assert "read entries=8 path=/app" in out

    def test_json_format_is_span_dicts(self, store, capsys):
        out = run(
            capsys, "trace", "live", store, "--read", "/app", "--format", "json"
        )
        roots = json.loads(out)
        names = [root["name"] for root in roots]
        assert "recovery" in names and "read" in names
        read = next(root for root in roots if root["name"] == "read")
        assert read["attributes"]["entries"] == 8
        assert read["end_us"] >= read["start_us"]

    def test_limit(self, store, capsys):
        out = run(capsys, "trace", "live", store, "--read", "/app", "--limit", "1")
        # Only the most recent root (the read) survives the limit.
        assert "read entries=8" in out
        assert "recovery.find_tail" not in out

    def test_trace_is_deterministic_across_runs(self, store, capsys):
        first = run(capsys, "trace", "live", store, "--read", "/app")
        second = run(capsys, "trace", "live", store, "--read", "/app")
        assert first == second


class TestTracedAppend:
    def traced_append(self, capsys, store, data="traced payload"):
        capsys.readouterr()
        assert main(["append", store, "/app", data, "--trace"]) == 0
        out = capsys.readouterr().out
        trace_line = [l for l in out.splitlines() if l.startswith("trace ")]
        assert len(trace_line) == 1
        return trace_line[0].split()[1]

    def test_append_prints_trace_id(self, store, capsys):
        trace_id = self.traced_append(capsys, store)
        assert trace_id.startswith("c")

    def test_one_trace_spans_client_server_and_force(self, store, capsys):
        """The acceptance walkthrough: one `clio append --trace` yields ONE
        trace id whose persisted forest holds the client-side IPC span, the
        server-side group commit, and the post-reply device force."""
        trace_id = self.traced_append(capsys, store)
        out = run(capsys, "trace", "show", store, trace_id)
        assert "client.flush" in out
        assert "append_many" in out
        assert "writer.force" in out

    def test_critical_path_components_cover_duration(self, store, capsys):
        trace_id = self.traced_append(capsys, store)
        out = run(capsys, "trace", "show", store, trace_id, "--critical-path")
        assert "components:" in out
        summary = [l for l in out.splitlines() if l.startswith("attributed")]
        assert len(summary) == 1
        percent = float(summary[0].rsplit("(", 1)[1].split("%")[0])
        assert abs(percent - 100.0) <= 1.0

    def test_show_json_forest_shares_trace_id(self, store, capsys):
        trace_id = self.traced_append(capsys, store)
        out = run(
            capsys, "trace", "show", store, trace_id, "--format", "json"
        )
        roots = json.loads(out)
        assert len(roots) >= 2  # client-side root + deferred delivery root
        assert {root["trace_id"] for root in roots} == {trace_id}
        flush = next(r for r in roots if r["name"] == "client.flush")
        deferred = [r for r in roots if r["name"] != "client.flush"]
        assert all(r["parent_id"] == flush["span_id"] for r in deferred)

    def test_find_and_top_list_persisted_traces(self, store, capsys):
        first = self.traced_append(capsys, store, "one")
        second = self.traced_append(capsys, store, "two")
        out = run(capsys, "trace", "find", store)
        assert first in out and second in out
        out = run(capsys, "trace", "find", store, "--name", "client.flush")
        assert first in out
        out = run(capsys, "trace", "top", store, "--slowest", "1")
        assert len([l for l in out.splitlines() if l.strip()]) == 1
        out = run(capsys, "trace", "top", store, "--component", "ipc")
        assert "ipc=" in out

    def test_show_unknown_trace_id_fails(self, store, capsys):
        self.traced_append(capsys, store)
        assert main(["trace", "show", store, "nope"]) == 1

    def test_store_without_traces_log_errors(self, store, capsys):
        with pytest.raises(SystemExit):
            main(["trace", "find", store])


class TestStatsQuantiles:
    def test_histogram_rows_include_quantiles(self, store, capsys):
        out = run(capsys, "stats", store, "--touch", "/app")
        hist_rows = [line for line in out.splitlines() if "p50=" in line]
        assert hist_rows  # at least the locate histogram observed something
        assert all("p95=" in row and "p99=" in row for row in hist_rows)


class TestStatsWatch:
    def test_watch_rerenders_on_sim_intervals(self, store, capsys):
        out = run(capsys, "stats", store, "--watch", "5")
        # Replay emits at least one intermediate render plus the final one.
        headers = [line for line in out.splitlines() if line.startswith("--- sim t=")]
        assert len(headers) >= 2
        assert "replay complete" in headers[-1]
        assert out.count("clio_sim_clock_ms") == len(headers)


class TestEventsCommand:
    def test_mount_shows_recovery_timeline(self, store, capsys):
        out = run(capsys, "events", store)
        assert "recovery.begin" in out
        assert "recovery.complete" in out

    def test_kind_filter_and_limit(self, store, capsys):
        out = run(capsys, "events", store, "--kind", "recovery.begin")
        lines = [line for line in out.splitlines() if line.startswith("[")]
        assert len(lines) == 1
        out = run(capsys, "events", store, "--limit", "2")
        lines = [line for line in out.splitlines() if line.startswith("[")]
        assert len(lines) == 2

    def test_read_generates_device_events(self, store, capsys):
        # Burn a few blocks first: the tiny fixture store otherwise lives
        # entirely in the NVRAM tail, which reads never hit the device for.
        for i in range(4):
            assert main(["append", store, "/app", "x" * 400]) == 0
        out = run(capsys, "events", store, "--read", "/app")
        assert "device.read" in out


class TestProfileCommand:
    def test_breakdown_components_sum_to_traced_total(self, store, capsys):
        out = run(capsys, "profile", store, "--read", "/app", "--repeat", "3")
        assert "read" in out
        assert "cache_interpret" in out
        # the attribution summary line carries the coverage percentage
        summary = [line for line in out.splitlines() if line.startswith("attributed")]
        assert len(summary) == 1
        percent = float(summary[0].rsplit("(", 1)[1].rstrip("%)"))
        assert abs(percent - 100.0) < 1.0


class TestHealthCommand:
    def test_healthy_store_exits_zero(self, store, capsys):
        out = run(capsys, "health", store, "--read", "/app")
        assert "healthy" in out

    def test_custom_rule_can_fire(self, store, capsys):
        capsys.readouterr()
        code = main(
            ["health", store, "--read", "/app", "--rule", "clio_volumes > 0"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "clio_volumes" in out

    def test_persisted_alert_readable_via_show_log(self, store, capsys):
        capsys.readouterr()
        code = main(
            ["health", store, "--persist", "--rule", "always: clio_volumes > 0"]
        )
        assert code == 1
        assert "appended to /alerts" in capsys.readouterr().out
        code = main(["health", store, "--show-log"])
        out = capsys.readouterr().out
        assert "(history)" in out
        assert "always" in out


class TestStatsOpenMetrics:
    def test_openmetrics_round_trips_and_matches_prometheus(
        self, store, capsys
    ):
        om = run(
            capsys, "stats", store, "--touch", "/app", "--format", "openmetrics"
        )
        assert om.rstrip().endswith("# EOF")
        prom = run(
            capsys, "stats", store, "--touch", "/app", "--format", "prometheus"
        )
        # Mounting is deterministic, so the two expositions describe the
        # same registry: identical series, the OpenMetrics one merely
        # allowed to carry exemplars on top.
        parsed_om = parse_openmetrics_text(om)
        parsed_prom = parse_prometheus_text(prom)
        assert set(parsed_om) == set(parsed_prom)
        for name, family in parsed_prom.items():
            assert parsed_om[name]["samples"] == family["samples"]


class TestTraceTopSlowest:
    def test_slowest_ranks_by_busy_time_descending(self, store, capsys):
        for payload in ("x", "y" * 300, "z"):
            run(capsys, "append", store, "/app", payload, "--trace")
        out = run(capsys, "trace", "top", store, "--slowest", "3")
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 3
        busy = [
            float(re.search(r"busy=([0-9.]+)ms", line).group(1))
            for line in lines
        ]
        assert busy == sorted(busy, reverse=True)

    def test_slowest_listing_is_deterministic(self, store, capsys):
        run(capsys, "append", store, "/app", "payload", "--trace")
        first = run(capsys, "trace", "top", store, "--slowest", "5")
        second = run(capsys, "trace", "top", store, "--slowest", "5")
        assert first == second


class TestStatsWatchReplay:
    def test_watch_output_is_deterministic(self, store, capsys):
        first = run(capsys, "stats", store, "--watch", "5")
        second = run(capsys, "stats", store, "--watch", "5")
        assert first == second

    def test_watch_renders_progress_then_final_table(self, store, capsys):
        out = run(capsys, "stats", store, "--watch", "3")
        headers = [
            line for line in out.splitlines() if line.startswith("--- sim t=")
        ]
        assert len(headers) >= 2
        assert "replay complete" in headers[-1]


class TestPerfCommand:
    RATE_NAMES = ("append_single", "append_batched", "locate", "scan", "recovery")
    BASELINE = str(
        Path(__file__).resolve().parents[2]
        / "benchmarks"
        / "baselines"
        / "wallclock_baseline.json"
    )

    def _record(self, capsys, tmp_path):
        out_file = str(tmp_path / "perf.json")
        out = run(capsys, "perf", "run", "--profile", "smoke", "--out", out_file)
        return out, out_file

    def test_run_smoke_prints_counts_and_writes_record(self, tmp_path, capsys):
        out, out_file = self._record(capsys, tmp_path)
        for name in self.RATE_NAMES:
            assert name in out
        assert "entrymap_entries_examined=" in out
        with open(out_file) as handle:
            record = json.load(handle)
        assert record["bench"] == "wallclock"
        assert record["profile"] == "smoke"
        assert [m["name"] for m in record["measurements"]] == list(
            self.RATE_NAMES
        )
        for m in record["measurements"]:
            assert set(m) == {"name", "unit", "counts"}
            assert m["counts"]

    def test_check_determinism_runs_twice_byte_identically(
        self, tmp_path, capsys
    ):
        out_file = str(tmp_path / "perf.json")
        out = run(
            capsys, "perf", "run", "--profile", "smoke",
            "--check-determinism", "--out", out_file,
        )
        assert "determinism: artifact byte-identical across two runs" in out
        again = str(tmp_path / "again.json")
        run(capsys, "perf", "run", "--profile", "smoke", "--out", again)
        assert Path(out_file).read_bytes() == Path(again).read_bytes()

    def test_out_and_record_dir_write_the_same_bytes(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("CLIO_BENCH_RECORD_DIR", str(tmp_path / "records"))
        out, out_file = self._record(capsys, tmp_path)
        recorded = tmp_path / "records" / "BENCH_wallclock.json"
        assert f"(recorded {recorded})" in out
        assert recorded.read_bytes() == Path(out_file).read_bytes()

    def test_smoke_counts_pass_the_checked_in_baseline(self, tmp_path, capsys):
        _, out_file = self._record(capsys, tmp_path)
        out = run(capsys, "perf", "compare", out_file, "--baseline", self.BASELINE)
        assert out.startswith("ok: counts within 30% of baseline")

    def test_report_renders_old_shape_baseline(self, capsys):
        """The baseline predates the count-only record: it still carries
        rates and wall attribution, which the report ignores."""
        out = run(capsys, "perf", "report", self.BASELINE)
        for name in self.RATE_NAMES:
            assert name in out
        assert "median" not in out

    def test_unknown_profile_exits_one(self, capsys):
        assert main(["perf", "run", "--profile", "nope"]) == 1

    def test_report_rerenders_record(self, tmp_path, capsys):
        _, out_file = self._record(capsys, tmp_path)
        out = run(capsys, "perf", "report", out_file)
        for name in self.RATE_NAMES:
            assert name in out

    def test_compare_self_exits_zero(self, tmp_path, capsys):
        _, out_file = self._record(capsys, tmp_path)
        capsys.readouterr()
        assert main(
            ["perf", "compare", out_file, "--baseline", out_file]
        ) == 0

    def test_compare_injected_count_regression_exits_two(
        self, tmp_path, capsys
    ):
        _, out_file = self._record(capsys, tmp_path)
        with open(out_file) as handle:
            record = json.load(handle)
        regressed = str(tmp_path / "regressed.json")
        for m in record["measurements"]:
            if m["name"] == "locate":
                m["counts"]["locates"] *= 2
        with open(regressed, "w") as handle:
            json.dump(record, handle, sort_keys=True)
        capsys.readouterr()
        assert main(
            ["perf", "compare", regressed, "--baseline", out_file]
        ) == 2
        err = capsys.readouterr().err
        assert "locate.locates" in err


@pytest.mark.parametrize(
    "command, module, harness",
    [
        ("perf", "perfbench", "run_profile"),
        ("campaign", "campaign", "run_campaign"),
        ("workload", "workload", "run_workload"),
    ],
)
def test_check_determinism_mismatch_exits_two(
    capsys, monkeypatch, command, module, harness
):
    """All three harness commands share one run-twice check: artifacts
    that differ between the two runs exit 2."""
    import importlib

    runs = iter(["first", "second"])

    class Drifting:
        def encode(self):
            return next(runs)

    monkeypatch.setattr(
        importlib.import_module(f"repro.obs.{module}"),
        harness,
        lambda *args, **kwargs: Drifting(),
    )
    capsys.readouterr()
    assert main([command, "run", "--check-determinism"]) == 2
    assert "ARTIFACTS DIFFER" in capsys.readouterr().err


class TestEventsFilters:
    def test_since_filters_early_events(self, store, capsys):
        full = run(capsys, "events", store)
        filtered = run(capsys, "events", store, "--since", "1")
        assert len(filtered.splitlines()) < len(full.splitlines())
        # Every surviving line carries a timestamp >= 1 µs.
        for line in filtered.splitlines():
            if line.startswith("("):
                continue  # ring-drop footer
            stamp = int(re.search(r"\[\s*(\d+)us\]", line).group(1))
            assert stamp >= 1

    def test_type_is_an_alias_for_kind(self, store, capsys):
        by_kind = run(capsys, "events", store, "--kind", "recovery.complete")
        by_type = run(capsys, "events", store, "--type", "recovery.complete")
        assert by_kind == by_type
        assert "recovery.complete" in by_kind
        assert "recovery.find_tail" not in by_kind


class TestCampaignCommand:
    def test_run_small_menu_passes_and_writes_artifact(self, tmp_path, capsys):
        out_file = str(tmp_path / "campaign.json")
        capsys.readouterr()
        assert main(["campaign", "run", "--menu", "small", "--out", out_file]) == 0
        out = capsys.readouterr().out
        assert "coverage=100%" in out
        assert "passed=True" in out
        with open(out_file) as handle:
            record = json.load(handle)
        assert record["campaign"]["silent_misses"] == []

    def test_run_check_determinism_exits_zero(self, capsys):
        capsys.readouterr()
        assert (
            main(["campaign", "run", "--menu", "small", "--check-determinism"])
            == 0
        )
        assert "byte-identical" in capsys.readouterr().out

    def test_unknown_menu_exits_one(self, capsys):
        assert main(["campaign", "run", "--menu", "enormous"]) == 1

    def test_report_rerenders_artifact(self, tmp_path, capsys):
        out_file = str(tmp_path / "campaign.json")
        assert main(["campaign", "run", "--menu", "small", "--out", out_file]) == 0
        out = run(capsys, "campaign", "report", out_file)
        assert "fault campaign: menu=small" in out
        assert "evidence:" in out

    def test_diff_self_exits_zero(self, tmp_path, capsys):
        out_file = str(tmp_path / "campaign.json")
        assert main(["campaign", "run", "--menu", "small", "--out", out_file]) == 0
        out = run(capsys, "campaign", "diff", out_file, out_file)
        assert "no channel-level differences" in out

    def test_diff_lost_channel_exits_two(self, tmp_path, capsys):
        old_file = str(tmp_path / "old.json")
        assert main(["campaign", "run", "--menu", "small", "--out", old_file]) == 0
        with open(old_file) as handle:
            record = json.load(handle)
        row = record["matrix"][0]
        hit = next(
            name
            for name, evidence in row["channels"].items()
            if evidence is not None
        )
        row["channels"][hit] = None
        new_file = str(tmp_path / "new.json")
        with open(new_file, "w") as handle:
            json.dump(record, handle, sort_keys=True)
        assert main(["campaign", "diff", old_file, new_file]) == 2
