"""Spans carry simulated time only: no wall-clock fields on a span and no
wall keys in its record (the /traces byte-determinism gate serializes
exactly these dicts).  Real time is measured outside the program, by
``clio_bench``."""

from repro.obs import SpanTracer


class FakeClock:
    def __init__(self):
        self.now_us = 0

    def tick(self, us: int = 1) -> None:
        self.now_us += us


class TestDualClockSpans:
    def test_without_wall_clock_fields_stay_none(self):
        """No span has wall fields to fill: the tracer has one clock."""
        tracer = SpanTracer(FakeClock())
        with tracer.span("append"):
            with tracer.span("device.io"):
                pass
        root = tracer.last("append")
        for span in root.walk():
            assert not hasattr(span, "wall_start_ns")
            assert not hasattr(span, "wall_end_ns")

    def test_single_clock_as_dict_is_unchanged(self):
        """No wall keys may leak into span records: the /traces
        byte-determinism CI check serializes exactly these dicts."""
        tracer = SpanTracer(FakeClock())
        with tracer.span("append"):
            pass
        record = tracer.last("append").as_dict()
        assert "wall_start_ns" not in record
        assert "wall_end_ns" not in record
