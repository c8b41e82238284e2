"""Fixture-based tests: every lint rule fires on a known-bad snippet and
stays silent on a known-good one."""

import textwrap

from repro.lint.engine import run_lint


def lint(tmp_path, files, rule):
    """Write ``files`` (relpath -> source) under ``tmp_path``, lint the
    tree, and return only the findings for ``rule``."""
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    result = run_lint(tmp_path, [tmp_path])
    return [f for f in result.findings if f.rule == rule]


class TestSimTimePurity:
    def test_wall_clock_read_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {"mod.py": """\
                import time

                STARTED = time.time()
                """},
            "sim-time",
        )
        assert len(findings) == 1
        assert findings[0].line == 3
        assert "time.time" in findings[0].message

    def test_unseeded_random_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {"mod.py": """\
                import random

                RNG = random.Random()
                """},
            "sim-time",
        )
        assert len(findings) == 1

    def test_sim_clock_usage_is_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {"mod.py": """\
                import random

                RNG = random.Random(0)


                def latency(clock):
                    clock.advance_ms(1.5)
                    return clock.now_ms
                """},
            "sim-time",
        )
        assert findings == []

    def test_clock_module_itself_is_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            {"vsystem/clock.py": """\
                import time

                WALL = time.time()
                """},
            "sim-time",
        )
        assert findings == []

    def test_wallclock_module_is_not_exempt(self, tmp_path):
        """The sim clock is the only exemption: a host-clock read in
        obs/wallclock.py is flagged like any other."""
        findings = lint(
            tmp_path,
            {"obs/wallclock.py": """\
                import time


                class PerfWallClock:
                    def now_ns(self) -> int:
                        return time.perf_counter_ns()
                """},
            "sim-time",
        )
        assert len(findings) == 1
        assert "perf_counter_ns" in findings[0].message

    def test_perf_counter_outside_the_boundary_is_flagged(self, tmp_path):
        """The exemption is exact: the same read anywhere outside the sim
        clock — even a perf-sounding module — still fires."""
        source = """\
            import time

            T0 = time.perf_counter_ns()
            """
        findings = lint(
            tmp_path,
            {
                "obs/perfbench.py": source,
                "core/writer.py": source,
                "wallclock.py": source,
            },
            "sim-time",
        )
        assert len(findings) == 3
        assert all("perf_counter_ns" in f.message for f in findings)

    def test_perf_counter_import_outside_boundary_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {"obs/profile.py": """\
                from time import perf_counter
                """},
            "sim-time",
        )
        assert len(findings) == 1
        assert "perf_counter" in findings[0].message


class TestWormEncapsulation:
    def test_foreign_private_access_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {"app.py": """\
                def smash(device):
                    device._raw_overwrite(0, b"garbage")
                    return device._blocks
                """},
            "worm-encapsulation",
        )
        assert len(findings) == 2
        assert "_raw_overwrite" in findings[0].message

    def test_worm_package_and_own_attributes_are_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                # Fault injection inside repro/worm is legitimate.
                "worm/inject.py": """\
                    def corrupt(device):
                        device._raw_overwrite(0, b"x")
                    """,
                # A class's own private state is its own business.
                "app.py": """\
                    class Index:
                        def __init__(self):
                            self._blocks = {}

                        def get(self, k):
                            return self._blocks[k]
                    """,
            },
            "worm-encapsulation",
        )
        assert findings == []


class TestChargeDiscipline:
    def test_uncharged_primitive_and_caller_are_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {"core/dev.py": """\
                class FlatDevice:
                    def __init__(self):
                        self._data = {}

                    def read_block(self, block):
                        return self._data[block]


                def scan(device):
                    return [device.read_block(i) for i in range(4)]
                """},
            "charge-discipline",
        )
        assert len(findings) == 2
        assert any("FlatDevice.read_block" in f.message for f in findings)
        assert any("'scan'" in f.message for f in findings)

    def test_charging_and_delegating_primitives_are_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {"core/dev.py": """\
                class Device:
                    def read_block(self, block):
                        self._charge(1)
                        return block


                class Mirror:
                    def __init__(self, inner):
                        self._inner = inner

                    def read_block(self, block):
                        return self._inner.read_block(block)
                """},
            "charge-discipline",
        )
        assert findings == []

    def test_abstract_declarations_are_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            {"worm/iface.py": """\
                import abc


                class BlockDevice(abc.ABC):
                    @abc.abstractmethod
                    def read_block(self, block):
                        "Read one block."

                    def write_block(self, block, data):
                        raise NotImplementedError
                """},
            "charge-discipline",
        )
        assert findings == []

    def test_outside_worm_and_core_is_out_of_scope(self, tmp_path):
        findings = lint(
            tmp_path,
            {"apps/reader.py": """\
                class Skimmer:
                    def read_block(self, block):
                        return block
                """},
            "charge-discipline",
        )
        assert findings == []


class TestExceptionHygiene:
    def test_bare_except_and_swallowing_catch_all_are_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {"mod.py": """\
                def risky(op):
                    try:
                        op()
                    except:
                        pass
                    try:
                        op()
                    except Exception:
                        pass
                """},
            "bare-except",
        )
        assert len(findings) == 2

    def test_narrow_and_handled_exceptions_are_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {"mod.py": """\
                def risky(op, log):
                    try:
                        op()
                    except ValueError:
                        pass
                    try:
                        op()
                    except Exception as exc:
                        log.append(exc)
                        raise
                """},
            "bare-except",
        )
        assert findings == []

    FALLBACK = """\
        def ancestors_or_self(catalog, logfile_id):
            try:
                return catalog.ancestors(logfile_id)
            except Exception:
                return [logfile_id]
        """

    def test_storage_layer_catch_all_fallback_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "core/reader.py": self.FALLBACK,
                "worm/device.py": """\
                    def probe(device):
                        try:
                            return device.query_tail()
                        except (OSError, BaseException) as exc:
                            device.note(exc)
                            return None
                    """,
                "cache/block_cache.py": """\
                    def get(cache, key):
                        try:
                            return cache.lookup(key)
                        except Exception:
                            if cache.strict:
                                raise
                            cache.evict(key)
                        return None
                    """,
            },
            "bare-except",
        )
        assert sorted(f.path.split("/")[-2] for f in findings) == [
            "cache",
            "core",
            "worm",
        ]
        assert all("must re-raise" in f.message for f in findings)

    def test_storage_layer_handler_that_reraises_or_is_narrow_is_clean(
        self, tmp_path
    ):
        findings = lint(
            tmp_path,
            {
                "core/reader.py": """\
                    class UnknownLogFile(Exception):
                        pass


                    def ancestors_or_self(catalog, logfile_id):
                        try:
                            return catalog.ancestors(logfile_id)
                        except UnknownLogFile:
                            return [logfile_id]


                    def burn(device, image, log):
                        try:
                            device.append_block(image)
                        except Exception as exc:
                            log.append(exc)
                            raise
                    """,
                "cache/block_cache.py": """\
                    def get(cache, key):
                        try:
                            return cache.lookup(key)
                        except BaseException as exc:
                            raise KeyError(key) from exc
                    """,
            },
            "bare-except",
        )
        assert findings == []

    def test_catch_all_fallback_outside_storage_layers_is_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {"obs/report.py": self.FALLBACK, "apps/mail.py": self.FALLBACK},
            "bare-except",
        )
        assert findings == []


class TestMutableDefault:
    def test_list_default_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {"mod.py": """\
                def collect(item, into=[]):
                    into.append(item)
                    return into
                """},
            "mutable-default",
        )
        assert len(findings) == 1
        assert "collect" in findings[0].message

    def test_dict_call_and_kwonly_defaults_are_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {"mod.py": """\
                def configure(*, options=dict(), tags={}):
                    return options, tags
                """},
            "mutable-default",
        )
        assert len(findings) == 2

    def test_none_default_is_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {"mod.py": """\
                def collect(item, into=None):
                    into = [] if into is None else into
                    into.append(item)
                    return into
                """},
            "mutable-default",
        )
        assert findings == []


class TestExportHygiene:
    def test_missing_all_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {"mod.py": """\
                def public():
                    return 1
                """},
            "export-hygiene",
        )
        assert len(findings) == 1
        assert "no __all__" in findings[0].message

    def test_unlisted_public_unbound_and_duplicate_are_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {"mod.py": """\
                __all__ = ["listed", "ghost", "listed"]


                def listed():
                    return 1


                def unlisted():
                    return 2
                """},
            "export-hygiene",
        )
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 3
        assert "duplicate" in messages
        assert "'ghost'" in messages
        assert "'unlisted'" in messages

    def test_truthful_all_is_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {"mod.py": """\
                __all__ = ["Public", "helper"]


                class Public:
                    pass


                def helper():
                    return Public()


                def _private():
                    return None
                """},
            "export-hygiene",
        )
        assert findings == []

    def test_module_getattr_permits_lazy_names(self, tmp_path):
        findings = lint(
            tmp_path,
            {"mod.py": """\
                __all__ = ["lazy"]


                def __getattr__(name):
                    raise AttributeError(name)
                """},
            "export-hygiene",
        )
        assert findings == []


class TestDeterministicJson:
    def test_dumps_without_sort_keys_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {"mod.py": """\
                import json
                from json import dumps as encode


                def snapshot(state):
                    return json.dumps(state), encode(state)
                """},
            "nondeterministic-json",
        )
        assert len(findings) == 2

    def test_sorted_dumps_and_kwargs_passthrough_are_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {"mod.py": """\
                import json


                def snapshot(state, **kwargs):
                    a = json.dumps(state, sort_keys=True)
                    b = json.dumps(state, **kwargs)
                    return a, b
                """},
            "nondeterministic-json",
        )
        assert findings == []


_WIRING_OK = """\
    def wire(registry):
        instruments = {
            field: registry.counter(f"clio_dev_{field}_total", "help")
            for field in ("reads", "writes")
        }
        registry.counter("clio_good_total", "help")
        registry.histogram("clio_lat_ms", "help")
        return instruments
    """

_DOC_OK = """\
    | `clio_dev_reads_total` | device reads |
    | `clio_dev_writes_total` | device writes |
    | `clio_good_total` | a counter |
    | `clio_lat_ms` | exported as `clio_lat_ms_bucket` etc. |
    """


class TestMetricsDrift:
    def write_doc(self, tmp_path, text):
        path = tmp_path / "docs" / "OBSERVABILITY.md"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))

    def test_synchronized_namespace_is_clean(self, tmp_path):
        self.write_doc(tmp_path, _DOC_OK)
        findings = lint(
            tmp_path, {"obs/wiring.py": _WIRING_OK}, "metrics-drift"
        )
        assert findings == []

    def test_registered_but_undocumented_is_flagged(self, tmp_path):
        self.write_doc(tmp_path, _DOC_OK)
        findings = lint(
            tmp_path,
            {"obs/wiring.py": _WIRING_OK.replace(
                '"clio_good_total"', '"clio_sneaky_total"'
            )},
            "metrics-drift",
        )
        messages = "\n".join(f.message for f in findings)
        assert "'clio_sneaky_total'" in messages
        assert "not documented" in messages
        # The doc's now-stale clio_good_total row is the mirror error.
        assert "'clio_good_total'" in messages

    def test_documented_but_unregistered_is_flagged(self, tmp_path):
        self.write_doc(tmp_path, _DOC_OK + "| `clio_ghost_total` | gone |\n")
        findings = lint(
            tmp_path, {"obs/wiring.py": _WIRING_OK}, "metrics-drift"
        )
        assert len(findings) == 1
        assert "'clio_ghost_total'" in findings[0].message
        assert findings[0].path == "docs/OBSERVABILITY.md"

    def test_unregistered_reference_in_source_is_flagged(self, tmp_path):
        self.write_doc(tmp_path, _DOC_OK)
        findings = lint(
            tmp_path,
            {
                "obs/wiring.py": _WIRING_OK,
                "obs/slo.py": """\
                    RULE_METRIC = "clio_missing_total"
                    """,
            },
            "metrics-drift",
        )
        assert len(findings) == 1
        assert "'clio_missing_total'" in findings[0].message
        assert findings[0].path == "obs/slo.py"

    def test_histogram_series_and_docstring_prose_resolve(self, tmp_path):
        self.write_doc(tmp_path, _DOC_OK)
        findings = lint(
            tmp_path,
            {
                "obs/wiring.py": _WIRING_OK,
                "obs/export.py": '''\
                    """Prose mentioning clio_anything_total is not a reference."""

                    SERIES = "clio_lat_ms_bucket"
                    ''',
            },
            "metrics-drift",
        )
        assert findings == []

    def test_unanalyzable_registration_is_flagged(self, tmp_path):
        self.write_doc(tmp_path, _DOC_OK)
        findings = lint(
            tmp_path,
            {"obs/wiring.py": _WIRING_OK + """\

    def wire_dynamic(registry, name):
        registry.counter(name, "help")
    """},
            "metrics-drift",
        )
        assert len(findings) == 1
        assert "not statically analyzable" in findings[0].message


_SPAN_SRC_OK = """\
    def append(self, data):
        with self.tracer.span("append", size=len(data)):
            pass

    def force(self):
        with self.tracer.span("writer.force"):
            pass
    """

_SPAN_DOC_OK = """\
    # Observability

    ### Span-name catalog

    | Span | Opened by |
    |---|---|
    | `append` | the service |
    | `writer.force` | the writer |

    ### Next section

    | `unrelated.table` | rows outside the catalog are ignored |
    """


class TestSpanDrift:
    def write_doc(self, tmp_path, text):
        path = tmp_path / "docs" / "OBSERVABILITY.md"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))

    def test_synchronized_catalog_is_clean(self, tmp_path):
        self.write_doc(tmp_path, _SPAN_DOC_OK)
        findings = lint(
            tmp_path, {"core/service.py": _SPAN_SRC_OK}, "span-drift"
        )
        assert findings == []

    def test_opened_but_undeclared_is_flagged(self, tmp_path):
        self.write_doc(tmp_path, _SPAN_DOC_OK)
        findings = lint(
            tmp_path,
            {
                "core/service.py": _SPAN_SRC_OK.replace(
                    '"append"', '"append.sneaky"'
                )
            },
            "span-drift",
        )
        messages = "\n".join(f.message for f in findings)
        assert "'append.sneaky'" in messages
        assert "not declared" in messages
        # The catalog's now-stale `append` row is the mirror error.
        assert "'append'" in messages

    def test_declared_but_never_opened_is_flagged(self, tmp_path):
        self.write_doc(
            tmp_path, _SPAN_DOC_OK.replace(
                "| `append` | the service |",
                "| `append` | the service |\n| `ghost.span` | nobody |",
            )
        )
        findings = lint(
            tmp_path, {"core/service.py": _SPAN_SRC_OK}, "span-drift"
        )
        assert len(findings) == 1
        assert "'ghost.span'" in findings[0].message
        assert findings[0].path == "docs/OBSERVABILITY.md"

    def test_rows_outside_catalog_section_are_ignored(self, tmp_path):
        # `unrelated.table` sits under "Next section", not the catalog, so
        # it is neither declared nor required to be opened.
        self.write_doc(tmp_path, _SPAN_DOC_OK)
        findings = lint(
            tmp_path, {"core/service.py": _SPAN_SRC_OK}, "span-drift"
        )
        assert findings == []

    def test_non_literal_span_name_is_flagged(self, tmp_path):
        self.write_doc(tmp_path, _SPAN_DOC_OK)
        findings = lint(
            tmp_path,
            {
                "core/service.py": _SPAN_SRC_OK + """\

    def dynamic(self, name):
        with self.tracer.span(name):
            pass
    """
            },
            "span-drift",
        )
        assert len(findings) == 1
        assert "not a string literal" in findings[0].message
