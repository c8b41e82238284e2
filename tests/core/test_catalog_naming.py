"""Tests for path algebra, catalog records, and catalog replay."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.catalog import (
    Catalog,
    CatalogError,
    CatalogOp,
    CatalogRecord,
    UnknownLogFile,
)
from repro.core.ids import FIRST_CLIENT_ID, VOLUME_SEQUENCE_ID
from repro.core.service import LogService, ReadOnlyService, ServiceCrashed
from repro.core.naming import (
    InvalidName,
    join_path,
    parent_path,
    split_path,
    validate_component,
)


class TestNaming:
    def test_root_splits_to_empty(self):
        assert split_path("/") == []

    def test_simple_path(self):
        assert split_path("/mail/smith") == ["mail", "smith"]

    def test_trailing_slash_tolerated(self):
        assert split_path("/mail/") == ["mail"]

    def test_relative_path_rejected(self):
        with pytest.raises(InvalidName):
            split_path("mail/smith")

    def test_empty_component_rejected(self):
        with pytest.raises(InvalidName):
            validate_component("")

    def test_dot_components_rejected(self):
        for bad in (".", ".."):
            with pytest.raises(InvalidName):
                validate_component(bad)

    def test_slash_in_component_rejected(self):
        with pytest.raises(InvalidName):
            validate_component("a/b")

    def test_control_characters_rejected(self):
        with pytest.raises(InvalidName):
            validate_component("a\x00b")

    def test_join_inverse_of_split(self):
        for path in ("/", "/mail", "/mail/smith", "/a/b/c"):
            assert join_path(split_path(path)) == path

    def test_parent_path(self):
        assert parent_path("/mail/smith") == "/mail"
        assert parent_path("/mail") == "/"
        assert parent_path("/") == "/"


class TestCatalogRecordCodec:
    def test_create_roundtrip(self):
        record = CatalogRecord(
            op=CatalogOp.CREATE,
            logfile_id=8,
            parent_id=0,
            permissions=0o600,
            created_ts=123456,
            name="mail",
        )
        assert CatalogRecord.decode(record.encode()) == record

    def test_set_attribute_roundtrip(self):
        record = CatalogRecord(
            op=CatalogOp.SET_ATTRIBUTE, logfile_id=8, key="owner", value=b"smith"
        )
        assert CatalogRecord.decode(record.encode()) == record

    def test_truncated_rejected(self):
        record = CatalogRecord(op=CatalogOp.CREATE, logfile_id=8, name="mail")
        with pytest.raises(CatalogError):
            CatalogRecord.decode(record.encode()[:-2])

    @given(
        name=st.text(
            alphabet=st.characters(blacklist_characters="/\x00\n", codec="utf-8"),
            min_size=1,
            max_size=40,
        ),
        key=st.text(max_size=20),
        value=st.binary(max_size=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_codec_roundtrip_property(self, name, key, value):
        record = CatalogRecord(
            op=CatalogOp.CREATE, logfile_id=9, name=name, key=key, value=value
        )
        assert CatalogRecord.decode(record.encode()) == record


class TestCatalog:
    def make_catalog(self):
        catalog = Catalog()
        rec = catalog.make_create_record(8, "mail", VOLUME_SEQUENCE_ID, 0o644, 10)
        catalog.apply(rec)
        rec = catalog.make_create_record(9, "smith", 8, 0o600, 20)
        catalog.apply(rec)
        return catalog

    def test_root_always_exists(self):
        catalog = Catalog()
        assert catalog.resolve("/") == VOLUME_SEQUENCE_ID
        assert catalog.info(VOLUME_SEQUENCE_ID).is_root

    def test_resolve_and_path_of_inverse(self):
        catalog = self.make_catalog()
        assert catalog.resolve("/mail") == 8
        assert catalog.resolve("/mail/smith") == 9
        assert catalog.path_of(9) == "/mail/smith"
        assert catalog.path_of(VOLUME_SEQUENCE_ID) == "/"

    def test_resolve_missing_raises(self):
        catalog = self.make_catalog()
        with pytest.raises(CatalogError):
            catalog.resolve("/mail/jones")

    def test_children(self):
        catalog = self.make_catalog()
        assert catalog.children(VOLUME_SEQUENCE_ID) == {"mail": 8}
        assert catalog.children(8) == {"smith": 9}
        assert catalog.children(9) == {}

    def test_ancestors_chain(self):
        catalog = self.make_catalog()
        assert catalog.ancestors(9) == [9, 8, VOLUME_SEQUENCE_ID]
        assert catalog.ancestors(VOLUME_SEQUENCE_ID) == [VOLUME_SEQUENCE_ID]

    def test_duplicate_name_rejected(self):
        catalog = self.make_catalog()
        with pytest.raises(CatalogError):
            catalog.make_create_record(10, "mail", VOLUME_SEQUENCE_ID, 0o644, 30)

    def test_same_name_under_different_parents_ok(self):
        catalog = self.make_catalog()
        rec = catalog.make_create_record(10, "mail", 8, 0o644, 30)
        catalog.apply(rec)
        assert catalog.resolve("/mail/mail") == 10

    def test_duplicate_id_rejected(self):
        catalog = self.make_catalog()
        with pytest.raises(CatalogError):
            catalog.make_create_record(8, "other", VOLUME_SEQUENCE_ID, 0o644, 30)

    def test_reserved_id_rejected(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.make_create_record(2, "evil", VOLUME_SEQUENCE_ID, 0o644, 0)

    def test_unknown_parent_rejected(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.make_create_record(8, "x", 99, 0o644, 0)

    def test_id_allocation_monotone(self):
        catalog = Catalog()
        first = catalog.allocate_id()
        second = catalog.allocate_id()
        assert first == FIRST_CLIENT_ID
        assert second == first + 1

    def test_replay_advances_next_id(self):
        catalog = Catalog()
        catalog.apply(
            CatalogRecord(op=CatalogOp.CREATE, logfile_id=20, name="x", parent_id=0)
        )
        assert catalog.allocate_id() == 21

    def test_set_attribute(self):
        catalog = self.make_catalog()
        rec = catalog.make_set_attribute_record(8, "owner", b"postmaster")
        catalog.apply(rec)
        assert catalog.info(8).attributes["owner"] == b"postmaster"

    def test_attribute_updates_replace(self):
        catalog = self.make_catalog()
        catalog.apply(catalog.make_set_attribute_record(8, "k", b"v1"))
        catalog.apply(catalog.make_set_attribute_record(8, "k", b"v2"))
        assert catalog.info(8).attributes["k"] == b"v2"

    def test_replay_equals_original(self):
        """Replaying the record stream rebuilds an identical catalog —
        the recovery path's core guarantee."""
        catalog = Catalog()
        records = []
        records.append(catalog.make_create_record(8, "mail", 0, 0o644, 1))
        catalog.apply(records[-1])
        records.append(catalog.make_create_record(9, "smith", 8, 0o600, 2))
        catalog.apply(records[-1])
        records.append(catalog.make_set_attribute_record(9, "quota", b"100"))
        catalog.apply(records[-1])

        replayed = Catalog()
        for encoded in [r.encode() for r in records]:
            replayed.apply(CatalogRecord.decode(encoded))
        assert replayed.all_ids() == catalog.all_ids()
        for logfile_id in catalog.all_ids():
            a, b = catalog.info(logfile_id), replayed.info(logfile_id)
            assert (a.name, a.parent_id, a.permissions, a.attributes) == (
                b.name,
                b.parent_id,
                b.permissions,
                b.attributes,
            )
        assert replayed.next_id == catalog.next_id

    def test_replay_create_duplicate_raises(self):
        catalog = Catalog()
        record = CatalogRecord(op=CatalogOp.CREATE, logfile_id=8, name="x", parent_id=0)
        catalog.apply(record)
        with pytest.raises(CatalogError):
            catalog.apply(record)


class TestUnknownLogFile:
    """A failed name or id lookup has one typed answer, and the service's
    open-or-create turns only that answer into a create."""

    def test_unknown_path_raises_unknown_log_file(self):
        catalog = Catalog()
        with pytest.raises(UnknownLogFile, match="'mail'"):
            catalog.resolve("/mail")

    def test_unknown_id_raises_unknown_log_file(self):
        catalog = Catalog()
        with pytest.raises(UnknownLogFile, match="unknown log file id 99"):
            catalog.info(99)
        with pytest.raises(UnknownLogFile):
            catalog.ancestors(99)

    def test_existing_catalog_error_handlers_still_catch_it(self):
        catalog = Catalog()
        for lookup in (lambda: catalog.resolve("/nope"), lambda: catalog.info(99)):
            try:
                lookup()
            except CatalogError as exc:
                assert isinstance(exc, UnknownLogFile)
            else:  # pragma: no cover - the lookup must fail
                pytest.fail("lookup of a missing log file succeeded")

    def test_members_of_falls_back_to_the_id_itself(self):
        catalog = Catalog()
        catalog.apply(catalog.make_create_record(8, "mail", 0, 0o644, 1))
        catalog.apply(catalog.make_create_record(9, "smith", 8, 0o644, 2))
        assert catalog.members_of(9) == [9, 8, VOLUME_SEQUENCE_ID]
        assert catalog.members_of(77) == [77]

    def test_open_or_create_creates_once_then_reopens(self):
        service = LogService.create()
        first = service.open_or_create_log_file("/audit")
        next_id = service.store.catalog.next_id
        again = service.open_or_create_log_file("/audit")
        assert again.logfile_id == first.logfile_id
        assert again.path == first.path == "/audit"
        assert service.store.catalog.next_id == next_id

    def test_open_or_create_sublog_creates_once_then_reopens(self):
        service = LogService.create()
        root = service.open_or_create_log_file("/metrics")
        first = root.open_or_create_sublog("cpu")
        next_id = service.store.catalog.next_id
        again = root.open_or_create_sublog("cpu")
        assert first.path == again.path == "/metrics/cpu"
        assert again.logfile_id == first.logfile_id
        assert service.store.catalog.next_id == next_id

    def test_read_only_service_propagates_without_allocating(self):
        service = LogService.create()
        existing = service.create_log_file("/audit")
        remains = service.shutdown()
        mounted, _ = LogService.mount(
            remains.devices, remains.nvram, read_only=True
        )
        next_id = mounted.store.catalog.next_id
        assert (
            mounted.open_or_create_log_file("/audit").logfile_id
            == existing.logfile_id
        )
        with pytest.raises(ReadOnlyService):
            mounted.open_or_create_log_file("/missing")
        assert mounted.store.catalog.next_id == next_id

    @pytest.mark.parametrize(
        "break_service, path, error",
        [
            (lambda service: service.crash(), "/missing", ServiceCrashed),
            (lambda service: None, "relative", InvalidName),
            (lambda service: None, "/a/../b", InvalidName),
        ],
    )
    def test_other_failures_propagate_without_a_create(
        self, monkeypatch, break_service, path, error
    ):
        service = LogService.create()
        break_service(service)
        attempts = []
        monkeypatch.setattr(
            service, "create_log_file", lambda *a, **k: attempts.append(a)
        )
        with pytest.raises(error):
            service.open_or_create_log_file(path)
        assert attempts == []

    def test_missing_parent_is_not_created_implicitly(self):
        service = LogService.create()
        with pytest.raises(UnknownLogFile):
            service.open_or_create_log_file("/no/such/parent")
        with pytest.raises(UnknownLogFile):
            service.open_log_file("/no")
