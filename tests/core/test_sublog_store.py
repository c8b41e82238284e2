"""Tests for the sublog relation helpers and the store's space accounting."""

import pytest

from repro.core import LogService
from repro.core.catalog import Catalog
from repro.core.ids import ENTRYMAP_ID, VOLUME_SEQUENCE_ID
from repro.core.store import SpaceStats, StoreConfig
from repro.core.sublog import common_ancestor, depth, descendants, is_member


def make_tree():
    """Root -> mail(8) -> {smith(9), jones(10)}; audit(11)."""
    catalog = Catalog()
    catalog.apply(catalog.make_create_record(8, "mail", VOLUME_SEQUENCE_ID, 0o644, 0))
    catalog.apply(catalog.make_create_record(9, "smith", 8, 0o644, 0))
    catalog.apply(catalog.make_create_record(10, "jones", 8, 0o644, 0))
    catalog.apply(catalog.make_create_record(11, "audit", VOLUME_SEQUENCE_ID, 0o644, 0))
    return catalog


class TestSublogRelations:
    def test_member_of_self(self):
        catalog = make_tree()
        assert is_member(catalog, 9, 9)

    def test_member_of_parent_and_root(self):
        catalog = make_tree()
        assert is_member(catalog, 9, 8)
        assert is_member(catalog, 9, VOLUME_SEQUENCE_ID)

    def test_not_member_of_sibling_or_unrelated(self):
        catalog = make_tree()
        assert not is_member(catalog, 9, 10)
        assert not is_member(catalog, 9, 11)

    def test_everything_belongs_to_root(self):
        catalog = make_tree()
        for logfile_id in (8, 9, 10, 11):
            assert is_member(catalog, logfile_id, VOLUME_SEQUENCE_ID)

    def test_descendants(self):
        catalog = make_tree()
        assert descendants(catalog, 8) == {8, 9, 10}
        assert descendants(catalog, 9) == {9}
        assert descendants(catalog, VOLUME_SEQUENCE_ID) == {0, 8, 9, 10, 11}

    def test_depth(self):
        catalog = make_tree()
        assert depth(catalog, VOLUME_SEQUENCE_ID) == 0
        assert depth(catalog, 8) == 1
        assert depth(catalog, 9) == 2

    def test_common_ancestor(self):
        catalog = make_tree()
        assert common_ancestor(catalog, 9, 10) == 8
        assert common_ancestor(catalog, 9, 11) == VOLUME_SEQUENCE_ID
        assert common_ancestor(catalog, 9, 8) == 8
        assert common_ancestor(catalog, 9, 9) == 9


class TestMembershipMemo:
    """Catalog.tracked_members is memoized; Catalog.apply clears the memo."""

    def test_tracked_members_drop_untracked_ids(self):
        catalog = make_tree()
        assert catalog.tracked_members(9) == {9, 8}
        assert catalog.tracked_members(ENTRYMAP_ID) == frozenset()
        assert catalog.tracked_members(VOLUME_SEQUENCE_ID) == frozenset()

    def test_apply_invalidates_a_memoized_answer(self):
        catalog = make_tree()
        # Unknown ids count only for themselves, and that answer is memoized.
        assert catalog.tracked_members(12) == {12}
        catalog.apply(catalog.make_create_record(12, "brown", 8, 0o644, 0))
        assert catalog.tracked_members(12) == {12, 8}

    def test_new_sublog_joins_its_parent_live_and_after_replay(self):
        service = LogService.create(
            block_size=256, degree_n=4, volume_capacity_blocks=512
        )
        a = service.create_log_file("/a")
        a.append(b"a-1", force=True)
        assert [e.data for e in a.entries()] == [b"a-1"]
        b = a.create_sublog("b")
        b.append(b"b-1", force=True)
        assert [e.data for e in a.entries()] == [b"a-1", b"b-1"]

        remains = service.crash()
        mounted, _ = LogService.mount(remains.devices, remains.nvram)
        a = mounted.open_log_file("/a")
        assert [e.data for e in a.entries()] == [b"a-1", b"b-1"]
        assert [e.data for e in a.entries(reverse=True)] == [b"b-1", b"a-1"]


class TestSpaceStats:
    def test_empty(self):
        stats = SpaceStats()
        assert stats.overhead_per_client_entry() == 0.0
        assert stats.entrymap_overhead_per_client_entry() == 0.0
        assert stats.total_overhead == 0

    def test_total_overhead_sums_components(self):
        stats = SpaceStats(
            entry_headers=10,
            size_index=4,
            entrymap=6,
            catalog=20,
            forced_padding=100,
        )
        assert stats.total_overhead == 140

    def test_per_entry_figures(self):
        stats = SpaceStats(
            client_entries=10, client_data=500, entry_headers=20, size_index=20,
            entrymap=5,
        )
        assert stats.overhead_per_client_entry() == pytest.approx(4.5)
        assert stats.entrymap_overhead_per_client_entry() == pytest.approx(0.5)


class TestStoreConfig:
    def test_defaults_match_paper(self):
        config = StoreConfig()
        assert config.block_size == 1024  # "The block size was 1 kbyte"
        assert config.degree_n == 16  # "entrymap log entries were written
        #                               16 blocks apart (i.e. N = 16)"

    def test_frozen(self):
        config = StoreConfig()
        with pytest.raises(AttributeError):
            config.block_size = 2048
