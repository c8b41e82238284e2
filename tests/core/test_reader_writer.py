"""Focused unit tests for the writer and reader internals."""

import pytest

from repro.core import LogService, TornEntryError
from repro.core.ids import ENTRYMAP_ID, EntryLocation


def make_service(**kwargs):
    defaults = dict(block_size=256, degree_n=4, volume_capacity_blocks=512)
    defaults.update(kwargs)
    return LogService.create(**defaults)


class TestWriterInternals:
    def test_first_entry_per_block_gets_timestamp_upgrade(self):
        """Untimestamped appends still produce a stamped first entry in
        every block (Section 2.1's mandate)."""
        service = make_service()
        log = service.create_log_file("/app")
        for i in range(60):
            log.append(f"{i:02d}".encode() * 8, timestamped=False)
        reader = service.reader
        for g in range(reader.global_extent()):
            parsed = reader.read_parsed_global(g)
            if parsed is None:
                continue
            starts = parsed.entry_start_slots()
            if not starts:
                continue
            first = reader.entry_header_at(parsed, starts[0])
            assert first.timestamp is not None, f"block {g}"
            for slot in starts[1:]:
                header = reader.entry_header_at(parsed, slot)
                if header.logfile_id == log.logfile_id:
                    assert header.timestamp is None

    def test_entrymap_entries_at_well_known_blocks(self):
        """A level-1 entrymap record opens every N-th block (absent
        invalidation)."""
        service = make_service()
        log = service.create_log_file("/app")
        for i in range(250):
            log.append(f"{i:03d}".encode() * 10)
        reader = service.reader
        found = 0
        for boundary in range(4, 32, 4):
            # The record's home is the boundary block; deferred emission
            # (a continuation opened the block) may push it slightly later.
            hit = False
            for local in range(boundary, boundary + 3):
                parsed = reader.read_parsed(0, local)
                if parsed is None:
                    continue
                for slot in parsed.entry_start_slots():
                    header = reader.entry_header_at(parsed, slot)
                    if header is not None and header.logfile_id == ENTRYMAP_ID:
                        hit = True
            if hit:
                found += 1
        assert found >= 6

    def test_writer_tail_address_tracks_device(self):
        service = make_service()
        log = service.create_log_file("/app")
        log.append(b"x")
        writer = service.writer
        volume = service.store.sequence.volumes[writer.volume_index]
        assert writer.tail_block_addr == volume.next_data_block

    def test_catalog_bytes_accounted(self):
        service = make_service()
        service.create_log_file("/a")
        assert service.space_stats.catalog > 0

    def test_flush_burns_partial_block(self):
        service = make_service()
        log = service.create_log_file("/app")
        log.append(b"small")
        burned_before = service.devices[0].stats.writes
        service.writer.flush()
        assert service.devices[0].stats.writes == burned_before + 1

    def test_flush_of_empty_tail_is_noop(self):
        service = make_service()
        log = service.create_log_file("/app")
        log.append(b"x", force=False)
        service.writer.flush()
        writes = service.devices[0].stats.writes
        service.writer.flush()
        assert service.devices[0].stats.writes == writes


class TestReaderInternals:
    def test_block_members_includes_continuation_owner(self):
        service = make_service()
        big = service.create_log_file("/big")
        big.append(b"Z" * 600)  # spans 3+ blocks of 256
        reader = service.reader
        member_sets = [
            reader.block_members(0, b) for b in range(reader.volume_extent(0))
        ]
        containing = [m for m in member_sets if m and big.logfile_id in m]
        assert len(containing) >= 3

    def test_corrupt_record_slot_is_reported_once_and_skipped(self):
        """A CRC-valid block whose one slot has header-version 0 (garbage
        inside a structurally intact block): membership scans report the
        slot exactly once, iteration skips it and keeps its neighbours,
        and fsck flags it."""
        from repro.core.fsck import check_service

        service = make_service(observability=True)
        log = service.create_log_file("/app")
        results = [log.append(f"entry-{i}".encode()) for i in range(3)]
        bad = results[1].location
        assert {r.location.global_block for r in results} == {bad.global_block}
        # Clear the header-version nibble of entry-1 in the open tail
        # block, then burn it: the encoder writes a valid CRC over it.
        fragments = service.writer._builder._fragments
        fragments[bad.slot] = bytes([fragments[bad.slot][0] & 0x0F]) + fragments[
            bad.slot
        ][1:]
        service.writer.flush()

        reader = service.reader
        volume, local = service.store.sequence.to_local(bad.global_block)
        for _ in range(2):
            members = reader.block_members(volume, local)
            assert log.logfile_id in members
        assert reader.stats.corrupt_records_found == 1
        events = [e for e in service.journal.events() if e.kind == "record.corrupt"]
        assert [(e.attr("block"), e.attr("slot")) for e in events] == [
            (local, bad.slot)
        ]

        assert [e.data for e in log.entries()] == [b"entry-0", b"entry-2"]
        assert [e.data for e in log.entries(reverse=True)] == [
            b"entry-2",
            b"entry-0",
        ]

        report = check_service(service)
        assert any(
            f.block == local and f.message == f"undecodable record in slot {bad.slot}"
            for f in report.errors
        )

    def test_entry_at_wrong_slot_raises(self):
        service = make_service()
        log = service.create_log_file("/app")
        result = log.append(b"x")
        with pytest.raises(TornEntryError):
            service.reader.entry_at(
                EntryLocation(
                    global_block=result.location.global_block, slot=99
                )
            )

    def test_entry_at_roundtrip(self):
        service = make_service()
        log = service.create_log_file("/app")
        result = log.append(b"the payload")
        entry = service.reader.entry_at(result.location)
        assert entry.data == b"the payload"

    def test_fragmented_entry_assembly_across_volumes(self):
        service = make_service(volume_capacity_blocks=8)
        log = service.create_log_file("/app")
        log.append(b"pad" * 20)
        big = bytes(range(256)) * 10  # 2.5 KB >> one 7-data-block volume
        result = log.append(big)
        assert service.reader.entry_at(result.location).data == big
        assert len(service.store.sequence.volumes) > 1

    def test_locate_stats_accumulate(self):
        service = make_service()
        log = service.create_log_file("/app")
        for i in range(80):
            log.append(f"{i}".encode() * 10)
        stats0 = service.reader.stats.snapshot()
        list(log.entries())
        delta = service.reader.stats.delta(stats0)
        assert delta.block_accesses > 0

    def test_global_extent_includes_tail(self):
        service = make_service()
        log = service.create_log_file("/app")
        log.append(b"x")
        writer = service.writer
        assert service.reader.global_extent() == writer.tail_global_block + 1

    def test_read_beyond_extent_is_none(self):
        service = make_service()
        assert service.reader.read_parsed(0, 100) is None
        assert service.reader.read_parsed(0, -1) is None

    def test_iter_from_middle_slot(self):
        service = make_service()
        log = service.create_log_file("/app")
        results = [log.append(f"{i}".encode()) for i in range(6)]
        start = results[3].location
        got = [
            e.data
            for e in service.reader.iter_entries(
                log.logfile_id,
                start_global=start.global_block,
                start_slot=start.slot,
            )
        ]
        assert got == [b"3", b"4", b"5"]

    def test_reverse_iter_from_middle_slot(self):
        service = make_service()
        log = service.create_log_file("/app")
        results = [log.append(f"{i}".encode()) for i in range(6)]
        start = results[3].location
        got = [
            e.data
            for e in service.reader.iter_entries(
                log.logfile_id,
                start_global=start.global_block,
                start_slot=start.slot,
                reverse=True,
            )
        ]
        assert got == [b"3", b"2", b"1", b"0"]


class TestHugeEntries:
    def test_64kb_entry_roundtrip(self):
        service = make_service(volume_capacity_blocks=2048)
        log = service.create_log_file("/huge")
        big = bytes(range(256)) * 256  # 64 KB across ~270 256-byte blocks
        log.append(b"before")
        result = log.append(big)
        log.append(b"after")
        assert service.reader.entry_at(result.location).data == big
        assert [e.data for e in log.entries()] == [b"before", big, b"after"]

    def test_huge_entries_roundtrip_property(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(
            sizes=st.lists(
                st.integers(min_value=0, max_value=20_000), min_size=1, max_size=4
            )
        )
        @settings(max_examples=15, deadline=None)
        def check(sizes):
            service = make_service(volume_capacity_blocks=2048)
            log = service.create_log_file("/h")
            payloads = [bytes([i % 251]) * size for i, size in enumerate(sizes)]
            for payload in payloads:
                log.append(payload)
            assert [e.data for e in log.entries()] == payloads

        check()


class TestTornEntries:
    def test_dangling_continuation_skipped_and_counted(self):
        """A fragmented entry whose tail was lost to a crash is skipped by
        iteration and counted in the stats."""
        service = LogService.create(
            block_size=256,
            degree_n=4,
            volume_capacity_blocks=512,
            nvram_tail=False,
        )
        log = service.create_log_file("/app")
        log.append(b"whole", force=True)
        # 460 bytes fragments into one burned block plus a final fragment
        # that stays in the (volatile, never-burned) tail block.
        log.append(b"T" * 460)
        remains = service.crash()
        mounted, _ = LogService.mount(remains.devices, remains.nvram)
        log2 = mounted.open_log_file("/app")
        got = [e.data for e in log2.entries()]
        assert got == [b"whole"]
        assert mounted.reader.stats.torn_entries_skipped >= 1
