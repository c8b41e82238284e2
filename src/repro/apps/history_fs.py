"""A history-based file server (Section 4.1).

"A conventional file service can be implemented following the history-based
model.  The file server maintains, in one or more log files, a file history
for each file that it stores.  The file history includes all updates to the
contents and properties of files ...  The file server can extract, from the
file history, either the current version of a file, or an earlier version.
(The contents of the current version are typically cached.)"

Design:

* every file's history lives in a sublog of ``/fs`` (one sublog per file);
* the *current state* is a RAM cache — "an (at least partially) cached
  summary of the contents of these log files" — fully reconstructable;
* a **delayed-write policy** buffers updates for a configurable interval
  before logging them, so data deleted young (Ousterhout's >50% within
  five minutes) never reaches the log device at all (Section 4.1);
* ``version_at`` replays a file's history up to a timestamp — the
  history-based model's signature capability.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.core import LogService
from repro.core.catalog import UnknownLogFile
from repro.core.logfile import LogFile

__all__ = ["HistoryFileServer", "HistoryFsStats"]

_OP_WRITE = 1
_OP_TRUNCATE = 2
_OP_DELETE = 3
_OP_SETPROP = 4
_OP_READ = 5
_HEADER = struct.Struct(">BQI")


def _encode_write(offset: int, data: bytes) -> bytes:
    return _HEADER.pack(_OP_WRITE, offset, len(data)) + data


def _encode_truncate(size: int) -> bytes:
    return _HEADER.pack(_OP_TRUNCATE, size, 0)


def _encode_delete() -> bytes:
    return _HEADER.pack(_OP_DELETE, 0, 0)


def _encode_read(reader_name: str) -> bytes:
    name = reader_name.encode()
    return _HEADER.pack(_OP_READ, len(name), 0) + name


def _encode_setprop(key: str, value: bytes) -> bytes:
    key_bytes = key.encode()
    return (
        _HEADER.pack(_OP_SETPROP, len(key_bytes), len(value)) + key_bytes + value
    )


def _apply_record(
    payload: bytes, content: bytearray, props: dict[str, bytes]
) -> bool:
    """Apply one history record; returns False if the file was deleted."""
    op, a, b = _HEADER.unpack_from(payload, 0)
    body = payload[_HEADER.size :]
    if op == _OP_WRITE:
        offset, length = a, b
        if offset + length > len(content):
            content.extend(b"\x00" * (offset + length - len(content)))
        content[offset : offset + length] = body[:length]
    elif op == _OP_TRUNCATE:
        del content[a:]
    elif op == _OP_DELETE:
        return False
    elif op == _OP_SETPROP:
        key = body[:a].decode()
        props[key] = bytes(body[a : a + b])
    elif op == _OP_READ:
        pass  # access records don't change content
    return True


@dataclass(slots=True)
class HistoryFsStats:
    """Delayed-write accounting (the Section 4.1 claim)."""

    writes_issued: int = 0
    writes_logged: int = 0
    writes_absorbed: int = 0  # cancelled before the flush interval elapsed
    deletes_logged: int = 0

    @property
    def absorption_ratio(self) -> float:
        if self.writes_issued == 0:
            return 0.0
        return self.writes_absorbed / self.writes_issued


@dataclass(slots=True)
class _CachedFile:
    content: bytearray = field(default_factory=bytearray)
    props: dict[str, bytes] = field(default_factory=dict)
    #: Updates not yet written to the log: (due_time_us, payload).
    pending: list[tuple[int, bytes]] = field(default_factory=list)


class HistoryFileServer:
    """A file service whose permanent state is its history."""

    def __init__(
        self,
        service: LogService,
        root_path: str = "/fs",
        flush_delay_us: int = 0,
        force_on_flush: bool = True,
        log_reads: bool = False,
    ):
        self.service = service
        self.flush_delay_us = flush_delay_us
        self.force_on_flush = force_on_flush
        #: "The file history includes all updates to the contents and
        #: properties of files, as well as (possibly) information about
        #: read access to files" (Section 4.1) — opt-in.
        self.log_reads = log_reads
        self.stats = HistoryFsStats()
        self.root = service.open_or_create_log_file(root_path)
        self._files: dict[str, _CachedFile] = {}
        self._logs: dict[str, LogFile] = {}

    # -- internal ------------------------------------------------------------

    def _log_name(self, path: str) -> str:
        return path.strip("/").replace("/", "%2f") or "%root%"

    def _log_for(self, path: str) -> LogFile:
        if path not in self._logs:
            self._logs[path] = self.root.open_or_create_sublog(
                self._log_name(path)
            )
        return self._logs[path]

    def _now(self) -> int:
        return self.service.clock.now_us

    def _emit(self, path: str, payload: bytes) -> None:
        """Queue or immediately log one history record."""
        cached = self._files[path]
        if self.flush_delay_us <= 0:
            self._log_for(path).append(payload, force=self.force_on_flush)
            self.stats.writes_logged += 1
        else:
            cached.pending.append((self._now() + self.flush_delay_us, payload))

    def flush(self, path: str | None = None, now_us: int | None = None) -> int:
        """Write due (or all, if ``now_us`` is None) pending records to the
        log; returns how many were logged."""
        paths = [path] if path is not None else list(self._files)
        logged = 0
        for p in paths:
            cached = self._files.get(p)
            if cached is None:
                continue
            keep: list[tuple[int, bytes]] = []
            for due, payload in cached.pending:
                if now_us is not None and due > now_us:
                    keep.append((due, payload))
                    continue
                self._log_for(p).append(payload, force=self.force_on_flush)
                self.stats.writes_logged += 1
                logged += 1
            cached.pending = keep
        return logged

    # -- the file API ---------------------------------------------------------

    def write(self, path: str, offset: int, data: bytes) -> None:
        cached = self._files.setdefault(path, _CachedFile())
        self.stats.writes_issued += 1
        payload = _encode_write(offset, data)
        _apply_record(payload, cached.content, cached.props)
        self._emit(path, payload)

    def truncate(self, path: str, size: int) -> None:
        cached = self._files.setdefault(path, _CachedFile())
        payload = _encode_truncate(size)
        _apply_record(payload, cached.content, cached.props)
        self._emit(path, payload)

    def set_property(self, path: str, key: str, value: bytes) -> None:
        cached = self._files.setdefault(path, _CachedFile())
        payload = _encode_setprop(key, value)
        _apply_record(payload, cached.content, cached.props)
        self._emit(path, payload)

    def delete(self, path: str) -> None:
        """Delete a file.  Pending (unflushed) updates are simply dropped —
        the delayed-write pay-off — and if nothing was ever logged, the
        deletion itself needs no record either."""
        cached = self._files.pop(path, None)
        if cached is None:
            raise FileNotFoundError(path)
        absorbed = len(cached.pending)
        self.stats.writes_absorbed += absorbed
        ever_logged = path in self._logs
        if ever_logged:
            self._log_for(path).append(
                _encode_delete(), force=self.force_on_flush
            )
            self.stats.deletes_logged += 1
        self._logs.pop(path, None)

    def read(self, path: str, reader: str = "anonymous") -> bytes:
        cached = self._files.get(path)
        if cached is None:
            raise FileNotFoundError(path)
        if self.log_reads:
            # Access records go straight to the log (never delayed: an
            # audit record held in volatile memory audits nothing).
            self._log_for(path).append(
                _encode_read(reader), force=self.force_on_flush
            )
        return bytes(cached.content)

    def read_accesses(self, path: str) -> list[tuple[int, str]]:
        """(server timestamp, reader) pairs from the file's access history."""
        name = self._log_name(path)
        try:
            log = self.service.open_log_file(f"{self.root.path}/{name}")
        except UnknownLogFile:
            return []
        accesses = []
        for read_entry in log.entries():
            op, a, _b = _HEADER.unpack_from(read_entry.data, 0)
            if op == _OP_READ:
                reader = read_entry.data[_HEADER.size : _HEADER.size + a].decode()
                accesses.append((read_entry.timestamp or 0, reader))
        return accesses

    def properties(self, path: str) -> dict[str, bytes]:
        cached = self._files.get(path)
        if cached is None:
            raise FileNotFoundError(path)
        return dict(cached.props)

    def exists(self, path: str) -> bool:
        return path in self._files

    def list_files(self) -> list[str]:
        return sorted(self._files)

    # -- the history-based superpowers ------------------------------------------

    def version_at(self, path: str, timestamp_us: int) -> bytes | None:
        """The file's contents as of ``timestamp_us`` (server time), by
        replaying its logged history — "either the current version of a
        file, or an earlier version".  None if it did not exist (or was
        deleted) at that time.  Unflushed updates are invisible here, as
        they are not yet part of the permanent history."""
        name = self._log_name(path)
        try:
            log = self.service.open_log_file(f"{self.root.path}/{name}")
        except UnknownLogFile:
            return None
        content = bytearray()
        props: dict[str, bytes] = {}
        alive = False
        for read_entry in log.entries():
            ts = read_entry.entry.timestamp
            if ts is not None and ts > timestamp_us:
                break
            alive = _apply_record(read_entry.data, content, props)
            if not alive:
                content = bytearray()
                props = {}
        return bytes(content) if alive else None

    def recover(self) -> int:
        """Rebuild the RAM cache from the logged histories — the
        history-based model's recovery path.  Returns live file count."""
        self._files.clear()
        self._logs.clear()
        for name in self.service.list_dir(self.root.path):
            path = "/" + name.replace("%2f", "/") if name != "%root%" else "/"
            content = bytearray()
            props: dict[str, bytes] = {}
            alive = False
            log = self.service.open_log_file(f"{self.root.path}/{name}")
            for read_entry in log.entries():
                alive = _apply_record(read_entry.data, content, props)
                if not alive:
                    content = bytearray()
                    props = {}
            if alive:
                self._files[path] = _CachedFile(content=content, props=props)
        return len(self._files)
