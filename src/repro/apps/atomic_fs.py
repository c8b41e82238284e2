"""Atomic update of regular files, using log files for recovery.

Section 6: the combined file/log server gives the file server
"particularly efficient access to log files.  (This is important, since we
plan to implement atomic update of (regular) files, using log files for
recovery.)"  This module implements that planned extension: a redo journal
for the conventional file system, stored in a Clio log file.

Protocol (classic intention logging):

1. ``begin`` opens an update; ``stage`` buffers writes (nothing touches
   the file system yet).
2. ``commit`` appends one INTENT record per staged write followed by a
   COMMIT record, **forced** — the update is now durable.
3. The writes are then applied to the file system, and an APPLIED record
   is appended (unforced; it is an optimization, not a correctness
   requirement).
4. ``recover`` replays the journal: committed updates whose APPLIED record
   is missing are re-applied (redo is idempotent — whole-range overwrite);
   uncommitted intents are ignored.

A crash at *any* point leaves the file system either untouched or
fully-updated after recovery — all-or-nothing, which the rewriteable file
system alone cannot promise.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.core import LogService
from repro.fs.filesystem import FileSystem

__all__ = ["AtomicUpdate", "AtomicFileUpdater"]

_OP_INTENT = 1
_OP_COMMIT = 2
_OP_APPLIED = 3
_HEADER = struct.Struct(">BQ")


def _encode_intent(update_id: int, path: str, offset: int, data: bytes) -> bytes:
    path_bytes = path.encode()
    return (
        _HEADER.pack(_OP_INTENT, update_id)
        + struct.pack(">HQI", len(path_bytes), offset, len(data))
        + path_bytes
        + data
    )


def _encode_marker(op: int, update_id: int) -> bytes:
    return _HEADER.pack(op, update_id)


def _decode(payload: bytes):
    op, update_id = _HEADER.unpack_from(payload, 0)
    if op != _OP_INTENT:
        return op, update_id, None
    path_len, offset, data_len = struct.unpack_from(">HQI", payload, _HEADER.size)
    cursor = _HEADER.size + 14
    path = payload[cursor : cursor + path_len].decode()
    cursor += path_len
    data = bytes(payload[cursor : cursor + data_len])
    return op, update_id, (path, offset, data)


@dataclass(slots=True)
class AtomicUpdate:
    """One open multi-file update."""

    update_id: int
    writes: list[tuple[str, int, bytes]] = field(default_factory=list)
    committed: bool = False

    def stage(self, path: str, offset: int, data: bytes) -> None:
        if self.committed:
            raise RuntimeError(f"update {self.update_id} is already committed")
        self.writes.append((path, offset, bytes(data)))


class AtomicFileUpdater:
    """Atomic multi-write updates for the conventional file system."""

    def __init__(
        self,
        fs: FileSystem,
        service: LogService,
        journal_path: str = "/fsjournal",
    ):
        self.fs = fs
        self.service = service
        self.journal = service.open_or_create_log_file(journal_path)
        self._next_update_id = 1

    # -- update lifecycle ---------------------------------------------------

    def begin(self) -> AtomicUpdate:
        update = AtomicUpdate(update_id=self._next_update_id)
        self._next_update_id += 1
        return update

    def commit(self, update: AtomicUpdate, apply: bool = True) -> None:
        """Make the update durable and (by default) apply it.

        ``apply=False`` stops after the forced COMMIT record — used by
        tests to model a crash between commit and application; recovery
        then finishes the job.
        """
        self.log_intent(update)
        if apply:
            self.apply(update)

    def log_intent(self, update: AtomicUpdate) -> None:
        """Steps 1-2: journal the intents, force the COMMIT record."""
        if update.committed:
            raise RuntimeError(f"update {update.update_id} is already committed")
        for path, offset, data in update.writes:
            self.journal.append(
                _encode_intent(update.update_id, path, offset, data),
                timestamped=False,
            )
        self.journal.append(
            _encode_marker(_OP_COMMIT, update.update_id), force=True
        )
        update.committed = True

    def apply(self, update: AtomicUpdate) -> None:
        """Steps 3-4: apply to the file system and journal the APPLIED mark."""
        if not update.committed:
            raise RuntimeError(
                f"update {update.update_id} must be committed before applying"
            )
        self._apply_writes(update.writes)
        self.journal.append(
            _encode_marker(_OP_APPLIED, update.update_id), timestamped=False
        )

    def _ensure_parents(self, path: str) -> None:
        components = [c for c in path.split("/") if c][:-1]
        prefix = ""
        for component in components:
            prefix += "/" + component
            if not self.fs.exists(prefix):
                self.fs.mkdir(prefix)

    def _apply_writes(self, writes) -> None:
        for path, offset, data in writes:
            if not self.fs.exists(path):
                self._ensure_parents(path)
                handle = self.fs.create(path)
            else:
                handle = self.fs.open(path)
            handle.seek(offset)
            handle.write(data)
        self.fs.sync()

    # -- recovery ---------------------------------------------------------------

    def recover(self) -> int:
        """Redo committed-but-unapplied updates; returns how many."""
        intents: dict[int, list[tuple[str, int, bytes]]] = {}
        committed: dict[int, list[tuple[str, int, bytes]]] = {}
        applied: set[int] = set()
        max_id = 0
        for entry in self.journal.entries():
            op, update_id, intent = _decode(entry.data)
            max_id = max(max_id, update_id)
            if op == _OP_INTENT:
                intents.setdefault(update_id, []).append(intent)
            elif op == _OP_COMMIT:
                committed[update_id] = intents.pop(update_id, [])
            elif op == _OP_APPLIED:
                applied.add(update_id)
        redone = 0
        for update_id in sorted(committed):
            if update_id in applied:
                continue
            self._apply_writes(committed[update_id])
            self.journal.append(
                _encode_marker(_OP_APPLIED, update_id), timestamped=False
            )
            redone += 1
        self._next_update_id = max_id + 1
        return redone
