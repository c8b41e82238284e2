"""Transaction recovery over log files.

The paper's canonical log client: "log entries are written synchronously
to the log device when forced (such as on a transaction commit)" (Section
2.3.1), and Section 2.1's asynchronous identification scheme — a
client-specified sequence number plus a client-generated timestamp — is
motivated by "database transaction recovery mechanisms [that] need to
uniquely identify a written log entry without the write operation being
synchronous".

:class:`TransactionManager` is a small redo-logging key-value store:

* updates are buffered per transaction;
* ``commit`` appends UPDATE records then a COMMIT record, *forcing* the
  COMMIT (synchronous durability);
* ``commit_async`` instead tags the COMMIT with a client sequence number
  and does not force — later, :meth:`is_committed` resolves the
  (sequence, client timestamp) identity against the log;
* ``recover`` replays the log, applying exactly the updates of committed
  transactions (redo; uncommitted tails are discarded).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.core import ClientEntryId, LogService
from repro.vsystem.clock import SkewedClock

__all__ = ["TransactionManager", "Transaction", "TxnAborted"]

_OP_BEGIN = 1
_OP_UPDATE = 2
_OP_COMMIT = 3
_OP_CHECKPOINT = 4
_RECORD = struct.Struct(">BQ")


class TxnAborted(Exception):
    """The transaction was aborted and cannot be used further."""


def _encode(op: int, txn_id: int, key: bytes = b"", value: bytes = b"") -> bytes:
    return (
        _RECORD.pack(op, txn_id)
        + struct.pack(">HI", len(key), len(value))
        + key
        + value
    )


def _decode(payload: bytes) -> tuple[int, int, bytes, bytes]:
    op, txn_id = _RECORD.unpack_from(payload, 0)
    key_len, value_len = struct.unpack_from(">HI", payload, _RECORD.size)
    offset = _RECORD.size + 6
    key = bytes(payload[offset : offset + key_len])
    value = bytes(payload[offset + key_len : offset + key_len + value_len])
    return op, txn_id, key, value


@dataclass(slots=True)
class Transaction:
    """One open transaction: buffered updates, not yet visible."""

    txn_id: int
    writes: dict[bytes, bytes] = field(default_factory=dict)
    active: bool = True

    def write(self, key: bytes, value: bytes) -> None:
        if not self.active:
            raise TxnAborted(f"transaction {self.txn_id} is closed")
        self.writes[key] = value


class TransactionManager:
    """Redo-logging transactional KV store on a Clio log file."""

    def __init__(self, service: LogService, path: str = "/txnlog"):
        self.service = service
        self.log = service.open_or_create_log_file(path)
        #: The "current state ... merely a cached summary" (Section 1).
        self.data: dict[bytes, bytes] = {}
        self._next_txn_id = 1
        self._next_client_seq = 1
        self.client_clock = SkewedClock(service.clock, skew_us=0)

    # -- transaction lifecycle ------------------------------------------------

    def begin(self) -> Transaction:
        txn = Transaction(txn_id=self._next_txn_id)
        self._next_txn_id += 1
        return txn

    def abort(self, txn: Transaction) -> None:
        txn.active = False
        txn.writes.clear()

    def commit(self, txn: Transaction) -> None:
        """Synchronous commit: the COMMIT record is forced, so when this
        returns the transaction is durable."""
        self._append_body(txn)
        self.log.append(_encode(_OP_COMMIT, txn.txn_id), force=True)
        self._apply(txn)

    def commit_async(self, txn: Transaction) -> ClientEntryId:
        """Asynchronous commit: nothing is forced; the returned
        (sequence number, client timestamp) identity can later establish
        whether the commit record made it to permanent storage."""
        self._append_body(txn)
        seq = self._next_client_seq
        self._next_client_seq += 1
        client_ts = self.client_clock.timestamp()
        self.log.append(
            _encode(_OP_COMMIT, txn.txn_id), client_seq=seq, force=False
        )
        self._apply(txn)
        return ClientEntryId(sequence_number=seq, client_timestamp=client_ts)

    def _append_body(self, txn: Transaction) -> None:
        if not txn.active:
            raise TxnAborted(f"transaction {txn.txn_id} is closed")
        self.log.append(_encode(_OP_BEGIN, txn.txn_id), timestamped=False)
        for key, value in txn.writes.items():
            self.log.append(
                _encode(_OP_UPDATE, txn.txn_id, key, value), timestamped=False
            )

    def _apply(self, txn: Transaction) -> None:
        self.data.update(txn.writes)
        txn.active = False

    # -- identity resolution (Section 2.1) ------------------------------------------

    def is_committed(self, commit_id: ClientEntryId, max_skew_us: int = 2_000_000) -> bool:
        """Did the asynchronously committed transaction reach the log?"""
        return self.log.find(commit_id, max_skew_us=max_skew_us) is not None

    # -- checkpointing ---------------------------------------------------------

    def checkpoint(self) -> None:
        """Write a snapshot of the committed state into the log.

        Section 5.2: dynamic state is "cached and updated in RAM, with the
        slower, write-once storage being updated less frequently, for
        checkpointing and archiving".  A checkpoint bounds recovery work:
        replay resumes from the newest checkpoint instead of the log's
        beginning.  The snapshot is one (possibly fragmented) entry; its
        payload is the key/value map, length-prefixed.
        """
        parts = [struct.pack(">II", self._next_client_seq, len(self.data))]
        for key in sorted(self.data):
            value = self.data[key]
            parts.append(struct.pack(">HI", len(key), len(value)))
            parts.append(key)
            parts.append(value)
        payload = _encode(_OP_CHECKPOINT, self._next_txn_id - 1) + b"".join(parts)
        self.log.append(payload, force=True)

    @staticmethod
    def _decode_checkpoint(payload: bytes) -> tuple[int, dict[bytes, bytes]]:
        offset = _RECORD.size + 6  # skip the record header (+ empty kv)
        next_seq, count = struct.unpack_from(">II", payload, offset)
        offset += 8
        state: dict[bytes, bytes] = {}
        for _ in range(count):
            key_len, value_len = struct.unpack_from(">HI", payload, offset)
            offset += 6
            key = bytes(payload[offset : offset + key_len])
            offset += key_len
            value = bytes(payload[offset : offset + value_len])
            offset += value_len
            state[key] = value
        return next_seq, state

    # -- temporal queries (Section 5.2's connection to temporal databases) ----

    def snapshot_at(self, timestamp_us: int) -> dict[bytes, bytes]:
        """The committed state as of a past server time.

        The history-based model makes "queries about past states of the
        database" a replay, not a separate mechanism: apply every
        transaction whose COMMIT record carries a timestamp <= the asked
        time.  (COMMIT records are the timestamped entries of the log —
        synchronous commits always carry server timestamps.)
        """
        state: dict[bytes, bytes] = {}
        pending: dict[int, dict[bytes, bytes]] = {}
        for entry in self.log.entries():
            op, txn_id, key, value = _decode(entry.data)
            if op == _OP_BEGIN:
                pending[txn_id] = {}
            elif op == _OP_UPDATE:
                pending.setdefault(txn_id, {})[key] = value
            elif op == _OP_COMMIT:
                ts = entry.entry.timestamp
                if ts is not None and ts > timestamp_us:
                    break
                state.update(pending.pop(txn_id, {}))
        return state

    # -- recovery ----------------------------------------------------------------------

    def recover(self) -> int:
        """Rebuild ``data`` by redo: apply updates of transactions whose
        COMMIT records are in the log; everything else is discarded.
        Replay starts from the newest checkpoint, if any (found by a
        backward scan — the cheap direction on the entrymap), so recovery
        work is bounded by the checkpoint interval, not the log's age.
        Returns the number of committed transactions applied after the
        checkpoint."""
        self.data = {}
        checkpoint_location = None
        for entry in self.log.entries(reverse=True):
            op, checkpoint_txn_id, _key, _value = _decode(entry.data)
            if op == _OP_CHECKPOINT:
                self._next_client_seq, self.data = self._decode_checkpoint(
                    entry.data
                )
                self._next_txn_id = checkpoint_txn_id + 1
                checkpoint_location = entry.location
                break
        pending: dict[int, dict[bytes, bytes]] = {}
        committed = 0
        max_txn_id = self._next_txn_id - 1 if checkpoint_location is not None else 0
        max_seq = 0
        entries = (
            self.log.entries(after=checkpoint_location)
            if checkpoint_location is not None
            else self.log.entries()
        )
        for entry in entries:
            op, txn_id, key, value = _decode(entry.data)
            if op == _OP_CHECKPOINT:
                continue
            max_txn_id = max(max_txn_id, txn_id)
            if op == _OP_BEGIN:
                pending[txn_id] = {}
            elif op == _OP_UPDATE:
                pending.setdefault(txn_id, {})[key] = value
            elif op == _OP_COMMIT:
                self.data.update(pending.pop(txn_id, {}))
                committed += 1
                if entry.entry.client_seq is not None:
                    max_seq = max(max_seq, entry.entry.client_seq)
        self._next_txn_id = max_txn_id + 1
        self._next_client_seq = max(self._next_client_seq, max_seq + 1)
        return committed
