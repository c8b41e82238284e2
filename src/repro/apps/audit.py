"""Security audit trails and pattern monitoring (Section 1).

"A logged history can be examined to monitor for, and detect, unauthorized
or suspicious activity patterns that might represent security violations"
— under the footnote's assumption "that the history itself cannot be
circumvented or unduly compromised", which is precisely what the
write-once medium with device-enforced append-only writes provides.

:class:`AuditTrail` records structured events into a log file (forced —
an audit record that can be lost is not an audit record); the monitors
scan the history incrementally, each remembering a checkpoint timestamp so
periodic runs only read the new tail (the common, cheap access pattern of
Section 3.3.2).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator

from repro.core import LogService

__all__ = ["AuditEvent", "AuditTrail", "FailedLoginMonitor", "AfterHoursMonitor"]

_EVENT = struct.Struct(">BQ")

_KINDS = {
    1: "login_ok",
    2: "login_failed",
    3: "logout",
    4: "file_access",
    5: "privilege_change",
}
_KIND_IDS = {name: kind_id for kind_id, name in _KINDS.items()}


@dataclass(frozen=True, slots=True)
class AuditEvent:
    """One audit record."""

    kind: str
    subject: str  # the user/principal involved
    detail: str
    time_us: int  # event time as reported by the recording subsystem

    def encode(self) -> bytes:
        subject_bytes = self.subject.encode()
        detail_bytes = self.detail.encode()
        return (
            _EVENT.pack(_KIND_IDS[self.kind], self.time_us)
            + struct.pack(">HH", len(subject_bytes), len(detail_bytes))
            + subject_bytes
            + detail_bytes
        )

    @classmethod
    def decode(cls, payload: bytes) -> "AuditEvent":
        kind_id, time_us = _EVENT.unpack_from(payload, 0)
        subject_len, detail_len = struct.unpack_from(">HH", payload, _EVENT.size)
        offset = _EVENT.size + 4
        subject = payload[offset : offset + subject_len].decode()
        offset += subject_len
        detail = payload[offset : offset + detail_len].decode()
        return cls(
            kind=_KINDS[kind_id], subject=subject, detail=detail, time_us=time_us
        )


class AuditTrail:
    """An append-only audit log over the log service."""

    def __init__(self, service: LogService, path: str = "/audit"):
        self.service = service
        self.log = service.open_or_create_log_file(path)

    def record(self, kind: str, subject: str, detail: str = "") -> None:
        event = AuditEvent(
            kind=kind,
            subject=subject,
            detail=detail,
            time_us=self.service.clock.now_us,
        )
        self.log.append(event.encode(), force=True)

    def events(self, since: int | None = None) -> Iterator[tuple[int, AuditEvent]]:
        """(server timestamp, event) pairs, oldest first."""
        kwargs = {"since": since} if since is not None else {}
        for entry in self.log.entries(**kwargs):
            yield entry.timestamp or 0, AuditEvent.decode(entry.data)


class FailedLoginMonitor:
    """Detects brute-force patterns: >= ``threshold`` failed logins by one
    subject within ``window_us`` of event time."""

    def __init__(self, trail: AuditTrail, threshold: int = 3, window_us: int = 60_000_000):
        self.trail = trail
        self.threshold = threshold
        self.window_us = window_us
        self.checkpoint: int = 0
        self._recent: dict[str, list[int]] = {}

    def scan(self) -> list[tuple[str, int]]:
        """Process new events; returns (subject, failure count) alerts."""
        alerts = []
        last_seen = self.checkpoint
        for server_ts, event in self.trail.events(since=self.checkpoint + 1):
            last_seen = max(last_seen, server_ts)
            if event.kind == "login_ok":
                self._recent.pop(event.subject, None)
                continue
            if event.kind != "login_failed":
                continue
            history = self._recent.setdefault(event.subject, [])
            history.append(event.time_us)
            cutoff = event.time_us - self.window_us
            history[:] = [t for t in history if t >= cutoff]
            if len(history) >= self.threshold:
                alerts.append((event.subject, len(history)))
        self.checkpoint = last_seen
        return alerts


class AfterHoursMonitor:
    """Flags privileged activity outside an allowed window of the
    (24-hour) day — the 'suspicious activity patterns' example."""

    def __init__(
        self,
        trail: AuditTrail,
        allowed_start_hour: int = 7,
        allowed_end_hour: int = 19,
        watched_kinds: tuple[str, ...] = ("privilege_change", "file_access"),
    ):
        self.trail = trail
        self.allowed_start_hour = allowed_start_hour
        self.allowed_end_hour = allowed_end_hour
        self.watched_kinds = watched_kinds
        self.checkpoint: int = 0

    def scan(self) -> list[AuditEvent]:
        alerts = []
        last_seen = self.checkpoint
        for server_ts, event in self.trail.events(since=self.checkpoint + 1):
            last_seen = max(last_seen, server_ts)
            if event.kind not in self.watched_kinds:
                continue
            hour = (event.time_us // 3_600_000_000) % 24
            if not self.allowed_start_hour <= hour < self.allowed_end_hour:
                alerts.append(event)
        self.checkpoint = last_seen
        return alerts
