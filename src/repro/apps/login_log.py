"""User access accounting: the paper's own production log (Section 3.5).

"... a file system that we have been using to record user access (i.e.
login/logout) to the V-System."  :class:`AccessLogger` is that subsystem:
one sublog per user under ``/access``, a record per login/logout, and the
queries an accounting tool needs (sessions per user, who was on when) —
all driven by the log service's sublog and time-range machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import LogService
from repro.workloads.login_log import LoginRecord

__all__ = ["AccessLogger", "Session"]


@dataclass(frozen=True, slots=True)
class Session:
    """One login..logout interval (logout_ts None = still logged in)."""

    user: str
    host: str
    login_ts: int
    logout_ts: int | None

    @property
    def duration_us(self) -> int | None:
        if self.logout_ts is None:
            return None
        return self.logout_ts - self.login_ts


class AccessLogger:
    """Login/logout accounting over per-user sublogs."""

    def __init__(self, service: LogService, root_path: str = "/access"):
        self.service = service
        self.root = service.open_or_create_log_file(root_path)
        self._sequence = 0

    def _sublog(self, user: str):
        return self.root.open_or_create_sublog(user)

    def _record(self, user: str, event: str, host: str) -> None:
        record = LoginRecord(
            user=user, event=event, host=host, sequence=self._sequence
        )
        self._sequence += 1
        self._sublog(user).append(record.encode())

    def login(self, user: str, host: str) -> None:
        self._record(user, "login", host)

    def logout(self, user: str, host: str) -> None:
        self._record(user, "logout", host)

    # -- queries -------------------------------------------------------------

    @staticmethod
    def _parse(data: bytes) -> tuple[str, str, str]:
        """(event, user, host) from an encoded LoginRecord."""
        text = data.decode()
        parts = text.split()
        event = parts[1]
        user = next(p[5:] for p in parts if p.startswith("user="))
        host = next(p[5:] for p in parts if p.startswith("host="))
        return event, user, host

    def sessions(self, user: str, since: int | None = None) -> list[Session]:
        """Reconstruct a user's sessions by pairing login/logout events."""
        kwargs = {"since": since} if since is not None else {}
        open_logins: dict[str, int] = {}  # host -> login server-ts
        sessions: list[Session] = []
        for entry in self._sublog(user).entries(**kwargs):
            event, _user, host = self._parse(entry.data)
            timestamp = entry.timestamp or 0
            if event == "login":
                open_logins[host] = timestamp
            elif event == "logout" and host in open_logins:
                sessions.append(
                    Session(
                        user=user,
                        host=host,
                        login_ts=open_logins.pop(host),
                        logout_ts=timestamp,
                    )
                )
        for host, login_ts in sorted(open_logins.items()):
            sessions.append(
                Session(user=user, host=host, login_ts=login_ts, logout_ts=None)
            )
        sessions.sort(key=lambda session: session.login_ts)
        return sessions

    def events_in_system(self, since: int) -> int:
        """How many access events (all users) since a point in time —
        served by the parent log file."""
        return sum(1 for _ in self.root.entries(since=since))
