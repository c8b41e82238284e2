"""A history-based electronic mail system (Section 4.2).

"In a history-based mail system design, associated with each mailbox is a
log file corresponding to mail messages that have been delivered to this
mailbox.  The local mail agent maintains pointers into this 'mail
history'.  In addition, it caches copies of mail messages from the
history, for efficiency.  In this way, a user's mail messages are
permanently accessible, and the storage of the mail messages themselves is
decoupled from the mail system's directory management and query
facilities."

* ``MailSystem.deliver`` appends a message to ``/mail/<user>``.
* ``MailAgent`` is the per-user client: it caches messages, remembers a
  read pointer (a timestamp into the history), and supports *hide*
  (mailbox-level deletion) — but hidden messages remain in the history
  forever, exactly as the paper contrasts with Walnut, which "allowed mail
  messages to be (permanently) deleted".
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core import LogService
from repro.core.ids import EntryId

__all__ = ["Message", "MailSystem", "MailAgent"]

_ENVELOPE = struct.Struct(">HH")


@dataclass(frozen=True, slots=True)
class Message:
    """One delivered message, as reconstructed from the mail history."""

    sender: str
    subject: str
    body: bytes
    timestamp: int

    def encode_payload(self) -> bytes:
        sender_bytes = self.sender.encode()
        subject_bytes = self.subject.encode()
        return (
            _ENVELOPE.pack(len(sender_bytes), len(subject_bytes))
            + sender_bytes
            + subject_bytes
            + self.body
        )

    @classmethod
    def decode(cls, payload: bytes, timestamp: int) -> "Message":
        sender_len, subject_len = _ENVELOPE.unpack_from(payload, 0)
        offset = _ENVELOPE.size
        sender = payload[offset : offset + sender_len].decode()
        offset += sender_len
        subject = payload[offset : offset + subject_len].decode()
        offset += subject_len
        return cls(
            sender=sender,
            subject=subject,
            body=bytes(payload[offset:]),
            timestamp=timestamp,
        )


class MailSystem:
    """Server side: mailbox sublogs under /mail and delivery."""

    def __init__(self, service: LogService, root_path: str = "/mail"):
        self.service = service
        self.root = service.open_or_create_log_file(root_path)

    def create_mailbox(self, user: str):
        return self.root.create_sublog(user)

    def mailbox(self, user: str):
        return self.service.open_log_file(f"{self.root.path}/{user}")

    def has_mailbox(self, user: str) -> bool:
        return user in self.service.list_dir(self.root.path)

    def deliver(self, user: str, sender: str, subject: str, body: bytes) -> EntryId:
        """Deliver a message (forced: mail must not vanish in a crash)."""
        if not self.has_mailbox(user):
            self.create_mailbox(user)
        message = Message(sender=sender, subject=subject, body=body, timestamp=0)
        result = self.mailbox(user).append(message.encode_payload(), force=True)
        return result.entry_id

    def all_mail(self) -> list[Message]:
        """Every message ever delivered to anyone — the parent log ('/mail')
        contains all mailbox sublogs' entries."""
        return [
            Message.decode(entry.data, entry.timestamp or 0)
            for entry in self.root.entries()
        ]


class MailAgent:
    """Client side: cached mailbox view plus pointers into the history."""

    def __init__(self, system: MailSystem, user: str):
        self.system = system
        self.user = user
        if not system.has_mailbox(user):
            system.create_mailbox(user)
        #: Cached messages keyed by timestamp (the message identity).
        self._cache: dict[int, Message] = {}
        #: Mailbox-view state, NOT message storage: hidden ids and the
        #: high-water read pointer into the history.
        self._hidden: set[int] = set()
        self.read_pointer: int = 0

    # -- synchronization with the history -------------------------------------

    def sync(self) -> int:
        """Pull messages newer than the read pointer into the cache."""
        mailbox = self.system.mailbox(self.user)
        pulled = 0
        for entry in mailbox.entries(since=self.read_pointer + 1):
            timestamp = entry.timestamp or 0
            self._cache[timestamp] = Message.decode(entry.data, timestamp)
            self.read_pointer = max(self.read_pointer, timestamp)
            pulled += 1
        return pulled

    # -- mailbox view -------------------------------------------------------------

    def list_messages(self) -> list[Message]:
        """Visible messages, oldest first."""
        return [
            self._cache[ts]
            for ts in sorted(self._cache)
            if ts not in self._hidden
        ]

    def hide(self, timestamp: int) -> None:
        """'Delete' from the mailbox view.  The message stays in the
        history — permanently accessible."""
        if timestamp not in self._cache:
            raise KeyError(f"no message with timestamp {timestamp}")
        self._hidden.add(timestamp)

    def unhide_all(self) -> None:
        self._hidden.clear()

    def search_history(self, sender: str | None = None, since: int = 0) -> list[Message]:
        """Query the full history (hidden messages included): old mail is
        never lost to the query facilities."""
        mailbox = self.system.mailbox(self.user)
        out = []
        for entry in mailbox.entries(since=since):
            message = Message.decode(entry.data, entry.timestamp or 0)
            if sender is None or message.sender == sender:
                out.append(message)
        return out

    def crash(self) -> None:
        """Lose the agent's volatile state (cache, pointers, hidden set)."""
        self._cache.clear()
        self._hidden.clear()
        self.read_pointer = 0

    def recover(self) -> int:
        """Rebuild the cached view entirely from the mail history."""
        self.crash()
        return self.sync()
