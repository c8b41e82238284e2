"""Reusable fault injectors: spec → inject hook, invocable mid-replay.

PR 7's campaign (:mod:`repro.obs.campaign`) staged each fault inside a
scenario function: service construction, the injection closure, the
workload drive, and the channel probes were interleaved in one body, so
the only way to fire a fault was to run that scenario's own short drive.
This module factors the *injection machinery* out into one
:class:`Injection` object per fault class, each exposing the same four
steps:

* :meth:`Injection.service_overrides` — constructor kwargs the fault
  needs staged before the service exists (a mirrored device factory, a
  volatile NVRAM, a pure write-once configuration);
* :meth:`Injection.fire` — the **inject hook**: called against a *live*
  service at the simulated-clock trigger, mid-drive or mid-replay;
* :meth:`Injection.settle` — post-drive actions that bring the fault to
  its observable state (forcing the staged crash, corrupting the cold
  block, remounting) and return the service to probe;
* :meth:`Injection.probe` — the four-channel evidence scan.

The campaign's scenarios are now thin glue over these objects, and the
long-horizon workload observatory (:mod:`repro.obs.workload`) schedules
the very same hooks inside its phased replays — the silent-miss gate is
proved on idle drives *and* under load by one set of injectors.

Everything stays deterministic: injection points read only the simulated
clock, corruption helpers use fixed seeds, and the premise checks raise
:class:`CampaignError` with the same messages the scenarios used.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.obs.faultspec import CHANNELS, FaultSpec
from repro.worm.errors import DeviceCrashed, VolumeSequenceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.recovery import RecoveryReport
    from repro.core.service import LogService
    from repro.obs.events import Event

__all__ = [
    "CORRUPT_KINDS",
    "CORRUPT_RULES",
    "MIRROR_KINDS",
    "MIRROR_RULES",
    "BitRotInjection",
    "CampaignAbort",
    "CampaignError",
    "CrashMidBatchInjection",
    "Injection",
    "MirrorDivergenceInjection",
    "NvramLossInjection",
    "TornWriteInjection",
    "VolumeExhaustionInjection",
    "alert_evidence",
    "counters_fingerprint",
    "event_evidence",
    "make_injection",
    "make_service",
    "recovery_evidence",
    "trace_evidence",
]

#: SLO rules consulted per fault evidence class.
CORRUPT_RULES = frozenset({"corrupt_blocks_present", "corrupt_records_present"})
MIRROR_RULES = frozenset({"mirror_divergence"})

#: Journal kinds that report damaged media content.
CORRUPT_KINDS = frozenset({"block.corrupt", "record.corrupt"})

#: Journal kinds a diverged mirror surfaces through.
MIRROR_KINDS = frozenset({"mirror.read_repair", "mirror.replica_dropped"})


class CampaignError(RuntimeError):
    """A fault's premise failed (the fault could not be staged)."""


class CampaignAbort(Exception):
    """Raised by an injection hook to stop the workload drive."""


# --------------------------------------------------------------------- #
# Deterministic counters fingerprint
# --------------------------------------------------------------------- #


def counters_fingerprint(service: "LogService") -> dict[str, Any]:
    """Every simulated-time counter a harness must not perturb, as a
    JSON-stable dict: the clock, per-volume device stats, and the space
    accounting.  Volume ids (uuid4) are deliberately excluded."""
    store: Any = service.store
    volumes = []
    for volume in store.sequence.volumes:
        stats = volume.device.stats
        volumes.append(
            {
                "blocks_written": volume.device.blocks_written,
                "busy_ms": stats.busy_ms,
                "invalidations": stats.invalidations,
                "reads": stats.reads,
                "seeks": stats.seeks,
                "tail_queries": stats.tail_queries,
                "writes": stats.writes,
                "written_probes": stats.written_probes,
            }
        )
    space = store.space
    return {
        "clock_us": store.clock.now_us,
        "space": {
            "blocks_written": space.blocks_written,
            "catalog": space.catalog,
            "client_data": space.client_data,
            "client_entries": space.client_entries,
            "entry_headers": space.entry_headers,
            "entrymap": space.entrymap,
            "forced_padding": space.forced_padding,
            "size_index": space.size_index,
        },
        "volumes": volumes,
    }


# --------------------------------------------------------------------- #
# Channel probes
# --------------------------------------------------------------------- #


def event_evidence(
    events: "Iterable[Event]", kinds: frozenset[str]
) -> str | None:
    """First journal event whose kind is in ``kinds``, rendered."""
    for event in events:
        if event.kind in kinds:
            return f"{event.kind} seq={event.seq} ts_us={event.ts_us}"
    return None


def alert_evidence(
    service: "LogService", rule_names: frozenset[str]
) -> str | None:
    """Evaluate the named default-ruleset rules against ``service``."""
    from repro.obs.slo import SloEngine, default_ruleset

    rules = [rule for rule in default_ruleset() if rule.name in rule_names]
    engine = SloEngine(service, rules=rules)
    for alert in engine.evaluate():
        if alert.rule in rule_names:
            return f"{alert.rule} value={alert.value}"
    return None


def trace_evidence(service: "LogService", span_names: set[str]) -> str | None:
    """First error-attributed span with one of ``span_names`` in the
    tracer's recent roots (descendants included)."""
    tracer: Any = service.tracer
    if tracer is None:
        return None
    for root in tracer.recent():
        for span in root.walk():
            error = span.attributes.get("error")
            if error is not None and span.name in span_names:
                return f"span={span.name} error={error}"
    return None


def recovery_evidence(
    report: "RecoveryReport | None", kinds: frozenset[str]
) -> str | None:
    """Mount-time recovery evidence: known-corrupt blocks, or a matching
    flight-recorder event."""
    if report is None:
        return None
    if report.corrupted_blocks_known > 0:
        return f"corrupted_blocks_known={report.corrupted_blocks_known}"
    for event in report.flight_recorder:
        if event.kind in kinds:
            return f"flight:{event.kind} seq={event.seq}"
    return None


# --------------------------------------------------------------------- #
# The Injection base
# --------------------------------------------------------------------- #


class Injection:
    """One staged fault: the reusable spec → inject-hook machinery.

    A driver (campaign scenario or workload replay) uses an injection in
    four ordered steps: build the service with
    ``**injection.service_overrides()``; run the workload with
    ``inject=lambda: injection.fire(service)`` firing before the first
    step at or past ``spec.at_us`` (``stop_on`` names the exception
    classes a planned stop raises); then ``settle`` and ``probe``.
    """

    #: Exceptions the driver should treat as the fault's planned stop.
    stop_on: tuple[type[BaseException], ...] = ()

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec

    def service_overrides(self) -> dict[str, Any]:
        """Constructor kwargs the fault needs staged at create time."""
        return {}

    def fire(self, service: "LogService") -> None:
        """The inject hook: damage the live service at the trigger."""

    def check_drive(self, fired: bool, stopped: bool) -> None:
        """Validate the drive-level premise from the driver's returns
        (``fired``: the hook ran; ``stopped``: a ``stop_on`` exception
        ended the drive).  Raises :class:`CampaignError` on failure."""

    def settle(
        self, service: "LogService"
    ) -> tuple["LogService", "RecoveryReport | None"]:
        """Bring the fault to its observable state (crash/remount as the
        class requires); returns ``(service_to_probe, recovery_report)``.
        Raises :class:`CampaignError` when the fault's premise failed."""
        return service, None

    def probe(
        self,
        service: "LogService",
        settled: "LogService",
        report: "RecoveryReport | None",
    ) -> dict[str, str | None]:
        """Scan the four channels: ``service`` is the instance the fault
        was injected into, ``settled``/``report`` what :meth:`settle`
        returned (the same instance when no remount happened)."""
        raise NotImplementedError

    def outcome_channels(
        self,
        service: "LogService",
        settled: "LogService",
        report: "RecoveryReport | None",
    ) -> dict[str, str | None]:
        """:meth:`probe` normalized to every known channel name."""
        channels = self.probe(service, settled, report)
        return {name: channels.get(name) for name in CHANNELS}


class TornWriteInjection(Injection):
    """A torn sector write at the tail: the crash block carries a garbage
    suffix, which recovery's tail scan must flag as corrupt."""

    stop_on = (DeviceCrashed,)

    def __init__(self, spec: FaultSpec) -> None:
        super().__init__(spec)
        self.staged: list[tuple[Any, Any]] = []

    def service_overrides(self) -> dict[str, Any]:
        # Pure write-once configuration: no firmware tail query (the
        # garbage block must be *found* by the binary search) and no NVRAM
        # staging.
        return {
            "supports_tail_query": False,
            "nvram_tail": False,
            "volume_capacity_blocks": 256,
        }

    def fire(self, service: "LogService") -> None:
        from repro.worm.corruption import CrashingWormDevice

        volume: Any = service.store.sequence.volumes[-1]
        crasher = CrashingWormDevice(
            volume.device,
            crash_after_writes=self.spec.param("crash_after_writes", 1),
            torn=True,
        )
        volume.device = crasher
        self.staged.append((volume, crasher))

    def settle(
        self, service: "LogService"
    ) -> tuple["LogService", "RecoveryReport | None"]:
        from repro.core.service import LogService

        if not self.staged:
            raise CampaignError(f"{self.spec.fault_id}: injection never fired")
        volume, crasher = self.staged[0]
        # The crash may not have landed during the drive (e.g. the trigger
        # fired between burns); force appends until the device dies.
        root = service.open_log_file("/access")
        while not crasher.has_crashed:
            try:
                root.append(b"torn-write filler entry")
            except DeviceCrashed:
                break
        volume.device = crasher.reincarnate()

        remains = service.crash()
        mounted, report = LogService.mount(
            remains.devices, remains.nvram, observability=True
        )
        return mounted, report

    def probe(
        self,
        service: "LogService",
        settled: "LogService",
        report: "RecoveryReport | None",
    ) -> dict[str, str | None]:
        return {
            "events": event_evidence(settled.journal.events(), CORRUPT_KINDS),
            "alerts": alert_evidence(settled, CORRUPT_RULES),
            "recovery": recovery_evidence(report, CORRUPT_KINDS),
            "traces": trace_evidence(service, {"append", "append_many"}),
        }


class BitRotInjection(Injection):
    """Cold bit-rot: a written block rots to garbage while the service is
    down; the mount-time scan must flag it."""

    stop_on = (CampaignAbort,)

    def fire(self, service: "LogService") -> None:
        raise CampaignAbort

    def settle(
        self, service: "LogService"
    ) -> tuple["LogService", "RecoveryReport | None"]:
        from repro.core.service import LogService
        from repro.worm.corruption import corrupt_block

        device: Any = service.store.sequence.volumes[0].device
        if device.next_writable < 3:
            raise CampaignError(
                f"{self.spec.fault_id}: too few blocks written before the trigger"
            )
        # The newest burned block: always inside recovery's tail re-scan.
        block = device.next_writable - 1
        remains = service.crash()
        corrupt_block(remains.devices[0], block)
        mounted, report = LogService.mount(
            remains.devices, remains.nvram, observability=True
        )
        return mounted, report

    def probe(
        self,
        service: "LogService",
        settled: "LogService",
        report: "RecoveryReport | None",
    ) -> dict[str, str | None]:
        return {
            "events": event_evidence(settled.journal.events(), CORRUPT_KINDS),
            "alerts": alert_evidence(settled, CORRUPT_RULES),
            "recovery": recovery_evidence(report, CORRUPT_KINDS),
            "traces": trace_evidence(settled, {"recovery"}),
        }


class MirrorDivergenceInjection(Injection):
    """One replica of a mirrored volume diverges (a block invalidated on
    it only); the next read must repair from a survivor and say so."""

    def __init__(self, spec: FaultSpec) -> None:
        super().__init__(spec)
        self.replica_sets: list[list[Any]] = []

    def _factory(self) -> Any:
        from repro.worm.device import WormDevice
        from repro.worm.geometry import NULL_GEOMETRY
        from repro.worm.mirror import MirroredWormDevice

        pair = [
            WormDevice(1024, 4096, NULL_GEOMETRY)
            for _ in range(self.spec.param("replicas", 2))
        ]
        self.replica_sets.append(pair)
        return MirroredWormDevice(pair)

    def service_overrides(self) -> dict[str, Any]:
        return {"device_factory": self._factory}

    def fire(self, service: "LogService") -> None:
        pair = self.replica_sets[0]
        mirror: Any = service.store.sequence.volumes[0].device
        if mirror.next_writable < 3:
            raise CampaignError(
                f"{self.spec.fault_id}: too few blocks written before the trigger"
            )
        # Diverge replica 0 only: the mirror believes the block is good.
        pair[0].invalidate(mirror.next_writable // 2)
        service.store.cache.clear()

    def settle(
        self, service: "LogService"
    ) -> tuple["LogService", "RecoveryReport | None"]:
        # Read everything back: the diverged block forces a read repair.
        for _entry in service.open_root().entries():
            pass
        return service, None

    def probe(
        self,
        service: "LogService",
        settled: "LogService",
        report: "RecoveryReport | None",
    ) -> dict[str, str | None]:
        return {
            "events": event_evidence(service.journal.events(), MIRROR_KINDS),
            "alerts": alert_evidence(service, MIRROR_RULES),
            "recovery": None,
            "traces": None,
        }


class NvramLossInjection(Injection):
    """The NVRAM staging the forced tail does not survive the crash; the
    remount must record that the staged image is gone."""

    stop_on = (CampaignAbort,)

    def __init__(self, spec: FaultSpec) -> None:
        super().__init__(spec)
        from repro.vsystem.clock import SimClock
        from repro.worm.nvram import NvramTail

        self.clock = SimClock()
        self.nvram = NvramTail(
            capacity_bytes=1024, survives_crash=False, clock=self.clock
        )

    def service_overrides(self) -> dict[str, Any]:
        return {"clock": self.clock, "nvram": self.nvram}

    def fire(self, service: "LogService") -> None:
        service.sync()
        raise CampaignAbort

    def settle(
        self, service: "LogService"
    ) -> tuple["LogService", "RecoveryReport | None"]:
        from repro.core.service import LogService

        if self.nvram.load() is None:
            raise CampaignError(
                f"{self.spec.fault_id}: no tail image staged before the crash"
            )
        remains = service.crash()
        mounted, report = LogService.mount(
            remains.devices, remains.nvram, observability=True
        )
        if report.nvram_tail_recovered:
            raise CampaignError(
                f"{self.spec.fault_id}: the lost image was somehow recovered"
            )
        return mounted, report

    def probe(
        self,
        service: "LogService",
        settled: "LogService",
        report: "RecoveryReport | None",
    ) -> dict[str, str | None]:
        return {
            "events": event_evidence(
                settled.journal.events(), frozenset({"recovery.nvram_empty"})
            ),
            "alerts": None,
            "recovery": recovery_evidence(
                report, frozenset({"recovery.nvram_empty"})
            ),
            "traces": None,
        }


class CrashMidBatchInjection(Injection):
    """The device dies part-way through a server-side group commit; the
    failed ``append_many`` must leave an error-attributed trace."""

    stop_on = (DeviceCrashed,)

    def fire(self, service: "LogService") -> None:
        from repro.worm.corruption import CrashingWormDevice

        volume: Any = service.store.sequence.volumes[-1]
        volume.device = CrashingWormDevice(
            volume.device,
            crash_after_writes=self.spec.param("crash_after_writes", 2),
        )
        batch = [f"batch entry {index:04d} ".encode() * 8 for index in range(64)]
        service.open_log_file("/access").append_many(batch)

    def check_drive(self, fired: bool, stopped: bool) -> None:
        if not (fired and stopped):
            raise CampaignError(f"{self.spec.fault_id}: the batch did not crash")

    def probe(
        self,
        service: "LogService",
        settled: "LogService",
        report: "RecoveryReport | None",
    ) -> dict[str, str | None]:
        return {
            "events": None,
            "alerts": None,
            "recovery": None,
            "traces": trace_evidence(service, {"append_many"}),
        }


class VolumeExhaustionInjection(Injection):
    """The media library runs dry: extending the volume sequence fails,
    which must be journalled and error-attributed before the error
    reaches the client.  The fault is configured at create time
    (``at_us=0``); :meth:`fire` is passive."""

    stop_on = (VolumeSequenceError,)

    def __init__(self, spec: FaultSpec) -> None:
        super().__init__(spec)
        self.capacity = spec.param("capacity_blocks", 48)
        self.made: list[Any] = []

    def _factory(self) -> Any:
        from repro.worm.device import WormDevice
        from repro.worm.geometry import NULL_GEOMETRY

        if self.made:
            raise VolumeSequenceError(
                "media library exhausted: no successor volume"
            )
        device = WormDevice(1024, self.capacity, NULL_GEOMETRY)
        self.made.append(device)
        return device

    def service_overrides(self) -> dict[str, Any]:
        return {
            "device_factory": self._factory,
            "volume_capacity_blocks": self.capacity,
        }

    def check_drive(self, fired: bool, stopped: bool) -> None:
        if not stopped:
            raise CampaignError(f"{self.spec.fault_id}: the volume never filled")

    def probe(
        self,
        service: "LogService",
        settled: "LogService",
        report: "RecoveryReport | None",
    ) -> dict[str, str | None]:
        return {
            "events": event_evidence(
                service.journal.events(), frozenset({"volume.exhausted"})
            ),
            "alerts": None,
            "recovery": None,
            "traces": trace_evidence(service, {"append", "append_many"}),
        }


_INJECTION_CLASSES: dict[str, type[Injection]] = {
    "torn_write": TornWriteInjection,
    "bit_rot": BitRotInjection,
    "mirror_divergence": MirrorDivergenceInjection,
    "nvram_loss": NvramLossInjection,
    "crash_mid_batch": CrashMidBatchInjection,
    "volume_exhaustion": VolumeExhaustionInjection,
}


def make_service(**overrides: Any) -> Any:
    """A fresh in-memory service for one drive or replay, observability on
    unless ``overrides`` (usually an injection's) say otherwise."""
    from repro.core.service import LogService

    overrides.setdefault("observability", True)
    return LogService.create(**overrides)


def make_injection(spec: FaultSpec) -> Injection:
    """The staged, reusable injection machinery for one fault spec."""
    return _INJECTION_CLASSES[spec.fault_class](spec)
