"""The benchmark's workloads: inputs, operations, output checks, metrics.

One client in one process drives a file-backed :class:`LogService`
(``FileBackedWormDevice`` volumes plus ``FileBackedNvram``, 1 KiB blocks,
entrymap degree N=16) in a closed loop: each request waits for the one
before it.  A run is

1. set-up, repeated ``setups`` times (store creation and preload;
   ``setup_s`` is their median), then an unmeasured warm-up of the mix;
2. ``rounds`` rounds, each a slice of the mix (shuffled decks drawn from
   the seed), a shuffled slice of the probes (the operation kinds the mix
   lacks, so every workload reports every metric) and one timed restart
   from the image files as they are at that moment;
3. a crash, a restart and a durability check.

Every result is checked against what the benchmark wrote.  Payloads
encode (sublog, sequence); the benchmark keeps each entry's length,
CRC-32 and server timestamp per sublog and compares every entry a read
returns with the entry that must be at that position.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import shutil
import statistics
import time
import zlib
from array import array
from collections import deque
from dataclasses import dataclass, replace
from itertools import islice

from repro.core.asyncclient import AsyncLogClient
from repro.core.ids import EntryId
from repro.core.service import LogService
from repro.vsystem.clock import SkewedClock
from repro.vsystem.ipc import AsyncPort
from repro.workloads import (
    LoginLogWorkload,
    LoginRecord,
    lognormal_size,
    zipf_weights,
)
from repro.worm.filebacked import FileBackedNvram, FileBackedWormDevice

BLOCK_SIZE = 1024
DEGREE_N = 16
VOLUME_BLOCKS = 1 << 15
BATCH = 32
TAIL_COUNT = 10
RANGE_COUNT = 50
FOLLOW_MAX = 64
RYW_WINDOW = 256

KINDS = (
    "append",
    "forced_append",
    "client_batch",
    "lookup",
    "tail_read",
    "range_read",
    "scan",
    "follow",
)


@dataclass(frozen=True)
class Spec:
    """One workload's shape and size."""

    name: str
    why: str
    sublogs: int
    #: The mix as a deck: operation kind -> its count in each shuffled
    #: deck of operations, so every deck holds the mix's exact shares.
    mix: tuple[tuple[str, int], ...]
    #: Sizes the timed mix: ``seconds * planned_ops_per_s`` operations, so
    #: every commit does the same work whatever its speed.
    planned_ops_per_s: float
    cache_blocks: int
    #: Entries appended during set-up, before the warm-up.
    preload: int
    warmup_ops: int
    #: Operation kinds the mix lacks -> how many run, spread over the rounds.
    probes: tuple[tuple[str, int], ...]
    #: Zipf skew of sublog popularity (0 is uniform).
    skew: float = 0.0
    #: Sublogs are login users and payloads ``LoginRecord``s.
    login: bool = False
    #: Lookups go to the last ``RYW_WINDOW`` appends, not the whole log.
    read_your_writes: bool = False
    observability: bool = False
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int = 5
    #: Slices the measured section is cut into (see ``Run.run_rounds``).
    rounds: int = 20


SPECS: dict[str, Spec] = {
    "ingest": Spec(
        name="ingest",
        why="write path: Zipf sublogs, heavy-tailed payloads, forced appends "
        "and client batches; the read path is nearly idle",
        sublogs=32,
        skew=1.0,
        # Forced appends and client batches are probes, not mix: on a
        # disk-backed checkout their NVRAM file writes would set ops_per_s.
        mix=(("append", 1),),
        planned_ops_per_s=5000.0,
        cache_blocks=2048,
        preload=5000,
        warmup_ops=2000,
        probes=(
            ("forced_append", 2000),
            ("client_batch", 1000),
            ("lookup", 1000),
            ("tail_read", 500),
            ("range_read", 300),
            ("scan", 20),
            ("follow", 400),
        ),
    ),
    "history-read": Spec(
        name="history-read",
        why="finding and reading old entries of a login archive eight times "
        "larger than the block cache; the writer is idle while timed",
        sublogs=64,
        mix=(("lookup", 30), ("tail_read", 10), ("range_read", 9), ("scan", 1)),
        planned_ops_per_s=350.0,
        cache_blocks=384,
        preload=48_000,
        warmup_ops=200,
        setups=3,
        probes=(
            ("append", 3000),
            ("forced_append", 200),
            ("client_batch", 100),
            ("follow", 200),
        ),
        login=True,
    ),
    "tail-follow": Spec(
        name="tail-follow",
        why="reads beside writes on a log that fits in cache, with "
        "observability on as a deployed service runs",
        sublogs=8,
        mix=(("append", 133), ("forced_append", 7), ("follow", 40), ("lookup", 20)),
        planned_ops_per_s=3500.0,
        cache_blocks=16384,
        preload=5000,
        warmup_ops=2000,
        probes=(
            ("client_batch", 200),
            ("tail_read", 200),
            ("range_read", 200),
            ("scan", 10),
        ),
        read_your_writes=True,
        observability=True,
    ),
}


def tiny(spec: Spec) -> Spec:
    """The self-check size: seconds of work instead of minutes."""
    return replace(
        spec,
        planned_ops_per_s=max(20.0, spec.planned_ops_per_s / 50),
        cache_blocks=max(16, spec.cache_blocks // 16),
        preload=spec.preload // 16,
        warmup_ops=spec.warmup_ops // 20,
        probes=tuple((kind, max(2, count // 20)) for kind, count in spec.probes),
        setups=1,
        rounds=2,
    )


# ---------------------------------------------------------------------- #
# The store
# ---------------------------------------------------------------------- #


class Store:
    """A file-backed service whose image files live in one directory."""

    def __init__(self, directory: str, cache_blocks: int, observability: bool):
        os.makedirs(directory)
        self.directory = directory
        self.cache_blocks = cache_blocks
        self.nvram_path = os.path.join(directory, "nvram.img")
        self.service = LogService.create(
            block_size=BLOCK_SIZE,
            degree_n=DEGREE_N,
            volume_capacity_blocks=VOLUME_BLOCKS,
            cache_capacity_blocks=cache_blocks,
            device_factory=self._new_device,
            nvram=FileBackedNvram(self.nvram_path, capacity_bytes=BLOCK_SIZE),
            observability=observability,
        )

    def volume_paths(self) -> list[str]:
        return sorted(
            os.path.join(self.directory, name)
            for name in os.listdir(self.directory)
            if name.startswith("vol-") and name.endswith(".img")
        )

    def _new_device(self) -> FileBackedWormDevice:
        path = os.path.join(self.directory, f"vol-{len(self.volume_paths()):03d}.img")
        return FileBackedWormDevice.create(
            path, block_size=BLOCK_SIZE, capacity_blocks=VOLUME_BLOCKS
        )

    def settle(self) -> None:
        """Write the images' dirty pages back now, between measurements,
        so the operating system does not do it in the middle of one."""
        for path in [*self.volume_paths(), self.nvram_path, self.directory]:
            if os.path.exists(path):
                fd = os.open(path, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)

    def crash(self) -> None:
        for device in self.service.crash().devices:
            device.close()

    def remount(self):
        """Open the image files and mount them read-only (recovery runs)."""
        devices = [FileBackedWormDevice.open_path(path) for path in self.volume_paths()]
        nvram = FileBackedNvram(self.nvram_path, capacity_bytes=BLOCK_SIZE)
        return LogService.mount(
            devices, nvram, cache_capacity_blocks=self.cache_blocks, read_only=True
        )

    def close(self) -> None:
        for device in self.service.devices:
            device.close()
        shutil.rmtree(self.directory, ignore_errors=True)


# ---------------------------------------------------------------------- #
# What was written
# ---------------------------------------------------------------------- #


class Sublog:
    """One sublog's handle and the entries the benchmark appended to it."""

    __slots__ = (
        "index",
        "handle",
        "path",
        "ts",
        "crc",
        "size",
        "known",
        "last_forced",
        "last_loc",
        "last_loc_index",
        "cursor",
        "cursor_index",
        "client",
    )

    def __init__(self, index: int, handle) -> None:
        self.index = index
        self.handle = handle
        self.path = handle.path
        #: Server timestamp per entry; -1 for client-batch entries, whose
        #: timestamps the asynchronous client never sees.
        self.ts = array("q")
        self.crc = array("I")
        self.size = array("i")
        #: Indexes of the entries whose timestamps are known.
        self.known = array("i")
        self.last_forced = -1
        self.last_loc = None
        self.last_loc_index = -1
        self.cursor = None
        self.cursor_index = -1
        self.client: AsyncLogClient | None = None

    def __len__(self) -> int:
        return len(self.ts)

    def add(self, payload: bytes, timestamp: int) -> int:
        self.ts.append(timestamp)
        self.crc.append(zlib.crc32(payload))
        self.size.append(len(payload))
        if timestamp >= 0:
            self.known.append(len(self.ts) - 1)
        return len(self.ts) - 1

    def matches(self, index: int, read) -> bool:
        if not 0 <= index < len(self.ts):
            return False
        data = read.data
        if len(data) != self.size[index] or zlib.crc32(data) != self.crc[index]:
            return False
        timestamp = self.ts[index]
        return timestamp < 0 or read.timestamp == timestamp

    def matches_run(self, start: int, reads, step: int = 1) -> bool:
        return all(
            self.matches(start + step * offset, read)
            for offset, read in enumerate(reads)
        )


# ---------------------------------------------------------------------- #
# One run of one workload
# ---------------------------------------------------------------------- #


def _direct(fn):
    return fn()


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def reportable_percentile(count: int) -> float:
    """The highest of p50/p90/p99/p99.9/p99.99 with >= 10 samples beyond it."""
    best = 50.0
    for q in (90.0, 99.0, 99.9, 99.99):
        if count * (100.0 - q) / 100.0 >= 10:
            best = q
    return best


class Run:
    """A live workload: the store, the model of its contents, the samples."""

    def __init__(self, spec: Spec, seed: int, directory: str) -> None:
        self.spec = spec
        self.store = Store(directory, spec.cache_blocks, spec.observability)
        self.service = self.store.service
        self.rng = random.Random(f"{spec.name}/{seed}")
        self.call = _direct
        self.lat: dict[str, list[int]] = {kind: [] for kind in KINDS}
        self.scans: list[tuple[int, int]] = []
        self.ops_by_kind: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.entries_returned = 0
        self.entries_appended = 0
        self.last_timestamp = -1
        self.recent: deque[tuple[Sublog, int]] = deque(maxlen=RYW_WINDOW)
        self.port = AsyncPort(self.service.clock)
        self.client_clock = SkewedClock(self.service.clock)
        self.sequence = 0
        self.recover_ns: list[int] = []
        self.recovery_blocks: list[int] = []
        self.mix_ops = 0
        self.round_rates: list[float] = []
        self.capped = False

        self.login = (
            LoginLogWorkload(user_count=spec.sublogs, active_users=8, seed=seed)
            if spec.login
            else None
        )
        names = (
            self.login.users
            if self.login
            else [f"s{index:02d}" for index in range(spec.sublogs)]
        )
        self.weights = zipf_weights(spec.sublogs, spec.skew)
        self.sizes = lognormal_size(120, cap=4096)
        root = self.service.create_log_file("/" + spec.name)
        self.subs = [
            Sublog(index, root.create_sublog(name)) for index, name in enumerate(names)
        ]
        self.by_name = dict(zip(names, self.subs))
        # Full scans go to the cold end: the eight least popular sublogs.
        ranked = sorted(self.subs, key=lambda sub: -self.weights[sub.index])
        self.cold = ranked[-8:]
        self.deck_size = sum(count for _, count in spec.mix)

    # -- inputs ------------------------------------------------------------

    def pick(self) -> Sublog:
        return self.rng.choices(self.subs, weights=self.weights)[0]

    def payload(self, sub: Sublog) -> bytes:
        self.sequence += 1
        rng = self.rng
        if self.login is not None:
            return LoginRecord(
                user=self.login.users[sub.index],
                event=rng.choice(("login", "logout")),
                host=f"sun3-{rng.randrange(12):02d}",
                sequence=self.sequence,
            ).encode()
        stamp = f"[{sub.index}:{self.sequence}]".encode()
        size = max(len(stamp), self.sizes(rng))
        return stamp + rng.randbytes(size - len(stamp))

    def pick_written(self) -> tuple[Sublog, int]:
        """A random earlier entry whose server timestamp is known."""
        sub = self.rng.choice([sub for sub in self.subs if sub.known])
        return sub, sub.known[self.rng.randrange(len(sub.known))]

    # -- bookkeeping ----------------------------------------------------------

    def check(self, ok: bool, kind: str, what: str) -> None:
        self.attempted += 1
        self.ops_by_kind[kind] = self.ops_by_kind.get(kind, 0) + 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{kind}: {what}")

    def _timed(self, fn):
        """Run ``fn`` as one operation; returns (result, ns, error)."""
        start = time.perf_counter_ns()
        try:
            result = self.call(fn)
        except Exception as exc:  # an operation that raises has failed
            return None, time.perf_counter_ns() - start, f"{type(exc).__name__}: {exc}"
        return result, time.perf_counter_ns() - start, None

    def _note_append(self, sub: Sublog, payload: bytes, result, force: bool) -> bool:
        timestamp = result.timestamp if result is not None else None
        ok = timestamp is not None and timestamp > self.last_timestamp
        if timestamp is None:
            timestamp = -1
        else:
            self.last_timestamp = max(self.last_timestamp, timestamp)
        index = sub.add(payload, timestamp)
        self.entries_appended += 1
        if result is not None:
            sub.last_loc = result.location
            sub.last_loc_index = index
            self.recent.append((sub, index))
        if force:
            sub.last_forced = index
        return ok

    # -- operations (each returns the ns its timed part took) -------------------

    def _append(self, sub: Sublog, force: bool, kind: str) -> int:
        payload = self.payload(sub)
        service = self.service
        result, ns, error = self._timed(
            lambda: service.append(sub.handle, payload, force=force)
        )
        ok = self._note_append(sub, payload, result, force) and error is None
        self.check(ok, kind, error or "bad timestamp")
        return ns

    def op_append(self) -> int:
        return self._append(self.pick(), False, "append")

    def op_forced_append(self) -> int:
        return self._append(self.pick(), True, "forced_append")

    def op_client_batch(self) -> int:
        sub = self.pick()
        payloads = [self.payload(sub) for _ in range(BATCH)]
        if sub.client is None:
            sub.client = AsyncLogClient(
                sub.handle,
                self.port,
                self.client_clock,
                batch_size=BATCH,
                force_batches=True,
                server_batching=True,
            )
        client, port = sub.client, self.port

        def batch():
            for payload in payloads:
                client.submit(payload)
            return port.drain()

        flushed = client.flushed_batches
        _, ns, error = self._timed(batch)
        for payload in payloads:
            sub.add(payload, -1)
        self.entries_appended += BATCH
        sub.last_forced = len(sub) - 1
        ok = error is None and client.flushed_batches == flushed + 1 and not len(port)
        self.check(ok, "client_batch", error or "batch not delivered")
        return ns

    def _read(self, kind: str, fn, sub: Sublog, start: int, want: int, step: int = 1):
        reads, ns, error = self._timed(fn)
        reads = reads or []
        self.entries_returned += len(reads)
        ok = error is None and len(reads) == want and sub.matches_run(start, reads, step)
        self.check(ok, kind, error or f"{sub.path}: wrong entries from {start}")
        return reads, ns

    def op_lookup(self) -> int:
        if self.spec.read_your_writes:
            sub, index = self.rng.choice(self.recent)
        else:
            sub, index = self.pick_written()
        entry_id = EntryId(sub.ts[index])
        service = self.service
        _, ns = self._read(
            "lookup",
            lambda: [r] if (r := service.read_entry(sub.handle, entry_id)) else [],
            sub,
            index,
            1,
        )
        return ns

    def op_tail_read(self) -> int:
        # Popular sublogs are tailed more often, as they are written more.
        sub = self.pick()
        service = self.service
        n = len(sub)
        _, ns = self._read(
            "tail_read",
            lambda: list(islice(service.read_entries(sub.handle, reverse=True), TAIL_COUNT)),
            sub,
            n - 1,
            min(TAIL_COUNT, n),
            step=-1,
        )
        return ns

    def op_range_read(self) -> int:
        sub, index = self.pick_written()
        since = sub.ts[index]
        service = self.service
        _, ns = self._read(
            "range_read",
            lambda: list(islice(service.read_entries(sub.handle, since=since), RANGE_COUNT)),
            sub,
            index,
            min(RANGE_COUNT, len(sub) - index),
        )
        return ns

    def op_scan(self) -> int:
        sub = self.rng.choice(self.cold)
        service = self.service
        reads, ns = self._read(
            "scan", lambda: list(service.read_entries(sub.handle)), sub, 0, len(sub)
        )
        self.scans.append((sum(len(read.data) for read in reads), ns))
        return ns

    def op_follow(self, sub: Sublog | None = None) -> int:
        sub = sub or self.rng.choice(self.subs)
        cursor, index = sub.cursor, sub.cursor_index
        service = self.service

        def follow():
            if cursor is None:
                return list(islice(service.read_entries(sub.handle), FOLLOW_MAX))
            return list(islice(service.read_entries(sub.handle, after=cursor), FOLLOW_MAX))

        reads, ns = self._read(
            "follow", follow, sub, index + 1, min(FOLLOW_MAX, len(sub) - index - 1)
        )
        if reads:
            sub.cursor = reads[-1].location
            sub.cursor_index = index + len(reads)
        return ns

    def probe_follow(self) -> int:
        """A consumer at the sublog's end; a writer adds 1-64 entries; the
        consumer resumes from its cursor (only the resume is timed)."""
        sub = self.rng.choice(self.subs)
        sub.cursor, sub.cursor_index = sub.last_loc, sub.last_loc_index
        for _ in range(self.rng.randint(1, FOLLOW_MAX)):
            self._append(sub, False, "follow_feed")
        return self.op_follow(sub)

    # -- phases ---------------------------------------------------------------

    def preload(self) -> None:
        """Fill the store before measuring (for ``login``, the archive)."""
        if self.login is not None:
            service = self.service
            for record in self.login.generate(self.spec.preload):
                sub = self.by_name[record.user]
                payload = record.encode()
                self._note_append(sub, payload, service.append(sub.handle, payload), False)
            self.sequence = self.spec.preload
        else:
            for _ in range(self.spec.preload):
                self._append(self.pick(), False, "preload")

    def warm_up(self) -> None:
        """Run the mix unmeasured, so caches are warm when timing starts."""
        self.run_mix(max(1, self.spec.warmup_ops // self.deck_size), samples=False)
        self.scans.clear()
        for sub in self.subs:
            sub.cursor, sub.cursor_index = sub.last_loc, sub.last_loc_index

    def run_mix(self, decks: int, samples: bool = True, deadline_ns: int | None = None) -> None:
        """Run ``decks`` shuffled decks of the mix; with ``samples``, record
        the latencies and the chunk's rate (operations per second inside
        the operations)."""
        deck = [kind for kind, count in self.spec.mix for _ in range(count)]
        methods = {kind: getattr(self, "op_" + kind) for kind, _ in self.spec.mix}
        busy = done = 0
        for _ in range(decks):
            if deadline_ns is not None and time.perf_counter_ns() > deadline_ns:
                self.capped = True
                break
            self.rng.shuffle(deck)
            for kind in deck:
                ns = methods[kind]()
                if samples:
                    self.lat[kind].append(ns)
                busy += ns
                done += 1
        if samples:
            self.mix_ops += done
            if busy:
                self.round_rates.append(done / (busy / 1e9))

    def run_rounds(self, decks: int, deadline_ns: int) -> None:
        """The measured section: ``rounds`` times a slice of the mix, a
        slice of each probe and a restart from the image on disk.

        Interleaving keeps each operation kind's samples spread over the
        whole run, so a slow second of the machine touches every kind a
        little instead of one kind a lot."""
        rounds = self.spec.rounds

        def share(total: int, r: int) -> int:
            return (r + 1) * total // rounds - r * total // rounds

        for r in range(rounds):
            self.run_mix(share(decks, r), deadline_ns=deadline_ns)
            # Probes are shuffled too: back-to-back forced writes queue
            # behind each other's write-back and measure the file system.
            probes = [kind for kind, count in self.spec.probes for _ in range(share(count, r))]
            self.rng.shuffle(probes)
            for kind in probes:
                method = self.probe_follow if kind == "follow" else getattr(self, "op_" + kind)
                self.lat[kind].append(method())
            self.restart()
            self.store.settle()

    def restart(self) -> None:
        """Time a read-only restart from the image files as they are now:
        the state a crash at this instant would leave."""
        start = time.perf_counter_ns()
        mounted, report = self.call(self.store.remount)
        self.recover_ns.append(time.perf_counter_ns() - start)
        self.recovery_blocks.append(report.total_blocks_examined)
        for device in mounted.devices:
            device.close()

    def crash_and_check(self) -> None:
        """Crash the service, restart from its images, check durability."""
        self.call(self.store.crash)
        mounted, _ = self.call(self.store.remount)
        try:
            self.call(lambda: self.check_durable(mounted))
        finally:
            for device in mounted.devices:
                device.close()

    def check_durable(self, service) -> None:
        """Every acknowledged forced entry survived; nothing was invented.

        What survives a crash is a prefix of the log that reaches at least
        each sublog's last forced entry, so each recovered sublog must end
        at some entry at or after its last forced one, with the entries
        before it in order."""
        for sub in self.subs:
            if not len(sub):
                continue
            handle = service.open_log_file(sub.path)
            tail = list(islice(service.read_entries(handle, reverse=True), 3))
            last = next(
                (
                    index
                    for index in range(len(sub) - 1, sub.last_forced - 1, -1)
                    if tail and sub.matches(index, tail[0])
                ),
                None,
            )
            if last is None:
                ok = not tail and sub.last_forced < 0
            else:
                ok = len(tail) == min(3, last + 1) and sub.matches_run(last, tail, -1)
            self.check(ok, "durability", f"{sub.path}: lost or invented entries")

    # -- results ------------------------------------------------------------------

    def counts(self) -> dict:
        """Counts that repeat exactly for a seed, traced or not."""
        service = self.service
        space = service.space_stats
        return {
            "blocks_burned": space.blocks_written,
            "client_bytes": space.client_data,
            "entrymap_entries_examined": service.read_stats.search.entrymap_entries_examined,
            "cache_misses": service.cache_stats.misses,
            "entries_returned": self.entries_returned,
            "ops": dict(sorted(self.ops_by_kind.items())),
        }

    def bytes_per_user_byte(self) -> float:
        space = self.service.space_stats
        return space.blocks_written * BLOCK_SIZE / max(1, space.client_data)

    def close(self) -> None:
        self.store.close()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_setup(spec: Spec, seed: int, directory: str) -> tuple[Run, float]:
    """Create and preload a store; returns the run and the seconds it took."""
    gc.collect()
    start = time.perf_counter()
    run = Run(spec, seed, directory)
    run.preload()
    return run, time.perf_counter() - start


def measure(
    spec: Spec, seed: int, seconds: float, workdir: str, tracer=None, setups: int | None = None
) -> dict:
    """One full pass; returns raw results (samples, counts, timings)."""
    setups = spec.setups if setups is None else setups
    setup_times = []
    run = None
    for attempt in range(setups):
        if run is not None:
            run.close()
            run = None
        run, took = fresh_setup(spec, seed, os.path.join(workdir, f"store-{attempt}"))
        setup_times.append(took)
    try:
        run.warm_up()
        gc.collect()
        deck_size = sum(count for _, count in spec.mix)
        decks = max(spec.rounds, round(seconds * spec.planned_ops_per_s / deck_size))
        if tracer is not None:
            tracer.install()
            run.call = tracer.op
        before = _layer_snapshot(run)
        phase_start = time.perf_counter_ns()
        run.run_rounds(decks, deadline_ns=phase_start + int(max(3 * seconds, 10) * 1e9))
        counts = run.counts()
        after = _layer_snapshot(run)
        bpub = run.bytes_per_user_byte()
        run.crash_and_check()
        phase_ns = time.perf_counter_ns() - phase_start
        return {
            "run": run,
            "setup_s": _median(setup_times),
            "setup_times": setup_times,
            "ops_per_s": _median(run.round_rates),
            "phase_ns": phase_ns,
            "counts": counts,
            "before": before,
            "after": after,
            "bytes_per_user_byte": bpub,
            "peak_rss_mb": peak_rss_mb(),
        }
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(run.store.directory, ignore_errors=True)


def _layer_snapshot(run: Run) -> dict:
    service = run.service
    reads = service.read_stats
    cache = service.cache_stats
    devices = service.devices
    return {
        "device_reads": sum(d.stats.reads for d in devices),
        "device_writes": sum(d.stats.writes for d in devices),
        "blocks_written": service.space_stats.blocks_written,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_evictions": cache.evictions,
        "parse_avoided": cache.parse_avoided,
        "blocks_parsed": reads.blocks_parsed,
        "entrymap_examined": reads.search.entrymap_entries_examined,
        "nvram_stores": service.store.nvram.writes,
        "entries_returned": run.entries_returned,
        "entries_appended": run.entries_appended,
        "attempted": run.attempted,
        "batches": run.ops_by_kind.get("client_batch", 0),
    }


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #


def end_to_end(result: dict) -> dict[str, tuple[float, str]]:
    """The user-facing metrics of one untraced pass: name -> (value, unit).

    ``BENCHMARK.json`` gates a subset; the rest are printed only."""
    run: Run = result["run"]
    lat = run.lat
    us = lambda ns: ns / 1000.0  # noqa: E731
    scan_bytes = sum(b for b, _ in run.scans)
    scan_ns = sum(ns for _, ns in run.scans)
    return {
        "setup_s": (result["setup_s"], "s"),
        "ops_per_s": (result["ops_per_s"], "ops/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "bytes_per_user_byte": (result["bytes_per_user_byte"], "ratio"),
        "append_p50_us": (us(_median(lat["append"])), "us"),
        "append_p99_us": (us(_percentile(lat["append"], 99)), "us"),
        "forced_append_p50_us": (us(_median(lat["forced_append"])), "us"),
        "client_batch_p50_us": (us(_median(lat["client_batch"])), "us"),
        "lookup_p50_us": (us(_median(lat["lookup"])), "us"),
        "lookup_p99_us": (us(_percentile(lat["lookup"], 99)), "us"),
        "tail_read_p50_us": (us(_median(lat["tail_read"])), "us"),
        "range_read_p50_us": (us(_median(lat["range_read"])), "us"),
        "scan_mb_s": (scan_bytes / 1e6 / (scan_ns / 1e9) if scan_ns else 0.0, "MB/s"),
        "follow_p50_us": (us(_median(lat["follow"])), "us"),
        "recover_ms": (_median(run.recover_ns) / 1e6, "ms"),
        "failed_ops_ratio": (run.failed / max(1, run.attempted), "fraction"),
    }


def per_layer(traced: dict, tracer, untraced_ops_per_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass: name -> (value, unit)."""
    run: Run = traced["run"]
    before, after = traced["before"], traced["after"]
    delta = {key: after[key] - before[key] for key in before}
    layer_ns = tracer.layer_self_ns()
    ms = lambda layer: layer_ns.get(layer, 0) / 1e6  # noqa: E731
    calls = tracer.calls_of

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ops = delta["attempted"]
    entries = delta["entries_returned"]
    locates = calls("EntrymapSearch.locate_prev", "EntrymapSearch.locate_next")
    searches = calls("TimeIndex.locate_entry", "TimeIndex.locate_position_after")
    decodes = calls("reader.decode_record", "entry.decode_record")
    parses = calls("reader.parse_block", "block.parse_block")
    accesses = delta["cache_hits"] + delta["cache_misses"]
    wall = traced["phase_ns"]
    layered = sum(ns for layer, ns in layer_ns.items() if layer != "bench")
    bench_self = layer_ns.get("bench", 0) + (wall - tracer.root_ns())
    traced_ops_per_s = traced["ops_per_s"]
    mounts = len(run.recover_ns)
    return {
        "service.self_us_per_op": (ratio(layer_ns.get("service", 0) / 1e3, ops), "us"),
        "client.self_us_per_batch": (
            ratio(layer_ns.get("client", 0) / 1e3, delta["batches"]),
            "us",
        ),
        "writer.self_us_per_append": (
            ratio(layer_ns.get("writer", 0) / 1e3, delta["entries_appended"]),
            "us",
        ),
        "writer.blocks_burned": (float(delta["blocks_written"]), "count"),
        "catalog.calls_per_op": (ratio(calls("Catalog.ancestors"), ops), "calls/op"),
        "catalog.self_ms": (ms("catalog"), "ms"),
        "entrymap.entries_examined_per_locate": (
            ratio(delta["entrymap_examined"], locates),
            "entries",
        ),
        "entrymap.decodes": (float(calls("EntrymapRecord.decode")), "count"),
        "entrymap.self_ms": (ms("entrymap"), "ms"),
        "timeindex.probes_per_lookup": (
            ratio(calls("TimeIndex.block_first_timestamp"), searches),
            "probes",
        ),
        "timeindex.self_ms": (ms("timeindex"), "ms"),
        "reader.self_ms": (ms("reader"), "ms"),
        "reader.blocks_read_per_entry": (
            ratio(calls("LogReader.read_parsed"), entries),
            "blocks/entry",
        ),
        "codec.decodes_per_entry": (ratio(decodes, entries), "decodes/entry"),
        "codec.parse_block_calls": (float(parses), "count"),
        "codec.decode_self_ms": (
            tracer.self_ns_of(
                "reader.parse_block",
                "block.parse_block",
                "reader.decode_record",
                "entry.decode_record",
            )
            / 1e6,
            "ms",
        ),
        "codec.encode_self_ms": (
            tracer.self_ns_of("BlockBuilder.encode", "LogEntry.encode") / 1e6,
            "ms",
        ),
        "cache.hit_ratio": (ratio(delta["cache_hits"], accesses), "ratio"),
        "cache.evictions": (float(delta["cache_evictions"]), "count"),
        "cache.parse_avoided_ratio": (
            ratio(delta["parse_avoided"], delta["parse_avoided"] + delta["blocks_parsed"]),
            "ratio",
        ),
        "cache.self_ms": (ms("cache"), "ms"),
        "device.reads": (float(delta["device_reads"]), "count"),
        "device.writes": (float(delta["device_writes"]), "count"),
        "device.self_ms": (ms("device"), "ms"),
        "device.open_ms": (ratio(ms("device_open"), mounts), "ms"),
        "nvram.stores": (float(delta["nvram_stores"]), "count"),
        "nvram.self_us_per_store": (
            ratio(tracer.self_ns_of("FileBackedNvram.store") / 1e3, delta["nvram_stores"]),
            "us",
        ),
        "recovery.blocks_examined": (_median(run.recovery_blocks), "count"),
        "recovery.self_ms": (ratio(ms("recovery"), mounts), "ms"),
        "obs.self_ms": (ms("obs"), "ms"),
        "obs.spans": (float(calls("SpanTracer.span")), "count"),
        "bench.self_ms": (bench_self / 1e6, "ms"),
        "trace.phase_ms": (wall / 1e6, "ms"),
        "trace.coverage": (ratio(layered + bench_self, wall), "ratio"),
        "trace.overhead": (
            ratio(untraced_ops_per_s - traced_ops_per_s, untraced_ops_per_s),
            "ratio",
        ),
    }
