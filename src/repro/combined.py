"""The combined file server: regular files and log files in one server.

Section 6: "Our experience in incorporating the log file implementation as
part of an existing file server has been favorable.  The combined
implementation allows for the sharing not only of hardware resources, but
also of code."  And Section 3.1: the one server "implements both regular
file systems (i.e. with rewriteable files) and, using separate storage
devices, log file systems", with the buffer pool and directory machinery
shared.

:class:`CombinedServer` is that server: one block cache serving a
conventional file system on a rewriteable disk *and* a Clio log service on
write-once media, one simulated clock, and a uniform ``uio_open`` that
hands back the same I/O interface for either kind of file — path prefix
selects the namespace (``/log/...`` reaches the log service).
"""

from __future__ import annotations

from repro.cache import BlockCache
from repro.core import LogService
from repro.core.catalog import UnknownLogFile
from repro.core.logfile import LogFile
from repro.fs import FileSystem, LogFileUio, RegularFileUio, UioObject
from repro.vsystem.clock import SimClock
from repro.worm.device import RewritableDevice

__all__ = ["CombinedServer"]


class CombinedServer:
    """One file server, two file types, shared mechanism."""

    LOG_PREFIX = "/log"

    def __init__(self, fs: FileSystem, logs: LogService, cache: BlockCache):
        self.fs = fs
        self.logs = logs
        self.cache = cache

    @classmethod
    def create(
        cls,
        *,
        block_size: int = 1024,
        disk_capacity_blocks: int = 4096,
        log_volume_capacity_blocks: int = 4096,
        degree_n: int = 16,
        cache_capacity_blocks: int = 2048,
        inode_count: int = 128,
        clock: SimClock | None = None,
    ) -> "CombinedServer":
        clock = clock or SimClock()
        cache = BlockCache(cache_capacity_blocks)
        disk = RewritableDevice(
            block_size=block_size, capacity_blocks=disk_capacity_blocks
        )
        fs = FileSystem.format(disk, cache=cache, inode_count=inode_count)
        logs = LogService.create(
            block_size=block_size,
            degree_n=degree_n,
            volume_capacity_blocks=log_volume_capacity_blocks,
            cache_capacity_blocks=cache_capacity_blocks,
            clock=clock,
        )
        # The log service adopts the server's shared buffer pool — "it is
        # able to use much of the existing mechanism of the file server,
        # such as the buffer pool."
        logs.store.cache = cache
        return cls(fs=fs, logs=logs, cache=cache)

    # -- namespace ------------------------------------------------------------

    def _is_log_path(self, path: str) -> bool:
        return path == self.LOG_PREFIX or path.startswith(self.LOG_PREFIX + "/")

    def _log_subpath(self, path: str) -> str:
        subpath = path[len(self.LOG_PREFIX) :]
        return subpath if subpath else "/"

    def create_file(self, path: str):
        """Create a file of the kind the path selects."""
        if self._is_log_path(path):
            return self.logs.create_log_file(self._log_subpath(path))
        return self.fs.create(path)

    def open_file(self, path: str):
        if self._is_log_path(path):
            return self.logs.open_log_file(self._log_subpath(path))
        return self.fs.open(path)

    def exists(self, path: str) -> bool:
        if self._is_log_path(path):
            try:
                self.logs.open_log_file(self._log_subpath(path))
                return True
            except UnknownLogFile:
                return False
        return self.fs.exists(path)

    def listdir(self, path: str) -> list[str]:
        if self._is_log_path(path):
            return sorted(self.logs.list_dir(self._log_subpath(path)))
        return self.fs.listdir(path)

    # -- uniform I/O (Section 6's UIO argument) ----------------------------------

    def uio_open(self, path: str, create: bool = False) -> UioObject:
        """Open any path through the uniform I/O interface: client code
        neither knows nor cares which file type it got."""
        if create and not self.exists(path):
            handle = self.create_file(path)
        else:
            handle = self.open_file(path)
        if isinstance(handle, LogFile):
            return LogFileUio(handle)
        return RegularFileUio(handle)
