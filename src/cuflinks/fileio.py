"""Crash-safe creation, replacement and appends of files."""

from __future__ import annotations

import fcntl
import os
import secrets
from contextlib import contextmanager
from pathlib import Path


def write_atomically(path: Path, data: bytes) -> None:
    """Make path hold exactly data, or leave it as it was.

    The bytes go to a temporary file beside path, are fsynced, and the
    temporary file is renamed over path, so a crash leaves the old file
    or the new one, never a truncated one. The directory is fsynced
    last so that the rename itself is durable.
    """
    with _staged(path, os.replace) as handle:
        handle.write(data)


def create_exclusively(path: Path):
    """A binary handle whose bytes appear at path only once complete.

    Used as a context manager. The bytes go to a temporary file beside
    path and are fsynced; on a clean exit the file is hard-linked into
    place, which raises FileExistsError if path exists by then, so two
    writers never share or overwrite one file. A crash or an error
    leaves no file at path, at most a hidden temporary file beside it.
    """
    return _staged(path, _link_new)


def append_durably(path: Path, data: bytes) -> None:
    """Add data at the end of path and fsync it.

    A writer that finds path absent also fsyncs its directory, so the
    new file's entry is durable too. Writers that may race to create
    path hold a lock, so that exactly one of them finds it absent."""
    path = Path(path)
    created = not path.exists()
    with open(path, "ab") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    if created:
        sync_directory(path.parent)


def sync_directory(directory: Path) -> None:
    """Make the entries created, renamed or linked in directory durable."""
    fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextmanager
def locked(path: Path):
    """Hold an exclusive lock on ``<path>.lock`` for the with block.

    Writers that load, change and rewrite path take it first, so that
    one writer's change is never lost under another's. The lock is
    ``flock`` on a file opened afresh, so it excludes other threads as
    well as other processes, and the kernel drops it if its holder dies.
    """
    path = Path(path)
    with open(path.with_name(path.name + ".lock"), "a+b") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        yield


def _link_new(temp: Path, path: Path) -> None:
    os.link(temp, path)
    os.unlink(temp)


@contextmanager
def _staged(path: Path, publish):
    path = Path(path)
    temp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        publish(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    sync_directory(path.parent)
