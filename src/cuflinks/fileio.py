"""Crash-safe replacement of a whole file."""

from __future__ import annotations

import os
import secrets
from pathlib import Path


def write_atomically(path: Path, data: bytes) -> None:
    """Make path hold exactly data, or leave it as it was.

    The bytes go to a temporary file beside path, are fsynced, and the
    temporary file is renamed over path, so a crash leaves the old file
    or the new one, never a truncated one. The directory is fsynced
    last so that the rename itself is durable.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
