"""Append-only event log with crash recovery.

Frame layout: 4-byte big-endian payload length, 4-byte big-endian CRC32
of the payload, then the payload (compact JSON, UTF-8). Appends are a
whole-frame write followed by fsync, so a committed event survives a
crash and a torn final write fails its CRC on replay. An append that
fails truncates the log back to where it began. Replay stops at the
first damaged frame and, in writer mode, truncates the file there; any
trailing bytes are the remains of an interrupted append.

One process may hold the log open for writing; the file itself carries
the advisory lock. Read-only openers skip the lock and never truncate.
"""

from __future__ import annotations

import fcntl
import json
import os
import struct
import zlib
from pathlib import Path
from typing import Iterator

from cuflinks.errors import LockError, StoreError

_HEADER = struct.Struct(">II")

# a frame longer than this is evidence of corruption, not a real event
_MAX_PAYLOAD = 16 * 1024 * 1024


class EventLog:
    def __init__(self, path: Path, *, read_only: bool = False) -> None:
        self.path = Path(path)
        self.read_only = read_only
        flags = os.O_RDONLY if read_only else os.O_RDWR | os.O_CREAT
        try:
            self._fd = os.open(self.path, flags, 0o644)
        except OSError as exc:
            raise StoreError(f"cannot open event log {self.path}: "
                             f"{exc}") from exc
        if not read_only:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError as exc:
                os.close(self._fd)
                raise LockError(
                    f"event log {self.path} is held by another "
                    f"process") from exc
        self._events: list[dict] = []
        self._replay()

    def _replay(self) -> None:
        chunks: list[bytes] = []
        os.lseek(self._fd, 0, os.SEEK_SET)
        while chunk := os.read(self._fd, 1 << 20):
            chunks.append(chunk)
        data = b"".join(chunks)
        offset = 0
        valid_end = 0
        events: list[dict] = []
        while offset + _HEADER.size <= len(data):
            length, crc = _HEADER.unpack_from(data, offset)
            start = offset + _HEADER.size
            end = start + length
            if length > _MAX_PAYLOAD or end > len(data):
                break
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                break
            try:
                event = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                break
            events.append(event)
            offset = end
            valid_end = end
        self._events = events
        if not self.read_only and valid_end < len(data):
            # drop the torn tail so the next append starts clean
            os.ftruncate(self._fd, valid_end)
        self._end = os.lseek(self._fd, 0, os.SEEK_END)

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> Iterator[dict]:
        return iter(self._events)

    def append(self, event: dict) -> int:
        """Durably append one event; returns its sequence number."""
        if self.read_only:
            raise StoreError("event log opened read-only")
        sequence = len(self._events) + 1
        body = dict(event)
        body["seq"] = sequence
        payload = json.dumps(body, sort_keys=True, separators=(",", ":"),
                             ensure_ascii=False).encode("utf-8")
        frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        try:
            written = 0
            while written < len(frame):
                written += os.write(self._fd, frame[written:])
            os.fsync(self._fd)
        except OSError as exc:
            try:
                os.ftruncate(self._fd, self._end)
                os.lseek(self._fd, self._end, os.SEEK_SET)
            except OSError:
                # the log cannot be put back: stop writing to it, so no
                # later event lands behind the torn frame
                self.close()
            raise StoreError(f"append to {self.path} failed: {exc}") from exc
        self._end += len(frame)
        self._events.append(body)
        return sequence

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
