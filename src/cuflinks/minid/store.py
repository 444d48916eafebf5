"""Append-only event log with crash recovery.

Frame layout: 4-byte big-endian payload length, 4-byte big-endian CRC32
of the payload, then the payload (compact JSON, UTF-8). Appends are a
whole-frame write followed by fsync, so a committed event survives a
crash and a torn final write fails its CRC on open. An append that
fails truncates the log back to where it began.

Opening reads the file once and checks every frame's length and CRC,
keeping only each frame's offset. The scan stops at the first frame
whose framing or CRC fails and, in writer mode, truncates the file
there; any trailing bytes are the remains of an interrupted append.
Every frame before that point is committed and is never truncated. A
writer that finds the log empty, as when it has just created it,
fsyncs the directory so the file's entry is durable too.
Payloads are decoded only when asked for, by event(): it reads the
frame again, re-checks its CRC and its sequence number, and raises
StoreError naming the sequence number if the frame does not decode.

One process may hold the log open for writing; the file itself carries
the advisory lock. Read-only openers skip the lock and never truncate.
"""

from __future__ import annotations

import fcntl
import json
import os
import struct
import zlib
from array import array
from pathlib import Path
from typing import Callable

from cuflinks.errors import LockError, StoreError

_HEADER = struct.Struct(">II")

# a frame longer than this is evidence of corruption, not a real event
_MAX_PAYLOAD = 16 * 1024 * 1024

# called with (seq, payload) for each committed frame found by the open
FrameHook = Callable[[int, bytes], None]


class EventLog:
    def __init__(self, path: Path, *, read_only: bool = False,
                 on_frame: FrameHook | None = None) -> None:
        self.path = Path(path)
        self.read_only = read_only
        flags = os.O_RDONLY if read_only else os.O_RDWR | os.O_CREAT
        try:
            self._fd = os.open(self.path, flags, 0o644)
        except OSError as exc:
            raise StoreError(f"cannot open event log {self.path}: "
                             f"{exc}") from exc
        try:
            if not read_only:
                try:
                    fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError as exc:
                    raise LockError(
                        f"event log {self.path} is held by another "
                        f"process") from exc
            self._scan(on_frame)
            if not read_only and self._offsets[-1] == 0:
                # an empty log may have just been created: make its
                # directory entry durable before any append is acknowledged
                self._sync_directory()
        except BaseException:
            self.close()
            raise

    def _scan(self, on_frame: FrameHook | None) -> None:
        chunks: list[bytes] = []
        os.lseek(self._fd, 0, os.SEEK_SET)
        while chunk := os.read(self._fd, 1 << 20):
            chunks.append(chunk)
        data = b"".join(chunks)
        # offsets[seq - 1] is where frame seq starts; the last entry is
        # where the committed frames end
        offsets = array("q", [0])
        # locals: this loop runs once per event in the log
        unpack, crc32, note = _HEADER.unpack_from, zlib.crc32, offsets.append
        size, offset, seq = len(data), 0, 0
        while offset + _HEADER.size <= size:
            length, crc = unpack(data, offset)
            start = offset + _HEADER.size
            end = start + length
            if length > _MAX_PAYLOAD or end > size:
                break
            payload = data[start:end]
            if crc32(payload) != crc:
                break
            note(end)
            seq += 1
            if on_frame is not None:
                on_frame(seq, payload)
            offset = end
        self._offsets = offsets
        if not self.read_only and offset < size:
            # drop the torn tail so the next append starts clean
            os.ftruncate(self._fd, offset)
        os.lseek(self._fd, offset, os.SEEK_SET)

    def _sync_directory(self) -> None:
        fd = os.open(self.path.parent, os.O_RDONLY | os.O_DIRECTORY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def event(self, seq: int) -> dict:
        """Read and decode committed event seq (counted from 1)."""
        if not 1 <= seq <= len(self):
            raise StoreError(f"{self.path} has no event {seq}")
        start, end = self._offsets[seq - 1], self._offsets[seq]
        try:
            frame = os.pread(self._fd, end - start, start)
        except OSError as exc:
            raise StoreError(f"cannot read event {seq} of {self.path}: "
                             f"{exc}") from exc
        payload = frame[_HEADER.size:]
        if (len(frame) != end - start
                or _HEADER.unpack_from(frame) != (len(payload),
                                                  zlib.crc32(payload))):
            raise StoreError(f"event {seq} of {self.path} changed after "
                             f"the log was opened")
        try:
            # ValueError covers JSONDecodeError and UnicodeDecodeError
            event = json.loads(payload.decode("utf-8"))
        except ValueError as exc:
            raise StoreError(f"event {seq} of {self.path} is not UTF-8 "
                             f"JSON: {exc}") from exc
        if not isinstance(event, dict) or event.get("seq") != seq:
            raise StoreError(f"event {seq} of {self.path} is not a JSON "
                             f"object carrying seq {seq}")
        return event

    def append(self, event: dict) -> int:
        """Durably append one event; returns its sequence number."""
        if self.read_only:
            raise StoreError("event log opened read-only")
        sequence = len(self) + 1
        body = dict(event)
        body["seq"] = sequence
        payload = json.dumps(body, sort_keys=True, separators=(",", ":"),
                             ensure_ascii=False).encode("utf-8")
        frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        end = self._offsets[-1]
        try:
            written = 0
            while written < len(frame):
                written += os.write(self._fd, frame[written:])
            os.fsync(self._fd)
        except OSError as exc:
            try:
                os.ftruncate(self._fd, end)
                os.lseek(self._fd, end, os.SEEK_SET)
            except OSError:
                # the log cannot be put back: stop writing to it, so no
                # later event lands behind the torn frame
                self.close()
            raise StoreError(f"append to {self.path} failed: {exc}") from exc
        self._offsets.append(end + len(frame))
        return sequence

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
