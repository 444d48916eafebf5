"""Digest computation for the three supported checksum algorithms."""

from __future__ import annotations

import hashlib
import queue
import re
import threading
from pathlib import Path
from typing import Iterable

from cuflinks.host import usable_cores

SUPPORTED_ALGORITHMS = ("md5", "sha256", "sha512")
DEFAULT_ALGORITHM = "sha256"

# expected hex-digest length per algorithm, used to sanity-check parsed text
HEX_DIGEST_LENGTHS = {"md5": 32, "sha256": 64, "sha512": 128}
_HEX_DIGEST_RES = {algorithm: re.compile(f"[0-9a-f]{{{length}}}")
                   for algorithm, length in HEX_DIGEST_LENGTHS.items()}

_CHUNK_SIZE = 1024 * 1024
# chunks each extra algorithm's thread may fall behind the reader; the
# threads share the chunks, so at most a few MiB are in flight
_QUEUE_DEPTH = 2


def check_algorithm(name: str) -> str:
    """Return the canonical lowercase algorithm name or raise ValueError."""
    canonical = name.strip().lower()
    if canonical not in SUPPORTED_ALGORITHMS:
        raise ValueError(
            f"unsupported checksum algorithm {name!r}; "
            f"expected one of {', '.join(SUPPORTED_ALGORITHMS)}"
        )
    return canonical


def is_hex_digest(text: str, algorithm: str) -> bool:
    """True when ``text`` is a lowercase hex digest of ``algorithm``."""
    return _HEX_DIGEST_RES[algorithm].fullmatch(text) is not None


def digest_bytes(data: bytes, algorithm: str = DEFAULT_ALGORITHM) -> str:
    return hashlib.new(check_algorithm(algorithm), data).hexdigest()


def digest_file(path: Path, algorithm: str = DEFAULT_ALGORITHM) -> str:
    (digest,) = multi_digest_file(path, (algorithm,)).values()
    return digest


def _canonical_names(algorithms: Iterable[str]) -> list[str]:
    """Canonical names in first-seen order, duplicates collapsed."""
    return list(dict.fromkeys(check_algorithm(a) for a in algorithms))


def multi_digest_file(path: Path, algorithms: Iterable[str]) -> dict[str, str]:
    """Hash one file with several algorithms, reading each chunk once."""
    with MultiDigester(algorithms) as digester, open(path, "rb") as handle:
        while chunk := handle.read(_CHUNK_SIZE):
            digester.update(chunk)
        return digester.hexdigests()


class MultiDigester:
    """Hash a stream of bytes with several algorithms, fed chunk by chunk.

    With one algorithm, or one core that the process may run on, every
    algorithm hashes each write on the calling thread. Otherwise the
    writes are gathered into chunks of at least _CHUNK_SIZE bytes; the
    calling thread hashes each chunk with the first algorithm, and each
    further algorithm hashes it on its own short-lived thread, fed
    through a bounded queue. hashlib releases the GIL while it hashes a
    chunk this large, so the algorithms run side by side. The threads
    start only once a second chunk arrives, and then every algorithm
    starts on the first chunk at once: bytes that fit in one chunk are
    hashed on the calling thread. Bytes objects handed to update are
    kept, not copied, until they have been hashed.

    Used as a context manager, so that an error raised while it is being
    fed leaves no thread running; hexdigests ends the stream.
    """

    def __init__(self, algorithms: Iterable[str]) -> None:
        self._names = _canonical_names(algorithms)
        if not self._names:
            raise ValueError("at least one algorithm is required")
        self._hashers = [hashlib.new(name) for name in self._names]
        self._threaded = len(self._hashers) > 1 and usable_cores() > 1
        # bytes not yet handed on as a chunk, and the first chunk, held
        # until a second one shows that threads are worth starting
        self._pieces: list[bytes] = []
        self._pending = 0
        self._held: bytes | None = None
        self._queues: list[queue.Queue] = []
        self._threads: list[threading.Thread] = []

    def __enter__(self) -> "MultiDigester":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def update(self, data) -> None:
        if not self._threaded:
            for hasher in self._hashers:
                hasher.update(data)
            return
        if type(data) is not bytes:
            data = bytes(data)  # a caller may reuse a mutable buffer
        self._pieces.append(data)
        self._pending += len(data)
        if self._pending >= _CHUNK_SIZE:
            self._hand_on()

    def hexdigests(self) -> dict[str, str]:
        """The digests of every byte fed so far, by canonical name; no
        byte may be fed after."""
        if self._pieces:
            self._hand_on()
        if self._held is not None:  # one chunk in all: no threads
            for hasher in self._hashers:
                hasher.update(self._held)
            self._held = None
        self.close()
        return {name: hasher.hexdigest()
                for name, hasher in zip(self._names, self._hashers)}

    def close(self) -> None:
        """Stop the threads, once they have hashed what they were given."""
        for chunks in self._queues:
            chunks.put(None)
        for thread in self._threads:
            thread.join()
        self._queues, self._threads = [], []

    def _hand_on(self) -> None:
        # joining one piece returns it as it is, so a whole chunk read
        # from a file reaches the threads without a copy
        chunks = [b"".join(self._pieces)]
        self._pieces, self._pending = [], 0
        if not self._threads:
            if self._held is None:
                self._held = chunks[0]
                return
            self._start_threads()
            chunks.insert(0, self._held)
            self._held = None
        for chunk in chunks:
            for waiting in self._queues:
                waiting.put(chunk)
            self._hashers[0].update(chunk)

    def _start_threads(self) -> None:
        for hasher in self._hashers[1:]:
            chunks = queue.Queue(maxsize=_QUEUE_DEPTH)
            thread = threading.Thread(target=_hash_queued,
                                      args=(chunks, hasher))
            thread.start()
            # only a started thread is one that close must stop
            self._queues.append(chunks)
            self._threads.append(thread)


def _hash_queued(chunks: queue.Queue, hasher) -> None:
    while (chunk := chunks.get()) is not None:
        hasher.update(chunk)


def multi_digest_bytes(data: bytes, algorithms: Iterable[str]) -> dict[str, str]:
    return {name: hashlib.new(name, data).hexdigest()
            for name in _canonical_names(algorithms)}
