"""Digest computation for the three supported checksum algorithms."""

from __future__ import annotations

import hashlib
import os
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
    """Hash one file with several algorithms, reading each chunk once.

    The first algorithm is hashed on the calling thread. When the file
    spans more than one chunk and the process may run on more than one
    core, each further algorithm is hashed on its own short-lived
    thread, fed the same chunks through a bounded queue; hashlib
    releases the GIL while it hashes a chunk this large, so the
    algorithms run side by side.
    """
    names = _canonical_names(algorithms)
    if not names:
        raise ValueError("at least one algorithm is required")
    hashers = [hashlib.new(name) for name in names]
    with open(path, "rb") as handle:
        if (len(hashers) > 1 and usable_cores() > 1
                and os.fstat(handle.fileno()).st_size > _CHUNK_SIZE):
            _hash_on_threads(handle, hashers)
        else:
            while chunk := handle.read(_CHUNK_SIZE):
                for hasher in hashers:
                    hasher.update(chunk)
    return {name: hasher.hexdigest() for name, hasher in zip(names, hashers)}


def _hash_on_threads(handle, hashers: list) -> None:
    first, *rest = hashers
    queues = [queue.Queue(maxsize=_QUEUE_DEPTH) for _ in rest]
    threads = [threading.Thread(target=_hash_queued, args=(chunks, hasher))
               for chunks, hasher in zip(queues, rest)]
    for thread in threads:
        thread.start()
    try:
        while chunk := handle.read(_CHUNK_SIZE):
            for chunks in queues:
                chunks.put(chunk)
            first.update(chunk)
    finally:
        # also on a read error, so that no thread outlives the call
        for chunks in queues:
            chunks.put(None)
        for thread in threads:
            thread.join()


def _hash_queued(chunks: queue.Queue, hasher) -> None:
    while (chunk := chunks.get()) is not None:
        hasher.update(chunk)


def multi_digest_bytes(data: bytes, algorithms: Iterable[str]) -> dict[str, str]:
    return {name: hashlib.new(name, data).hexdigest()
            for name in _canonical_names(algorithms)}
