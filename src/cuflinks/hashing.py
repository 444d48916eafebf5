"""Digest computation for the three supported checksum algorithms."""

from __future__ import annotations

import hashlib
import re
from pathlib import Path
from typing import Iterable

SUPPORTED_ALGORITHMS = ("md5", "sha256", "sha512")
DEFAULT_ALGORITHM = "sha256"

# expected hex-digest length per algorithm, used to sanity-check parsed text
HEX_DIGEST_LENGTHS = {"md5": 32, "sha256": 64, "sha512": 128}
_HEX_DIGEST_RES = {algorithm: re.compile(f"[0-9a-f]{{{length}}}")
                   for algorithm, length in HEX_DIGEST_LENGTHS.items()}

_CHUNK_SIZE = 1024 * 1024


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
    return multi_digest_file(path, (algorithm,))[check_algorithm(algorithm)]


def multi_digest_file(path: Path, algorithms: Iterable[str]) -> dict[str, str]:
    """Hash one file with several algorithms in a single pass."""
    hashers = {check_algorithm(a): hashlib.new(check_algorithm(a))
               for a in algorithms}
    if not hashers:
        raise ValueError("at least one algorithm is required")
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_CHUNK_SIZE)
            if not chunk:
                break
            for hasher in hashers.values():
                hasher.update(chunk)
    return {name: hasher.hexdigest() for name, hasher in hashers.items()}


def multi_digest_bytes(data: bytes, algorithms: Iterable[str]) -> dict[str, str]:
    return {check_algorithm(a): digest_bytes(data, a) for a in algorithms}
