"""Identifier grammar and the registry record."""

from __future__ import annotations

import json
import re
import secrets
from dataclasses import dataclass, replace

from cuflinks.errors import IdentifierError
from cuflinks.hashing import SUPPORTED_ALGORITHMS, is_hex_digest

PREFIX = "minid"

_ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
_SUFFIX_RE = re.compile(r"[0-9A-Za-z]{10,16}")

# 12 characters of base62 carry just under 72 bits of randomness
SUFFIX_LENGTH = 12

ACTIVE = "active"
TOMBSTONED = "tombstoned"
SUPERSEDED = "superseded"

# the largest request or reply body the resolution API carries
MAX_BODY_BYTES = 1024 * 1024
# the largest record a mint or a location update may leave; the rest of
# a reply body is room for the tombstone or supersession that follows
MAX_RECORD_BYTES = MAX_BODY_BYTES - 4096


def render_body(body: dict) -> bytes:
    """The bytes of a resolution API body, as they go over the wire."""
    return json.dumps(body, sort_keys=True).encode("utf-8")


def parse_identifier(identifier: str) -> str:
    """Return the suffix of a well-formed identifier, or raise."""
    prefix, sep, suffix = identifier.partition(":")
    if sep != ":" or prefix != PREFIX:
        raise IdentifierError(
            f"{identifier!r} does not start with '{PREFIX}:'")
    if not _SUFFIX_RE.fullmatch(suffix):
        raise IdentifierError(
            f"{identifier!r}: suffix must be 10 to 16 characters of "
            f"[0-9A-Za-z]")
    return suffix


def render_identifier(suffix: str) -> str:
    return f"{PREFIX}:{suffix}"


def is_valid_identifier(identifier: str) -> bool:
    try:
        parse_identifier(identifier)
    except IdentifierError:
        return False
    return True


def new_suffix() -> str:
    return "".join(secrets.choice(_ALPHABET) for _ in range(SUFFIX_LENGTH))


@dataclass(frozen=True)
class Checksum:
    algorithm: str
    digest: str

    def __post_init__(self) -> None:
        if self.algorithm not in SUPPORTED_ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not is_hex_digest(self.digest, self.algorithm):
            raise ValueError(
                f"{self.digest!r} is not a lowercase {self.algorithm} "
                f"hex digest")

    def to_json(self) -> dict:
        return {"algorithm": self.algorithm, "digest": self.digest}

    @classmethod
    def from_json(cls, body: dict) -> "Checksum":
        return cls(algorithm=body["algorithm"], digest=body["digest"])


@dataclass(frozen=True)
class MinidRecord:
    """The full registry record behind one identifier.

    author, created, title, and checksum never change after minting;
    locations and status evolve through registry events. A superseded
    record carries its successor inside status so clients can follow
    the chain.
    """

    identifier: str
    author: str
    created: str
    title: str
    locations: tuple[str, ...]
    checksum: Checksum
    status: str = ACTIVE
    superseded_by: str | None = None

    def __post_init__(self) -> None:
        parse_identifier(self.identifier)
        if self.status not in (ACTIVE, TOMBSTONED, SUPERSEDED):
            raise ValueError(f"unknown status {self.status!r}")
        if (self.status == SUPERSEDED) != (self.superseded_by is not None):
            raise ValueError(
                "superseded records carry a successor; others must not")
        if self.status == ACTIVE and not self.locations:
            raise ValueError("active records need at least one location")

    def with_locations(self, locations: tuple[str, ...]) -> "MinidRecord":
        return replace(self, locations=locations)

    def to_json(self) -> dict:
        status: dict = {"state": self.status}
        if self.superseded_by is not None:
            status["by"] = self.superseded_by
        return {
            "identifier": self.identifier,
            "author": self.author,
            "created": self.created,
            "title": self.title,
            "locations": list(self.locations),
            "checksum": self.checksum.to_json(),
            "status": status,
        }

    def rendered_size(self) -> int:
        """Bytes in the body of a reply that carries the record."""
        return len(render_body(self.to_json()))

    @classmethod
    def from_json(cls, body: dict) -> "MinidRecord":
        status = body["status"]
        return cls(
            identifier=body["identifier"],
            author=body["author"],
            created=body["created"],
            title=body["title"],
            locations=tuple(body["locations"]),
            checksum=Checksum.from_json(body["checksum"]),
            status=status["state"],
            superseded_by=status.get("by"),
        )
