"""Registry operations over the event log: mint, resolve, update.

Opening scans the log once (see store.py) and maps each suffix to the
sequence numbers of its frames, taking the operation and the suffix
straight from each payload's canonical JSON. A suffix's record is built
from its frames when it is first asked for, then cached (the Bitcask
design: an in-memory map of offsets over an append-only log). Every
mutation appends its event durably before the map and the cached record
change, so a crash between the two loses nothing: the next open finds
the frame. A frame that cannot be decoded or applied raises StoreError
naming its sequence number; it never yields a wrong record.
"""

from __future__ import annotations

import re
import threading
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable
from urllib.parse import urlsplit

from cuflinks.errors import (CuflinksError, CycleError, IdentifierError,
                             NotFoundError, RecordTooLargeError,
                             RegistryError, StoreError)
from cuflinks.minid.model import (ACTIVE, MAX_BODY_BYTES, MAX_RECORD_BYTES,
                                  SUPERSEDED, TOMBSTONED, Checksum,
                                  MinidRecord, is_valid_identifier,
                                  new_suffix, parse_identifier,
                                  render_identifier)
from cuflinks.minid.store import EventLog

Clock = Callable[[], datetime]

_MINT_ATTEMPTS = 16

MINTED = "minted"
_OPS = {op.encode(): op for op in (MINTED, "location-added",
                                   "location-removed", "tombstoned",
                                   "superseded")}
# keys sort in canonical JSON, so "seq" is the only key between these two
_KEYS = re.compile(rb'[{,]"op":"([a-z-]+)",(?:"seq":[0-9]+,)?'
                   rb'"suffix":"([0-9A-Za-z]*)"[,}]')


def _default_clock() -> datetime:
    return datetime.now(timezone.utc)


def _require_absolute(locations: tuple[str, ...]) -> None:
    for location in locations:
        if not urlsplit(location).scheme:
            raise ValueError(f"location {location!r} is not an absolute URL")


def _timestamp(clock: Clock) -> str:
    now = clock()
    if now.tzinfo is None:
        raise ValueError("clock must return timezone-aware datetimes")
    return (now.astimezone(timezone.utc)
            .isoformat(timespec="seconds").replace("+00:00", "Z"))


def _require_fits(record: MinidRecord, limit: int) -> None:
    """Refuse a write that would leave record larger than limit bytes,
    so that every record the registry holds fits a reply body."""
    size = record.rendered_size()
    if size > limit:
        raise RecordTooLargeError(
            f"{record.identifier} would take {size} bytes, over the "
            f"{limit}-byte limit")


def _op_and_suffix(payload: bytes) -> tuple[str, str] | None:
    """op and suffix read straight from a payload's canonical JSON.

    None unless each key occurs once in the frame and both values are
    plain. JSON escapes every quote inside a string, so a match is a
    key; a nested one is caught when the frame is decoded.
    """
    if payload.count(b'"op":"') != 1 or payload.count(b'"suffix":"') != 1:
        return None
    match = _KEYS.match(payload, payload.find(b'"op":"') - 1)
    op = _OPS.get(match[1]) if match else None
    return None if op is None else (op, match[2].decode("ascii"))


def _applied(record: MinidRecord | None, event: dict) -> MinidRecord:
    """The record after one event; None is a suffix not yet minted."""
    op = event["op"]
    if op == MINTED:
        if record is not None:
            raise ValueError(f"{record.identifier} is minted twice")
        return MinidRecord(
            identifier=render_identifier(event["suffix"]),
            author=event["author"],
            created=event["created"],
            title=event["title"],
            locations=tuple(event["locations"]),
            checksum=Checksum.from_json(event["checksum"]),
        )
    if record is None:
        raise ValueError(f"{op} before the identifier was minted")
    if op == "location-added":
        if event["location"] in record.locations:
            return record
        return record.with_locations(record.locations + (event["location"],))
    if op == "location-removed":
        return record.with_locations(tuple(
            loc for loc in record.locations if loc != event["location"]))
    if op == "tombstoned":
        return replace(record, status=TOMBSTONED)
    if op == "superseded":
        return replace(record, status=SUPERSEDED, superseded_by=event["by"])
    raise ValueError(f"unknown operation {op!r}")


class Registry:
    def __init__(self, path: Path, *, read_only: bool = False,
                 clock: Clock | None = None) -> None:
        self.clock = clock or _default_clock
        self._write_lock = threading.Lock()
        # serializes building a record with applying a commit to it, so
        # a lazily built record never replaces a newer one
        self._build_lock = threading.Lock()
        self._minted: dict[str, int] = {}  # suffix -> its minted frame
        # suffix -> (seq, op) of every other frame naming it
        self._later: dict[str, list[tuple[int, str]]] = {}
        self._records: dict[str, MinidRecord] = {}
        undecided: list[int] = []

        def scan(seq: int, payload: bytes) -> None:
            keys = _op_and_suffix(payload)
            if keys is None:
                undecided.append(seq)
            else:
                self._note(seq, *keys)

        self.store = EventLog(path, read_only=read_only, on_frame=scan)
        try:
            for seq in undecided:
                event = self.store.event(seq)
                op, suffix = event.get("op"), event.get("suffix")
                if op not in _OPS.values() or not isinstance(suffix, str):
                    raise StoreError(
                        f"event {seq} of {self.store.path} has operation "
                        f"{op!r} and suffix {suffix!r}")
                self._note(seq, op, suffix)
        except BaseException:
            self.store.close()
            raise

    @classmethod
    def open(cls, path: Path, *, read_only: bool = False,
             clock: Clock | None = None) -> "Registry":
        return cls(path, read_only=read_only, clock=clock)

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "Registry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._minted)

    def _note(self, seq: int, op: str, suffix: str) -> None:
        if op == MINTED and suffix not in self._minted:
            self._minted[suffix] = seq
        else:
            self._later.setdefault(suffix, []).append((seq, op))

    def _build(self, suffix: str) -> MinidRecord:
        frames = list(self._later.get(suffix, ()))
        if suffix in self._minted:
            frames.append((self._minted[suffix], MINTED))
        record = None
        for seq, op in sorted(frames):
            event = self.store.event(seq)
            if event.get("op") != op or event.get("suffix") != suffix:
                raise StoreError(
                    f"event {seq} of {self.store.path} is not the {op} "
                    f"event for {suffix} that the open found")
            try:
                record = _applied(record, event)
            except (KeyError, TypeError, ValueError, CuflinksError) as exc:
                detail = (f"it has no field {exc}"
                          if isinstance(exc, KeyError) else exc)
                raise StoreError(
                    f"event {seq} of {self.store.path} cannot be applied: "
                    f"{detail}") from exc
        return record

    def _record(self, suffix: str) -> MinidRecord | None:
        """The record behind suffix, built on first use; None if unknown."""
        record = self._records.get(suffix)
        if record is None and (suffix in self._minted
                               or suffix in self._later):
            with self._build_lock:
                record = self._records.get(suffix)
                if record is None:
                    record = self._records[suffix] = self._build(suffix)
        return record

    # --- reads ----------------------------------------------------------

    def resolve(self, identifier: str) -> MinidRecord:
        record = self._record(parse_identifier(identifier))
        if record is None:
            raise NotFoundError(f"{identifier} is not minted here")
        return record

    # --- writes ---------------------------------------------------------

    def _commit(self, event: dict) -> MinidRecord:
        """Append the event durably, apply it, return the changed record.

        Callers hold the write lock. The append's fsync happens before
        the build lock is taken, so reads never wait for it.
        """
        seq = self.store.append(event)
        suffix = event["suffix"]
        with self._build_lock:
            self._note(seq, event["op"], suffix)
            record = self._records.get(suffix)
            if record is not None or event["op"] == MINTED:
                self._records[suffix] = _applied(record, event)
        return self._record(suffix)

    def mint(self, author: str, title: str, locations: tuple[str, ...] |
             list[str], checksum: Checksum) -> MinidRecord:
        locations = tuple(locations)
        if not locations:
            raise ValueError("at least one location is required")
        _require_absolute(locations)
        if not author or not title:
            raise ValueError("author and title are required")
        if checksum.algorithm != "sha256":
            raise ValueError("identifiers are bound to sha256 checksums")
        with self._write_lock:
            suffix = new_suffix()
            for _ in range(_MINT_ATTEMPTS):
                if suffix not in self._minted and suffix not in self._later:
                    break
                suffix = new_suffix()
            else:
                raise RegistryError("could not find a free suffix")
            event = {
                "op": MINTED,
                "suffix": suffix,
                "author": author,
                "created": _timestamp(self.clock),
                "title": title,
                "locations": list(locations),
                "checksum": checksum.to_json(),
            }
            _require_fits(_applied(None, event), MAX_RECORD_BYTES)
            return self._commit(event)

    def update_locations(self, identifier: str, add: tuple[str, ...] = (),
                         remove: tuple[str, ...] = (), *,
                         actor: str = "") -> MinidRecord:
        with self._write_lock:
            record = self.resolve(identifier)
            if record.status != ACTIVE:
                raise RegistryError(
                    f"{identifier} is {record.status}; locations are frozen")
            add = tuple(dict.fromkeys(add))
            remove = tuple(dict.fromkeys(remove))
            _require_absolute(add)
            current = list(record.locations)
            for location in remove:
                if location not in current:
                    raise RegistryError(
                        f"{identifier} has no location {location!r}")
            outcome = [loc for loc in current if loc not in remove]
            outcome.extend(loc for loc in add if loc not in current)
            if not outcome:
                raise RegistryError(
                    f"update would leave {identifier} with no locations")
            _require_fits(record.with_locations(tuple(outcome)),
                          MAX_RECORD_BYTES)
            suffix = parse_identifier(identifier)
            # additions first: every replay prefix keeps >=1 location
            for location in add:
                if location not in current:
                    record = self._commit({
                        "op": "location-added", "suffix": suffix,
                        "location": location, "actor": actor})
            for location in remove:
                record = self._commit({
                    "op": "location-removed", "suffix": suffix,
                    "location": location, "actor": actor})
            return record

    def tombstone(self, identifier: str, *, actor: str = "") -> MinidRecord:
        with self._write_lock:
            record = self.resolve(identifier)
            if record.status == TOMBSTONED:
                return record
            if record.status == SUPERSEDED:
                raise RegistryError(
                    f"{identifier} is superseded; tombstoning would drop "
                    f"the successor pointer")
            # no size check: MAX_RECORD_BYTES left room for the status
            return self._commit({
                "op": "tombstoned", "suffix": parse_identifier(identifier),
                "actor": actor, "at": _timestamp(self.clock)})

    def supersede(self, identifier: str, by: str, *,
                  actor: str = "") -> MinidRecord:
        """Mark identifier as replaced by another identifier.

        The successor is another compact identifier or an external
        authority reference of the form doi:<name>.
        """
        if not (is_valid_identifier(by) or by.startswith("doi:")):
            raise IdentifierError(
                f"successor {by!r} is neither a compact identifier nor "
                f"a doi: reference")
        with self._write_lock:
            record = self.resolve(identifier)
            if record.status != ACTIVE:
                raise RegistryError(
                    f"{identifier} is {record.status}; cannot supersede")
            if by == identifier:
                raise CycleError(
                    f"{identifier} cannot supersede itself",
                    members=(identifier,))
            # follow in-registry successors to keep chains acyclic
            seen = {identifier}
            cursor = by
            while is_valid_identifier(cursor):
                if cursor in seen:
                    raise CycleError(
                        f"supersession cycle through {cursor}",
                        members=tuple(seen))
                seen.add(cursor)
                next_record = self._record(parse_identifier(cursor))
                if next_record is None or next_record.superseded_by is None:
                    break
                cursor = next_record.superseded_by
            _require_fits(replace(record, status=SUPERSEDED,
                                  superseded_by=by), MAX_BODY_BYTES)
            return self._commit({
                "op": "superseded", "suffix": parse_identifier(identifier),
                "by": by, "actor": actor, "at": _timestamp(self.clock)})
