"""Registry operations over the event log: mint, resolve, update.

The in-memory index is a pure replay of the log. Every mutation appends
its event durably before the index changes, so a crash between the two
loses nothing: replay rebuilds the index from the log.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable
from urllib.parse import urlsplit

from cuflinks.errors import (CycleError, IdentifierError, NotFoundError,
                             RegistryError, StoreError)
from cuflinks.minid.model import (ACTIVE, SUPERSEDED, TOMBSTONED, Checksum,
                                  MinidRecord, is_valid_identifier,
                                  new_suffix, parse_identifier,
                                  render_identifier)
from cuflinks.minid.store import EventLog

Clock = Callable[[], datetime]

_MINT_ATTEMPTS = 16


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


class Registry:
    def __init__(self, store: EventLog, clock: Clock | None = None) -> None:
        self.store = store
        self.clock = clock or _default_clock
        self._write_lock = threading.Lock()
        self._index: dict[str, MinidRecord] = {}
        for event in store.events():
            self._apply(event)

    @classmethod
    def open(cls, path: Path, *, read_only: bool = False,
             clock: Clock | None = None) -> "Registry":
        return cls(EventLog(path, read_only=read_only), clock=clock)

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "Registry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._index)

    def _apply(self, event: dict) -> None:
        op = event.get("op")
        suffix = event.get("suffix")
        if op == "minted":
            self._index[suffix] = MinidRecord(
                identifier=render_identifier(suffix),
                author=event["author"],
                created=event["created"],
                title=event["title"],
                locations=tuple(event["locations"]),
                checksum=Checksum.from_json(event["checksum"]),
            )
        elif op == "location-added":
            record = self._index[suffix]
            if event["location"] not in record.locations:
                self._index[suffix] = record.with_locations(
                    record.locations + (event["location"],))
        elif op == "location-removed":
            record = self._index[suffix]
            self._index[suffix] = record.with_locations(tuple(
                loc for loc in record.locations
                if loc != event["location"]))
        elif op == "tombstoned":
            self._index[suffix] = replace(self._index[suffix],
                                          status=TOMBSTONED)
        elif op == "superseded":
            self._index[suffix] = replace(self._index[suffix],
                                          status=SUPERSEDED,
                                          superseded_by=event["by"])
        else:
            raise StoreError(f"event log contains unknown operation {op!r}")

    # --- reads ----------------------------------------------------------

    def resolve(self, identifier: str) -> MinidRecord:
        suffix = parse_identifier(identifier)
        record = self._index.get(suffix)
        if record is None:
            raise NotFoundError(f"{identifier} is not minted here")
        return record

    def identifiers(self) -> tuple[str, ...]:
        return tuple(render_identifier(s) for s in sorted(self._index))

    # --- writes ---------------------------------------------------------

    def _commit(self, event: dict) -> MinidRecord:
        """Append the event durably, apply it, return the changed record.

        Callers hold the write lock.
        """
        self.store.append(event)
        self._apply(event)
        return self._index[event["suffix"]]

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
                if suffix not in self._index:
                    break
                suffix = new_suffix()
            else:
                raise RegistryError("could not find a free suffix")
            return self._commit({
                "op": "minted",
                "suffix": suffix,
                "author": author,
                "created": _timestamp(self.clock),
                "title": title,
                "locations": list(locations),
                "checksum": checksum.to_json(),
            })

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
                next_record = self._index.get(parse_identifier(cursor))
                if next_record is None or next_record.superseded_by is None:
                    break
                cursor = next_record.superseded_by
            return self._commit({
                "op": "superseded", "suffix": parse_identifier(identifier),
                "by": by, "actor": actor, "at": _timestamp(self.clock)})
