"""Append-only JSON-lines ledger of linkage records, hash-chained.

Every line carries ``prev``: the sha256 of the previous line's exact
bytes (genesis lines point at the digest of the empty string). Editing,
reordering, or deleting middle lines therefore breaks the chain in a
detectable way. Chain breaks are diagnostics, not load failures: a
damaged ledger still loads so its content can be inspected, and every
verification report carries the damage.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from cuflinks.errors import (CuflinksError, IdentifierError, LedgerError,
                             NotFoundError)
from cuflinks.fileio import append_durably, locked
from cuflinks.links.records import LinkageRecord, RootRecord
from cuflinks.minid.model import MinidRecord


def _digest(line: bytes) -> str:
    """The prev that the line after this one must carry."""
    return hashlib.sha256(line).hexdigest()


GENESIS_DIGEST = _digest(b"")


def _canonical_line(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


@dataclass(frozen=True)
class LedgerView:
    """Parsed ledger content plus everything suspicious about it."""

    linkages: dict[str, LinkageRecord]      # output identifier -> record
    roots: frozenset[str]
    diagnostics: tuple[str, ...] = ()
    tail: str = GENESIS_DIGEST      # the prev the next line must carry
    torn: bool = False              # the file ends inside a line

    def terminal_outputs(self) -> tuple[str, ...]:
        used_as_input: set[str] = set()
        for record in self.linkages.values():
            used_as_input.update(record.inputs)
        return tuple(sorted(o for o in self.linkages
                            if o not in used_as_input))


@dataclass
class Ledger:
    path: Path

    def __post_init__(self) -> None:
        self.path = Path(self.path)

    def load(self) -> LedgerView:
        linkages: dict[str, LinkageRecord] = {}
        roots: set[str] = set()
        diagnostics: list[str] = []
        tail = GENESIS_DIGEST
        if not self.path.exists():
            return LedgerView(linkages={}, roots=frozenset())
        raw = self.path.read_bytes()
        for number, line in enumerate(raw.split(b"\n"), start=1):
            if not line:
                continue
            prev, tail = tail, _digest(line)
            try:
                body = json.loads(line.decode("utf-8"))
                if not isinstance(body, dict):
                    raise ValueError("not a JSON object")
            except (ValueError, UnicodeDecodeError) as exc:
                diagnostics.append(f"line {number}: unreadable ({exc})")
                continue
            if body.get("prev") != prev:
                diagnostics.append(
                    f"line {number}: hash chain broken (expected prev "
                    f"{prev}, found {body.get('prev')!r})")
            kind = body.get("kind")
            try:
                if kind == "linkage":
                    record = LinkageRecord.from_json(body)
                    if record.output in linkages:
                        diagnostics.append(
                            f"line {number}: second record for output "
                            f"{record.output}; keeping the first")
                        continue
                    linkages[record.output] = record
                elif kind == "root":
                    roots.add(RootRecord.from_json(body).identifier)
                else:
                    diagnostics.append(
                        f"line {number}: unknown record kind {kind!r}")
            except (KeyError, TypeError, CuflinksError, ValueError) as exc:
                diagnostics.append(f"line {number}: malformed {kind!r} "
                                   f"record ({exc})")
        return LedgerView(linkages=linkages, roots=frozenset(roots),
                          diagnostics=tuple(diagnostics), tail=tail,
                          torn=bool(raw) and not raw.endswith(b"\n"))

    def append(self, record: LinkageRecord | RootRecord) -> LedgerView:
        """Append one record under the ledger's exclusive lock.

        An identifier is claimed once, as an output or as a root: a
        record whose identifier is already claimed is refused. Returns
        the view with the record added.
        """
        linkage = isinstance(record, LinkageRecord)
        identifier = record.output if linkage else record.identifier
        with locked(self.path):
            view = self.load()
            if identifier in view.linkages or identifier in view.roots:
                claim = ("the output of a linkage record"
                         if identifier in view.linkages else "a declared root")
                raise LedgerError(f"{identifier} is already {claim}; an "
                                  f"identifier is claimed once")
            line = _canonical_line({**record.to_json(), "prev": view.tail})
            # a torn last line (a crashed writer's partial record) gets
            # its own line back, so the new record is not merged into it
            append_durably(self.path, b"\n" * view.torn + line + b"\n")
        added = replace(view, tail=_digest(line), torn=False)
        if linkage:
            return replace(added, linkages={**view.linkages,
                                            identifier: record})
        return replace(added, roots=view.roots | {identifier})


def now_utc() -> str:
    return (datetime.now(timezone.utc).isoformat(timespec="seconds")
            .replace("+00:00", "Z"))


def record_linkage(ledger: Ledger, record: LinkageRecord, resolver, *,
                   looked_up: dict[str, MinidRecord] | None = None
                   ) -> LedgerView:
    """Append one linkage record after checking it can be honored.

    The output must resolve against the registry, and no earlier record
    may claim the same identifier. The output is resolved before the
    ledger is locked, so no registry call runs under the lock.

    looked_up, when given, receives the output's registry record, so a
    check that follows need not resolve it again.
    """
    try:
        output = resolver.resolve(record.output)
    except (NotFoundError, IdentifierError) as exc:
        raise LedgerError(
            f"output {record.output} does not resolve: {exc}") from exc
    if looked_up is not None:
        looked_up[record.output] = output
    return ledger.append(record)


def declare_root(ledger: Ledger, identifier: str, *, actor: str,
                 clock: Callable[[], str] = now_utc,
                 notes: str | None = None) -> LedgerView:
    """Mark an identifier as a genuinely external input."""
    return ledger.append(RootRecord(identifier=identifier, actor=actor,
                                    declared_at=clock(), notes=notes))
