"""Append-only JSON-lines ledger of linkage records, hash-chained.

Every line carries ``prev``: the sha256 of the previous line's exact
bytes (genesis lines point at the digest of the empty string). Editing,
reordering, or deleting middle lines therefore breaks the chain in a
detectable way. Chain breaks are diagnostics, not load failures: a
damaged ledger still loads so its content can be inspected, and every
verification report carries the damage.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

from cuflinks.errors import (CuflinksError, IdentifierError, LedgerError,
                             NotFoundError)
from cuflinks.links.records import LinkageRecord, RootRecord

GENESIS_DIGEST = hashlib.sha256(b"").hexdigest()


def _canonical_line(body: dict) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


@dataclass(frozen=True)
class LedgerView:
    """Parsed ledger content plus everything suspicious about it."""

    linkages: dict[str, LinkageRecord]      # output identifier -> record
    roots: frozenset[str]
    diagnostics: tuple[str, ...] = ()

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
        expected_prev = GENESIS_DIGEST
        if not self.path.exists():
            return LedgerView(linkages={}, roots=frozenset())
        raw = self.path.read_bytes()
        for number, line in enumerate(raw.split(b"\n"), start=1):
            if not line:
                continue
            try:
                body = json.loads(line.decode("utf-8"))
                if not isinstance(body, dict):
                    raise ValueError("not a JSON object")
            except (ValueError, UnicodeDecodeError) as exc:
                diagnostics.append(f"line {number}: unreadable ({exc})")
                expected_prev = hashlib.sha256(line).hexdigest()
                continue
            if body.get("prev") != expected_prev:
                diagnostics.append(
                    f"line {number}: hash chain broken (expected prev "
                    f"{expected_prev}, found {body.get('prev')!r})")
            expected_prev = hashlib.sha256(line).hexdigest()
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
                          diagnostics=tuple(diagnostics))

    def _append_line(self, body: dict) -> None:
        """Append one record under the ledger's exclusive lock."""
        lock_path = self.path.with_name(self.path.name + ".lock")
        with open(lock_path, "a+b") as lock_handle:
            fcntl.flock(lock_handle, fcntl.LOCK_EX)
            prev = GENESIS_DIGEST
            # a torn last line (a crashed writer's partial record) gets
            # its own line back, so the new record is not merged into it
            separator = b""
            if self.path.exists():
                raw = self.path.read_bytes()
                lines = [l for l in raw.split(b"\n") if l]
                if lines:
                    prev = hashlib.sha256(lines[-1]).hexdigest()
                if raw and not raw.endswith(b"\n"):
                    separator = b"\n"
            payload = dict(body)
            payload["prev"] = prev
            with open(self.path, "ab") as handle:
                handle.write(separator + _canonical_line(payload) + b"\n")
                handle.flush()
                os.fsync(handle.fileno())


def now_utc() -> str:
    return (datetime.now(timezone.utc).isoformat(timespec="seconds")
            .replace("+00:00", "Z"))


def record_linkage(ledger: Ledger, record: LinkageRecord,
                   resolver) -> LedgerView:
    """Append one linkage record after checking it can be honored.

    The output must resolve against the registry, and no earlier record
    may claim the same output.
    """
    view = ledger.load()
    if record.output in view.linkages:
        raise LedgerError(
            f"{record.output} already has a linkage record; outputs get "
            f"exactly one")
    if record.output in view.roots:
        raise LedgerError(
            f"{record.output} is declared a root input; it cannot also "
            f"be a produced output")
    try:
        resolver.resolve(record.output)
    except (NotFoundError, IdentifierError) as exc:
        raise LedgerError(
            f"output {record.output} does not resolve: {exc}") from exc
    ledger._append_line(record.to_json())
    return ledger.load()


def declare_root(ledger: Ledger, identifier: str, *, actor: str,
                 clock: Callable[[], str] = now_utc,
                 notes: str | None = None) -> LedgerView:
    """Mark an identifier as a genuinely external input."""
    record = RootRecord(identifier=identifier, actor=actor,
                        declared_at=clock(), notes=notes)
    view = ledger.load()
    if identifier in view.roots:
        raise LedgerError(f"{identifier} is already declared a root")
    if identifier in view.linkages:
        raise LedgerError(
            f"{identifier} is produced by a linkage record; it is not "
            f"an external root")
    ledger._append_line(record.to_json())
    return ledger.load()
