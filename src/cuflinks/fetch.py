"""Holey-bag materialization: download pending entries, verify, commit.

Bytes reach a payload path only after their digest matches every payload
manifest. Downloads stream into a workspace directory inside the bag
root, hashed on their way there, and move into place by atomic rename
once verified, so a crash at any point leaves no partial file at a
manifest path. One exclusive lock file per bag keeps concurrent
materializers out.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from cuflinks.bag import tagfiles
from cuflinks.bag.io import read_bag
from cuflinks.bag.model import Bag, FetchEntry
from cuflinks.bag.tagfiles import parse_fetch, render_fetch
from cuflinks.bag.validate import (FAST, digest_mismatches,
                                   payload_manifest_source, validate_bag)
from cuflinks.errors import (IdentifierError, IntegrityError, LockError,
                             NotFoundError, RegistryError, TransferError,
                             ValidationError)
from cuflinks.hashing import MultiDigester, multi_digest_file
from cuflinks.transfer import SchemeRegistry, Sleeper, fetch_with_retries

__all__ = [
    "FetchEntry",
    "parse_fetch",
    "render_fetch",
    "MaterializationReport",
    "Outcome",
    "materialize",
    # nothing here reads a staged file back any more, but
    # perfbench/spans.py wraps this name until the program emits its
    # own spans (ROADMAP item 1)
    "multi_digest_file",
]

WORKSPACE_DIR = ".bdbag-tmp"
LOCK_FILE = ".bdbag-lock"

FETCHED = "fetched"
DIGEST_MISMATCH = "digest-mismatch"
LENGTH_MISMATCH = "length-mismatch"
TRANSFER_ERROR = "transfer-error"
SKIPPED = "skipped"


@dataclass(frozen=True)
class Outcome:
    path: str
    url: str
    outcome: str
    detail: str = ""


@dataclass(frozen=True)
class MaterializationReport:
    outcomes: tuple[Outcome, ...]

    def count(self, outcome: str) -> int:
        return sum(1 for o in self.outcomes if o.outcome == outcome)

    @property
    def ok(self) -> bool:
        """True when nothing selected for transfer failed."""
        return all(o.outcome in (FETCHED, SKIPPED) for o in self.outcomes)


class _TooLong(Exception):
    """A transfer brought more bytes than its fetch.txt entry declares."""


class _StagingSink:
    """A staging file that hashes the bytes it keeps as they arrive.

    With a declared length it stops a transfer once it holds more
    bytes than that: it keeps length + 1 and raises _TooLong. A rewind
    (seek(0), then truncate()) drops what it holds and starts hashing
    afresh. On a clean exit digests holds the kept bytes' digests.
    """

    def __init__(self, path: Path, algorithms: Iterable[str],
                 length: int | None) -> None:
        self._file = open(path, "wb")
        self._algorithms = tuple(algorithms)
        self._digester = MultiDigester(self._algorithms)
        self._length = length
        self.kept = 0
        self.digests: dict[str, str] = {}

    def write(self, data: bytes) -> int:
        if self._length is not None:
            data = data[:self._length + 1 - self.kept]
        kept = self._file.write(data)
        self._digester.update(data)
        self.kept += kept
        if self._length is not None and self.kept > self._length:
            raise _TooLong
        return kept

    def seek(self, offset: int) -> int:
        return self._file.seek(offset)

    def truncate(self) -> int:
        """Drop the bytes past the position, which a rewind has set to
        the start, and restart the hashing there."""
        self._digester.close()
        self._digester = MultiDigester(self._algorithms)
        self.kept = 0
        return self._file.truncate()

    def __enter__(self) -> "_StagingSink":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        try:
            if exc_type is None:
                self.digests = self._digester.hexdigests()
        finally:
            self._digester.close()
            self._file.close()


@contextmanager
def _bag_lock(bag_dir: Path):
    lock_path = bag_dir / LOCK_FILE
    handle = open(lock_path, "a+b")
    try:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            raise LockError(
                f"bag {bag_dir} is locked by another process "
                f"({lock_path})") from exc
        yield
    finally:
        handle.close()  # releases the lock


def materialize(bag_dir: Path,
                selection: str | tuple[str, ...] | list[str] = "all",
                registry: SchemeRegistry | None = None,
                parallelism: int = 1,
                *,
                sleep: Sleeper = time.sleep) -> MaterializationReport:
    """Fetch pending entries of the bag at ``bag_dir`` and commit them.

    selection is "all" or an explicit collection of in-bag paths. Each
    selected entry ends in exactly one outcome; failures never abort the
    siblings. Successfully fetched entries are dropped from fetch.txt in
    one rewrite after everything settles.
    """
    if registry is None:
        raise ValueError("a scheme registry is required")
    if parallelism < 1:
        raise ValueError("parallelism must be a positive integer")
    bag_dir = Path(bag_dir).resolve()

    with _bag_lock(bag_dir):
        workspace = bag_dir / WORKSPACE_DIR
        if workspace.exists():
            shutil.rmtree(workspace)  # leftovers from a crashed run
        workspace.mkdir()

        bag = read_bag(bag_dir)
        report = validate_bag(bag, level=FAST)
        if not report.ok:
            raise ValidationError(
                f"bag {bag_dir} fails fast validation; fix it before "
                f"materializing", report)

        if selection == "all":
            selected = {entry.path for entry in bag.fetch}
        else:
            selected = set(selection)
            known = {entry.path for entry in bag.fetch}
            unknown = selected - known
            if unknown:
                raise ValueError(
                    f"no fetch entry for selected path(s): "
                    f"{', '.join(sorted(unknown))}")

        # configuration problems surface before the first transfer
        for entry in bag.fetch:
            if entry.path in selected:
                registry.for_url(entry.url)

        def process(entry: FetchEntry) -> Outcome:
            return _materialize_one(entry, bag, bag_dir, workspace, registry,
                                    sleep=sleep)

        todo = [entry for entry in bag.fetch if entry.path in selected]
        outcomes = [Outcome(path=entry.path, url=entry.url, outcome=SKIPPED,
                            detail="not selected")
                    for entry in bag.fetch if entry.path not in selected]
        if todo:
            workers = min(parallelism, len(todo))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                outcomes.extend(pool.map(process, todo))

        fetched = {o.path for o in outcomes if o.outcome == FETCHED}
        if fetched:
            remaining = tuple(e for e in bag.fetch if e.path not in fetched)
            (bag_dir / tagfiles.FETCH_FILENAME).write_bytes(
                render_fetch(remaining))

        shutil.rmtree(workspace, ignore_errors=True)

    return MaterializationReport(
        outcomes=tuple(sorted(outcomes, key=lambda o: o.path)))


def _materialize_one(entry: FetchEntry, bag: Bag, bag_dir: Path,
                     workspace: Path, registry: SchemeRegistry,
                     *, sleep: Sleeper) -> Outcome:
    expected = {alg: manifest[entry.path]
                for alg, manifest in bag.manifests.items()
                if entry.path in manifest}
    if not expected:
        # fast validation already rejects uncovered entries
        return Outcome(entry.path, entry.url, DIGEST_MISMATCH,
                       "no payload manifest covers this path")
    token = hashlib.sha256(entry.path.encode("utf-8")).hexdigest()[:16]
    staging = workspace / f"{token}.part"
    sinks: list[_StagingSink] = []

    def open_sink() -> _StagingSink:
        sinks.append(_StagingSink(staging, expected, entry.length))
        return sinks[-1]

    try:
        fetcher = registry.for_url(entry.url)
        try:
            fetch_with_retries(fetcher, entry.url, open_sink, sleep=sleep)
        except _TooLong:
            return Outcome(entry.path, entry.url, LENGTH_MISMATCH,
                           f"expected {entry.length} bytes, got more")
        except (TransferError, RegistryError, NotFoundError,
                IdentifierError) as exc:
            # identifier-backed URLs can fail at resolution, not just
            # at transfer; both count as failure to obtain the bytes
            return Outcome(entry.path, entry.url, TRANSFER_ERROR, str(exc))
        except IntegrityError as exc:
            # an identifier-backed URL failed its own checksum
            return Outcome(entry.path, entry.url, DIGEST_MISMATCH, str(exc))

        # the sink of the attempt that succeeded, the last one opened
        sink = sinks[-1]
        if entry.length is not None and sink.kept != entry.length:
            return Outcome(
                entry.path, entry.url, LENGTH_MISMATCH,
                f"expected {entry.length} bytes, got {sink.kept}")
        mismatches = digest_mismatches(expected, sink.digests,
                                       payload_manifest_source)
        if mismatches:
            return Outcome(entry.path, entry.url, DIGEST_MISMATCH,
                           "; ".join(mismatches.values()))

        target = bag_dir / entry.path
        target.parent.mkdir(parents=True, exist_ok=True)
        os.replace(staging, target)
        return Outcome(entry.path, entry.url, FETCHED,
                       f"verified against {len(expected)} manifest(s)")
    finally:
        staging.unlink(missing_ok=True)
