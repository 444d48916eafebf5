"""Holey-bag materialization: download pending entries, verify, commit.

Bytes reach a payload path only after their digest matches every payload
manifest. Downloads land in a workspace directory inside the bag root,
get verified there, and move into place by atomic rename, so a crash at
any point leaves no partial file at a manifest path. One exclusive lock
file per bag keeps concurrent materializers out.
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

from cuflinks.bag import tagfiles
from cuflinks.bag.io import read_bag
from cuflinks.bag.model import Bag, FetchEntry
from cuflinks.bag.tagfiles import parse_fetch, render_fetch
from cuflinks.bag.validate import (FAST, digest_mismatches,
                                   payload_manifest_source, validate_bag)
from cuflinks.errors import (IdentifierError, IntegrityError, LockError,
                             NotFoundError, RegistryError, TransferError,
                             ValidationError)
from cuflinks.hashing import multi_digest_file
from cuflinks.transfer import SchemeRegistry, Sleeper, fetch_with_retries

__all__ = [
    "FetchEntry",
    "parse_fetch",
    "render_fetch",
    "MaterializationReport",
    "Outcome",
    "materialize",
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


class _BoundedSink:
    """A staging file that stops a transfer once it holds more bytes
    than the entry declares: it keeps length + 1 and raises _TooLong."""

    def __init__(self, path: Path, length: int) -> None:
        self._file = open(path, "wb")
        self._room = length + 1

    def write(self, data: bytes) -> int:
        kept = self._file.write(data[:self._room])
        self._room -= kept
        if not self._room:
            raise _TooLong
        return kept

    def __enter__(self) -> "_BoundedSink":
        return self

    def __exit__(self, *exc_info) -> None:
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
    token = hashlib.sha256(entry.path.encode("utf-8")).hexdigest()[:16]
    staging = workspace / f"{token}.part"

    def open_sink():
        if entry.length is None:
            return open(staging, "wb")
        return _BoundedSink(staging, entry.length)

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

        if entry.length is not None:
            actual_length = staging.stat().st_size
            if actual_length != entry.length:
                return Outcome(
                    entry.path, entry.url, LENGTH_MISMATCH,
                    f"expected {entry.length} bytes, got {actual_length}")

        expected = {alg: manifest[entry.path]
                    for alg, manifest in bag.manifests.items()
                    if entry.path in manifest}
        if not expected:
            # fast validation already rejects uncovered entries
            return Outcome(entry.path, entry.url, DIGEST_MISMATCH,
                           "no payload manifest covers this path")
        mismatches = digest_mismatches(
            expected, multi_digest_file(staging, expected),
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
