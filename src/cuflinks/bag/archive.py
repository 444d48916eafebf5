"""ZIP serialization of a bag directory and the inverse extraction.

The archive holds exactly one top-level directory named after the bag.
Extraction refuses anything else, along with member names that would
escape the destination.

Archives are written by a small ZIP writer (PKWARE APPNOTE layout) so
that members can be compressed on several threads. Each worker
compresses one member into a spool; the writer emits the spools in
sorted order, directories first.

A member is deflated at zlib's default level unless deflating its
first MiB (all of it, if shorter) saves less than a tenth of those
bytes; then it is stored (method 0), since deflating it would cost time
and save nothing. The rule reads only the member's own bytes, in the
one pass that compresses it, so the archive's bytes do not depend on
the parallelism. They are those ``zipfile`` writes for the same members
with the same methods: a 1980 timestamp, mode 0600, ZIP64 records only
past the classic limits.
"""

from __future__ import annotations

import os
import secrets
import shutil
import struct
import tempfile
import zipfile
import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from cuflinks.bag.io import read_bag
from cuflinks.bag.model import in_bag_path_problem
from cuflinks.bag.validate import validate_bag
from cuflinks.errors import FormatError, ValidationError
from cuflinks.fileio import create_exclusively
from cuflinks.host import usable_cores

_CHUNK = 64 * 1024
# a member's first bytes, a whole number of chunks, decide its method
_SAMPLE = 1024 * 1024
# deflated bytes a spool keeps in memory before moving to a temp file
_SPOOL_CAP = 256 * 1024

# every member is dated 1980-01-01 00:00:00: bytes depend only on content
_DOS_DATE = (1 << 5) | 1
_DOS_TIME = 0
_MODE_0600 = 0o600 << 16
_STORED, _DEFLATED = 0, 8
_UTF8_NAME = 0x800
_VERSION, _ZIP64_VERSION = 20, 45
_LIMIT = (1 << 31) - 1  # past this a size or offset needs ZIP64
_COUNT_LIMIT = 0xFFFF


@dataclass
class _Member:
    name: str
    method: int = _STORED
    crc: int = 0
    file_size: int = 0
    compress_size: int = 0
    offset: int = 0

    def encoded_name(self) -> tuple[bytes, int]:
        try:
            return self.name.encode("ascii"), 0
        except UnicodeEncodeError:
            return self.name.encode("utf-8"), _UTF8_NAME

    def large(self) -> bool:
        return self.file_size > _LIMIT or self.compress_size > _LIMIT


def _local_header(member: _Member) -> bytes:
    name, flags = member.encoded_name()
    version, sizes, extra = _VERSION, (member.compress_size,
                                       member.file_size), b""
    if member.large():
        version, sizes = _ZIP64_VERSION, (0xFFFFFFFF, 0xFFFFFFFF)
        extra = struct.pack("<HHQQ", 1, 16, member.file_size,
                            member.compress_size)
    return struct.pack(
        "<4s2B4HL2L2H", b"PK\x03\x04", version, 0, flags, member.method,
        _DOS_TIME, _DOS_DATE, member.crc, *sizes, len(name),
        len(extra)) + name + extra


def _central_record(member: _Member) -> bytes:
    name, flags = member.encoded_name()
    sizes, offset = (member.compress_size, member.file_size), member.offset
    wide: list[int] = []  # the ZIP64 extra field's values, in its order
    if member.large():
        wide += [member.file_size, member.compress_size]
        sizes = (0xFFFFFFFF, 0xFFFFFFFF)
    if offset > _LIMIT:
        wide.append(offset)
        offset = 0xFFFFFFFF
    version, extra = _VERSION, b""
    if wide:
        version = _ZIP64_VERSION
        extra = struct.pack(f"<HH{len(wide)}Q", 1, 8 * len(wide), *wide)
    return struct.pack(
        "<4s4B4HL2L5H2L", b"PK\x01\x02", version, 3, version, 0, flags,
        member.method, _DOS_TIME, _DOS_DATE, member.crc, *sizes, len(name),
        len(extra), 0, 0, 0, _MODE_0600, offset) + name + extra


def _central_directory(members: list[_Member], start: int) -> bytes:
    """The central directory at offset start, and the end records."""
    records = b"".join(_central_record(member) for member in members)
    count, size = len(members), len(records)
    tail = b""
    if count > _COUNT_LIMIT or start > _LIMIT or size > _LIMIT:
        tail = struct.pack("<4sQ2H2L4Q", b"PK\x06\x06", 44, _ZIP64_VERSION,
                           _ZIP64_VERSION, 0, 0, count, count, size, start)
        tail += struct.pack("<4sLQL", b"PK\x06\x07", 0, start + size, 1)
        count, size, start = (min(count, _COUNT_LIMIT),
                              min(size, 0xFFFFFFFF), min(start, 0xFFFFFFFF))
    return records + tail + struct.pack(
        "<4s4H2LH", b"PK\x05\x06", 0, 0, count, count, size, start, 0)


def _deflate(path: Path, spool_dir: Path):
    """Compress one file into a new spool: (spool, method, crc, size).

    The method is stored when deflating the file's first _SAMPLE bytes
    (or all of it, if shorter) saves less than a tenth of them, else
    deflated. The sample's raw chunks are kept until that is known, so
    no byte is read twice.
    """
    spool = tempfile.SpooledTemporaryFile(_SPOOL_CAP, dir=spool_dir)
    try:
        compressor = zlib.compressobj(6, zlib.DEFLATED, -15)
        crc = size = 0
        sample: list[bytes] = []
        with open(path, "rb") as source:
            while size < _SAMPLE and (chunk := source.read(_CHUNK)):
                size += len(chunk)
                crc = zlib.crc32(chunk, crc)
                sample.append(chunk)
                spool.write(compressor.compress(chunk))
            # the sample deflates to what is spooled plus what a flush
            # would add; a copy leaves the stream open for the rest
            deflated = spool.tell() + len(compressor.copy().flush())
            stored = 10 * deflated > 9 * size
            if stored:
                spool.seek(0)
                spool.truncate()
                spool.writelines(sample)
            del sample
            while chunk := source.read(_CHUNK):
                size += len(chunk)
                crc = zlib.crc32(chunk, crc)
                spool.write(chunk if stored else compressor.compress(chunk))
        if not stored:
            spool.write(compressor.flush())
    except BaseException:
        spool.close()
        raise
    return spool, _STORED if stored else _DEFLATED, crc, size


def _write_zip(handle, root: str, directories: list[str],
               files: list[tuple[str, Path]], parallelism: int,
               spool_dir: Path) -> None:
    members: list[_Member] = []

    def put(member: _Member, spool=None) -> None:
        member.offset = handle.tell()
        handle.write(_local_header(member))
        if spool is not None:
            spool.seek(0)
            shutil.copyfileobj(spool, handle, _CHUNK)
        members.append(member)

    for rel in directories:
        put(_Member(f"{root}/{rel}/"))
    # A member is submitted only when the one `window` places ahead of
    # it has been written, so at most `window` spools are ever open.
    # Deflate is CPU-bound, so threads beyond the cores would add only
    # memory: glibc gives each concurrent thread its own malloc arena,
    # and an arena keeps what any later thread grows it to.
    window = max(1, min(parallelism, len(files)))
    pool = ThreadPoolExecutor(min(window, usable_cores()))
    jobs = deque(pool.submit(_deflate, path, spool_dir)
                 for _, path in files[:window])
    try:
        for index, (rel, _) in enumerate(files):
            spool, method, crc, size = jobs.popleft().result()
            with spool:
                put(_Member(f"{root}/{rel}", method, crc, size,
                            spool.tell()), spool)
            if index + window < len(files):
                jobs.append(pool.submit(_deflate, files[index + window][1],
                                        spool_dir))
    finally:
        pool.shutdown(cancel_futures=True)
        for job in jobs:
            if not job.cancelled() and job.exception() is None:
                job.result()[0].close()
    handle.write(_central_directory(members, handle.tell()))


def serialize(bag_dir: Path, destination: Path | None = None, *,
              parallelism: int = 1) -> Path:
    """Archive a fast-valid bag, compressing up to parallelism members
    ahead of the one being written."""
    if parallelism < 1:
        raise ValueError("parallelism must be a positive integer")
    bag_dir = Path(bag_dir).resolve()
    report = validate_bag(read_bag(bag_dir), level="fast")
    if not report.ok:
        raise ValidationError(
            f"bag {bag_dir} fails fast validation; not archiving", report)
    if destination is None:
        destination = bag_dir.parent / f"{bag_dir.name}.zip"
    destination = Path(destination)
    if destination.exists():
        raise FileExistsError(f"archive {destination} already exists")

    directories: list[str] = []
    files: list[tuple[str, Path]] = []
    for path in sorted(bag_dir.rglob("*")):
        rel = path.relative_to(bag_dir).as_posix()
        if rel.split("/", 1)[0].startswith("."):
            continue  # workspace artifacts stay out of archives
        if path.is_dir():
            directories.append(rel)
        elif path.is_file():
            files.append((rel, path))

    with create_exclusively(destination) as handle:
        _write_zip(handle, bag_dir.name, directories, files, parallelism,
                   destination.parent)
    return destination


def extract(archive_path: Path, destination_parent: Path) -> Path:
    """Unpack into destination_parent/<root>, which appears only once
    every member has been read to its end and so passed its CRC check."""
    archive_path = Path(archive_path)
    destination_parent = Path(destination_parent)
    try:
        with zipfile.ZipFile(archive_path) as archive:
            return _extract(archive, archive_path, destination_parent)
    except (zipfile.BadZipFile, zlib.error, EOFError) as exc:
        raise FormatError(f"damaged archive: {exc}",
                          path=str(archive_path)) from exc


def _extract(archive: zipfile.ZipFile, archive_path: Path,
             destination_parent: Path) -> Path:
    names = archive.namelist()
    if not names:
        raise FormatError("archive is empty", path=str(archive_path))
    for name in names:
        # a member name is an in-bag path under the root directory
        problem = in_bag_path_problem(name.removesuffix("/"))
        if problem:
            raise FormatError(f"unsafe member {name!r}: {problem}",
                              path=str(archive_path))
    roots = {name.split("/", 1)[0] for name in names}
    if len(roots) != 1:
        raise FormatError(
            f"archive must contain a single top-level directory, "
            f"found {len(roots)} roots", path=str(archive_path))
    root = roots.pop()
    if any(name != f"{root}/" and not name.startswith(f"{root}/")
           for name in names):
        raise FormatError(
            "archive must contain a single top-level directory",
            path=str(archive_path))

    destination = destination_parent / root
    if destination.exists() and any(destination.iterdir()):
        raise FileExistsError(
            f"destination {destination} already exists and is not empty")
    destination_parent.mkdir(parents=True, exist_ok=True)
    staging = destination_parent / f".{root}.{secrets.token_hex(4)}.tmp"
    staging.mkdir()
    try:
        for name in sorted(names):
            target = staging / name[len(root) + 1:]
            if name.endswith("/"):
                target.mkdir(parents=True, exist_ok=True)
                continue
            target.parent.mkdir(parents=True, exist_ok=True)
            with archive.open(name) as member, open(target, "wb") as sink:
                shutil.copyfileobj(member, sink)
        os.rename(staging, destination)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return destination
