"""ZIP serialization of a bag directory and the inverse extraction.

The archive holds exactly one top-level directory named after the bag.
Extraction refuses anything else, along with member names that would
escape the destination or that collide, and archives whose declared
sizes exceed the free space. It unpacks file members on worker threads.

Archives are written by a small ZIP writer (PKWARE APPNOTE layout) so
that members can be compressed on several threads. Each worker reads
one member's first MiB (all of it, if shorter) and deflates it at
zlib level 4 (``_LEVEL``). If that saves less than a tenth of those
bytes the member is stored (method 0), since deflating it would cost
time and save nothing; the writer then copies the file straight into
the archive after its local header and patches the header's CRC once
the last byte is read. Otherwise the worker deflates the rest of the
file into a spool, which the writer copies. The writer emits members
in sorted order, directories first.

Level 4 deflates CSV-like tables in about a third of the time of zlib's
default level 6, for output about 4% larger (1-6% on the other data
measured). The level is a constant and the rule reads only the
member's own bytes, in the one pass that compresses it, so the
archive's bytes do not depend on the parallelism. They are those
``zipfile`` writes for the same members with the same methods at level
4: a 1980 timestamp, mode 0600, ZIP64 records only past the classic
limits. Archives written at level 6 by earlier versions extract as
before, and an archive already minted keeps its checksum, because its
bytes are on disk.
"""

from __future__ import annotations

import errno
import os
import secrets
import shutil
import struct
import tempfile
import threading
import zipfile
import zlib
from collections import deque
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import BinaryIO

from cuflinks.bag.io import read_bag
from cuflinks.bag.model import in_bag_path_problem
from cuflinks.bag.validate import validate_bag
from cuflinks.errors import FormatError, IntegrityError, ValidationError
from cuflinks.fileio import create_exclusively
from cuflinks.host import usable_cores

_CHUNK = 64 * 1024
# the zlib level of every deflated member and of the sample that
# picks a member's method: a constant, so archive bytes stay fixed
_LEVEL = 4
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
# general purpose flags: encrypted, compressed patched data, strong
# encryption
_UNREADABLE = 0x1 | 0x20 | 0x40
_CRC_OFFSET = 14  # of the CRC-32 field within a local header
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


@dataclass
class _Body:
    """What a worker leaves of one file for the writer.

    A deflated member's bytes are all in its spool. A stored member
    keeps the raw chunks read for the sample and the open file, from
    which the writer streams the rest; its crc covers the sample so far
    and its sizes are the file's size when it was opened.
    """
    method: int
    crc: int
    size: int
    compress_size: int
    spool: tempfile.SpooledTemporaryFile | None = None
    sample: list[bytes] = field(default_factory=list)
    source: BinaryIO | None = None

    def close(self) -> None:
        self.sample.clear()
        for handle in (self.spool, self.source):
            if handle is not None:
                handle.close()


def _deflate(path: Path, spool_dir: Path) -> _Body:
    """Read one file's first _SAMPLE bytes, deflating them, and then
    either deflate the rest into a spool or leave it to the writer.

    The member is stored when its sample (the whole file, if shorter)
    deflates by less than a tenth, else deflated. The sample's raw and
    deflated chunks are kept in memory until that is known, so no byte
    is read twice and a stored member never opens a spool.
    """
    source, spool = open(path, "rb"), None
    try:
        opened_size = os.fstat(source.fileno()).st_size
        compressor = zlib.compressobj(_LEVEL, zlib.DEFLATED, -15)
        crc = size = 0
        sample: list[bytes] = []
        deflated: list[bytes] = []
        while size < _SAMPLE and (chunk := source.read(_CHUNK)):
            size += len(chunk)
            crc = zlib.crc32(chunk, crc)
            sample.append(chunk)
            deflated.append(compressor.compress(chunk))
        # the sample deflates to what is held plus what a flush would
        # add; a copy leaves the stream open for the rest
        if 10 * (sum(map(len, deflated))
                 + len(compressor.copy().flush())) > 9 * size:
            return _Body(_STORED, crc, opened_size, opened_size,
                         sample=sample, source=source)
        spool = tempfile.SpooledTemporaryFile(_SPOOL_CAP, dir=spool_dir)
        spool.writelines(deflated)
        del sample, deflated
        while chunk := source.read(_CHUNK):
            size += len(chunk)
            crc = zlib.crc32(chunk, crc)
            spool.write(compressor.compress(chunk))
        spool.write(compressor.flush())
        source.close()
    except BaseException:
        if spool is not None:
            spool.close()
        source.close()
        raise
    return _Body(_DEFLATED, crc, size, spool.tell(), spool=spool)


def _copy_stored(handle, member: _Member, body: _Body) -> None:
    """Stream a stored member's bytes after its local header, which
    carries the sample's CRC, and patch the CRC there if it changed."""
    handle.writelines(body.sample)
    crc, size = body.crc, sum(map(len, body.sample))
    while chunk := body.source.read(_CHUNK):
        size += len(chunk)
        crc = zlib.crc32(chunk, crc)
        handle.write(chunk)
    if size != member.file_size:
        raise IntegrityError(
            f"{body.source.name} changed size while it was being archived",
            expected=str(member.file_size), actual=str(size))
    if crc != member.crc:
        end = handle.tell()
        handle.seek(member.offset + _CRC_OFFSET)
        handle.write(struct.pack("<L", crc))
        handle.seek(end)
        member.crc = crc


def _write_zip(handle, root: str, directories: list[str],
               files: list[tuple[str, Path]], parallelism: int,
               spool_dir: Path) -> None:
    members: list[_Member] = []

    def put(member: _Member) -> None:
        member.offset = handle.tell()
        handle.write(_local_header(member))
        members.append(member)

    for rel in directories:
        put(_Member(f"{root}/{rel}/"))
    # A member is submitted only when the one `window` places ahead of
    # it has been written, so at most `window` members are ever held,
    # each as a spool or as a sample and an open file.
    # Deflate is CPU-bound, so threads beyond the cores would add only
    # memory: glibc gives each concurrent thread its own malloc arena,
    # and an arena keeps what any later thread grows it to.
    window = max(1, min(parallelism, len(files)))
    pool = ThreadPoolExecutor(min(window, usable_cores()))
    jobs = deque(pool.submit(_deflate, path, spool_dir)
                 for _, path in files[:window])
    try:
        for index, (rel, _) in enumerate(files):
            with closing(jobs.popleft().result()) as body:
                member = _Member(f"{root}/{rel}", body.method, body.crc,
                                 body.size, body.compress_size)
                put(member)
                if body.spool is None:
                    _copy_stored(handle, member, body)
                else:
                    body.spool.seek(0)
                    shutil.copyfileobj(body.spool, handle, _CHUNK)
            if index + window < len(files):
                jobs.append(pool.submit(_deflate, files[index + window][1],
                                        spool_dir))
    finally:
        pool.shutdown(cancel_futures=True)
        for job in jobs:
            if not job.cancelled() and job.exception() is None:
                job.result().close()
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
    every member has been read to its end and so passed its CRC check.

    File members are unpacked concurrently, largest first, on as many
    threads as the process has usable cores (at most one per member).
    """
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
    for info in archive.infolist():
        # zipfile would raise RuntimeError or NotImplementedError
        if info.flag_bits & _UNREADABLE:
            raise FormatError(
                f"member {info.filename!r} is encrypted or patched "
                f"(flags {info.flag_bits:#06x})", path=str(archive_path))
        if info.compress_type not in (_STORED, _DEFLATED):
            raise FormatError(
                f"member {info.filename!r} uses compression method "
                f"{info.compress_type}; only stored and deflated members "
                f"are read", path=str(archive_path))
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

    # every directory a member names or lies under, the root included;
    # a file may not share its name with another member or a directory
    directories = {name.removesuffix("/") for name in names
                   if name.endswith("/")}
    for name in names:
        directories.update(map(str, PurePosixPath(name).parents[:-1]))
    taken: set[str] = set()
    for name in names:
        path = name.removesuffix("/")
        if path in taken or (path == name and path in directories):
            raise FormatError(f"member {name!r} collides with another "
                              f"member or a directory of that name",
                              path=str(archive_path))
        taken.add(path)

    destination = destination_parent / root
    if destination.exists() and any(destination.iterdir()):
        raise FileExistsError(
            f"destination {destination} already exists and is not empty")
    # each member stops at its declared size, so their sum bounds the
    # bytes written; the parent may not exist yet
    files = [info for info in archive.infolist() if not info.is_dir()]
    declared = sum(info.file_size for info in files)
    existing = next(path for path in (destination_parent,
                                      *destination_parent.parents)
                    if path.exists())
    stats = os.statvfs(existing)
    free = stats.f_bavail * stats.f_frsize
    if declared > free:
        raise OSError(errno.ENOSPC,
                      f"archive members declare {declared} bytes, but "
                      f"only {free} bytes are free under {existing}")
    destination_parent.mkdir(parents=True, exist_ok=True)
    staging = destination_parent / f".{root}.{secrets.token_hex(4)}.tmp"
    staging.mkdir()
    try:
        for directory in sorted(directories - {root}):
            (staging / directory[len(root) + 1:]).mkdir()
        _unpack(archive, [(info, staging / info.filename[len(root) + 1:])
                          for info in files])
        os.rename(staging, destination)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return destination


def _unpack(archive: zipfile.ZipFile,
            targets: list[tuple[zipfile.ZipInfo, Path]]) -> None:
    """Write each member to its target path, largest first, on worker
    threads that share the open archive: inflating, CRC checks and
    writes release the GIL.

    zipfile counts open members without a lock of its own, so members
    are opened and closed under one lock here. On the first failure no
    further member starts, and the call returns only once every worker
    has stopped.
    """
    lock = threading.Lock()

    def unpack(info: zipfile.ZipInfo, target: Path) -> None:
        with lock:
            member = archive.open(info)
        try:
            with open(target, "wb") as sink:
                shutil.copyfileobj(member, sink)
        finally:
            with lock:
                member.close()

    targets = sorted(targets, key=lambda pair: pair[0].compress_size,
                     reverse=True)
    pool = ThreadPoolExecutor(max(1, min(usable_cores(), len(targets))))
    try:
        jobs = [pool.submit(unpack, *pair) for pair in targets]
        wait(jobs, return_when=FIRST_EXCEPTION)
        for job in jobs:
            if job.done():
                job.result()
    finally:
        pool.shutdown(cancel_futures=True)
