"""Single-file serialization of bags and safe extraction."""

import errno
import os
import random
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import warnings
import zipfile
import zlib
from pathlib import Path

import pytest
from click.testing import CliRunner

import cuflinks
from cuflinks.bag import archive as archive_module
from cuflinks.bag import create_bag, extract, serialize, write_bag
from cuflinks.cli import main
from cuflinks.errors import FormatError, IntegrityError, ValidationError

from test_bag import tree_files


@pytest.fixture
def bag_dir(fig3_tree, fixed_clock, tmp_path):
    source, metadata = fig3_tree
    bag = create_bag(source, metadata=metadata, algorithms=("md5",),
                     root_name="demo", clock=fixed_clock)
    return write_bag(bag, tmp_path / "bags")


def test_round_trip_tree_identical(bag_dir, tmp_path):
    archive = serialize(bag_dir)
    assert archive == bag_dir.parent / "demo.zip"
    restored = extract(archive, tmp_path / "restored")
    assert restored.name == "demo"
    assert tree_files(restored) == tree_files(bag_dir)


def test_archive_bytes_are_deterministic(bag_dir, tmp_path):
    first = serialize(bag_dir, tmp_path / "one.zip")
    second = serialize(bag_dir, tmp_path / "two.zip")
    assert first.read_bytes() == second.read_bytes()


def test_archive_member_listing(bag_dir, tmp_path):
    archive = serialize(bag_dir, tmp_path / "demo.zip")
    with zipfile.ZipFile(archive) as handle:
        files = [n for n in handle.namelist() if not n.endswith("/")]
    assert sorted(files) == [f"demo/{name}" for name in [
        "bag-info.txt", "bagit.txt", "data/file1", "data/file2",
        "fetch.txt", "manifest-md5.txt", "metadata/annotations.txt",
        "metadata/manifest.json", "tagmanifest-md5.txt"]]


def test_serialize_requires_valid_bag(bag_dir, tmp_path):
    (bag_dir / "data" / "file1").unlink()
    with pytest.raises(ValidationError) as excinfo:
        serialize(bag_dir, tmp_path / "broken.zip")
    assert not (tmp_path / "broken.zip").exists()
    assert excinfo.value.report.paths("missing") == ("data/file1",)


def test_serialize_refuses_existing_destination(bag_dir, tmp_path):
    target = tmp_path / "demo.zip"
    target.write_bytes(b"occupied")
    with pytest.raises(FileExistsError):
        serialize(bag_dir, target)


@pytest.mark.parametrize("member", [
    "demo/../escape", "/demo/escape", "demo\\..\\escape", "demo/bad\x01name",
], ids=["dotdot", "absolute", "backslash", "control-char"])
def test_extract_refuses_traversal(tmp_path, member):
    evil = tmp_path / "evil.zip"
    with zipfile.ZipFile(evil, "w") as handle:
        handle.writestr("demo/bagit.txt", "x")
        handle.writestr(member, "boom")
    with pytest.raises(FormatError):
        extract(evil, tmp_path / "out")
    assert not (tmp_path / "escape").exists()
    assert not (tmp_path / "out").exists()


def test_extract_requires_single_root(tmp_path):
    double = tmp_path / "double.zip"
    with zipfile.ZipFile(double, "w") as handle:
        handle.writestr("one/bagit.txt", "x")
        handle.writestr("two/bagit.txt", "x")
    with pytest.raises(FormatError):
        extract(double, tmp_path / "out")


def test_extract_refuses_occupied_destination(bag_dir, tmp_path):
    archive = serialize(bag_dir, tmp_path / "demo.zip")
    parent = tmp_path / "out"
    (parent / "demo").mkdir(parents=True)
    (parent / "demo" / "stale").write_text("old")
    with pytest.raises(FileExistsError):
        extract(archive, parent)


MIB = 1024 * 1024


# The writer's level, spelled out rather than read from the module, so
# that changing it (and with it every archive's bytes) shows up here.
LEVEL = 4


def reference_method(path: Path, level: int = LEVEL) -> int:
    """Stored when a one-shot deflate of the first MiB saves less than a
    tenth of it, else deflated."""
    sample = path.read_bytes()[:MIB]
    compressor = zlib.compressobj(level, zlib.DEFLATED, -15)
    deflated = len(compressor.compress(sample) + compressor.flush())
    if len(sample) - deflated < len(sample) / 10:
        return zipfile.ZIP_STORED
    return zipfile.ZIP_DEFLATED


def zipfile_reference(bag_dir: Path, destination: Path,
                      method=reference_method, level: int = LEVEL) -> Path:
    """The archive as zipfile writes it, member by member, in the order
    and with the settings serialize uses; method(path) picks each
    file's compression, and deflated members get the given level."""
    root = bag_dir.name
    paths = [path for path in sorted(bag_dir.rglob("*"))
             if not path.relative_to(bag_dir).parts[0].startswith(".")]
    with zipfile.ZipFile(destination, "w") as handle:
        for path in paths:
            if path.is_dir():
                rel = path.relative_to(bag_dir).as_posix()
                handle.writestr(zipfile.ZipInfo(
                    f"{root}/{rel}/", date_time=(1980, 1, 1, 0, 0, 0)), b"")
        for path in paths:
            if path.is_file():
                info = zipfile.ZipInfo(
                    f"{root}/{path.relative_to(bag_dir).as_posix()}",
                    date_time=(1980, 1, 1, 0, 0, 0))
                # writestr's own level: before 3.12, open(info, "w")
                # ignores the ZipFile's compresslevel
                handle.writestr(info, path.read_bytes(), method(path),
                                compresslevel=level)
    return destination


@pytest.fixture
def varied_bag(fixed_clock, tmp_path):
    """Nested directories, an empty file, a non-ASCII name, a member
    that outgrows the in-memory spool, random members over, under and
    at one MiB, one whose random first MiB precedes compressible rows,
    and many more members than workers."""
    rng = random.Random(7)
    source = tmp_path / "varied"
    (source / "a" / "b" / "c").mkdir(parents=True)
    (source / "empty.txt").write_bytes(b"")
    (source / "r\u00e9sum\u00e9-\u540d.txt").write_text("caf\u00e9\n",
                                                  encoding="utf-8")
    (source / "a" / "b" / "c" / "big.bin").write_bytes(
        rng.randbytes(3 * archive_module._SPOOL_CAP)
        + b"row,value\n" * 50_000)
    (source / "random-over.bin").write_bytes(rng.randbytes(MIB + 70_001))
    (source / "random-under.bin").write_bytes(rng.randbytes(300_007))
    (source / "random-mib.bin").write_bytes(rng.randbytes(MIB))
    (source / "random-then-rows.bin").write_bytes(
        rng.randbytes(MIB) + b"row,value\n" * 100_000)
    for index in range(12):
        (source / "a" / f"part-{index:02d}.csv").write_text(
            "".join(f"{index},{rng.random()}\n" for _ in range(500)))
    bag = create_bag(source, algorithms=("sha256",), root_name="varied",
                     clock=fixed_clock)
    return write_bag(bag, tmp_path / "bags")


@pytest.mark.parametrize("parallelism", [1, 2, 4])
def test_archive_bytes_match_zipfile(varied_bag, tmp_path, parallelism):
    reference = zipfile_reference(varied_bag, tmp_path / "reference.zip")
    written = serialize(varied_bag, tmp_path / f"p{parallelism}.zip",
                        parallelism=parallelism)
    assert written.read_bytes() == reference.read_bytes()
    with zipfile.ZipFile(written) as handle:
        assert handle.testzip() is None
        assert len(handle.namelist()) > 4 * parallelism


def test_incompressible_members_are_stored(varied_bag, tmp_path):
    archive = serialize(varied_bag, tmp_path / "varied.zip")
    with zipfile.ZipFile(archive) as handle:
        methods = {info.filename.removeprefix("varied/"):
                   info.compress_type for info in handle.infolist()
                   if not info.is_dir()}
    stored = {name for name, method in methods.items()
              if method == zipfile.ZIP_STORED}
    assert stored == {"bagit.txt", "fetch.txt", "data/empty.txt",
                      "data/r\u00e9sum\u00e9-\u540d.txt",
                      "data/random-over.bin", "data/random-under.bin",
                      "data/random-mib.bin", "data/random-then-rows.bin"}
    assert methods["data/a/b/c/big.bin"] == zipfile.ZIP_DEFLATED
    assert methods["data/a/part-00.csv"] == zipfile.ZIP_DEFLATED
    # only the first MiB decides: this member as a whole would deflate
    # by far more than a tenth, and is stored all the same
    mixed = (varied_bag / "data" / "random-then-rows.bin").read_bytes()
    assert len(zlib.compress(mixed, LEVEL)) < 0.7 * len(mixed)


def test_fully_deflated_archive_still_extracts(varied_bag, tmp_path):
    """Archives from before the stored rule deflate every member at
    level 6."""
    old = zipfile_reference(varied_bag, tmp_path / "old.zip",
                            method=lambda path: zipfile.ZIP_DEFLATED,
                            level=6)
    assert old.read_bytes() != serialize(
        varied_bag, tmp_path / "new.zip").read_bytes()
    restored = extract(old, tmp_path / "restored")
    assert tree_files(restored) == tree_files(varied_bag)


def test_level_6_archive_still_extracts(varied_bag, tmp_path):
    """The writer before level 4 applied the stored rule at level 6."""
    old = zipfile_reference(
        varied_bag, tmp_path / "old.zip",
        method=lambda path: reference_method(path, level=6), level=6)
    with zipfile.ZipFile(old) as handle:
        methods = {info.compress_type for info in handle.infolist()}
    assert methods == {zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED}
    assert old.read_bytes() != serialize(
        varied_bag, tmp_path / "new.zip").read_bytes()
    restored = extract(old, tmp_path / "restored")
    assert tree_files(restored) == tree_files(varied_bag)


def test_at_most_parallelism_spools_open(tmp_path, fixed_clock, monkeypatch):
    source = tmp_path / "many"
    source.mkdir()
    for index in range(200):
        (source / f"f{index:03d}").write_text(f"member {index}\n")
    bag_dir = write_bag(create_bag(source, root_name="many",
                                   clock=fixed_clock), tmp_path / "bags")
    lock, state = threading.Lock(), {"open": 0, "peak": 0}

    class CountedSpool(tempfile.SpooledTemporaryFile):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            with lock:
                state["open"] += 1
                state["peak"] = max(state["peak"], state["open"])

        def close(self):
            if not self.closed:
                with lock:
                    state["open"] -= 1
            super().close()

        def __exit__(self, *exc_info):
            self.close()

    monkeypatch.setattr(tempfile, "SpooledTemporaryFile", CountedSpool)
    serialize(bag_dir, tmp_path / "many.zip", parallelism=2)
    assert state["open"] == 0
    assert 1 <= state["peak"] <= 2


def test_stored_member_spills_nothing(tmp_path, fixed_clock, monkeypatch):
    """An incompressible member is stored without its deflated sample
    ever moving to a temporary file."""
    source = tmp_path / "noise"
    source.mkdir()
    (source / "noise.bin").write_bytes(random.Random(11).randbytes(MIB))
    bag_dir = write_bag(create_bag(source, root_name="noise",
                                   clock=fixed_clock), tmp_path / "bags")
    rollovers = []
    real = tempfile.SpooledTemporaryFile.rollover

    def rollover(self):
        rollovers.append(self)
        real(self)

    monkeypatch.setattr(tempfile.SpooledTemporaryFile, "rollover", rollover)
    archive = serialize(bag_dir, tmp_path / "noise.zip")
    with zipfile.ZipFile(archive) as handle:
        assert handle.getinfo("noise/data/noise.bin").compress_type == \
            zipfile.ZIP_STORED
    assert rollovers == []


def test_members_held_at_once_are_bounded(varied_bag, tmp_path,
                                          monkeypatch):
    """At most parallelism members wait for the writer, a stored one
    holding no more than its one-MiB sample, and every file and spool
    is closed at the end."""
    real, lock = archive_module._deflate, threading.Lock()
    state = {"held": 0, "peak": 0, "sample": 0}
    bodies = []

    def counted(path, spool_dir):
        body = real(path, spool_dir)
        with lock:
            bodies.append(body)
            state["held"] += 1
            state["peak"] = max(state["peak"], state["held"])
            state["sample"] = max(state["sample"],
                                  sum(map(len, body.sample)))
        return body

    def close(body):
        with lock:
            state["held"] -= 1
        real_close(body)

    real_close = archive_module._Body.close
    monkeypatch.setattr(archive_module, "_deflate", counted)
    monkeypatch.setattr(archive_module._Body, "close", close)
    serialize(varied_bag, tmp_path / "varied.zip", parallelism=2)
    assert state["held"] == 0
    assert 1 <= state["peak"] <= 2
    assert state["sample"] == MIB
    assert all(body.source is None or body.source.closed
               for body in bodies)
    assert all(body.spool is None or body.spool.closed for body in bodies)


@pytest.mark.parametrize("change", ["grow", "shrink"])
def test_stored_member_that_changes_size_is_refused(varied_bag, tmp_path,
                                                    monkeypatch, change):
    """A stored member's header is written from the size the file had
    when opened; if reading it ends elsewhere, no archive is made."""
    real = archive_module._deflate
    victim = varied_bag / "data" / "random-over.bin"

    def changing(path, spool_dir):
        body = real(path, spool_dir)
        if path == victim:
            assert body.method == zipfile.ZIP_STORED
            with open(victim, "r+b") as handle:
                if change == "grow":
                    handle.seek(0, os.SEEK_END)
                    handle.write(b"appended")
                else:
                    handle.truncate(MIB + 10)
        return body

    monkeypatch.setattr(archive_module, "_deflate", changing)
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(IntegrityError, match="changed size"):
        serialize(varied_bag, out / "varied.zip")
    assert list(out.iterdir()) == []


def test_zip64_records_read_back(tmp_path):
    """A 3 GiB member at a 5 GiB offset, around a sparse hole: its sizes
    and offset need ZIP64 fields, and so does the central directory."""
    small = archive_module._Member("big/bagit.txt", crc=zlib.crc32(b"abc"),
                                   file_size=3, compress_size=3)
    large = archive_module._Member("big/data/huge.bin", method=8,
                                   crc=0x5678, file_size=3 << 30,
                                   compress_size=(3 << 30) + 5,
                                   offset=5 << 30)
    path = tmp_path / "big.zip"
    with open(path, "wb") as handle:
        handle.write(archive_module._local_header(small) + b"abc")
        handle.seek(large.offset)
        handle.write(archive_module._local_header(large))
        handle.seek(large.compress_size, os.SEEK_CUR)
        handle.write(archive_module._central_directory([small, large],
                                                       handle.tell()))
    with zipfile.ZipFile(path) as handle:
        first, second = handle.infolist()
        assert handle.read(first) == b"abc"
        with handle.open(second):  # the local header parses in place
            pass
    with open(path, "rb") as handle:
        handle.seek(large.offset)
        local = handle.read(30 + len(large.name) + 20)
    assert struct.unpack("<4s2B4HL2L2H", local[:30])[8:] == (
        0xFFFFFFFF, 0xFFFFFFFF, len(large.name), 20)
    assert struct.unpack("<HHQQ", local[-20:]) == (
        1, 16, 3 << 30, (3 << 30) + 5)
    assert (first.header_offset, first.file_size, first.extract_version) \
        == (0, 3, 20)
    assert (second.filename, second.header_offset, second.file_size,
            second.compress_size, second.CRC, second.extract_version) == (
        "big/data/huge.bin", 5 << 30, 3 << 30, (3 << 30) + 5, 0x5678, 45)


def test_killed_archiver_leaves_no_archive(varied_bag, tmp_path):
    script = tmp_path / "stalled_archiver.py"
    script.write_text(
        "import sys, time\n"
        "from pathlib import Path\n"
        "from cuflinks.bag import archive\n"
        "real = archive._deflate\n"
        "def stall(path, spool_dir):\n"
        "    if path.name.startswith('tagmanifest'):\n"
        "        print('stalled', flush=True)\n"
        "        time.sleep(60)\n"
        "    return real(path, spool_dir)\n"
        "archive._deflate = stall\n"
        "archive.serialize(Path(sys.argv[1]), Path(sys.argv[2]))\n",
        encoding="utf-8")
    target = tmp_path / "out" / "varied.zip"
    target.parent.mkdir()
    env = {**os.environ,
           "PYTHONPATH": str(Path(cuflinks.__file__).parents[1])}
    child = subprocess.Popen(
        [sys.executable, str(script), str(varied_bag), str(target)],
        stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(60, child.kill)
    watchdog.start()
    try:
        assert child.stdout.readline().strip() == "stalled"
        [partial] = target.parent.iterdir()
        assert partial.name.startswith(".varied.zip.")
        assert partial.stat().st_size > 0  # earlier members are written
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
    finally:
        watchdog.cancel()
        child.kill()
        child.stdout.close()
    assert child.returncode == -signal.SIGKILL
    assert not target.exists()
    serialize(varied_bag, target)
    assert target.read_bytes() == zipfile_reference(
        varied_bag, tmp_path / "reference.zip").read_bytes()


def test_concurrent_archivers_one_succeeds(bag_dir, tmp_path, monkeypatch):
    target = tmp_path / "out" / "demo.zip"
    target.parent.mkdir()
    barrier = threading.Barrier(2)
    real = archive_module._write_zip

    def together(*args):
        barrier.wait(timeout=30)  # both are past the existence check
        real(*args)

    monkeypatch.setattr(archive_module, "_write_zip", together)
    outcomes = []

    def run():
        try:
            serialize(bag_dir, target)
            outcomes.append("ok")
        except FileExistsError:
            outcomes.append("exists")

    threads = [threading.Thread(target=run) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert sorted(outcomes) == ["exists", "ok"]
    assert [p.name for p in target.parent.iterdir()] == ["demo.zip"]
    with zipfile.ZipFile(target) as handle:
        assert handle.testzip() is None


def _flip_member_byte(archive: Path, name: str) -> None:
    with zipfile.ZipFile(archive) as handle:
        info = handle.getinfo(name)
    data = bytearray(archive.read_bytes())
    start = info.header_offset + 30 + len(info.filename.encode()) \
        + len(info.extra)
    data[start + info.compress_size // 2] ^= 0x40
    archive.write_bytes(bytes(data))


def test_extract_refuses_damaged_member(varied_bag, tmp_path):
    # a stored member has no deflate framing: only its CRC guards it
    for name, method in [("a/b/c/big.bin", zipfile.ZIP_DEFLATED),
                         ("random-over.bin", zipfile.ZIP_STORED)]:
        archive = serialize(varied_bag, tmp_path / f"{method}.zip")
        with zipfile.ZipFile(archive) as handle:
            assert handle.getinfo(f"varied/data/{name}").compress_type \
                == method
        _flip_member_byte(archive, f"varied/data/{name}")
        parent = tmp_path / f"out-{method}"
        with pytest.raises(FormatError, match="damaged archive"):
            extract(archive, parent)
        assert list(parent.iterdir()) == []  # no payload byte was placed

        result = CliRunner().invoke(main, ["bag", "extract", str(archive),
                                           str(tmp_path / f"cli-{method}")])
        assert result.exit_code == 1
        assert result.output.startswith("error: damaged archive")


def _members(archive: Path) -> dict[str, zipfile.ZipInfo]:
    with zipfile.ZipFile(archive) as handle:
        return {info.filename: info for info in handle.infolist()
                if not info.is_dir()}


@pytest.mark.parametrize("cores", [1, 4])
def test_extract_unpacks_largest_first_on_the_usable_cores(
        varied_bag, tmp_path, monkeypatch, cores):
    archive = serialize(varied_bag, tmp_path / "varied.zip")
    members = _members(archive)
    assert len(members) > 4 * cores  # more members than workers
    copies = []
    copy = shutil.copyfileobj

    def recording(source, sink, *args):
        copies.append((threading.get_ident(), source.name))
        return copy(source, sink, *args)

    monkeypatch.setattr(archive_module, "usable_cores", lambda: cores)
    monkeypatch.setattr(shutil, "copyfileobj", recording)
    restored = extract(archive, tmp_path / "restored")
    assert tree_files(restored) == tree_files(varied_bag)
    assert sorted(name for _, name in copies) == sorted(members)
    assert len({thread for thread, _ in copies}) <= cores
    if cores == 1:
        assert [name for _, name in copies] == sorted(
            members, key=lambda name: -members[name].compress_size)


def test_extract_failure_stops_every_worker(varied_bag, tmp_path,
                                            monkeypatch):
    archive = serialize(varied_bag, tmp_path / "varied.zip")
    damaged = "varied/data/a/part-05.csv"
    members = _members(archive)
    assert sum(info.compress_size > members[damaged].compress_size
               for info in members.values()) >= 4
    _flip_member_byte(archive, damaged)
    monkeypatch.setattr(archive_module, "usable_cores", lambda: 4)
    threads = threading.active_count()
    parent = tmp_path / "out"
    with pytest.raises(FormatError, match="damaged archive"):
        extract(archive, parent)
    assert list(parent.iterdir()) == []  # no bag and no staging directory
    assert threading.active_count() == threads


@pytest.mark.parametrize("names", [
    ["demo/bagit.txt", "demo/bagit.txt"],
    ["demo/data/", "demo/data"],
    ["demo/data", "demo/data/"],
    ["demo/data", "demo/data/file"],
], ids=["same-file", "dir-then-file", "file-then-dir", "file-under-file"])
def test_extract_refuses_colliding_members(tmp_path, names):
    clash = tmp_path / "clash.zip"
    with warnings.catch_warnings(), zipfile.ZipFile(clash, "w") as handle:
        warnings.simplefilter("ignore")  # zipfile warns of duplicates
        handle.writestr("demo/manifest-md5.txt", "")
        for name in names:
            handle.writestr(name, "x")
    with pytest.raises(FormatError, match="collides"):
        extract(clash, tmp_path / "out")
    assert not (tmp_path / "out").exists()

    result = CliRunner().invoke(main, ["bag", "extract", str(clash),
                                       str(tmp_path / "cli")])
    assert result.exit_code == 1
    assert list((tmp_path / "cli").iterdir()) == []


@pytest.mark.parametrize("flags, method", [
    (0x1, zipfile.ZIP_STORED),
    (0x20, zipfile.ZIP_DEFLATED),
    (0x40, zipfile.ZIP_STORED),
    (0, zipfile.ZIP_BZIP2),
], ids=["encrypted", "patched", "strongly-encrypted", "bzip2"])
def test_extract_refuses_members_it_cannot_read(tmp_path, flags, method):
    odd = tmp_path / "odd.zip"
    with zipfile.ZipFile(odd, "w") as handle:
        handle.writestr("demo/bagit.txt", "x")
        handle.writestr("demo/data/file", "payload", compress_type=method)
        # zipfile reads the flags of the central directory, written last
        handle.getinfo("demo/data/file").flag_bits |= flags
    with pytest.raises(FormatError, match="'demo/data/file'"):
        extract(odd, tmp_path / "out")
    assert not (tmp_path / "out").exists()

    result = CliRunner().invoke(main, ["bag", "extract", str(odd),
                                       str(tmp_path / "cli")])
    assert result.exit_code == 1
    assert "error:" in result.output
    assert list((tmp_path / "cli").iterdir()) == []


def test_extract_refuses_more_than_the_free_space(bag_dir, tmp_path,
                                                  monkeypatch):
    archive = serialize(bag_dir, tmp_path / "demo.zip")
    declared = sum(info.file_size for info in _members(archive).values())
    free = declared - 1
    monkeypatch.setattr(os, "statvfs", lambda path: os.statvfs_result(
        (4096, 1, 0, 0, free, 0, 0, 0, 0, 255)))
    parent = tmp_path / "out"
    with pytest.raises(OSError) as excinfo:
        extract(archive, parent)
    assert excinfo.value.errno == errno.ENOSPC
    assert f"declare {declared} bytes" in str(excinfo.value)
    assert f"only {free} bytes are free" in str(excinfo.value)
    assert not parent.exists()

    result = CliRunner().invoke(main, ["bag", "extract", str(archive),
                                       str(parent)])
    assert result.exit_code == 3
    assert list(parent.iterdir()) == []

    free = declared
    assert extract(archive, parent).is_dir()


def test_extract_refuses_non_zip(tmp_path):
    bogus = tmp_path / "bogus.zip"
    bogus.write_bytes(b"not a zip archive\n" * 10)
    with pytest.raises(FormatError, match="damaged archive"):
        extract(bogus, tmp_path / "out")
    assert not (tmp_path / "out").exists()
