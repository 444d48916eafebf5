"""Identifier syntax, the append-only store, registry semantics, and
content retrieval."""

import hashlib
import json
import os
import struct
import zlib

import pytest

from cuflinks.errors import (CycleError, IdentifierError, IntegrityError,
                             LockError, NotFoundError, RegistryError,
                             StoreError, TransferError)
from cuflinks.minid import (Checksum, EventLog, MinidRecord, Registry,
                            is_valid_identifier, new_suffix,
                            parse_identifier, render_identifier,
                            resolve_to_bytes)
from cuflinks.minid import store

from conftest import FIXED_INSTANT, CountingResolver

SHA = "0" * 64
URL = "http://127.0.0.1:1/content"


# --- identifier syntax --------------------------------------------------

def test_known_identifier_string_is_valid():
    assert parse_identifier("minid:fPTs86M7VTyb") == "fPTs86M7VTyb"
    assert is_valid_identifier("minid:fPTs86M7VTyb")


@pytest.mark.parametrize("bad", [
    "fPTs86M7VTyb",            # missing prefix
    "minid:",                  # empty suffix
    "minid:short",             # under 10 chars
    "minid:" + "a" * 17,       # over 16 chars
    "minid:has-hyphen-x",      # outside base62
    "minid:has space xx",
    "minid:fPTs86M7VTyb\n",    # a final newline is not part of it
    "MINID:fPTs86M7VTyb",      # prefix is case-sensitive
    "doi:10.1234/x",
])
def test_malformed_identifiers(bad):
    assert not is_valid_identifier(bad)
    with pytest.raises(IdentifierError):
        parse_identifier(bad)


def test_render_parse_round_trip():
    for _ in range(20):
        suffix = new_suffix()
        assert len(suffix) == 12
        assert parse_identifier(render_identifier(suffix)) == suffix


def test_record_json_round_trip():
    record = MinidRecord(
        identifier="minid:fPTs86M7VTyb", author="Kyle Chard",
        created="2026-01-15T12:00:00Z", title="TFBS atlas slice",
        locations=(URL,), checksum=Checksum("sha256", SHA),
        status="superseded", superseded_by="doi:10.1234/abc")
    body = record.to_json()
    assert body["status"] == {"state": "superseded", "by": "doi:10.1234/abc"}
    assert set(body) == {"identifier", "author", "created", "title",
                         "locations", "checksum", "status"}
    assert MinidRecord.from_json(body) == record


def test_record_invariants():
    with pytest.raises(ValueError):
        MinidRecord(identifier="minid:fPTs86M7VTyb", author="a",
                    created="t", title="t", locations=(URL,),
                    checksum=Checksum("sha256", SHA), status="active",
                    superseded_by="minid:aaaaaaaaaa")  # successor w/o status
    with pytest.raises(ValueError):
        MinidRecord(identifier="minid:fPTs86M7VTyb", author="a",
                    created="t", title="t", locations=(),
                    checksum=Checksum("sha256", SHA), status="active")


def test_checksum_validation():
    with pytest.raises(ValueError):
        Checksum("sha1", "a" * 40)
    with pytest.raises(ValueError):
        Checksum("sha256", "Z" * 64)


# --- event log ----------------------------------------------------------

def frame(body: dict) -> bytes:
    payload = json.dumps(body, separators=(",", ":"),
                         sort_keys=True).encode()
    return struct.pack(">II", len(payload),
                       zlib.crc32(payload)) + payload


def events(log: EventLog) -> list[dict]:
    return [log.event(seq) for seq in range(1, len(log) + 1)]


def test_event_log_round_trip(tmp_path):
    path = tmp_path / "events.log"
    with EventLog(path) as log:
        log.append({"op": "one"})
        log.append({"op": "two"})
    with EventLog(path, read_only=True) as log:
        ops = [event["op"] for event in events(log)]
        seqs = [event["seq"] for event in events(log)]
    assert ops == ["one", "two"]
    assert seqs == [1, 2]


def test_event_log_truncates_torn_tail(tmp_path):
    path = tmp_path / "events.log"
    with EventLog(path) as log:
        log.append({"op": "keep"})
    whole = path.read_bytes()
    path.write_bytes(whole + frame({"op": "torn"})[:7])  # partial frame
    with EventLog(path) as log:
        assert [e["op"] for e in events(log)] == ["keep"]
        log.append({"op": "after"})  # writable again at the cut point
    assert path.read_bytes()[:len(whole)] == whole
    with EventLog(path, read_only=True) as log:
        assert [e["op"] for e in events(log)] == ["keep", "after"]


def test_event_log_replays_a_multi_chunk_log_with_torn_tail(tmp_path):
    path = tmp_path / "events.log"
    bodies = [{"op": "mint", "n": n, "pad": "x" * 1000, "seq": n + 1}
              for n in range(3200)]
    whole = b"".join(frame(body) for body in bodies)
    assert len(whole) > 3 * (1 << 20)  # spans several 1 MiB reads
    path.write_bytes(whole + frame({"op": "torn"})[:-3])
    with EventLog(path, read_only=True) as log:
        assert events(log) == bodies
    assert path.stat().st_size > len(whole)
    with EventLog(path) as log:
        assert events(log) == bodies
    assert path.read_bytes() == whole


def test_event_log_stops_at_crc_corruption(tmp_path):
    path = tmp_path / "events.log"
    with EventLog(path) as log:
        log.append({"op": "good"})
        log.append({"op": "doomed"})
        log.append({"op": "shadowed"})
    data = bytearray(path.read_bytes())
    data[len(frame({"op": "good", "seq": 1})) + 10] ^= 0xFF
    path.write_bytes(bytes(data))
    with EventLog(path, read_only=True) as log:
        assert [e["op"] for e in events(log)] == ["good"]


def test_read_only_log_never_truncates(tmp_path):
    path = tmp_path / "events.log"
    with EventLog(path) as log:
        log.append({"op": "keep"})
    garbage = path.read_bytes() + b"\x00\x01garbage"
    path.write_bytes(garbage)
    with EventLog(path, read_only=True) as log:
        assert [e["op"] for e in events(log)] == ["keep"]
    assert path.read_bytes() == garbage


def test_single_writer_lock(tmp_path):
    path = tmp_path / "events.log"
    with EventLog(path):
        with pytest.raises(LockError):
            EventLog(path)
        with EventLog(path, read_only=True):
            pass  # readers are fine alongside a writer


# --- registry -----------------------------------------------------------

@pytest.fixture
def registry(tmp_path):
    reg = Registry.open(tmp_path / "registry.log",
                        clock=lambda: FIXED_INSTANT)
    yield reg
    reg.close()


def mint(registry, **overrides) -> MinidRecord:
    kwargs = dict(author="tester", title="content",
                  locations=(URL,), checksum=Checksum("sha256", SHA))
    kwargs.update(overrides)
    return registry.mint(**kwargs)


def test_mint_resolve_round_trip(registry):
    record = mint(registry)
    assert registry.resolve(record.identifier) == record
    assert record.created == "2026-01-15T12:00:00Z"
    assert record.status == "active"


def test_mint_validations(registry):
    with pytest.raises(ValueError):
        mint(registry, locations=())
    with pytest.raises(ValueError):
        mint(registry, locations=("relative/path",))
    with pytest.raises(ValueError):
        mint(registry, author="")
    with pytest.raises(ValueError):
        mint(registry, checksum=Checksum("md5", "a" * 32))


def test_resolve_unknown(registry):
    with pytest.raises(NotFoundError):
        registry.resolve("minid:fPTs86M7VTyb")
    with pytest.raises(IdentifierError):
        registry.resolve("minid:nope")


def test_index_survives_reopen(tmp_path):
    path = tmp_path / "registry.log"
    with Registry.open(path) as registry:
        identifiers = {mint(registry).identifier for _ in range(50)}
    with Registry.open(path, read_only=True) as registry:
        assert len(registry) == len(identifiers)
        for identifier in identifiers:
            assert registry.resolve(identifier).status == "active"


class FaultyWrites:
    """Stands in for ``os`` inside the store. Once armed, one write stores
    half its bytes; the write after it stores the rest, or raises ENOSPC
    when ``then_fail`` is set."""

    def __init__(self, then_fail: bool) -> None:
        self.armed = False
        self.then_fail = then_fail
        self.halves = 0

    def __getattr__(self, name):
        return getattr(os, name)

    def write(self, fd, data):
        if not self.armed:
            return os.write(fd, data)
        if self.halves:
            self.armed = False
            if self.then_fail:
                raise OSError(28, "No space left on device")
            return os.write(fd, data)
        self.halves += 1
        return os.write(fd, bytes(data[:len(data) // 2]))


def test_short_write_loses_no_acknowledged_mint(tmp_path, monkeypatch):
    faulty = FaultyWrites(then_fail=False)
    monkeypatch.setattr(store, "os", faulty)
    path = tmp_path / "registry.log"
    with Registry.open(path) as registry:
        first = mint(registry).identifier
        faulty.armed = True
        second = mint(registry).identifier
        third = mint(registry).identifier
    assert faulty.halves == 1 and not faulty.armed
    with Registry.open(path, read_only=True) as registry:
        assert len(registry) == 3
        for identifier in (first, second, third):
            assert registry.resolve(identifier).status == "active"


def test_failed_append_leaves_the_log_as_it_was(tmp_path, monkeypatch):
    faulty = FaultyWrites(then_fail=True)
    monkeypatch.setattr(store, "os", faulty)
    path = tmp_path / "registry.log"
    with Registry.open(path) as registry:
        first = mint(registry).identifier
        size = path.stat().st_size
        faulty.armed = True
        with pytest.raises(StoreError):
            mint(registry)
        assert faulty.halves == 1
        assert path.stat().st_size == size
        assert len(registry) == 1
        last = mint(registry).identifier
    with Registry.open(path, read_only=True) as registry:
        assert len(registry) == 2
        for identifier in (first, last):
            assert registry.resolve(identifier).status == "active"


def test_append_that_cannot_be_undone_stops_the_writer(tmp_path,
                                                        monkeypatch):
    def refuse(fd, length):
        raise OSError(5, "Input/output error")

    faulty = FaultyWrites(then_fail=True)
    faulty.ftruncate = refuse
    monkeypatch.setattr(store, "os", faulty)
    path = tmp_path / "registry.log"
    with Registry.open(path) as registry:
        first = mint(registry).identifier
        faulty.armed = True
        with pytest.raises(StoreError):
            mint(registry)
        with pytest.raises(StoreError):  # nothing lands behind the tear
            mint(registry)
        assert registry.resolve(first).status == "active"
    monkeypatch.undo()
    with Registry.open(path) as registry:  # the next writer drops it
        assert len(registry) == 1
        assert registry.resolve(first).status == "active"


def test_update_locations(registry):
    record = mint(registry)
    updated = registry.update_locations(record.identifier,
                                        add=("https://mirror.org/x",),
                                        actor="tester")
    assert updated.locations == (URL, "https://mirror.org/x")
    updated = registry.update_locations(record.identifier, remove=(URL,),
                                        actor="tester")
    assert updated.locations == ("https://mirror.org/x",)
    with pytest.raises(RegistryError):
        registry.update_locations(record.identifier, remove=(URL,),
                                  actor="tester")  # no longer present
    with pytest.raises(RegistryError):
        registry.update_locations(
            record.identifier, remove=("https://mirror.org/x",),
            actor="tester")  # would leave none


def test_update_requires_active(registry):
    record = mint(registry)
    registry.tombstone(record.identifier, actor="tester")
    with pytest.raises(RegistryError):
        registry.update_locations(record.identifier,
                                  add=("https://mirror.org/x",),
                                  actor="tester")


def test_tombstone(registry):
    record = mint(registry)
    gone = registry.tombstone(record.identifier, actor="tester")
    assert gone.status == "tombstoned"
    assert gone.checksum == record.checksum  # fixity claim survives
    again = registry.tombstone(record.identifier, actor="tester")
    assert again.status == "tombstoned"  # idempotent


def test_supersede(registry):
    old = mint(registry)
    new = mint(registry, title="v2")
    updated = registry.supersede(old.identifier, new.identifier,
                                 actor="tester")
    assert updated.status == "superseded"
    assert updated.superseded_by == new.identifier
    doi = registry.supersede(new.identifier, "doi:10.5281/zenodo.123",
                             actor="tester")
    assert doi.superseded_by == "doi:10.5281/zenodo.123"


def test_supersede_rejects_cycles(registry):
    a = mint(registry)
    b = mint(registry)
    registry.supersede(a.identifier, b.identifier, actor="t")
    with pytest.raises(CycleError):
        registry.supersede(b.identifier, a.identifier, actor="t")
    with pytest.raises(CycleError):
        registry.supersede(b.identifier, b.identifier, actor="t")


def test_supersede_rejects_junk_successor(registry):
    record = mint(registry)
    with pytest.raises(IdentifierError):
        registry.supersede(record.identifier, "urn:other:thing", actor="t")


def test_tombstoned_record_still_resolves(registry):
    record = mint(registry)
    registry.tombstone(record.identifier, actor="tester")
    resolved = registry.resolve(record.identifier)
    assert resolved.status == "tombstoned"
    assert resolved.checksum == record.checksum


def test_records_are_immutable(registry):
    record = mint(registry)
    with pytest.raises(AttributeError):
        record.title = "renamed"


# --- content retrieval --------------------------------------------------

def mint_served(registry, file_server, path, body) -> MinidRecord:
    return mint(registry, locations=(file_server.add(path, body),),
                checksum=Checksum("sha256", hashlib.sha256(body).hexdigest()))


def test_resolve_to_bytes_resolves_without_a_record(registry, file_server,
                                                    schemes):
    record = mint_served(registry, file_server, "/blob", b"blob bytes\n")
    resolver = CountingResolver(registry)
    content, returned = resolve_to_bytes(record.identifier, resolver,
                                         schemes)
    assert content == b"blob bytes\n"
    assert returned == record
    assert resolver.calls == [record.identifier]


def test_resolve_to_bytes_trusts_a_given_record(registry, file_server,
                                                schemes):
    record = mint_served(registry, file_server, "/blob", b"blob bytes\n")
    resolver = CountingResolver(registry)
    content, _ = resolve_to_bytes(record.identifier, resolver,
                                  schemes, record=record)
    assert content == b"blob bytes\n"
    assert resolver.calls == []

    tombstoned = registry.tombstone(record.identifier, actor="tester")
    file_server.requests.clear()
    with pytest.raises(RegistryError, match="tombstoned"):
        resolve_to_bytes(record.identifier, resolver, schemes,
                         record=tombstoned)
    assert resolver.calls == []
    assert file_server.requests == []


@pytest.mark.parametrize("served", [False, True],
                         ids=["none-tried", "one-failed-transfer"])
def test_every_location_failing_names_whether_one_was_tried(
        registry, file_server, schemes, served):
    """Only a failed transfer might pass on a retry, so only then is the
    failure a TransferError."""
    locations = ["ftp://e.org/blob", "minid:zzzzzzzzzzzz"]
    if served:
        locations.append(file_server.url("/missing"))
    record = mint(registry, locations=tuple(locations))
    error = TransferError if served else RegistryError
    with pytest.raises(error, match="every location failed") as excinfo:
        resolve_to_bytes(record.identifier, registry, schemes)
    assert type(excinfo.value) is error


def test_download_replaces_destination_whole(registry, file_server,
                                             tmp_path, monkeypatch, schemes):
    record = mint_served(registry, file_server, "/blob", b"new bytes\n")
    target = tmp_path / "out" / "blob.bin"
    target.parent.mkdir()
    target.write_bytes(b"old bytes\n")

    def crash(source, destination):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="simulated crash"):
        resolve_to_bytes(record.identifier, registry, schemes,
                         destination=target)
    assert target.read_bytes() == b"old bytes\n"
    assert os.listdir(target.parent) == ["blob.bin"]

    monkeypatch.undo()
    content, _ = resolve_to_bytes(record.identifier, registry,
                                  schemes, destination=target)
    assert content is None
    assert target.read_bytes() == b"new bytes\n"
    assert os.listdir(target.parent) == ["blob.bin"]


def test_download_of_mismatched_content_creates_no_file(registry,
                                                        file_server,
                                                        tmp_path, schemes):
    record = mint_served(registry, file_server, "/blob", b"registered\n")
    file_server.content["/blob"] = b"swapped\n"
    target = tmp_path / "out" / "blob.bin"
    target.parent.mkdir()
    with pytest.raises(IntegrityError):
        resolve_to_bytes(record.identifier, registry, schemes,
                         destination=target)
    assert os.listdir(target.parent) == []
