"""Opening the registry: the frame scan, lazy record builds, and what a
damaged or malformed committed frame turns into."""

import json
import os
import stat
import struct
import tempfile
import threading
import time
import zlib
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from cuflinks.cli import main
from cuflinks.errors import (CycleError, NotFoundError, RegistryError,
                             StoreError)
from cuflinks.minid import Checksum, EventLog, Registry
from cuflinks.minid import store

from conftest import FIXED_INSTANT

SHA = "0" * 64
URL = "http://127.0.0.1:1/content"
MIRROR = "https://mirror.example.org/content"
A, B, C = "AAAAAAAAAAAA", "BBBBBBBBBBBB", "CCCCCCCCCCCC"


def raw_frame(payload: bytes) -> bytes:
    return struct.pack(">II", len(payload), zlib.crc32(payload)) + payload


def event_frame(event: dict) -> bytes:
    return raw_frame(json.dumps(event, sort_keys=True, separators=(",", ":"),
                                ensure_ascii=False).encode("utf-8"))


def write_log(path: Path, events: list[dict]) -> None:
    """Write events as committed frames, numbered from 1."""
    path.write_bytes(b"".join(event_frame(dict(event, seq=seq))
                              for seq, event in enumerate(events, 1)))


def minted(suffix: str, **fields) -> dict:
    event = {"op": "minted", "suffix": suffix, "author": "tester",
             "created": "2026-01-15T12:00:00Z", "title": "content",
             "locations": [URL],
             "checksum": {"algorithm": "sha256", "digest": SHA}}
    event.update(fields)
    return event


def added(suffix: str, location: str) -> dict:
    return {"op": "location-added", "suffix": suffix, "location": location,
            "actor": "tester"}


@pytest.fixture
def decoded(monkeypatch):
    """Sequence numbers passed to the one decode path, in call order."""
    seqs: list[int] = []
    original = EventLog.event

    def counting(self, seq):
        seqs.append(seq)
        return original(self, seq)

    monkeypatch.setattr(EventLog, "event", counting)
    return seqs


def resolve_with_cli(monkeypatch, tmp_path, path, suffix):
    monkeypatch.chdir(tmp_path)
    return CliRunner().invoke(main, ["minid", "resolve", f"minid:{suffix}",
                                     "--store", str(path), "--json"])


# --- the scan and the decode path ---------------------------------------

def test_resolve_decodes_only_the_asked_identifiers_frames(tmp_path,
                                                           decoded):
    path = tmp_path / "registry.log"
    suffixes = [f"{n:012d}" for n in range(19_990)]
    target = suffixes[4321]
    events = [minted(suffix) for suffix in suffixes]
    events += [added(target, f"{MIRROR}/{n}") for n in range(10)]
    write_log(path, events)
    with Registry.open(path, read_only=True) as registry:
        assert len(registry.store) == 20_000
        assert len(registry) == 19_990
        assert decoded == []
        record = registry.resolve(f"minid:{target}")
        assert record.locations == (URL,) + tuple(
            f"{MIRROR}/{n}" for n in range(10))
        assert sorted(decoded) == [4322] + list(range(19_991, 20_001))
        registry.resolve(f"minid:{target}")  # cached from now on
        assert len(decoded) == 11


def test_frames_the_scan_cannot_read_are_decoded_at_open(tmp_path,
                                                         decoded):
    path = tmp_path / "registry.log"
    # "suffix" twice in one frame, and a suffix that is not ASCII
    write_log(path, [minted(A), minted(B, extra={"suffix": C}),
                     added(B, MIRROR), minted("Å" + A[1:])])
    with Registry.open(path, read_only=True) as registry:
        assert sorted(decoded) == [2, 4]
        assert registry.resolve(f"minid:{B}").locations == (URL, MIRROR)
        with pytest.raises(NotFoundError):
            registry.resolve(f"minid:{C}")
        assert len(registry) == 3


def test_frame_that_misleads_the_scan_is_refused(tmp_path):
    path = tmp_path / "registry.log"
    fake = minted(A, extra={"op": "minted", "suffix": A})
    del fake["op"], fake["suffix"]  # only the nested keys are left
    write_log(path, [fake])
    with Registry.open(path, read_only=True) as registry:
        with pytest.raises(StoreError, match="event 1 of .* is not the "
                                             "minted event"):
            registry.resolve(f"minid:{A}")


def test_unknown_operation_is_refused_at_open(tmp_path):
    path = tmp_path / "registry.log"
    write_log(path, [minted(A), {"op": "renamed", "suffix": A}])
    with pytest.raises(StoreError, match="event 2 of .*'renamed'"):
        Registry.open(path, read_only=True)


def test_events_decode_through_the_checked_path(tmp_path):
    path = tmp_path / "events.log"
    write_log(path, [{"op": "one"}])
    path.write_bytes(path.read_bytes() + raw_frame(b'{"op":"two","seq":7}'))
    with EventLog(path, read_only=True) as log:
        assert len(log) == 2
        assert log.event(1) == {"op": "one", "seq": 1}
        with pytest.raises(StoreError, match="event 2 of .*seq 2"):
            log.event(2)
        with pytest.raises(StoreError, match="no event 3"):
            log.event(3)


# --- committed frames are never truncated ---------------------------------

@pytest.mark.parametrize("read_only", [False, True])
def test_undecodable_committed_frame_is_reported_and_kept(tmp_path,
                                                          read_only):
    path = tmp_path / "registry.log"
    path.write_bytes(event_frame(dict(minted(A), seq=1))
                     + raw_frame(b'{"op":"minted","suffix":\xff}')
                     + event_frame(dict(minted(C), seq=3)))
    before = path.read_bytes()
    with pytest.raises(StoreError, match="event 2 of .*not UTF-8 JSON"):
        Registry.open(path, read_only=read_only)
    assert path.read_bytes() == before


def test_cli_reports_an_undecodable_frame_and_exits_3(tmp_path,
                                                      monkeypatch):
    path = tmp_path / "registry.log"
    path.write_bytes(event_frame(dict(minted(A), seq=1))
                     + raw_frame(b"\xff\xfe not json")
                     + event_frame(dict(minted(C), seq=3)))
    before = path.read_bytes()
    result = resolve_with_cli(monkeypatch, tmp_path, path, C)
    assert result.exit_code == 3
    assert "event 2 of" in result.stderr
    assert path.read_bytes() == before


@pytest.mark.parametrize("checksum,problem", [
    ({"algorithm": "sha256"}, "no field 'digest'"),
    ({"algorithm": "sha256", "digest": "zz"}, "hex digest"),
])
def test_malformed_minted_event_exits_3(tmp_path, monkeypatch, checksum,
                                        problem):
    path = tmp_path / "registry.log"
    write_log(path, [minted(A, checksum=checksum)])
    result = resolve_with_cli(monkeypatch, tmp_path, path, A)
    assert result.exit_code == 3, result.output
    assert "event 1 of" in result.stderr
    assert problem in result.stderr


def test_update_before_mint_is_a_store_error(tmp_path):
    path = tmp_path / "registry.log"
    write_log(path, [added(A, MIRROR), minted(A)])
    with Registry.open(path, read_only=True) as registry:
        assert len(registry) == 1
        with pytest.raises(StoreError, match="event 1 of .*before"):
            registry.resolve(f"minid:{A}")


# --- durability of a new log ------------------------------------------------

class RecordingSyncs:
    """Stands in for ``os`` inside the store; notes whether each fsync
    was of a directory."""

    def __init__(self) -> None:
        self.directories: list[bool] = []

    def __getattr__(self, name):
        return getattr(os, name)

    def fsync(self, fd):
        self.directories.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        os.fsync(fd)


def test_creating_a_log_syncs_its_directory_before_appending(tmp_path,
                                                             monkeypatch):
    syncs = RecordingSyncs()
    monkeypatch.setattr(store, "os", syncs)
    path = tmp_path / "events.log"
    with EventLog(path) as log:
        assert syncs.directories == [True]
        log.append({"op": "one"})
    assert syncs.directories == [True, False]
    del syncs.directories[:]
    with EventLog(path) as log:
        log.append({"op": "two"})
    with EventLog(path, read_only=True):
        pass
    assert syncs.directories == [False]


# --- lazy and full replay agree ---------------------------------------------

_OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("mint"), st.just(0), st.just(0)),
    st.tuples(st.just("add"), st.integers(0, 9), st.integers(0, 3)),
    st.tuples(st.just("remove"), st.integers(0, 9), st.integers(0, 3)),
    st.tuples(st.just("tombstone"), st.integers(0, 9), st.just(0)),
    st.tuples(st.just("supersede"), st.integers(0, 9), st.integers(0, 10)),
), min_size=1, max_size=25)


def _run(registry: Registry, operations) -> list[str]:
    """Apply the operations; returns the identifiers minted."""
    minted_ids: list[str] = []
    for name, index, other in operations:
        if name == "mint" or not minted_ids:
            minted_ids.append(registry.mint(
                "tester", "content", (URL,),
                Checksum("sha256", SHA)).identifier)
            continue
        identifier = minted_ids[index % len(minted_ids)]
        location = f"{MIRROR}/{other}"
        try:
            if name == "add":
                registry.update_locations(identifier, add=(location,))
            elif name == "remove":
                registry.update_locations(
                    identifier, remove=(registry.resolve(
                        identifier).locations[other % 2 - 1],))
            elif name == "tombstone":
                registry.tombstone(identifier)
            elif other > 5:
                registry.supersede(identifier, f"doi:10.1234/{other}")
            else:
                registry.supersede(identifier,
                                   minted_ids[other % len(minted_ids)])
        except (RegistryError, CycleError):
            pass  # refused, so nothing was acknowledged
    return minted_ids


@settings(max_examples=60, deadline=None)
@given(operations=_OPERATIONS, tear=st.none() | st.integers(1, 400))
def test_reopened_registry_answers_as_the_live_one(operations, tear):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "registry.log"
        with Registry.open(path, clock=lambda: FIXED_INSTANT) as live:
            acknowledged = {identifier: live.resolve(identifier)
                            for identifier in _run(live, operations)}
            committed = len(live.store)
        whole = path.read_bytes()
        if tear is not None:
            torn = event_frame(dict(minted(A), seq=committed + 1))
            path.write_bytes(whole + torn[:min(tear, len(torn) - 1)])
        for read_only in (True, False, True):
            with Registry.open(path, read_only=read_only) as reopened:
                assert len(reopened) == len(acknowledged)
                for identifier, record in acknowledged.items():
                    assert reopened.resolve(identifier) == record
        assert path.read_bytes() == whole


# --- concurrent builds and commits ----------------------------------------

def test_lazy_build_never_replaces_a_newer_commit(tmp_path, monkeypatch):
    path = tmp_path / "registry.log"
    write_log(path, [minted(A)])
    identifier = f"minid:{A}"
    original = EventLog.event
    building = threading.Event()

    def slow_for_the_reader(self, seq):
        if threading.current_thread().name == "reader":
            building.set()
            time.sleep(0.3)  # a commit lands while this build runs
        return original(self, seq)

    monkeypatch.setattr(EventLog, "event", slow_for_the_reader)
    with Registry.open(path) as registry:
        reader = threading.Thread(target=registry.resolve,
                                  args=(identifier,), name="reader")
        reader.start()
        assert building.wait(timeout=30)
        updated = registry.update_locations(identifier, add=(MIRROR,))
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert updated.locations == (URL, MIRROR)
        assert registry.resolve(identifier) == updated
    with Registry.open(path, read_only=True) as registry:
        assert registry.resolve(identifier) == updated
