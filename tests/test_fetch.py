"""Materializing holey bags: outcomes, atomicity, locking."""

import fcntl
import threading
from pathlib import Path

import pytest

from cuflinks.bag import create_bag, read_bag, validate_bag, write_bag
from cuflinks.bag.validate import FAST, FETCH_PENDING, FULL
from cuflinks.errors import LockError, SchemeError, ValidationError
from cuflinks.fetch import (DIGEST_MISMATCH, FETCHED, LENGTH_MISMATCH,
                            LOCK_FILE, SKIPPED, TRANSFER_ERROR,
                            WORKSPACE_DIR, materialize)
from cuflinks.minid import MinidFetcher, Registry, checksum_of_file

from conftest import CountingResolver
from test_bag import tree_files


def punch_holes(bag_dir, entries) -> None:
    """Remove payload files and list them in fetch.txt instead."""
    lines = []
    for path, url, length in entries:
        (bag_dir / path).unlink()
        suffix = "-" if length is None else str(length)
        lines.append(f"{url} {suffix} {path}\n")
    with open(bag_dir / "fetch.txt", "ab") as handle:
        handle.write("".join(lines).encode())


@pytest.fixture
def holey_bag(fig3_tree, fixed_clock, tmp_path, file_server):
    """A two-hole bag plus the server really holding the two payloads."""
    source, metadata = fig3_tree
    body1 = (source / "file1").read_bytes()
    body2 = (source / "file2").read_bytes()
    bag = create_bag(source, metadata=metadata,
                     algorithms=("md5", "sha256"), root_name="demo",
                     clock=fixed_clock)
    bag_dir = write_bag(bag, tmp_path / "bags")
    url1 = file_server.add("/file1", body1)
    url2 = file_server.add("/file2", body2)
    punch_holes(bag_dir, [("data/file1", url1, len(body1)),
                          ("data/file2", url2, None)])
    return bag_dir


def outcome_map(report):
    return {o.path: o.outcome for o in report.outcomes}


def bag_files(bag_dir):
    """Tree bytes minus root dot-files (lock and workspace artifacts)."""
    return {path: body for path, body in tree_files(bag_dir).items()
            if not path.startswith(".")}


def test_completeness_check(holey_bag):
    report = validate_bag(read_bag(holey_bag), FAST)
    assert report.paths(FETCH_PENDING) == ("data/file1", "data/file2")


def test_materialize_all(holey_bag, fig3_tree, schemes):
    source, _ = fig3_tree
    report = materialize(holey_bag, registry=schemes)
    assert report.ok
    assert outcome_map(report) == {"data/file1": FETCHED,
                                   "data/file2": FETCHED}
    assert (holey_bag / "data" / "file1").read_bytes() == \
        (source / "file1").read_bytes()
    assert (holey_bag / "fetch.txt").read_bytes() == b""
    assert validate_bag(read_bag(holey_bag), FAST).findings == ()
    assert validate_bag(read_bag(holey_bag), FULL).ok
    assert not (holey_bag / WORKSPACE_DIR).exists()


def test_materialize_selection(holey_bag, schemes):
    report = materialize(holey_bag, selection=("data/file2",),
                         registry=schemes)
    assert outcome_map(report) == {"data/file1": SKIPPED,
                                   "data/file2": FETCHED}
    fetch_text = (holey_bag / "fetch.txt").read_text()
    assert "data/file1" in fetch_text
    assert "data/file2" not in fetch_text


def test_materialize_unknown_selection(holey_bag, schemes):
    with pytest.raises(ValueError):
        materialize(holey_bag, selection=("data/ghost",),
                    registry=schemes)


def test_tampered_content_never_lands(holey_bag, file_server, schemes):
    before = bag_files(holey_bag)
    file_server.content["/file1"] = b"EVIL BYTES, RIGHT LENGTH??"[:19]
    file_server.content["/file2"] = b"ALSO WRONG CONTENT HERE!!!!!"
    report = materialize(holey_bag, registry=schemes)
    assert not report.ok
    outcomes = outcome_map(report)
    assert outcomes["data/file1"] == DIGEST_MISMATCH
    assert outcomes["data/file2"] == DIGEST_MISMATCH
    assert bag_files(holey_bag) == before  # nothing committed
    detail = [o for o in report.outcomes if o.path == "data/file1"][0].detail
    assert "md5" in detail and "sha256" in detail


def test_wrong_length_rejected_before_digest(holey_bag, file_server, schemes):
    file_server.content["/file1"] = b"short"
    report = materialize(holey_bag, selection=("data/file1",),
                         registry=schemes)
    assert outcome_map(report)["data/file1"] == LENGTH_MISMATCH
    assert not (holey_bag / "data" / "file1").exists()


def test_overlong_body_stops_past_the_declared_length(holey_bag, file_server,
                                                     schemes, monkeypatch):
    declared = len(file_server.content["/file1"])
    file_server.content["/file1"] = b"x" * (4 * 1024 * 1024)
    staged = []
    unlink = Path.unlink

    def recording_unlink(path, missing_ok=False):
        if path.suffix == ".part" and path.exists():
            staged.append(path.stat().st_size)
        unlink(path, missing_ok=missing_ok)

    monkeypatch.setattr(Path, "unlink", recording_unlink)
    report = materialize(holey_bag, registry=schemes)
    outcomes = outcome_map(report)
    assert outcomes["data/file1"] == LENGTH_MISMATCH
    assert outcomes["data/file2"] == FETCHED
    assert staged == [declared + 1]
    assert file_server.requests == ["/file1", "/file2"]  # no retry
    # the connection left mid-body is closed, not used again
    assert len(set(file_server.peers)) == 2


def test_transfer_failure_retries_then_reports(holey_bag, file_server,
                                               schemes):
    file_server.fail_next["/file1"] = 99
    sleeps = []
    report = materialize(holey_bag, registry=schemes,
                         sleep=sleeps.append)
    outcomes = outcome_map(report)
    assert outcomes["data/file1"] == TRANSFER_ERROR
    assert outcomes["data/file2"] == FETCHED
    assert sleeps == [0.5, 1.0]
    assert file_server.requests.count("/file1") == 3
    # the failed entry stays pending; the fetched one is gone
    fetch_text = (holey_bag / "fetch.txt").read_text()
    assert "data/file1" in fetch_text
    assert "data/file2" not in fetch_text


def test_flaky_server_recovers_within_retries(holey_bag, file_server, schemes):
    file_server.fail_next["/file1"] = 2
    report = materialize(holey_bag, registry=schemes,
                         sleep=lambda _: None)
    assert report.ok


def test_unregistered_scheme_fails_before_any_transfer(
        tmp_path, fixed_clock, file_server, schemes):
    source = tmp_path / "source"
    source.mkdir()
    for name in ("a", "b", "c"):
        (source / name).write_bytes(name.encode() * 3)
    bag_dir = write_bag(create_bag(source, clock=fixed_clock,
                                   root_name="demo"), tmp_path / "bags")
    punch_holes(bag_dir, [
        ("data/a", file_server.add("/a", b"aaa"), 3),
        ("data/b", file_server.add("/b", b"bbb"), 3),
        ("data/c", "globus://endpoint/c", 3),
    ])
    with pytest.raises(SchemeError):
        materialize(bag_dir, registry=schemes)
    assert file_server.requests == []  # pre-check beat every transfer


def test_invalid_bag_refused(holey_bag, schemes):
    (holey_bag / "data" / "intruder").write_bytes(b"?")
    with pytest.raises(ValidationError):
        materialize(holey_bag, registry=schemes)


def test_lock_contention(holey_bag, schemes):
    lock_path = holey_bag / LOCK_FILE
    handle = open(lock_path, "w")
    fcntl.flock(handle, fcntl.LOCK_EX)
    try:
        with pytest.raises(LockError):
            materialize(holey_bag, registry=schemes)
    finally:
        fcntl.flock(handle, fcntl.LOCK_UN)
        handle.close()


def test_materialize_nothing_pending(fig3_tree, fixed_clock, tmp_path,
                                     schemes):
    source, _ = fig3_tree
    bag_dir = write_bag(create_bag(source, clock=fixed_clock,
                                   root_name="full"), tmp_path / "bags")
    report = materialize(bag_dir, registry=schemes)
    assert report.ok and report.outcomes == ()


def test_parallel_materialize(holey_bag, schemes):
    report = materialize(holey_bag, registry=schemes,
                         parallelism=4)
    assert report.ok


def test_identifier_backed_entry(fig3_tree, fixed_clock, tmp_path,
                                 file_server, schemes):
    """fetch.txt can point at an identifier instead of a raw URL; the
    identifier's own checksum is enforced on top of the manifests."""
    source, metadata = fig3_tree
    body = (source / "file1").read_bytes()
    bag = create_bag(source, metadata=metadata, root_name="demo",
                     clock=fixed_clock)
    bag_dir = write_bag(bag, tmp_path / "bags")

    url = file_server.add("/file1", body)
    registry = Registry.open(tmp_path / "registry.log")
    record = registry.mint("tester", "file one", (url,),
                           checksum_of_file(source / "file1"))
    punch_holes(bag_dir, [("data/file1", record.identifier, len(body))])

    schemes.register("minid", MinidFetcher(registry, schemes))
    report = materialize(bag_dir, registry=schemes)
    assert report.ok
    assert (bag_dir / "data" / "file1").read_bytes() == body

    registry.close()


def test_identifier_checksum_mismatch_is_integrity_failure(
        fig3_tree, fixed_clock, tmp_path, file_server, schemes):
    """The registry's checksum and the bag manifests are two independent
    gates; content failing the registry one is a digest mismatch even
    when the server matches what the bag expects."""
    source, metadata = fig3_tree
    body = (source / "file1").read_bytes()
    bag = create_bag(source, metadata=metadata, root_name="demo",
                     clock=fixed_clock)
    bag_dir = write_bag(bag, tmp_path / "bags")

    url = file_server.add("/file1", body)
    registry = Registry.open(tmp_path / "registry.log")
    from cuflinks.minid.model import Checksum
    record = registry.mint("tester", "file one", (url,),
                           Checksum("sha256", "f" * 64))  # wrong claim
    punch_holes(bag_dir, [("data/file1", record.identifier, len(body))])

    schemes.register("minid", MinidFetcher(registry, schemes))
    report = materialize(bag_dir, registry=schemes, sleep=lambda _: None)
    assert outcome_map(report)["data/file1"] == DIGEST_MISMATCH
    assert not (bag_dir / "data" / "file1").exists()

    registry.close()


def test_identifier_location_without_fetcher_is_a_failed_transfer(
        fig3_tree, fixed_clock, tmp_path, file_server, schemes):
    """A location no fetcher serves fails like a refused transfer: the
    entry ends as a transfer error, its sibling still lands, and the
    bag stays valid for the next run."""
    source, metadata = fig3_tree
    bag = create_bag(source, metadata=metadata, root_name="demo",
                     clock=fixed_clock)
    bag_dir = write_bag(bag, tmp_path / "bags")
    body1 = (source / "file1").read_bytes()
    body2 = (source / "file2").read_bytes()
    registry = Registry.open(tmp_path / "registry.log")
    record = registry.mint("tester", "file two", ("ftp://e.org/file2",),
                           checksum_of_file(source / "file2"))
    punch_holes(bag_dir, [
        ("data/file1", file_server.add("/file1", body1), len(body1)),
        ("data/file2", record.identifier, len(body2))])

    schemes.register("minid", MinidFetcher(registry, schemes))
    report = materialize(bag_dir, registry=schemes, sleep=lambda _: None)
    registry.close()
    assert outcome_map(report) == {"data/file1": FETCHED,
                                   "data/file2": TRANSFER_ERROR}
    assert "ftp" in {o.path: o.detail for o in report.outcomes}["data/file2"]
    assert (bag_dir / "data/file1").read_bytes() == body1
    assert validate_bag(read_bag(bag_dir), FAST).ok


@pytest.mark.parametrize("location", ["ftp://e.org/file1",
                                      "minid:zzzzzzzzzzzz"],
                         ids=["no-fetcher", "unknown-identifier"])
def test_identifier_with_no_location_to_try_is_not_retried(
        fig3_tree, fixed_clock, tmp_path, schemes, location):
    """When no location of an identifier can even be tried, another
    attempt would fail the same way: the entry fails at once."""
    source, metadata = fig3_tree
    bag_dir = write_bag(create_bag(source, metadata=metadata,
                                   root_name="demo", clock=fixed_clock),
                        tmp_path / "bags")
    body = (source / "file1").read_bytes()
    registry = Registry.open(tmp_path / "registry.log")
    record = registry.mint("tester", "file one", (location,),
                           checksum_of_file(source / "file1"))
    punch_holes(bag_dir, [("data/file1", record.identifier, len(body))])
    resolver = CountingResolver(registry)
    schemes.register("minid", MinidFetcher(resolver, schemes))
    sleeps = []
    report = materialize(bag_dir, registry=schemes, sleep=sleeps.append)
    registry.close()
    assert outcome_map(report) == {"data/file1": TRANSFER_ERROR}
    assert sleeps == []
    assert resolver.calls.count(record.identifier) == 1


def test_identifier_with_a_failed_transfer_is_retried(
        fig3_tree, fixed_clock, tmp_path, schemes, file_server):
    """A location that failed in transfer may pass on another attempt,
    beside one that cannot be tried."""
    source, metadata = fig3_tree
    bag_dir = write_bag(create_bag(source, metadata=metadata,
                                   root_name="demo", clock=fixed_clock),
                        tmp_path / "bags")
    body = (source / "file1").read_bytes()
    registry = Registry.open(tmp_path / "registry.log")
    record = registry.mint(
        "tester", "file one",
        ("ftp://e.org/file1", file_server.add("/file1", body)),
        checksum_of_file(source / "file1"))
    punch_holes(bag_dir, [("data/file1", record.identifier, len(body))])
    file_server.fail_next["/file1"] = 1
    schemes.register("minid", MinidFetcher(registry, schemes))
    sleeps = []
    report = materialize(bag_dir, registry=schemes, sleep=sleeps.append)
    registry.close()
    assert outcome_map(report) == {"data/file1": FETCHED}
    assert len(sleeps) == 1
    assert (bag_dir / "data" / "file1").read_bytes() == body
