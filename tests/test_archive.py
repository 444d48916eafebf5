"""Single-file serialization of bags and safe extraction."""

import zipfile
from pathlib import Path

import pytest

from cuflinks.bag import create_bag, extract, serialize, write_bag
from cuflinks.errors import FormatError, ValidationError

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
