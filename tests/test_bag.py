"""Bag construction, serialization to disk, and read-back."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuflinks.bag import create_bag, read_bag, write_bag
from cuflinks.bag.build import RO_MANIFEST_PATH
from cuflinks.bag.model import Bag, BagDeclaration, Entry, FetchEntry
from cuflinks.bag.tagfiles import render_manifest
from cuflinks.errors import FormatError, InvariantError, NotABagError
from cuflinks.hashing import digest_bytes

FIG3_ENTRIES = [
    "bag-info.txt",
    "bagit.txt",
    "data/file1",
    "data/file2",
    "fetch.txt",
    "manifest-md5.txt",
    "metadata/annotations.txt",
    "metadata/manifest.json",
    "tagmanifest-md5.txt",
]


def tree_files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)).replace("\\", "/"): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_nine_entry_layout(fig3_tree, fixed_clock, tmp_path):
    source, metadata = fig3_tree
    bag = create_bag(source, metadata=metadata, algorithms=("md5",),
                     root_name="demo", clock=fixed_clock)
    destination = write_bag(bag, tmp_path / "bags")
    assert sorted(tree_files(destination)) == FIG3_ENTRIES


def test_created_bag_is_deterministic(fig3_tree, fixed_clock, tmp_path):
    source, metadata = fig3_tree
    kwargs = dict(metadata=metadata, algorithms=("md5", "sha256"),
                  root_name="demo", clock=fixed_clock,
                  bag_info_extra=(("Contact-Name", "Kyle Chard"),))
    first = write_bag(create_bag(source, **kwargs), tmp_path / "one")
    second = write_bag(create_bag(source, **kwargs), tmp_path / "two")
    assert tree_files(first) == tree_files(second)


def test_generated_bag_info_fields(fig3_tree, fixed_clock):
    source, metadata = fig3_tree
    bag = create_bag(source, metadata=metadata, clock=fixed_clock)
    assert bag.bag_info_value("Bagging-Date") == "2026-01-15"
    payload_bytes = sum(len(e.read_bytes()) for e in bag.payload.values())
    assert bag.bag_info_value("Payload-Oxum") == f"{payload_bytes}.2"
    profile = bag.bag_info_value("BagIt-Profile-Identifier")
    assert profile is not None and profile.startswith("https://")


def test_bag_info_extras_override_generated(fig3_tree, fixed_clock):
    source, _ = fig3_tree
    bag = create_bag(source, clock=fixed_clock,
                     bag_info_extra=(("Bagging-Date", "1999-01-01"),))
    assert bag.bag_info_value("Bagging-Date") == "1999-01-01"
    labels = [label for label, _ in bag.bag_info]
    assert labels.count("Bagging-Date") == 1


def test_manifests_cover_payload_and_tags(fig3_tree, fixed_clock):
    source, metadata = fig3_tree
    bag = create_bag(source, metadata=metadata, algorithms=("sha256",),
                     clock=fixed_clock)
    manifest = bag.manifests["sha256"]
    assert set(manifest) == {"data/file1", "data/file2"}
    assert manifest["data/file1"] == digest_bytes(
        (source / "file1").read_bytes(), "sha256")
    tag_manifest = bag.tag_manifests["sha256"]
    assert set(tag_manifest) == {"bagit.txt", "bag-info.txt",
                                 "manifest-sha256.txt",
                                 "metadata/annotations.txt",
                                 RO_MANIFEST_PATH}
    # fetch.txt stays outside tag-manifest coverage so completing a holey
    # bag does not invalidate it
    assert "fetch.txt" not in tag_manifest


def test_ro_manifest_lists_resources(fig3_tree, fixed_clock):
    source, metadata = fig3_tree
    bag = create_bag(source, metadata=metadata, clock=fixed_clock)
    body = json.loads(bag.tag_metadata[RO_MANIFEST_PATH].read_bytes())
    uris = {aggregate["uri"] for aggregate in body["aggregates"]}
    assert uris == {"data/file1", "data/file2", "metadata/annotations.txt"}
    assert body["createdOn"].startswith("2026-01-15T12:00:00")


def test_generated_tag_files_keep_their_bytes(fig3_tree, fixed_clock):
    """Known answer: bags, and the archives and identifiers made of them,
    keep their checksums from one release of the builder to the next."""
    source, metadata = fig3_tree
    bag = create_bag(source, metadata=metadata, clock=fixed_clock)
    assert bag.tag_metadata[RO_MANIFEST_PATH].read_bytes() == (
        b'{\n'
        b'  "@context": [\n'
        b'    "https://w3id.org/bundle/context"\n'
        b'  ],\n'
        b'  "aggregates": [\n'
        b'    {\n'
        b'      "uri": "data/file1"\n'
        b'    },\n'
        b'    {\n'
        b'      "uri": "data/file2"\n'
        b'    },\n'
        b'    {\n'
        b'      "uri": "metadata/annotations.txt"\n'
        b'    }\n'
        b'  ],\n'
        b'  "annotations": [],\n'
        b'  "createdBy": {\n'
        b'    "name": "cuflinks 0.1.0"\n'
        b'  },\n'
        b'  "createdOn": "2026-01-15T12:00:00+00:00"\n'
        b'}\n')
    assert bag.tag_files["tagmanifest-sha256.txt"].read_bytes() == (
        b"a3ff26d9ab33451062921a3554002fc79329e35e3bf29c0de2134fff837d0dcf"
        b"  bag-info.txt\n"
        b"1712ecfb074bf29c4188ad3421032509159a09739fd604f8fe57038b4ddefcc9"
        b"  bagit.txt\n"
        b"8a88d7b6663b7ad805552395be11d14d5e86c8dccdf86c6ee3f2aa5b689a1d3a"
        b"  manifest-sha256.txt\n"
        b"8baaab382767f0c361165b0cc0e74b70bd912850bb5c13f8317c43e869eee8ff"
        b"  metadata/annotations.txt\n"
        b"da6f844dc9eeb3036c738879cff4e504fc34b97b8c42b482b720fe82184e2927"
        b"  metadata/manifest.json\n")


def test_round_trip_read_equals_written(fig3_tree, fixed_clock, tmp_path):
    source, metadata = fig3_tree
    bag = create_bag(source, metadata=metadata,
                     algorithms=("md5", "sha512"), clock=fixed_clock,
                     root_name="demo")
    destination = write_bag(bag, tmp_path / "bags")
    assert read_bag(destination) == bag


def test_write_refuses_occupied_destination(fig3_tree, fixed_clock,
                                            tmp_path):
    source, _ = fig3_tree
    bag = create_bag(source, clock=fixed_clock, root_name="demo")
    occupied = tmp_path / "bags" / "demo"
    occupied.mkdir(parents=True)
    (occupied / "stale").write_text("old")
    with pytest.raises(FileExistsError):
        write_bag(bag, tmp_path / "bags")


def test_read_requires_bagit(tmp_path):
    plain = tmp_path / "plain"
    plain.mkdir()
    (plain / "data").mkdir()
    with pytest.raises(NotABagError):
        read_bag(plain)
    with pytest.raises(NotABagError):
        read_bag(tmp_path / "absent")


def test_read_reports_file_and_line(fig3_tree, fixed_clock, tmp_path):
    source, _ = fig3_tree
    bag = create_bag(source, clock=fixed_clock, root_name="demo")
    destination = write_bag(bag, tmp_path / "bags")
    manifest = destination / "manifest-sha256.txt"
    manifest.write_bytes(manifest.read_bytes() + b"not a manifest line\n")
    with pytest.raises(FormatError) as excinfo:
        read_bag(destination)
    assert excinfo.value.path == "manifest-sha256.txt"
    assert excinfo.value.line == 3
    assert "manifest-sha256.txt:3" in str(excinfo.value)


def test_read_refuses_malformed_payload_digest(fig3_tree, fixed_clock,
                                               tmp_path):
    # digest shape is checked once, where the manifest is parsed
    source, _ = fig3_tree
    bag = create_bag(source, clock=fixed_clock, root_name="demo")
    destination = write_bag(bag, tmp_path / "bags")
    manifest = destination / "manifest-sha256.txt"
    manifest.write_bytes(manifest.read_bytes() + b"xyz  data/file3\n")
    with pytest.raises(FormatError, match="not a sha256 digest") as excinfo:
        read_bag(destination)
    assert (excinfo.value.path, excinfo.value.line) == \
        ("manifest-sha256.txt", 3)


def test_read_refuses_duplicate_fetch_target(fig3_tree, fixed_clock,
                                             tmp_path):
    # duplicate fetch targets are checked once, where fetch.txt is parsed
    source, _ = fig3_tree
    bag = create_bag(source, clock=fixed_clock, root_name="demo")
    destination = write_bag(bag, tmp_path / "bags")
    (destination / "fetch.txt").write_bytes(
        b"http://example.org/a 1 data/remote\n"
        b"http://example.org/b 1 data/remote\n")
    with pytest.raises(FormatError, match="duplicate fetch") as excinfo:
        read_bag(destination)
    assert (excinfo.value.path, excinfo.value.line) == ("fetch.txt", 2)


def test_create_refuses_malformed_digest_when_rendering():
    # a created bag's digests are checked once, as its manifests render
    with pytest.raises(InvariantError):
        render_manifest({"data/x": "xyz"}, "sha256")


def test_unknown_algorithm_manifest_is_opaque(fig3_tree, fixed_clock,
                                              tmp_path):
    source, _ = fig3_tree
    bag = create_bag(source, clock=fixed_clock, root_name="demo")
    destination = write_bag(bag, tmp_path / "bags")
    blake = destination / "manifest-blake2b.txt"
    blake.write_bytes(b"whatever  data/file1\n")
    reread = read_bag(destination)
    assert "blake2b" not in reread.manifests
    assert reread.tag_files["manifest-blake2b.txt"].read_bytes() == \
        b"whatever  data/file1\n"


def test_extra_root_files_round_trip(fig3_tree, fixed_clock, tmp_path):
    source, _ = fig3_tree
    bag = create_bag(source, clock=fixed_clock, root_name="demo")
    destination = write_bag(bag, tmp_path / "bags")
    (destination / "README").write_text("about this bag\n")
    reread = read_bag(destination)
    assert reread.tag_files["README"].read_bytes() == b"about this bag\n"
    rewritten = write_bag(reread, tmp_path / "copy")
    assert tree_files(destination) == tree_files(rewritten)


def test_empty_source_allowed(tmp_path, fixed_clock):
    empty = tmp_path / "empty"
    empty.mkdir()
    bag = create_bag(empty, clock=fixed_clock)
    assert bag.bag_info_value("Payload-Oxum") == "0.0"
    assert bag.payload == {}


def test_create_rejects_bad_algorithms(fig3_tree, fixed_clock):
    source, _ = fig3_tree
    with pytest.raises(ValueError):
        create_bag(source, algorithms=(), clock=fixed_clock)
    with pytest.raises(ValueError):
        create_bag(source, algorithms=("sha1",), clock=fixed_clock)


def test_create_rejects_naive_clock(fig3_tree):
    from datetime import datetime
    source, _ = fig3_tree
    with pytest.raises(ValueError):
        create_bag(source, clock=lambda: datetime(2026, 1, 15))


def test_entry_exactly_one_source():
    with pytest.raises(InvariantError):
        Entry(source=Path("/x"), content=b"both")
    with pytest.raises(InvariantError):
        Entry()
    assert Entry(content=b"ab").size() == 2


def test_declaration_rules():
    assert BagDeclaration().version == "1.0"
    with pytest.raises(InvariantError):
        BagDeclaration(version="one.oh")
    with pytest.raises(InvariantError):
        BagDeclaration(encoding="latin-1")


def test_bag_invariants_reject_bad_paths(fixed_clock):
    entry = Entry(content=b"x")
    with pytest.raises(InvariantError):
        Bag(root_name="b", decl=BagDeclaration(),
            manifests={"sha256": {"../escape": "a" * 64}},
            payload={}).check_invariants()
    with pytest.raises(InvariantError):
        Bag(root_name="b", decl=BagDeclaration(), manifests={},
            payload={"data/x": entry}).check_invariants()  # no manifest


def test_fetch_entry_validation():
    with pytest.raises(InvariantError):
        FetchEntry(url="no-scheme", length=1, path="data/x")
    with pytest.raises(InvariantError):
        FetchEntry(url="http://e.org/ has space", length=1, path="data/x")
    with pytest.raises(InvariantError):
        FetchEntry(url="http://e.org/a", length=-1, path="data/x")
    with pytest.raises(InvariantError):
        FetchEntry(url="http://e.org/a", length=1, path="outside")


_NAME = st.text(
    st.characters(min_codepoint=48, max_codepoint=122,
                  whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1, max_size=8)


@settings(max_examples=25, deadline=None)
@given(files=st.dictionaries(_NAME, st.binary(max_size=64),
                             min_size=1, max_size=4),
       algorithms=st.sets(st.sampled_from(("md5", "sha256", "sha512")),
                          min_size=1, max_size=3))
def test_round_trip_property(files, algorithms, tmp_path_factory):
    base = tmp_path_factory.mktemp("prop")
    source = base / "source"
    source.mkdir()
    for name, body in files.items():
        (source / name).write_bytes(body)
    from conftest import FIXED_INSTANT
    bag = create_bag(source, algorithms=sorted(algorithms),
                     clock=lambda: FIXED_INSTANT, root_name="bag")
    destination = write_bag(bag, base / "out")
    assert read_bag(destination) == bag
