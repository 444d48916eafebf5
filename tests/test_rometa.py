"""The research-object manifest: shape, canonical bytes, validation."""

import json

import pytest

from cuflinks.bag import create_bag
from cuflinks.errors import FormatError
from cuflinks.rometa import (Agent, RoAggregate, RoManifest,
                             build_ro_manifest, canonical_json_bytes,
                             validate_ro_manifest)
from cuflinks.terms import TermDictionary, TermRecord

from conftest import FIXED_INSTANT


@pytest.fixture
def bag(fig3_tree, fixed_clock):
    source, metadata = fig3_tree
    return create_bag(source, metadata=metadata, clock=fixed_clock)


def agent() -> Agent:
    return Agent(name="bagging service")


def test_manifest_envelope_shape(bag):
    aggregate = RoAggregate(uri="data/file1", mediatype="text/plain",
                            semantic_type="NCIT:C106052")
    dictionary = TermDictionary(terms={
        "tfbs": TermRecord(canonical_id="NCIT:C106052")})
    data = build_ro_manifest(
        bag, (aggregate,), created_on="2026-01-15T12:00:00Z",
        created_by=agent(), dictionary=dictionary)
    body = json.loads(data)
    assert set(body) == {"@context", "createdOn", "createdBy",
                         "aggregates", "annotations"}
    assert body["aggregates"][0]["semanticType"] == "NCIT:C106052"
    assert body["createdBy"] == {"name": "bagging service"}


def test_canonical_bytes_are_stable():
    def build() -> bytes:
        return canonical_json_bytes(RoManifest(
            created_on="2026-01-15T12:00:00Z", created_by=agent(),
            aggregates=(RoAggregate(uri="data/b", mediatype="text/plain"),
                        RoAggregate(uri="data/a", mediatype="text/plain"))))
    first = build()
    assert first == build()
    assert first == (json.dumps(json.loads(first), sort_keys=True, indent=2)
                     + "\n").encode("utf-8")


def test_in_bag_uri_must_exist(bag):
    ghost = RoAggregate(uri="data/ghost", mediatype="text/plain")
    with pytest.raises(FormatError) as excinfo:
        build_ro_manifest(bag, (ghost,),
                          created_on="2026-01-15T12:00:00Z",
                          created_by=agent())
    assert "data/ghost" in str(excinfo.value)


def test_external_uri_is_fine(bag):
    external = RoAggregate(uri="https://example.org/atlas.csv",
                           mediatype="text/csv")
    build_ro_manifest(bag, (external,), created_on="2026-01-15T12:00:00Z",
                      created_by=agent())


def test_fetch_covered_uri_counts_as_present(fig3_tree, fixed_clock):
    source, _ = fig3_tree
    bag = create_bag(source, clock=fixed_clock)
    from cuflinks.bag.model import FetchEntry
    bag.fetch = (FetchEntry(url="http://e.org/x", length=None,
                            path="data/pending"),)
    pending = RoAggregate(uri="data/pending",
                          mediatype="application/octet-stream")
    build_ro_manifest(bag, (pending,), created_on="2026-01-15T12:00:00Z",
                      created_by=agent())


def test_semantic_type_must_be_active(bag):
    dictionary = TermDictionary(terms={
        "tfbs": TermRecord(canonical_id="NCIT:C106052")})
    unknown = RoAggregate(uri="data/file1", mediatype="text/plain",
                          semantic_type="NCIT:C999999")
    with pytest.raises(FormatError):
        build_ro_manifest(bag, (unknown,),
                          created_on="2026-01-15T12:00:00Z",
                          created_by=agent(), dictionary=dictionary)


def test_semantic_type_without_dictionary_rejected(bag):
    typed = RoAggregate(uri="data/file1", mediatype="text/plain",
                        semantic_type="NCIT:C106052")
    with pytest.raises(FormatError):
        build_ro_manifest(bag, (typed,),
                          created_on="2026-01-15T12:00:00Z",
                          created_by=agent())


def test_mediatype_shape_checked():
    from cuflinks.errors import InvariantError
    with pytest.raises(InvariantError):
        RoAggregate(uri="data/x", mediatype="not a mediatype")
