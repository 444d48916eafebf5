"""The research-object manifest that `create_bag` generates: shape,
canonical bytes, and the media-type check."""

import json
import mimetypes

import pytest

from cuflinks.bag import create_bag
from cuflinks.bag.build import RO_MANIFEST_PATH
from cuflinks.errors import InvariantError
from cuflinks.version import TOOL_NAME, __version__


def ro_manifest(source, metadata, clock) -> bytes:
    bag = create_bag(source, metadata=metadata, clock=clock)
    return bag.tag_metadata[RO_MANIFEST_PATH].read_bytes()


def test_manifest_envelope_shape(fig3_tree, fixed_clock):
    body = json.loads(ro_manifest(*fig3_tree, fixed_clock))
    assert set(body) == {"@context", "createdOn", "createdBy",
                         "aggregates", "annotations"}
    assert body["createdBy"] == {"name": f"{TOOL_NAME} {__version__}"}
    assert body["annotations"] == []
    assert [set(a) for a in body["aggregates"]] == [{"uri", "mediatype"}] * 3


def test_canonical_bytes_are_stable(fig3_tree, fixed_clock):
    first = ro_manifest(*fig3_tree, fixed_clock)
    assert first == ro_manifest(*fig3_tree, fixed_clock)
    assert first == (json.dumps(json.loads(first), sort_keys=True, indent=2)
                     + "\n").encode("utf-8")


def test_mediatype_shape_checked(fig3_tree, fixed_clock, monkeypatch):
    # the guess comes from the host's mime.types, outside the program
    monkeypatch.setattr(mimetypes, "guess_type",
                        lambda path, strict=True: ("not a mediatype", None))
    with pytest.raises(InvariantError, match="not a mediatype"):
        ro_manifest(*fig3_tree, fixed_clock)
