"""The research-object manifest that `create_bag` generates: shape,
canonical bytes, and independence from the host's media-type table."""

import json
import mimetypes

from cuflinks.bag import create_bag
from cuflinks.bag.build import RO_MANIFEST_PATH
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
    assert [set(a) for a in body["aggregates"]] == [{"uri"}] * 3


def test_canonical_bytes_are_stable(fig3_tree, fixed_clock):
    first = ro_manifest(*fig3_tree, fixed_clock)
    assert first == ro_manifest(*fig3_tree, fixed_clock)
    assert first == (json.dumps(json.loads(first), sort_keys=True, indent=2)
                     + "\n").encode("utf-8")


def test_bytes_ignore_the_hosts_mediatype_table(fig3_tree, fixed_clock,
                                                monkeypatch, tmp_path):
    # /etc/mime.types differs between hosts; a bag must not
    source, metadata = fig3_tree

    def tag_bytes() -> dict[str, bytes]:
        bag = create_bag(source, metadata=metadata, clock=fixed_clock)
        return {path: entry.read_bytes()
                for path, entry in bag.all_tag_entries().items()}

    first = tag_bytes()
    table = tmp_path / "mime.types"
    table.write_text("application/x-elsewhere txt json\n")
    for name in ("inited", "_db", "types_map", "common_types",
                 "suffix_map", "encodings_map"):
        monkeypatch.setattr(mimetypes, name, getattr(mimetypes, name))
    monkeypatch.setattr(mimetypes, "_db", None)
    mimetypes.init(files=[table])
    assert mimetypes.guess_type("annotations.txt")[0] == \
        "application/x-elsewhere"
    assert tag_bytes() == first
