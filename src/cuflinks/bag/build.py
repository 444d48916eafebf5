"""Assemble a bag from a source tree: hash, describe, and wrap.

The returned Bag carries fully rendered tag-file bytes, so writing it is
pure byte transcription and two builds over identical input with the
same clock yield identical bags.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable

from cuflinks.bag import tagfiles
from cuflinks.bag.io import walk_files
from cuflinks.bag.model import Bag, BagDeclaration, Entry
from cuflinks.hashing import check_algorithm, multi_digest_bytes, \
    multi_digest_file
from cuflinks.version import TOOL_NAME, __version__

PROFILE_IDENTIFIER = ("https://raw.githubusercontent.com/"
                      "fair-research/bdbag/master/profiles/"
                      "bdbag-profile.json")

RO_MANIFEST_PATH = "metadata/manifest.json"
RO_CONTEXT = "https://w3id.org/bundle/context"

Clock = Callable[[], datetime]


def _default_clock() -> datetime:
    return datetime.now(timezone.utc)


def _ro_manifest(paths: Iterable[str], created_on: str) -> bytes:
    """The research-object resource list: each path as an aggregate.

    Canonical JSON (sorted keys, two-space indent, UTF-8, trailing
    newline), so equal inputs give equal bytes on any host: no media
    type is guessed, since the guess reads the host's mime.types.
    """
    body = {"@context": [RO_CONTEXT],
            "createdOn": created_on,
            "createdBy": {"name": f"{TOOL_NAME} {__version__}"},
            "aggregates": [{"uri": path} for path in sorted(paths)],
            "annotations": []}
    text = json.dumps(body, sort_keys=True, indent=2, ensure_ascii=False)
    return (text + "\n").encode("utf-8")


def create_bag(source: Path,
               *,
               metadata: Path | None = None,
               algorithms: Iterable[str] = ("sha256",),
               bag_info_extra: Iterable[tuple[str, str]] = (),
               root_name: str | None = None,
               clock: Clock | None = None) -> Bag:
    """Package ``source`` (and optional ``metadata`` files) as a bag.

    The payload is the source tree, byte for byte, under ``data/``.
    Unless ``metadata`` supplies its own, a generated
    ``metadata/manifest.json`` lists every payload and metadata file. The
    clock injects all timestamps, which makes output reproducible.
    """
    algorithms = tuple(dict.fromkeys(check_algorithm(a) for a in algorithms))
    if not algorithms:
        raise ValueError("at least one checksum algorithm is required")
    now = (clock or _default_clock)()
    if now.tzinfo is None:
        raise ValueError("clock must return timezone-aware datetimes")
    now = now.astimezone(timezone.utc)

    source = Path(source)
    payload = walk_files(source, "data/")
    tag_metadata: dict[str, Entry] = {}
    if metadata is not None:
        tag_metadata = walk_files(Path(metadata), "metadata/")

    manifests: dict[str, dict[str, str]] = {a: {} for a in algorithms}
    total_bytes = 0
    for path, entry in payload.items():
        digests = multi_digest_file(entry.source, algorithms)
        total_bytes += entry.size()
        for algorithm in algorithms:
            manifests[algorithm][path] = digests[algorithm]

    info: dict[str, str] = {
        "BagIt-Profile-Identifier": PROFILE_IDENTIFIER,
        "Bagging-Date": now.strftime("%Y-%m-%d"),
        "Payload-Oxum": f"{total_bytes}.{len(payload)}",
    }
    ordered: list[tuple[str, str]] = [(k, info[k]) for k in sorted(info)]
    for key, value in bag_info_extra:
        if key in info:
            ordered = [(k, value if k == key else v) for k, v in ordered]
        else:
            ordered.append((key, value))
    bag_info = tuple(ordered)

    bag = Bag(root_name=root_name or source.name,
              decl=BagDeclaration(),
              bag_info=bag_info,
              manifests=manifests,
              payload=payload,
              tag_metadata=tag_metadata)

    # the resource description references user files only, never itself
    if RO_MANIFEST_PATH not in tag_metadata:
        tag_metadata[RO_MANIFEST_PATH] = Entry(content=_ro_manifest(
            list(payload) + list(tag_metadata),
            now.isoformat(timespec="seconds")))

    tag_files: dict[str, Entry] = {
        tagfiles.BAGIT_FILENAME: Entry(content=tagfiles.render_bagit(bag.decl)),
        tagfiles.BAG_INFO_FILENAME:
            Entry(content=tagfiles.render_bag_info(bag_info)),
        tagfiles.FETCH_FILENAME: Entry(content=b""),
    }
    for algorithm in algorithms:
        tag_files[tagfiles.manifest_filename(algorithm)] = Entry(
            content=tagfiles.render_manifest(manifests[algorithm], algorithm))

    # tag manifests cover the declaration, bag-info, every payload
    # manifest, and all metadata files; fetch.txt is excluded because
    # materialization rewrites it in place
    covered: dict[str, Entry] = {
        name: entry for name, entry in tag_files.items()
        if name != tagfiles.FETCH_FILENAME}
    covered.update(tag_metadata)
    tag_manifests: dict[str, dict[str, str]] = {a: {} for a in algorithms}
    for path in sorted(covered):
        entry = covered[path]
        if entry.content is not None:
            digests = multi_digest_bytes(entry.content, algorithms)
        else:
            digests = multi_digest_file(entry.source, algorithms)
        for algorithm in algorithms:
            tag_manifests[algorithm][path] = digests[algorithm]
    for algorithm in algorithms:
        tag_files[tagfiles.tag_manifest_filename(algorithm)] = Entry(
            content=tagfiles.render_manifest(tag_manifests[algorithm],
                                             algorithm))

    bag.tag_manifests = tag_manifests
    bag.tag_files = tag_files
    bag.check_invariants()
    return bag
