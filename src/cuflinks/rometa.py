"""Research-object description of a bag's contents (metadata/manifest.json).

The emitted JSON is JSON-LD shaped (an @context plus aggregates carrying
name, media type, and semantic type per resource) but is produced and
consumed as plain canonical JSON: sorted keys, two-space indentation,
UTF-8, trailing newline. Equal inputs give byte-equal output.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING
from urllib.parse import urlsplit

from cuflinks.errors import FormatError, InvariantError
from cuflinks.terms import TermDictionary

if TYPE_CHECKING:
    from cuflinks.bag.model import Bag

DEFAULT_RO_CONTEXT = ("https://w3id.org/bundle/context",)

_MEDIATYPE_RE = re.compile(r"^[!#$&^_.+%'`~|\w-]+/[!#$&^_.+%'`~|\w-]+"
                           r"(\s*;.*)?$")


@dataclass(frozen=True)
class Agent:
    name: str
    uri: str | None = None

    def to_json(self) -> dict:
        body: dict = {"name": self.name}
        if self.uri is not None:
            body["uri"] = self.uri
        return body


@dataclass(frozen=True)
class RoAggregate:
    """One described resource: an in-bag path or an external URI."""

    uri: str
    mediatype: str
    semantic_type: str | None = None
    created_by: Agent | None = None
    created_on: str | None = None

    def __post_init__(self) -> None:
        if not _MEDIATYPE_RE.match(self.mediatype):
            raise InvariantError(
                f"mediatype {self.mediatype!r} is not type/subtype")

    def to_json(self) -> dict:
        body: dict = {"uri": self.uri, "mediatype": self.mediatype}
        if self.semantic_type is not None:
            body["semanticType"] = self.semantic_type
        if self.created_by is not None:
            body["createdBy"] = self.created_by.to_json()
        if self.created_on is not None:
            body["createdOn"] = self.created_on
        return body


@dataclass(frozen=True)
class RoManifest:
    created_on: str
    created_by: Agent
    aggregates: tuple[RoAggregate, ...] = ()
    annotations: tuple[tuple[str, str], ...] = ()   # (about, content) pairs
    context: tuple[str, ...] = DEFAULT_RO_CONTEXT

    def to_json(self) -> dict:
        return {
            "@context": list(self.context),
            "createdOn": self.created_on,
            "createdBy": self.created_by.to_json(),
            "aggregates": [a.to_json() for a in self.aggregates],
            "annotations": [{"about": about, "content": content}
                            for about, content in self.annotations],
        }


def canonical_json_bytes(manifest: RoManifest) -> bytes:
    text = json.dumps(manifest.to_json(), sort_keys=True, indent=2,
                      ensure_ascii=False)
    return (text + "\n").encode("utf-8")


def _is_external(uri: str) -> bool:
    return bool(urlsplit(uri).scheme)


def validate_ro_manifest(manifest: RoManifest, bag: "Bag",
                         dictionary: TermDictionary | None = None) -> None:
    """Check referential integrity and vocabulary use; raise on violation.

    In-bag URIs must name a payload file (local or pending fetch) or a
    metadata file. Semantic types must be canonical identifiers of active
    dictionary terms; without a dictionary any semantic type is rejected.
    """
    known = set(bag.payload) | set(bag.tag_metadata)
    known.update(entry.path for entry in bag.fetch)
    known_ids = (dictionary.active_canonical_ids()
                 if dictionary is not None else set())
    referenced = [a.uri for a in manifest.aggregates]
    referenced.extend(about for about, _ in manifest.annotations)
    referenced.extend(content for _, content in manifest.annotations)
    for uri in referenced:
        if not _is_external(uri) and uri not in known:
            raise FormatError(
                f"described resource {uri!r} does not exist in the bag",
                path="metadata/manifest.json")
    for aggregate in manifest.aggregates:
        term_id = aggregate.semantic_type
        if term_id is not None and term_id not in known_ids:
            raise FormatError(
                f"semantic type {term_id!r} is not the canonical id of "
                f"any active dictionary term",
                path="metadata/manifest.json")


def build_ro_manifest(bag: "Bag", aggregates: tuple[RoAggregate, ...],
                      *, created_on: str, created_by: Agent,
                      dictionary: TermDictionary | None = None,
                      annotations: tuple[tuple[str, str], ...] = (),
                      context: tuple[str, ...] = DEFAULT_RO_CONTEXT) -> bytes:
    """Validate the description against the bag and serialize it."""
    manifest = RoManifest(created_on=created_on, created_by=created_by,
                          aggregates=tuple(aggregates),
                          annotations=tuple(annotations), context=context)
    validate_ro_manifest(manifest, bag, dictionary)
    return canonical_json_bytes(manifest)

