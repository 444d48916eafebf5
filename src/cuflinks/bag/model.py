"""In-memory representation of a bag and its structural rules.

A Bag holds parsed views of every tag file (declaration, info pairs,
manifests, fetch list) alongside raw content handles for each file that
exists inside the bag directory. The raw handles are what gets hashed
and written; the parsed views are what gets inspected. Keeping both
means a bag read from disk is validated against its original bytes,
never against a re-rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlsplit

from cuflinks.errors import InvariantError

PAYLOAD_PREFIX = "data/"
METADATA_PREFIX = "metadata/"


@dataclass(frozen=True)
class Entry:
    """Content for one in-bag file: a file on disk or in-memory bytes.

    Exactly one of ``source`` and ``content`` is set.
    """

    source: Path | None = None
    content: bytes | None = None

    def __post_init__(self) -> None:
        if (self.source is None) == (self.content is None):
            raise InvariantError("entry needs exactly one of source/content")

    def size(self) -> int:
        if self.content is not None:
            return len(self.content)
        return self.source.stat().st_size

    def read_bytes(self) -> bytes:
        if self.content is not None:
            return self.content
        return self.source.read_bytes()


@dataclass(frozen=True)
class BagDeclaration:
    version: str = "1.0"
    encoding: str = "UTF-8"

    def __post_init__(self) -> None:
        major, sep, minor = self.version.partition(".")
        if sep != "." or not major.isdigit() or not minor.isdigit():
            raise InvariantError(
                f"bag version {self.version!r} is not <major>.<minor>")
        if self.encoding != "UTF-8":
            raise InvariantError(
                f"tag-file encoding must be UTF-8, got {self.encoding!r}")


@dataclass(frozen=True)
class FetchEntry:
    """One pending remote payload file: where to get it, how big, where it goes."""

    url: str
    length: int | None
    path: str

    def __post_init__(self) -> None:
        if not urlsplit(self.url).scheme:
            raise InvariantError(f"fetch URL {self.url!r} has no scheme")
        if any(c in self.url for c in " \t\r\n"):
            raise InvariantError(f"fetch URL {self.url!r} contains whitespace")
        if self.length is not None and self.length < 0:
            raise InvariantError("fetch length must be non-negative")
        problem = payload_path_problem(self.path)
        if problem:
            raise InvariantError(f"fetch path {self.path!r}: {problem}")


def in_bag_path_problem(path: str) -> str | None:
    """Return a description of what is wrong with an in-bag path, or None."""
    if not path:
        return "empty path"
    if path.startswith("/") or (len(path) > 1 and path[1] == ":"):
        return "absolute paths are not allowed"
    if "\\" in path:
        return "backslashes are not allowed; use /"
    parts = path.split("/")
    if any(part in ("", ".", "..") for part in parts):
        return "path must not contain empty, . or .. segments"
    if any(ord(c) < 0x20 or c == "\x7f" for c in path):
        return "control characters are not allowed"
    return None


def payload_path_problem(path: str) -> str | None:
    problem = in_bag_path_problem(path)
    if problem:
        return problem
    if not path.startswith(PAYLOAD_PREFIX) or path == PAYLOAD_PREFIX:
        return f"payload paths must begin with {PAYLOAD_PREFIX!r}"
    return None


def _tag_listing_problem(path: str) -> str | None:
    problem = in_bag_path_problem(path)
    if problem is None and path.startswith(PAYLOAD_PREFIX):
        return "tag manifests must not list payload files"
    return problem


@dataclass(eq=False)
class Bag:
    """A bag: payload plus tag files, with parsed views of the latter.

    payload      in-bag path (data/...) -> Entry
    tag_metadata in-bag path (metadata/...) -> Entry
    tag_files    every other in-bag file -> Entry; covers bagit.txt,
                 bag-info.txt, manifests, tag manifests, fetch.txt, and
                 any unrecognized tag file carried along opaquely
    manifests    algorithm -> {payload path -> hex digest}
    tag_manifests algorithm -> {tag path -> hex digest}
    """

    root_name: str
    decl: BagDeclaration = field(default_factory=BagDeclaration)
    bag_info: tuple[tuple[str, str], ...] = ()
    manifests: dict[str, dict[str, str]] = field(default_factory=dict)
    tag_manifests: dict[str, dict[str, str]] = field(default_factory=dict)
    fetch: tuple[FetchEntry, ...] = ()
    payload: dict[str, Entry] = field(default_factory=dict)
    tag_metadata: dict[str, Entry] = field(default_factory=dict)
    tag_files: dict[str, Entry] = field(default_factory=dict)

    def bag_info_value(self, key: str) -> str | None:
        for k, v in self.bag_info:
            if k == key:
                return v
        return None

    def all_tag_entries(self) -> dict[str, Entry]:
        """Every non-payload file in the bag, keyed by in-bag path."""
        merged = dict(self.tag_files)
        merged.update(self.tag_metadata)
        return merged

    def payload_oxum(self) -> tuple[int | None, int]:
        """(total bytes, file count) of the complete payload.

        Fetch entries count as payload; an unknown fetch length makes the
        byte total unknowable, reported as None.
        """
        count = len(self.payload) + len(self.fetch)
        total = sum(entry.size() for entry in self.payload.values())
        for entry in self.fetch:
            if entry.length is None:
                return None, count
            total += entry.length
        return total, count

    def signature(self) -> tuple:
        """Projection used for structural equality and round-trip checks."""
        return (
            self.root_name,
            self.decl,
            self.bag_info,
            {a: dict(m) for a, m in sorted(self.manifests.items())},
            {a: dict(m) for a, m in sorted(self.tag_manifests.items())},
            tuple(sorted(self.fetch, key=lambda e: e.path)),
            tuple(sorted((p, e.size()) for p, e in self.payload.items())),
            tuple(sorted((p, e.size()) for p, e in self.tag_metadata.items())),
            tuple(sorted((p, e.size()) for p, e in self.tag_files.items())),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bag):
            return NotImplemented
        return self.signature() == other.signature()

    def check_invariants(self) -> None:
        """Raise InvariantError on any structural rule violation.

        Enumeration mismatches (missing/extra files) are validation
        findings, not invariant violations; this checks only the shape
        rules that make a bag interpretable at all.
        """
        if not self.root_name or "/" in self.root_name:
            raise InvariantError(f"bad root name {self.root_name!r}")
        if not self.manifests:
            raise InvariantError("at least one payload manifest is required")
        for path in self.payload:
            problem = payload_path_problem(path)
            if problem:
                raise InvariantError(f"payload path {path!r}: {problem}")
        for path in self.tag_metadata:
            problem = in_bag_path_problem(path)
            if problem is None and not path.startswith(METADATA_PREFIX):
                problem = f"metadata paths must begin with {METADATA_PREFIX!r}"
            if problem:
                raise InvariantError(f"metadata path {path!r}: {problem}")
        for path in self.tag_files:
            problem = in_bag_path_problem(path)
            if problem is None and path.startswith((PAYLOAD_PREFIX,
                                                    METADATA_PREFIX)):
                problem = "tag files live outside data/ and metadata/"
            if problem:
                raise InvariantError(f"tag path {path!r}: {problem}")
        for kind, manifests, path_problem in (
                ("manifest", self.manifests, payload_path_problem),
                ("tagmanifest", self.tag_manifests, _tag_listing_problem)):
            for alg, manifest in manifests.items():
                for path in manifest:
                    problem = path_problem(path)
                    if problem:
                        raise InvariantError(
                            f"{kind}-{alg} path {path!r}: {problem}")
        for key, _ in self.bag_info:
            if not key or key != key.strip() or ":" in key or "\n" in key:
                raise InvariantError(f"bad bag-info label {key!r}")
