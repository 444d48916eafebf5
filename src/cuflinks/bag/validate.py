"""Bag validation: enumeration checks at fast level, re-hashing at full.

Findings are data, not exceptions. A report is ok when its only findings
are fetch-pending entries, which simply mark a bag as not yet localized.

Tag manifests get a companion rule: any discrepancy discovered through a
tag manifest also yields a finding naming the tag manifest file itself.
Nothing checksums tag manifests, so when one disagrees with the bag the
corruption may equally well be on either side; naming both keeps every
single-file mutation attributable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from cuflinks.bag import tagfiles
from cuflinks.bag.model import Bag, Entry
from cuflinks.hashing import multi_digest_bytes, multi_digest_file

MISSING = "missing"
EXTRA = "extra"
SIZE_MISMATCH = "size-mismatch"
DIGEST_MISMATCH = "digest-mismatch"
FETCH_PENDING = "fetch-pending"

FAST = "fast"
FULL = "full"


@dataclass(frozen=True, order=True)
class Finding:
    path: str
    kind: str
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    level: str
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return all(f.kind == FETCH_PENDING for f in self.findings)

    def paths(self, kind: str | None = None) -> tuple[str, ...]:
        return tuple(f.path for f in self.findings
                     if kind is None or f.kind == kind)


class _Collector:
    """Deduplicates findings by (path, kind), merging details."""

    def __init__(self) -> None:
        self._details: dict[tuple[str, str], list[str]] = {}

    def add(self, path: str, kind: str, detail: str) -> None:
        bucket = self._details.setdefault((path, kind), [])
        if detail not in bucket:
            bucket.append(detail)

    def findings(self) -> tuple[Finding, ...]:
        return tuple(sorted(
            Finding(path=path, kind=kind, detail="; ".join(details))
            for (path, kind), details in self._details.items()))


def validate_bag(bag: Bag, level: str = FAST) -> ValidationReport:
    if level not in (FAST, FULL):
        raise ValueError(f"unknown validation level {level!r}")
    out = _Collector()
    fetch_by_path = {entry.path: entry for entry in bag.fetch}
    tag_entries = bag.all_tag_entries()

    # enumeration: every manifest path must be local or pending, every
    # local file must be in every manifest, fetch entries must be real
    for algorithm, manifest in sorted(bag.manifests.items()):
        name = tagfiles.manifest_filename(algorithm)
        for path in manifest:
            if path in bag.payload:
                continue
            if path in fetch_by_path:
                out.add(path, FETCH_PENDING,
                        f"awaiting fetch from {fetch_by_path[path].url}")
            else:
                out.add(path, MISSING, f"listed in {name} but absent")
        for path in bag.payload:
            if path not in manifest:
                out.add(path, EXTRA, f"present but not listed in {name}")
    manifest_paths = set()
    for manifest in bag.manifests.values():
        manifest_paths.update(manifest)
    for path in fetch_by_path:
        if path in bag.payload:
            out.add(path, EXTRA,
                    "fetch.txt entry collides with a local payload file")
        if path not in manifest_paths:
            out.add(path, EXTRA,
                    "fetch.txt entry not covered by any payload manifest")

    declared_oxum = bag.bag_info_value("Payload-Oxum")
    if declared_oxum is not None:
        _check_oxum(bag, declared_oxum, out)

    # tag-manifest coverage: listed tag files must exist
    for algorithm, tag_manifest in sorted(bag.tag_manifests.items()):
        name = tagfiles.tag_manifest_filename(algorithm)
        for path in tag_manifest:
            if path not in tag_entries:
                out.add(path, MISSING, f"listed in {name} but absent")
                out.add(name, DIGEST_MISMATCH,
                        f"lists {path}, which is absent from the bag")

    if level == FULL:
        _check_digests(bag.manifests, bag.payload, out, tags=False)
        _check_digests(bag.tag_manifests, tag_entries, out, tags=True)

    return ValidationReport(level=level, findings=out.findings())


def _check_oxum(bag: Bag, declared: str, out: _Collector) -> None:
    info_name = tagfiles.BAG_INFO_FILENAME
    bytes_part, dot, count_part = declared.partition(".")
    if dot != "." or not bytes_part.isdigit() or not count_part.isdigit():
        out.add(info_name, SIZE_MISMATCH,
                f"Payload-Oxum {declared!r} is not <bytes>.<filecount>")
        return
    actual_bytes, actual_count = bag.payload_oxum()
    if int(count_part) != actual_count:
        out.add(info_name, SIZE_MISMATCH,
                f"Payload-Oxum declares {count_part} files, payload has "
                f"{actual_count}")
    # an unknown fetch length makes the byte total uncheckable
    if actual_bytes is not None and int(bytes_part) != actual_bytes:
        out.add(info_name, SIZE_MISMATCH,
                f"Payload-Oxum declares {bytes_part} bytes, payload has "
                f"{actual_bytes}")


def digest_mismatches(expected: Mapping[str, str],
                      actual: Mapping[str, str],
                      source: Callable[[str], str]) -> dict[str, str]:
    """Each algorithm whose ``actual`` digest differs from ``expected``,
    mapped to a line naming both; ``source(algorithm)`` names the record
    that holds the expected digest."""
    return {alg: f"{alg}: {source(alg)} says {expected[alg]}, content is "
                 f"{actual[alg]}"
            for alg in sorted(expected) if actual[alg] != expected[alg]}


def payload_manifest_source(algorithm: str) -> str:
    """Payload mismatch lines name "manifest", whatever the algorithm."""
    return "manifest"


def _check_digests(manifests: dict[str, dict[str, str]],
                   entries: Mapping[str, Entry], out: _Collector,
                   *, tags: bool) -> None:
    needed: dict[str, dict[str, str]] = {}
    for algorithm, manifest in manifests.items():
        for path, digest in manifest.items():
            if path in entries:
                needed.setdefault(path, {})[algorithm] = digest
    source = (tagfiles.tag_manifest_filename if tags
              else payload_manifest_source)
    for path in sorted(needed):
        expected = needed[path]
        entry = entries[path]
        if entry.content is not None:
            actual = multi_digest_bytes(entry.content, expected)
        else:
            actual = multi_digest_file(entry.source, expected)
        for algorithm, detail in digest_mismatches(expected, actual,
                                                   source).items():
            out.add(path, DIGEST_MISMATCH, detail)
            if tags:
                out.add(tagfiles.tag_manifest_filename(algorithm),
                        DIGEST_MISMATCH,
                        f"entry for {path} disagrees with bag contents")
