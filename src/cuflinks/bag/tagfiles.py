"""Bit-exact codecs for the tag files inside a bag.

Every renderer emits UTF-8 text with LF line endings. Parsers for the
payload manifests and bag-info are lenient (they accept whitespace and
case variations other tools produce); the tag-manifest parser is strict,
byte for byte. Tag manifests are the root of the fixity chain: nothing
else checksums them, so any deviation from canonical form must surface
as an error instead of being silently normalized away.
"""

from __future__ import annotations

import re

from cuflinks.bag.model import BagDeclaration, FetchEntry, payload_path_problem
from cuflinks.errors import FormatError, InvariantError
from cuflinks.hashing import HEX_DIGEST_LENGTHS, is_hex_digest

BAGIT_FILENAME = "bagit.txt"
BAG_INFO_FILENAME = "bag-info.txt"
FETCH_FILENAME = "fetch.txt"

_MANIFEST_NAME_RE = re.compile(r"^(tag)?manifest-([a-z0-9]+)\.txt$")
_LENIENT_LINE_RE = re.compile(r"^(\S+)[ \t]+(.+)$")
_PERCENT_LENIENT_RE = re.compile(r"%(0[aA]|0[dD]|25)")
_PERCENT_STRICT_RE = re.compile(r"%(0A|0D|25)")
_DECODE_MAP = {"0a": "\n", "0d": "\r", "25": "%"}


def manifest_filename(algorithm: str) -> str:
    return f"manifest-{algorithm}.txt"


def tag_manifest_filename(algorithm: str) -> str:
    return f"tagmanifest-{algorithm}.txt"


def split_manifest_filename(name: str) -> tuple[bool, str] | None:
    """(is_tag_manifest, algorithm) for manifest-style names, else None."""
    match = _MANIFEST_NAME_RE.match(name)
    if not match:
        return None
    return bool(match.group(1)), match.group(2)


def encode_manifest_path(path: str) -> str:
    # percent first, or the escapes themselves would be re-escaped
    return (path.replace("%", "%25")
                .replace("\r", "%0D")
                .replace("\n", "%0A"))


def _decode_lenient(path: str) -> str:
    return _PERCENT_LENIENT_RE.sub(
        lambda m: _DECODE_MAP[m.group(1).lower()], path)


def _decode_strict(encoded: str, *, filename: str, line_no: int) -> str:
    out: list[str] = []
    i = 0
    while i < len(encoded):
        c = encoded[i]
        if c == "%":
            code = encoded[i + 1:i + 3]
            if not _PERCENT_STRICT_RE.fullmatch("%" + code):
                raise FormatError(
                    f"bad percent escape %{code!s}; only %0A, %0D, %25 "
                    f"are allowed", path=filename, line=line_no)
            out.append(_DECODE_MAP[code.lower()])
            i += 3
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _text_lines(data: bytes, filename: str) -> list[str]:
    """A tag file's UTF-8 lines, minus the empty tail after a final LF."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8: {exc}", path=filename) from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


# --- bagit.txt ---------------------------------------------------------

def render_bagit(decl: BagDeclaration) -> bytes:
    text = (f"BagIt-Version: {decl.version}\n"
            f"Tag-File-Character-Encoding: {decl.encoding}\n")
    return text.encode("utf-8")


def parse_bagit(data: bytes) -> BagDeclaration:
    lines = _text_lines(data, BAGIT_FILENAME)
    if len(lines) != 2:
        raise FormatError("expected exactly two declaration lines",
                          path=BAGIT_FILENAME)
    values = {}
    for number, (label, line) in enumerate(
            zip(("BagIt-Version", "Tag-File-Character-Encoding"), lines),
            start=1):
        prefix = label + ": "
        if not line.startswith(prefix):
            raise FormatError(f"expected {prefix!r}...", path=BAGIT_FILENAME,
                              line=number)
        values[label] = line[len(prefix):]
    try:
        return BagDeclaration(version=values["BagIt-Version"],
                              encoding=values["Tag-File-Character-Encoding"])
    except InvariantError as exc:
        raise FormatError(str(exc), path=BAGIT_FILENAME) from exc


# --- bag-info.txt ------------------------------------------------------

def render_bag_info(pairs: tuple[tuple[str, str], ...]) -> bytes:
    lines = []
    for key, value in pairs:
        if "\r" in value:
            raise InvariantError(
                f"bag-info value for {key!r} contains a carriage return")
        # embedded newlines become continuation lines
        lines.append(f"{key}: " + value.replace("\n", "\n "))
    return ("".join(line + "\n" for line in lines)).encode("utf-8")


def parse_bag_info(data: bytes) -> tuple[tuple[str, str], ...]:
    lines = _text_lines(data, BAG_INFO_FILENAME)
    pairs: list[tuple[str, str]] = []
    for number, line in enumerate(lines, start=1):
        if line.startswith((" ", "\t")):
            if not pairs:
                raise FormatError("continuation line before any label",
                                  path=BAG_INFO_FILENAME, line=number)
            key, value = pairs[-1]
            pairs[-1] = (key, value + "\n" + line[1:])
            continue
        colon = line.find(":")
        if colon <= 0:
            raise FormatError("expected 'Label: value'",
                              path=BAG_INFO_FILENAME, line=number)
        key = line[:colon]
        if key != key.strip():
            raise FormatError(f"label {key!r} has surrounding whitespace",
                              path=BAG_INFO_FILENAME, line=number)
        value = line[colon + 1:]
        if value.startswith(" "):
            value = value[1:]
        pairs.append((key, value))
    return tuple(pairs)


# --- manifest-<alg>.txt and tagmanifest-<alg>.txt ----------------------

def render_manifest(entries: dict[str, str], algorithm: str) -> bytes:
    lines = []
    for path in sorted(entries):
        digest = entries[path]
        if not is_hex_digest(digest, algorithm):
            raise InvariantError(
                f"digest for {path!r} is not a {algorithm} hex digest")
        lines.append(f"{digest}  {encode_manifest_path(path)}\n")
    return "".join(lines).encode("utf-8")


def parse_manifest(data: bytes, algorithm: str, filename: str,
                   *, strict: bool = False) -> dict[str, str]:
    """Parse one manifest file into {in-bag path: lowercase hex digest}.

    strict mode demands the canonical form this module writes: lowercase
    digest, exactly two spaces, uppercase-hex percent escapes, a newline
    after every line. Used for tag manifests.
    """
    lines = _text_lines(data, filename)
    expected_len = HEX_DIGEST_LENGTHS[algorithm]
    if strict and data and not data.endswith(b"\n"):
        raise FormatError("missing trailing newline", path=filename)
    entries: dict[str, str] = {}
    for number, line in enumerate(lines, start=1):
        if strict:
            digest, encoded = line[:expected_len], line[expected_len + 2:]
            if (len(line) < expected_len + 3
                    or line[expected_len:expected_len + 2] != "  "):
                raise FormatError(
                    "expected '<digest>␣␣<path>' with exactly two spaces",
                    path=filename, line=number)
            if not is_hex_digest(digest, algorithm):
                raise FormatError(
                    f"digest is not lowercase {algorithm} hex",
                    path=filename, line=number)
            path = _decode_strict(encoded, filename=filename, line_no=number)
        else:
            if not line.strip():
                continue
            match = _LENIENT_LINE_RE.match(line)
            if not match:
                raise FormatError("expected '<digest>  <path>'",
                                  path=filename, line=number)
            digest = match.group(1).lower()
            if not is_hex_digest(digest, algorithm):
                raise FormatError(
                    f"token {match.group(1)!r} is not a {algorithm} digest",
                    path=filename, line=number)
            path = _decode_lenient(match.group(2))
        if path in entries:
            raise FormatError(f"duplicate entry for {path!r}",
                              path=filename, line=number)
        entries[path] = digest
    return entries


# --- fetch.txt ---------------------------------------------------------

def render_fetch(entries: tuple[FetchEntry, ...] | list[FetchEntry]) -> bytes:
    lines = []
    for entry in entries:
        length = "-" if entry.length is None else str(entry.length)
        lines.append(
            f"{entry.url} {length} {encode_manifest_path(entry.path)}\n")
    return "".join(lines).encode("utf-8")


def parse_fetch(data: bytes) -> tuple[FetchEntry, ...]:
    lines = _text_lines(data, FETCH_FILENAME)
    entries: list[FetchEntry] = []
    seen: set[str] = set()
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        match = re.match(r"^(\S+)[ \t]+(\S+)[ \t]+(.+)$", line)
        if not match:
            raise FormatError("expected '<url> <length> <path>'",
                              path=FETCH_FILENAME, line=number)
        url, length_text, encoded = match.groups()
        if length_text == "-":
            length = None
        elif length_text.isdigit():
            length = int(length_text)
        else:
            raise FormatError(
                f"length {length_text!r} is neither a byte count nor '-'",
                path=FETCH_FILENAME, line=number)
        path = _decode_lenient(encoded)
        problem = payload_path_problem(path)
        if problem:
            raise FormatError(f"fetch target {path!r}: {problem}",
                              path=FETCH_FILENAME, line=number)
        try:
            entry = FetchEntry(url=url, length=length, path=path)
        except InvariantError as exc:
            raise FormatError(str(exc), path=FETCH_FILENAME,
                              line=number) from exc
        if entry.path in seen:
            raise FormatError(f"duplicate fetch entry for {path!r}",
                              path=FETCH_FILENAME, line=number)
        seen.add(entry.path)
        entries.append(entry)
    return tuple(entries)
