"""HTTP/1.1 message heads (RFC 9112): the client reads replies and the
registry reads requests by these same rules, so that bytes one end
takes for a body are never a message to the other. A head that breaks
a rule is a TransferError."""

from __future__ import annotations

import re
from typing import BinaryIO

from cuflinks.errors import TransferError

MAX_LINE = 64 * 1024
MAX_FIELDS = 100
# an RFC 9110 token, such as a field name or a request method: a name
# with whitespace before its colon, or an obs-fold line, is not one
TOKEN = re.compile(rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
# a length that fits in 63 bits
_LENGTH = re.compile(rb"[0-9]{1,18}")


def read_line(reader: BinaryIO) -> bytes:
    """One line of a message, without its line end."""
    line = reader.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise TransferError(f"line longer than {MAX_LINE} bytes")
    if not line.endswith(b"\n"):
        raise TransferError("the connection closed mid-message")
    return line.rstrip(b"\r\n")


def read_fields(reader: BinaryIO) -> dict[bytes, bytes]:
    """Header or trailer fields up to the empty line, by lower-case
    name; a repeated name's values are joined with commas."""
    fields: dict[bytes, bytes] = {}
    for _ in range(MAX_FIELDS + 1):
        line = read_line(reader)
        if not line:
            return fields
        name, colon, value = line.partition(b":")
        if not colon or not TOKEN.fullmatch(name):
            raise TransferError(f"malformed header field {line[:80]!r}")
        name, value = name.lower(), value.strip(b" \t")
        fields[name] = (fields[name] + b", " + value if name in fields
                        else value)
    raise TransferError(f"more than {MAX_FIELDS} header fields")


def read_head(reader: BinaryIO, start: re.Pattern[bytes]
              ) -> tuple[re.Match[bytes], dict[bytes, bytes]]:
    """A message's start line, matched whole by start, and its header
    fields."""
    line = read_line(reader)
    matched = start.fullmatch(line)
    if matched is None:
        raise TransferError(f"malformed start line {line[:80]!r}")
    return matched, read_fields(reader)


def content_length(fields: dict[bytes, bytes]) -> int | None:
    """The body length a head's Content-Length declares, if any."""
    length = fields.get(b"content-length")
    if length is None:
        return None
    values = {value.strip(b" \t") for value in length.split(b",")}
    if len(values) != 1 or not _LENGTH.fullmatch(value := values.pop()):
        raise TransferError(f"bad Content-Length {length[:80]!r}")
    return int(value)


def closes(fields: dict[bytes, bytes]) -> bool:
    """Whether a head's Connection field holds the close option."""
    options = fields.get(b"connection", b"").lower().split(b",")
    return b"close" in (option.strip(b" \t") for option in options)
