"""HTTP client for a resolver, plus identifier-to-bytes retrieval.

The resolver base URL maps ``minid:<suffix>`` to ``<base>/<suffix>``.
A tombstoned identifier still resolves (the service answers 410 but
returns the record); unknown and malformed identifiers raise distinct
errors.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path
from typing import BinaryIO, Iterable, Protocol

from cuflinks.errors import (CuflinksError, IdentifierError, IntegrityError,
                             NotFoundError, RegistryError, SchemeError,
                             TransferError)
from cuflinks.fileio import replacing
from cuflinks.hashing import digest_bytes, digest_file
from cuflinks.minid.model import ACTIVE, MAX_BODY_BYTES, Checksum, \
    MinidRecord, parse_identifier, render_body
from cuflinks.transfer import SchemeRegistry, Transport


__all__ = [
    "MinidFetcher",
    "RegistryClient",
    "Resolver",
    "checksum_of_file",
    "resolve_to_bytes",
    # nothing here hashes content held whole any more, but
    # perfbench/spans.py wraps this name until the program emits its
    # own spans (ROADMAP item 1)
    "digest_bytes",
]


class Resolver(Protocol):
    """Anything that can turn an identifier into its record."""

    def resolve(self, identifier: str) -> MinidRecord: ...


class RegistryClient:
    """Speaks the resolution API; duck-compatible with Registry reads.

    Requests go through the given transport, which the caller closes.
    A request body larger than MAX_BODY_BYTES is refused before it is
    sent, and a reply that should carry a record but does not, or that
    is larger than MAX_BODY_BYTES, is a RegistryError.
    """

    def __init__(self, base_url: str, *, transport: Transport,
                 token: str | None = None) -> None:
        self.base_url = base_url.rstrip("/")
        self._transport = transport
        self._headers = ({} if token is None
                         else {"Authorization": f"Bearer {token}"})

    def _request(self, method: str, url: str, body: dict | None = None
                 ) -> tuple[int, bytes]:
        headers = dict(self._headers)
        payload = None
        if body is not None:
            payload = render_body(body)
            if len(payload) > MAX_BODY_BYTES:
                raise RegistryError(
                    f"{method} {url}: request body of {len(payload)} bytes "
                    f"exceeds the resolver's {MAX_BODY_BYTES}-byte limit")
            headers["Content-Type"] = "application/json"
        status, data = self._transport.call(method, url, body=payload,
                                            headers=headers,
                                            limit=MAX_BODY_BYTES + 1)
        if len(data) > MAX_BODY_BYTES:
            raise RegistryError(
                f"resolver's reply to {method} {url} exceeds "
                f"{MAX_BODY_BYTES} bytes")
        return status, data

    def _record_or_raise(self, reply: tuple[int, bytes],
                         identifier: str) -> MinidRecord:
        status, data = reply
        try:
            body = json.loads(data.decode("utf-8"))
        except ValueError:  # JSONDecodeError and UnicodeDecodeError
            body = None
        if status in (200, 201, 410):
            if not isinstance(body, dict):
                raise RegistryError(
                    f"resolver answered {status} for {identifier} with a "
                    f"body that is not a JSON object")
            try:
                return MinidRecord.from_json(body)
            except (IdentifierError, LookupError, TypeError, ValueError,
                    AttributeError) as exc:
                raise RegistryError(
                    f"resolver answered {status} for {identifier} with an "
                    f"unusable record: {exc!r}") from exc
        detail = (body.get("detail", "") if isinstance(body, dict)
                  else data[:200].decode("utf-8", "replace"))
        if status == 400:
            raise IdentifierError(detail or f"{identifier} is malformed")
        if status == 404:
            raise NotFoundError(detail or f"{identifier} not found")
        raise RegistryError(
            f"resolver answered {status} for {identifier}: {detail}")

    def resolve(self, identifier: str) -> MinidRecord:
        suffix = parse_identifier(identifier)
        return self._record_or_raise(
            self._request("GET", f"{self.base_url}/{suffix}"), identifier)

    def prefetch(self, identifiers: Iterable[str]) -> None:
        """Send now, pipelined, the GETs that resolving identifiers will
        send, so that each resolve in the same order reads its reply
        (see Transport.prefetch). A malformed identifier is left to
        resolve to refuse."""
        urls = []
        for identifier in identifiers:
            try:
                urls.append(f"{self.base_url}/{parse_identifier(identifier)}")
            except IdentifierError:
                continue
        self._transport.prefetch(urls, headers=self._headers)

    def mint(self, author: str, title: str,
             locations: tuple[str, ...] | list[str],
             checksum: Checksum) -> MinidRecord:
        body = {"author": author, "title": title,
                "locations": list(locations),
                "checksum": checksum.to_json()}
        return self._record_or_raise(
            self._request("POST", self.base_url, body), "<new>")

    def update_locations(self, identifier: str, add: tuple[str, ...] = (),
                         remove: tuple[str, ...] = (), *,
                         actor: str = "") -> MinidRecord:
        suffix = parse_identifier(identifier)
        body = {"add": list(add), "remove": list(remove), "actor": actor}
        return self._record_or_raise(
            self._request("PATCH", f"{self.base_url}/{suffix}", body),
            identifier)

    def tombstone(self, identifier: str, *, actor: str = "") -> MinidRecord:
        suffix = parse_identifier(identifier)
        return self._record_or_raise(
            self._request("PATCH", f"{self.base_url}/{suffix}",
                          {"tombstone": True, "actor": actor}), identifier)

    def supersede(self, identifier: str, by: str, *,
                  actor: str = "") -> MinidRecord:
        suffix = parse_identifier(identifier)
        return self._record_or_raise(
            self._request("PATCH", f"{self.base_url}/{suffix}",
                          {"supersede_by": by, "actor": actor}), identifier)

    def healthy(self) -> bool:
        base = self.base_url.rsplit("/", 1)[0]
        try:
            status, _ = self._request("GET", f"{base}/healthz")
        except (TransferError, RegistryError):
            return False
        return status == 200


def resolve_to_bytes(identifier: str, resolver: Resolver,
                     schemes: SchemeRegistry,
                     destination: Path | None = None, *,
                     record: MinidRecord | None = None
                     ) -> tuple[bytes | None, MinidRecord]:
    """Fetch the content behind an active identifier and verify it.

    Returns the content and the identifier's record. With a destination
    the content streams into a temporary file beside it, which replaces
    the file there in one rename once it is verified, and the returned
    content is None; otherwise the bytes come back in memory. A caller
    that has just resolved the identifier passes its record, and the
    resolver is not asked again. Locations are tried as _fetch_verified
    says.
    """
    record = _active_record(identifier, resolver, record)
    if destination is not None:
        with replacing(destination) as handle:
            _fetch_verified(identifier, record, schemes, handle)
        return None, record
    buffer = io.BytesIO()
    _fetch_verified(identifier, record, schemes, buffer)
    return buffer.getvalue(), record


def _active_record(identifier: str, resolver: Resolver,
                   record: MinidRecord | None = None) -> MinidRecord:
    if record is None:
        record = resolver.resolve(identifier)
    if record.status != ACTIVE:
        raise RegistryError(
            f"{identifier} is {record.status}"
            + (f" (successor {record.superseded_by})"
               if record.superseded_by else ""))
    return record


class _Checked:
    """A sink that hashes with the record's algorithm what it passes on,
    and that rewinds like the sink it wraps."""

    def __init__(self, sink: BinaryIO, algorithm: str) -> None:
        self._sink = sink
        self._algorithm = algorithm
        self.hasher = hashlib.new(algorithm)

    def write(self, data: bytes) -> int:
        written = self._sink.write(data)
        self.hasher.update(data)
        return written

    def seek(self, offset: int) -> int:
        return self._sink.seek(offset)

    def truncate(self) -> int:
        self.hasher = hashlib.new(self._algorithm)
        return self._sink.truncate()


def _fetch_verified(identifier: str, record: MinidRecord,
                   schemes: SchemeRegistry, sink: BinaryIO) -> int:
    """Stream an identifier's content into sink, hashing it on the way,
    and return its length.

    Locations are tried in order, one attempt each. A location that
    transfers but fails the record's checksum is an integrity error and
    stops the walk: the identifier's fixity claim is wrong somewhere,
    and quietly serving bytes from a sibling location would hide
    that. Any other failure to obtain a location's bytes (a failed
    transfer, no fetcher for its scheme, an identifier named there that
    does not resolve) falls through to the next location, once the
    sink is rewound and truncated, so that no byte of a failed location
    stays in it. When every location fails, the error is a
    TransferError if any of them failed in transfer, which a retry
    might get past, and a RegistryError if none could even be tried,
    which no retry changes. After an integrity error the sink holds the
    rejected bytes; the caller discards them.
    """
    failures: list[str] = []
    error: type[CuflinksError] = RegistryError
    for location in record.locations:
        checked = _Checked(sink, record.checksum.algorithm)
        try:
            length = schemes.for_url(location).fetch(location, checked)
        except (SchemeError, TransferError, IdentifierError, NotFoundError,
                RegistryError) as exc:
            # an identifier named as a location can fail to resolve
            failures.append(str(exc))
            if isinstance(exc, TransferError):
                error = TransferError
            sink.seek(0)
            sink.truncate()
            continue
        actual = checked.hasher.hexdigest()
        if actual != record.checksum.digest:
            raise IntegrityError(
                f"{identifier}: content at {location} does not match the "
                f"registered checksum",
                expected=record.checksum.digest, actual=actual)
        return length
    raise error(
        f"{identifier}: every location failed: " + " | ".join(failures))


def checksum_of_file(path: Path) -> Checksum:
    """The sha256 checksum used when minting an identifier for a file."""
    return Checksum(algorithm="sha256", digest=digest_file(Path(path),
                                                           "sha256"))


class MinidFetcher:
    """Transfer scheme for identifier URLs inside fetch.txt.

    Resolution turns the identifier into its location list; the bytes
    are then streamed into the sink, hashed on their way. The
    identifier's own checksum is enforced here, independently of any
    bag manifest the caller may additionally check: on a mismatch fetch
    raises IntegrityError, and the caller discards what the sink holds.
    The sink must take seek(0) and truncate(), which drop the bytes of
    a location that failed part-way. The locations are fetched through
    schemes, which should hold no ``minid`` fetcher: then a location
    that names an identifier fails like a refused transfer instead of
    recursing.
    """

    def __init__(self, resolver: Resolver, schemes: SchemeRegistry) -> None:
        self.resolver = resolver
        self.schemes = schemes

    def fetch(self, url: str, sink: BinaryIO) -> int:
        record = _active_record(url, self.resolver)
        return _fetch_verified(url, record, self.schemes, sink)
