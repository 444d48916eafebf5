"""HTTP client for a resolver, plus identifier-to-bytes retrieval.

The resolver base URL maps ``minid:<suffix>`` to ``<base>/<suffix>``.
A tombstoned identifier still resolves (the service answers 410 but
returns the record); unknown and malformed identifiers raise distinct
errors.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Iterable, Protocol

from cuflinks.errors import (CuflinksError, IdentifierError, IntegrityError,
                             NotFoundError, RegistryError, SchemeError,
                             TransferError)
from cuflinks.fileio import write_atomically
from cuflinks.hashing import digest_bytes, digest_file
from cuflinks.minid.model import ACTIVE, MAX_BODY_BYTES, Checksum, \
    MinidRecord, parse_identifier, render_body
from cuflinks.transfer import SchemeRegistry, Transport


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

    Locations are tried in order, one attempt each. A location that
    transfers but fails the record's checksum is an integrity error and
    stops the walk: the identifier's fixity claim is wrong somewhere,
    and quietly serving bytes from a sibling location would hide
    that. Any other failure to obtain a location's bytes (a failed
    transfer, no fetcher for its scheme, an identifier named there that
    does not resolve) falls through to the next location. When every
    location fails, the error is a TransferError if any of them failed
    in transfer, which a retry might get past, and a RegistryError if
    none could even be tried, which no retry changes.

    Returns the content and the identifier's record. With a destination
    the verified bytes replace the file there in one rename, and the
    returned content is None; otherwise the bytes come back in memory.
    A caller that has just resolved the identifier passes its record,
    and the resolver is not asked again.
    """
    if record is None:
        record = resolver.resolve(identifier)
    if record.status != ACTIVE:
        raise RegistryError(
            f"{identifier} is {record.status}"
            + (f" (successor {record.superseded_by})"
               if record.superseded_by else ""))
    failures: list[str] = []
    error: type[CuflinksError] = RegistryError
    for location in record.locations:
        buffer = io.BytesIO()
        try:
            schemes.for_url(location).fetch(location, buffer)
        except (SchemeError, TransferError, IdentifierError, NotFoundError,
                RegistryError) as exc:
            # an identifier named as a location can fail to resolve
            failures.append(str(exc))
            if isinstance(exc, TransferError):
                error = TransferError
            continue
        content = buffer.getvalue()
        actual = digest_bytes(content, record.checksum.algorithm)
        if actual != record.checksum.digest:
            raise IntegrityError(
                f"{identifier}: content at {location} does not match the "
                f"registered checksum",
                expected=record.checksum.digest, actual=actual)
        if destination is not None:
            write_atomically(destination, content)
            return None, record
        return content, record
    raise error(
        f"{identifier}: every location failed: " + " | ".join(failures))


def checksum_of_file(path: Path) -> Checksum:
    """The sha256 checksum used when minting an identifier for a file."""
    return Checksum(algorithm="sha256", digest=digest_file(Path(path),
                                                           "sha256"))


class MinidFetcher:
    """Transfer scheme for identifier URLs inside fetch.txt.

    Resolution turns the identifier into its location list; the verified
    bytes are then streamed into the sink. The identifier's own checksum
    is enforced here, independently of any bag manifest the caller may
    additionally check. The locations are fetched through schemes, which
    should hold no ``minid`` fetcher: then a location that names an
    identifier fails like a refused transfer instead of recursing.
    """

    def __init__(self, resolver: Resolver, schemes: SchemeRegistry) -> None:
        self.resolver = resolver
        self.schemes = schemes

    def fetch(self, url: str, sink) -> int:
        content, _ = resolve_to_bytes(url, self.resolver, self.schemes)
        sink.write(content)
        return len(content)
