"""HTTP transport, pluggable transfer schemes and the HTTP(S) fetcher.

A fetcher moves the bytes behind one URL into a binary sink and returns
the byte count. The registry maps URL schemes to fetchers; asking for an
unregistered scheme is a configuration error, raised before any network
activity so callers can pre-check a whole batch.

Every HTTP request goes through a Transport, which keeps connections
alive between requests (RFC 9112 §9) so that a command making many
requests to one host opens one connection to it per concurrent request.
The transport frames HTTP/1.1 itself (RFC 9112): each request goes out
in one write, and each reply head is read with cuflinks.framing, the
codec the registry reads its requests with.
GETs asked for ahead of time are pipelined (RFC 9112 §9.3.2): sent
together on one connection, their replies read as the same requests
are made.
"""

from __future__ import annotations

import base64
import os
import re
import select
import socket
import ssl
import threading
import time
import urllib.request
from collections import deque
from contextlib import contextmanager
from string import punctuation
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Protocol
from urllib.parse import quote, unquote, urljoin, urlsplit

from cuflinks.errors import SchemeError, TransferError
from cuflinks.framing import (closes, content_length, read_fields,
                              read_head, read_line)
from cuflinks.version import USER_AGENT

DEFAULT_TIMEOUT = 60.0
MAX_REDIRECTS = 5
_STREAM_CHUNK = 64 * 1024
_REDIRECTS = (301, 302, 303, 307, 308)
# the bytes hashed must be the bytes served, so no content coding
_HEADERS = {"User-Agent": USER_AGENT, "Accept-Encoding": "identity"}
# each would end a request line or header field early
_UNSAFE_FIELD = re.compile(r"[\r\n\0]")
# a request target is visible ASCII: no whitespace, controls or others
_UNSAFE_TARGET = re.compile(r"[^\x21-\x7e]")
_STATUS_LINE = re.compile(rb"HTTP/1\.([0-9]) ([1-9][0-9]{2})(?: [^\r]*)?")
# a chunk size that fits in 63 bits
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,15}")
# request bytes a pipelined connection has sent and not had answered:
# no more than the default socket send buffer, so that sending more
# never waits on a server blocked writing a reply not read yet
PIPELINE_BYTES = 16 * 1024

RETRY_ATTEMPTS = 3
RETRY_BASE_DELAY = 0.5

Sleeper = Callable[[float], None]
Origin = tuple[str, str, int]


def _origin(url: str) -> tuple[Origin, str]:
    """The (scheme, host, port) a URL names, and its request target."""
    try:
        parts = urlsplit(url)
        scheme = parts.scheme.lower()
        if scheme not in ("http", "https") or not parts.hostname:
            raise ValueError("not an absolute http(s) URL")
        port = parts.port or (443 if scheme == "https" else 80)
        host = parts.hostname
        if not host.isascii():  # an internationalized name, as http.client
            host = host.encode("idna").decode("ascii")
    except ValueError as exc:  # UnicodeError among them
        raise TransferError(f"unusable URL {url!r}: {exc}") from exc
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    # percent-encode what a request line cannot carry: spaces, controls
    # and non-ASCII characters; existing escapes and delimiters stay
    return (scheme, host, port), quote(target, safe=punctuation)


def _authority(host: str, port: int, default: int | None = None) -> str:
    """host:port as a Host field or CONNECT target; an IPv6 literal is
    bracketed, and the default port left out."""
    if ":" in host:
        host = f"[{host}]"
    return host if port == default else f"{host}:{port}"


def _request(method: str, target: str, host: str,
             headers: Mapping[str, str], body: bytes | None) -> bytes:
    """The bytes of one HTTP/1.1 request; a ValueError for a method,
    target or header field that would change how it is framed."""
    if _UNSAFE_FIELD.search("".join((method, *headers, *headers.values()))):
        raise ValueError("a method or header field contains CR, LF or NUL")
    if _UNSAFE_TARGET.search(target):
        raise ValueError(f"request target {target!r} contains whitespace "
                         f"or control characters")
    if body is not None or method in ("POST", "PUT", "PATCH"):
        headers = {**headers, "Content-Length": str(len(body or b""))}
    head = "".join([f"{method} {target} HTTP/1.1\r\nHost: {host}\r\n",
                    *(f"{name}: {value}\r\n"
                      for name, value in headers.items()), "\r\n"])
    # UnicodeEncodeError is a ValueError
    return head.encode("latin-1") + (body or b"")


def _head(reader: BinaryIO) -> tuple[bool, int, dict[bytes, bytes]]:
    """Whether a reply is HTTP/1.1 or later, its status and its header
    fields; 1xx interim replies before it are skipped."""
    while True:
        status, fields = read_head(reader, _STATUS_LINE)
        if not status[2].startswith(b"1"):
            return status[1] != b"0", int(status[2]), fields


class _Response:
    """A reply's status and header fields, and its body as RFC 9112
    §6.3 frames it.

    done is true once the whole body has been read, and keep when the
    connection can carry another request after it.
    """

    def __init__(self, reader: BinaryIO) -> None:
        self._reader = reader
        keep, self.status, self.fields = _head(reader)
        self.keep = keep and not closes(self.fields)
        self.done = False
        self._chunked = False
        # bytes of the body, or of the current chunk, not yet read;
        # None for a body that ends when the connection closes
        self._left: int | None = 0
        coding = self.fields.get(b"transfer-encoding")
        if self.status in (204, 304):
            self.done = True
        elif coding is not None:
            self._chunked = (coding.rpartition(b",")[2].strip().lower()
                             == b"chunked")
            if not self._chunked:
                self._left = None
            # a body read to the close, or one that states both framings
            # (the peer may mean either): nothing more follows on it
            if not self._chunked or b"content-length" in self.fields:
                self.keep = False
        elif (length := content_length(self.fields)) is not None:
            self._left = length
            self.done = not length
        else:
            self._left = None
            self.keep = False

    def read(self, amount: int) -> bytes:
        """Up to amount bytes of the body; b"" once it has all been
        read. A body that ends before its framing says is a
        TransferError."""
        if self.done:
            return b""
        if self._chunked:
            return self._read_chunks(amount)
        if self._left is None:
            data = self._reader.read(amount)
            self.done = not data
            return data
        wanted = min(amount, self._left)
        data = self._reader.read(wanted)
        self._left -= len(data)
        if len(data) < wanted:
            raise TransferError(f"{self._left} bytes missing")
        self.done = not self._left
        return data

    def _read_chunks(self, amount: int) -> bytes:
        parts = []
        while amount:
            if not self._left:
                size = read_line(self._reader).partition(b";")[0].strip(b" \t")
                if not _CHUNK_SIZE.fullmatch(size):
                    raise TransferError(f"bad chunk size {size[:80]!r}")
                self._left = int(size, 16)
                if not self._left:  # the last chunk; trailer fields follow
                    read_fields(self._reader)
                    self.done = True
                    break
            data = self._reader.read(min(amount, self._left))
            if not data:
                raise TransferError(f"{self._left} bytes of a chunk missing")
            parts.append(data)
            amount -= len(data)
            self._left -= len(data)
            if not self._left and read_line(self._reader):
                raise TransferError("chunk longer than its size")
        return b"".join(parts)


class _Connection:
    """One socket and the buffered reader over it, kept for the
    connection's whole life; queued holds the bytes of each pipelined
    GET sent on it whose reply has not been read, oldest first, and
    ends in an empty entry once a write on it has failed."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.reader = sock.makefile("rb")
        self.queued: deque[bytes] = deque()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _is_stale(connection: _Connection) -> bool:
    """True when an idle connection cannot carry another request.

    An idle kept-alive connection has nothing to read; if it is
    readable, the peer has closed it (or sent bytes no request asked
    for), and a request sent on it would fail.
    """
    # poll, unlike select, takes descriptors above FD_SETSIZE
    poller = select.poll()
    poller.register(connection.sock, select.POLLIN)
    try:
        return bool(poller.poll(0))
    except OSError:
        return True


def _drain(response: _Response) -> None:
    """Read a short body that nobody wants, so that its connection can
    carry the next request; a long one is left, and the connection
    closed."""
    try:
        response.read(_STREAM_CHUNK)
    except (OSError, TransferError):
        pass


def _read(response: _Response, amount: int, request: str) -> bytes:
    """Up to amount bytes of the body; one that ends before its framing
    says, or is malformed, is a TransferError."""
    try:
        return response.read(amount)
    except (OSError, TransferError) as exc:
        raise TransferError(f"{request} interrupted mid-body: {exc}") from exc


def _proxy_setting(scheme: str) -> str | None:
    """<scheme>_proxy by urllib's rules: the lower-case name wins, even
    set empty; HTTP_PROXY is ignored under CGI (REQUEST_METHOD set),
    where a client's Proxy header can set it."""
    value = os.environ.get(f"{scheme}_proxy")
    if value is None and not (scheme == "http"
                              and "REQUEST_METHOD" in os.environ):
        value = os.environ.get(f"{scheme.upper()}_PROXY")
    return value or None


class Transport:
    """HTTP/1.1 connections kept alive between requests.

    Idle connections wait in a pool per origin behind one lock, so
    threads can share a transport; each connection serves one request
    at a time. A connection goes back to the pool only when its
    response was read to the end and the server keeps it open;
    otherwise it is closed. prefetch() pipelines GETs on one connection
    per origin, kept apart from the pool until each reply is read, as
    prefetch describes. The http_proxy, https_proxy and no_proxy
    environment variables, or their upper-case names, are read once,
    when the transport is made.
    GET follows at most MAX_REDIRECTS redirects, and drops the
    Authorization header when one leads to another origin.
    """

    def __init__(self) -> None:
        self._proxies = {scheme: proxy for scheme in ("http", "https", "no")
                         if (proxy := _proxy_setting(scheme))}
        self._idle: dict[Origin, list[_Connection]] = {}
        self._pipelined: dict[Origin, _Connection] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._tls: ssl.SSLContext | None = None

    def close(self) -> None:
        """Close every idle and pipelined connection; later requests are
        not pooled."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, {}
            pipelined, self._pipelined = self._pipelined, {}
        for connection in pipelined.values():
            connection.close()
        for connections in idle.values():
            for connection in connections:
                connection.close()

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def get(self, url: str, sink: BinaryIO) -> int:
        """Stream the 200 body behind url into sink; return its length.

        An error raised by the sink propagates unchanged, and the
        connection whose body was cut short is closed.
        """
        with self._exchange("GET", url, None, {}) as response:
            if response.status != 200:
                _drain(response)
                raise TransferError(
                    f"GET {url} returned status {response.status}")
            total = 0
            while chunk := _read(response, _STREAM_CHUNK, f"GET {url}"):
                sink.write(chunk)
                total += len(chunk)
        return total

    def call(self, method: str, url: str, *, body: bytes | None = None,
             headers: Mapping[str, str] | None = None,
             limit: int) -> tuple[int, bytes]:
        """Send one request; return the status and at most limit bytes
        of the body. A longer body is cut there and its connection
        closed."""
        with self._exchange(method, url, body, headers or {}) as response:
            return response.status, _read(response, limit,
                                          f"{method} {url}")

    def prefetch(self, urls: Iterable[str],
                 headers: Mapping[str, str] | None = None) -> None:
        """Send a GET for each url now, without reading the replies.

        The GETs to one origin are pipelined on one connection, in one
        write, as long as its unanswered requests stay within
        PIPELINE_BYTES; the rest are not sent. A later get or call whose
        request is, byte for byte, the oldest one unanswered on that
        connection reads its reply instead of sending anything. Any
        other request to that origin closes the connection first, and
        so does a reply after which the connection cannot carry more;
        the requests still queued on it then go out again when they are
        made, as does a url that cannot be sent here.
        """
        headers = {**_HEADERS, **(headers or {})}
        batches: dict[Origin, list[bytes]] = {}
        for url in urls:
            try:
                origin, target = _origin(url)
                request, _ = self._prepare(origin, "GET", target, None,
                                           headers, url)
            except TransferError:
                continue
            batches.setdefault(origin, []).append(request)
        for origin, requests in batches.items():
            with self._lock:
                connection = self._pipelined.pop(origin, None)
            if connection is None:
                connection = self._checkout(origin)
            if connection is None:
                try:
                    connection = self._connect(
                        origin, self._proxy(*origin[:2]))
                except (OSError, TransferError):
                    continue
            if connection.queued and not connection.queued[-1]:
                self._keep(origin, connection)  # a write on it failed
                continue
            room = PIPELINE_BYTES - sum(map(len, connection.queued))
            batch = []
            for request in requests:
                if len(request) > room:
                    break
                room -= len(request)
                batch.append(request)
            try:
                connection.sock.sendall(b"".join(batch))
                connection.queued.extend(batch)
            except OSError:
                if not connection.queued:
                    connection.close()
                    continue
                # the server may have closed it after answering what was
                # queued before: those replies can still be read, but
                # nothing more is sent on it, as an empty entry, which
                # matches no request, marks
                connection.queued.append(b"")
            self._keep(origin, connection)

    @contextmanager
    def _exchange(self, method: str, url: str, body: bytes | None,
                  headers: Mapping[str, str]) -> Iterator[_Response]:
        """The response to method url, past any redirects a GET follows.

        Its connection is released when the block ends.
        """
        headers = {**_HEADERS, **headers}
        requested = url
        for _ in range(MAX_REDIRECTS + 1):
            origin, target = _origin(url)
            connection, response = self._send(origin, method, target, body,
                                              headers, url)
            location = response.fields.get(b"location")
            if (method != "GET" or response.status not in _REDIRECTS
                    or location is None):
                break
            _drain(response)
            self._release(origin, connection, response)
            url = urljoin(url, location.decode("latin-1"))
            if _origin(url)[0] != origin:  # credentials stay with origin
                headers.pop("Authorization", None)
        else:
            raise TransferError(
                f"GET {requested}: more than {MAX_REDIRECTS} redirects")
        try:
            yield response
        finally:
            self._release(origin, connection, response)

    def _prepare(self, origin: Origin, method: str, target: str,
                 body: bytes | None, headers: dict[str, str], url: str
                 ) -> tuple[bytes, tuple[str, int, dict[str, str]] | None]:
        """The bytes of a request, and the proxy it goes through."""
        scheme, host, port = origin
        proxy = self._proxy(scheme, host)
        if proxy is not None and scheme == "http":
            # a plain-HTTP proxy takes the absolute URL, credentials cut
            authority = urlsplit(url).netloc.rpartition("@")[2]
            target = f"http://{authority}{target}"
            headers = {**headers, **proxy[2]}
        try:
            return _request(
                method, target,
                _authority(host, port, 443 if scheme == "https" else 80),
                headers, body), proxy
        except ValueError as exc:
            raise TransferError(f"{method} {url} refused: {exc}") from None

    def _send(self, origin: Origin, method: str, target: str,
              body: bytes | None, headers: dict[str, str], url: str
              ) -> tuple[_Connection, _Response]:
        request, proxy = self._prepare(origin, method, target, body, headers,
                                       url)
        with self._lock:
            connection = self._pipelined.pop(origin, None)
        if connection is not None and connection.queued[0] != request:
            # its replies are for other requests: never hand one over
            connection.close()
            connection = None
        if connection is None:
            connection = self._checkout(origin)
        reused = connection is not None
        while True:
            try:
                if connection is None:
                    connection = self._connect(origin, proxy)
                if connection.queued:  # already sent, pipelined
                    connection.queued.popleft()
                else:
                    connection.sock.sendall(request)
                return connection, _Response(connection.reader)
            except (OSError, TransferError) as exc:
                if connection is not None:
                    connection.close()
                # the server may drop an idle or pipelined connection
                # before it answers; a GET is safe to send again on a
                # new one
                if not (reused and method == "GET"):
                    raise TransferError(
                        f"{method} {url} failed: {exc}") from exc
                connection, reused = None, False

    def _checkout(self, origin: Origin) -> _Connection | None:
        while True:
            with self._lock:
                idle = self._idle.get(origin)
                if not idle:
                    return None
                connection = idle.pop()
            if not _is_stale(connection):
                return connection
            connection.close()

    def _release(self, origin: Origin, connection: _Connection,
                 response: _Response) -> None:
        if response.done and response.keep:
            self._keep(origin, connection)
        else:
            connection.close()

    def _keep(self, origin: Origin, connection: _Connection) -> None:
        """Keep a connection that can carry another request: pipelined
        while it has GETs queued, otherwise idle in the pool."""
        with self._lock:
            if not self._closed:
                if not connection.queued:
                    self._idle.setdefault(origin, []).append(connection)
                    return
                if origin not in self._pipelined:
                    self._pipelined[origin] = connection
                    return
        connection.close()

    def _proxy(self, scheme: str, host: str
               ) -> tuple[str, int, dict[str, str]] | None:
        """Host, port and credential header of the proxy for a request
        to host, or None to connect directly."""
        proxy = self._proxies.get(scheme)
        if not proxy or urllib.request.proxy_bypass_environment(
                host, self._proxies):
            return None
        parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        if parts.scheme != "http" or not parts.hostname:
            raise TransferError(f"unusable proxy {proxy!r}: only "
                                f"http:// proxies are supported")
        credentials = {}
        if parts.username is not None:
            token = base64.b64encode(
                f"{unquote(parts.username)}:"
                f"{unquote(parts.password or '')}".encode()).decode()
            credentials["Proxy-Authorization"] = f"Basic {token}"
        return parts.hostname, parts.port or 80, credentials

    def _connect(self, origin: Origin,
                 proxy: tuple[str, int, dict[str, str]] | None
                 ) -> _Connection:
        """A new connection to origin; HTTPS through a proxy tunnels
        with CONNECT."""
        scheme, host, port = origin
        address = (host, port) if proxy is None else proxy[:2]
        sock = socket.create_connection(address, timeout=DEFAULT_TIMEOUT)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if scheme == "https":
                if proxy is not None:
                    _tunnel(sock, _authority(host, port), proxy[2])
                with self._lock:
                    if self._tls is None:  # loading the CA store is slow
                        self._tls = ssl.create_default_context()
                sock = self._tls.wrap_socket(sock, server_hostname=host)
            return _Connection(sock)
        except BaseException:
            sock.close()
            raise


def _tunnel(sock: socket.socket, authority: str,
            headers: Mapping[str, str]) -> None:
    """Ask the proxy at the other end of sock for a tunnel to authority.

    The proxy says nothing more until the client speaks through the
    tunnel, so a reader made for its reply holds nothing that follows.
    """
    sock.sendall(_request("CONNECT", authority, authority, headers, None))
    with sock.makefile("rb") as reader:
        _, status, _ = _head(reader)
    if not 200 <= status < 300:
        raise TransferError(f"proxy refused CONNECT {authority}: "
                            f"status {status}")


class Fetcher(Protocol):
    def fetch(self, url: str, sink: BinaryIO) -> int:
        """Write the resource behind url into sink; return bytes written."""


class HttpFetcher:
    """GET over http/https through a transport: streaming, bounded
    redirects, no cookies."""

    def __init__(self, transport: Transport) -> None:
        self.transport = transport

    def fetch(self, url: str, sink: BinaryIO) -> int:
        return self.transport.get(url, sink)

    def prefetch(self, urls: Iterable[str]) -> None:
        """Start the GETs that fetch will send for urls; see
        Transport.prefetch."""
        self.transport.prefetch(urls)


class SchemeRegistry:
    """Fetchers by URL scheme."""

    def __init__(self) -> None:
        self._fetchers: dict[str, Fetcher] = {}

    def register(self, scheme: str, fetcher: Fetcher) -> None:
        scheme = scheme.lower()
        if scheme in self._fetchers:
            raise SchemeError(f"scheme {scheme!r} is already registered")
        self._fetchers[scheme] = fetcher

    def schemes(self) -> tuple[str, ...]:
        return tuple(sorted(self._fetchers))

    def prefetch_first(self, locations: Iterable[str]) -> None:
        """Start early the fetch of the first location whose scheme has
        a fetcher, the one that trying locations in order begins with,
        if that fetcher can (a prefetch method)."""
        for location in locations:
            fetcher = self._fetchers.get(urlsplit(location).scheme.lower())
            if fetcher is not None:
                if hasattr(fetcher, "prefetch"):
                    fetcher.prefetch([location])
                return

    def for_url(self, url: str) -> Fetcher:
        scheme = urlsplit(url).scheme.lower()
        if scheme not in self._fetchers:
            raise SchemeError(
                f"no transfer scheme registered for {scheme!r} "
                f"(url {url}); available: "
                f"{', '.join(self.schemes()) or 'none'}")
        return self._fetchers[scheme]


def default_registry(transport: Transport) -> SchemeRegistry:
    """http and https over transport."""
    registry = SchemeRegistry()
    http = HttpFetcher(transport)
    registry.register("http", http)
    registry.register("https", http)
    return registry


def fetch_with_retries(fetcher: Fetcher, url: str, open_sink,
                       *, sleep: Sleeper = time.sleep) -> int:
    """Run fetcher.fetch with retries on transfer errors.

    open_sink is a zero-argument callable returning a fresh binary sink;
    each attempt starts from an empty sink so a partial body from a
    failed attempt never leaks into the next one. RETRY_ATTEMPTS tries
    are made, with backoff doubling from RETRY_BASE_DELAY between them.
    """
    failures: list[str] = []
    for attempt in range(RETRY_ATTEMPTS):
        if attempt:
            sleep(RETRY_BASE_DELAY * (2 ** (attempt - 1)))
        try:
            with open_sink() as sink:
                return fetcher.fetch(url, sink)
        except TransferError as exc:
            failures.append(str(exc))
    raise TransferError(
        f"{url}: all {RETRY_ATTEMPTS} attempts failed: "
        f"{' | '.join(failures)}")
