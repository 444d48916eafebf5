"""HTTP transport, pluggable transfer schemes and the HTTP(S) fetcher.

A fetcher moves the bytes behind one URL into a binary sink and returns
the byte count. The registry maps URL schemes to fetchers; asking for an
unregistered scheme is a configuration error, raised before any network
activity so callers can pre-check a whole batch.

Every HTTP request goes through a Transport, which keeps connections
alive between requests (RFC 9112 §9) so that a command making many
requests to one host opens one connection to it per concurrent request.
"""

from __future__ import annotations

import base64
import os
import select
import ssl
import threading
import time
import urllib.request
from contextlib import contextmanager
from http.client import (HTTPConnection, HTTPException, HTTPResponse,
                         HTTPSConnection)
from string import punctuation
from typing import BinaryIO, Callable, Iterator, Mapping, Protocol
from urllib.parse import quote, unquote, urljoin, urlsplit

from cuflinks.errors import SchemeError, TransferError
from cuflinks.version import USER_AGENT

DEFAULT_TIMEOUT = 60.0
MAX_REDIRECTS = 5
_STREAM_CHUNK = 64 * 1024
_REDIRECTS = (301, 302, 303, 307, 308)
# the bytes hashed must be the bytes served, so no content coding
_HEADERS = {"User-Agent": USER_AGENT, "Accept-Encoding": "identity"}

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
    except ValueError as exc:
        raise TransferError(f"unusable URL {url!r}: {exc}") from exc
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    # percent-encode what http.client would refuse: spaces, controls and
    # non-ASCII characters; existing escapes and delimiters stay as given
    return (scheme, parts.hostname, port), quote(target, safe=punctuation)


def _is_stale(connection: HTTPConnection) -> bool:
    """True when an idle connection cannot carry another request.

    An idle kept-alive connection has nothing to read; if it is
    readable, the peer has closed it (or sent bytes no request asked
    for), and a request sent on it would fail.
    """
    if connection.sock is None:
        return True
    # poll, unlike select, takes descriptors above FD_SETSIZE
    poller = select.poll()
    poller.register(connection.sock, select.POLLIN)
    try:
        return bool(poller.poll(0))
    except OSError:
        return True


def _read(response: HTTPResponse, amount: int, request: str) -> bytes:
    """Up to amount bytes of the body; one that ends before its
    Content-Length is a TransferError."""
    try:
        data = response.read(amount)
    except (OSError, HTTPException) as exc:
        raise TransferError(f"{request} interrupted mid-body: {exc}") from exc
    if len(data) < amount and response.length:
        raise TransferError(f"{request} interrupted mid-body: "
                            f"{response.length} bytes missing")
    return data


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
    otherwise it is closed. The http_proxy, https_proxy and no_proxy
    environment variables, or their upper-case names, are read once,
    when the transport is made.
    GET follows at most MAX_REDIRECTS redirects, and drops the
    Authorization header when one leads to another origin.
    """

    def __init__(self) -> None:
        self._proxies = {scheme: proxy for scheme in ("http", "https", "no")
                         if (proxy := _proxy_setting(scheme))}
        self._idle: dict[Origin, list[HTTPConnection]] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._tls: ssl.SSLContext | None = None

    def close(self) -> None:
        """Close every idle connection; later requests are not pooled."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, {}
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

    @contextmanager
    def _exchange(self, method: str, url: str, body: bytes | None,
                  headers: Mapping[str, str]) -> Iterator[HTTPResponse]:
        """The response to method url, past any redirects a GET follows.

        Its connection is released when the block ends.
        """
        headers = {**_HEADERS, **headers}
        requested = url
        for _ in range(MAX_REDIRECTS + 1):
            origin, target = _origin(url)
            connection, response = self._send(origin, method, target, body,
                                              headers, url)
            location = response.getheader("Location")
            if (method != "GET" or response.status not in _REDIRECTS
                    or location is None):
                break
            # a short redirect body is read so that the connection can
            # be pooled; a long one is left, and the connection closed
            try:
                response.read(_STREAM_CHUNK)
            except (OSError, HTTPException):
                pass
            self._release(origin, connection, response)
            url = urljoin(url, location)
            if _origin(url)[0] != origin:  # credentials stay with origin
                headers.pop("Authorization", None)
        else:
            raise TransferError(
                f"GET {requested}: more than {MAX_REDIRECTS} redirects")
        try:
            yield response
        finally:
            self._release(origin, connection, response)

    def _send(self, origin: Origin, method: str, target: str,
              body: bytes | None, headers: dict[str, str], url: str
              ) -> tuple[HTTPConnection, HTTPResponse]:
        scheme, host, port = origin
        proxy = self._proxy(scheme, host)
        if proxy is not None and scheme == "http":
            # a plain-HTTP proxy takes the absolute URL, credentials cut
            authority = urlsplit(url).netloc.rpartition("@")[2]
            target = f"http://{authority}{target}"
            headers = {**headers, **proxy[2]}
        connection = self._checkout(origin)
        reused = connection is not None
        while True:
            if connection is None:
                connection = self._connect(origin, proxy)
            try:
                connection.request(method, target, body=body,
                                   headers=headers)
                return connection, connection.getresponse()
            except (OSError, HTTPException) as exc:
                connection.close()
                # the server may drop an idle connection just as it is
                # reused; a GET is safe to send again on a new one
                if not (reused and method == "GET"):
                    raise TransferError(
                        f"{method} {url} failed: {exc}") from exc
                connection, reused = None, False

    def _checkout(self, origin: Origin) -> HTTPConnection | None:
        while True:
            with self._lock:
                idle = self._idle.get(origin)
                if not idle:
                    return None
                connection = idle.pop()
            if not _is_stale(connection):
                return connection
            connection.close()

    def _release(self, origin: Origin, connection: HTTPConnection,
                 response: HTTPResponse) -> None:
        if response.isclosed() and not response.will_close:
            with self._lock:
                if not self._closed:
                    self._idle.setdefault(origin, []).append(connection)
                    return
        response.close()
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
                 ) -> HTTPConnection:
        """A new connection to origin; HTTPS through a proxy tunnels
        with CONNECT."""
        scheme, host, port = origin
        address = (host, port) if proxy is None else proxy[:2]
        if scheme == "http":
            return HTTPConnection(*address, timeout=DEFAULT_TIMEOUT)
        with self._lock:
            if self._tls is None:  # loading the CA store takes a while
                self._tls = ssl.create_default_context()
        connection = HTTPSConnection(*address, timeout=DEFAULT_TIMEOUT,
                                     context=self._tls)
        if proxy is not None:
            connection.set_tunnel(host, port, headers=proxy[2])
        return connection


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
