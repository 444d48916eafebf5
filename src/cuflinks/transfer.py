"""Pluggable transfer schemes and the HTTP(S) fetcher.

A fetcher moves the bytes behind one URL into a binary sink and returns
the byte count. The registry maps URL schemes to fetchers; asking for an
unregistered scheme is a configuration error, raised before any network
activity so callers can pre-check a whole batch.
"""

from __future__ import annotations

import time
from http.cookiejar import DefaultCookiePolicy
from typing import BinaryIO, Callable, Protocol
from urllib.parse import urlsplit

import requests

from cuflinks.errors import SchemeError, TransferError
from cuflinks.version import USER_AGENT

DEFAULT_TIMEOUT = 60.0
MAX_REDIRECTS = 5
_STREAM_CHUNK = 64 * 1024

RETRY_ATTEMPTS = 3
RETRY_BASE_DELAY = 0.5

Sleeper = Callable[[float], None]


class Fetcher(Protocol):
    def fetch(self, url: str, sink: BinaryIO) -> int:
        """Write the resource behind url into sink; return bytes written."""


class HttpFetcher:
    """GET over http/https: streaming, bounded redirects, no cookies."""

    def __init__(self) -> None:
        self._session = requests.Session()
        self._session.max_redirects = MAX_REDIRECTS
        self._session.headers["User-Agent"] = USER_AGENT
        self._session.cookies.set_policy(
            DefaultCookiePolicy(allowed_domains=[]))

    def fetch(self, url: str, sink: BinaryIO) -> int:
        try:
            response = self._session.get(url, stream=True,
                                         timeout=DEFAULT_TIMEOUT)
        except requests.RequestException as exc:
            raise TransferError(f"GET {url} failed: {exc}") from exc
        with response:
            if response.status_code != 200:
                raise TransferError(
                    f"GET {url} returned status {response.status_code}")
            total = 0
            try:
                for chunk in response.iter_content(_STREAM_CHUNK):
                    sink.write(chunk)
                    total += len(chunk)
            except requests.RequestException as exc:
                raise TransferError(
                    f"GET {url} interrupted mid-body: {exc}") from exc
        return total


class SchemeRegistry:
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


def default_registry() -> SchemeRegistry:
    registry = SchemeRegistry()
    http = HttpFetcher()
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
