"""Shared fixtures: fixed clock, fixture trees, a local file server,
a resolver that counts lookups, a counter of directory fsyncs."""

from __future__ import annotations

import functools
import os
import ssl
import stat
import threading
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from cuflinks.transfer import Transport, default_registry

FIXED_INSTANT = datetime(2026, 1, 15, 12, 0, 0, tzinfo=timezone.utc)

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def fixed_clock():
    return lambda: FIXED_INSTANT


@pytest.fixture
def directory_fsyncs(monkeypatch):
    """A list that grows by one on every fsync of a directory."""
    synced: list[int] = []
    real_fsync = os.fsync

    def fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            synced.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return synced


@pytest.fixture
def fig3_tree(tmp_path):
    """The two-payload-file, one-annotation fixture tree."""
    source = tmp_path / "source"
    source.mkdir()
    (source / "file1").write_bytes(b"first payload file\n")
    (source / "file2").write_bytes(b"second payload file, longer\n")
    metadata = tmp_path / "extra-metadata"
    metadata.mkdir()
    (metadata / "annotations.txt").write_text(
        "sample: zebrafish embryo\nstage: prim-5\n", encoding="utf-8")
    return source, metadata


class CountingResolver:
    """Counts resolve() calls per identifier on the way to a registry."""

    def __init__(self, registry):
        self.registry = registry
        self.calls: list[str] = []

    def resolve(self, identifier):
        self.calls.append(identifier)
        return self.registry.resolve(identifier)


class FileServer:
    """In-process HTTP/1.1 server over a dict of {path: bytes}.

    Useful knobs for tests: replace content to simulate tampering, set
    fail_next to refuse a number of requests, map a path to a Location
    in redirects, and read requests to see exactly what was asked for
    and peers to see over which connections. Connections are kept alive.
    Given a server-side TLS context, it speaks HTTPS.
    """

    def __init__(self, tls: ssl.SSLContext | None = None) -> None:
        self.content: dict[str, bytes] = {}
        self.requests: list[str] = []
        self.headers_seen: list[dict] = []
        self.peers: list[tuple[str, int]] = []
        self.fail_next: dict[str, int] = {}
        self.redirects: dict[str, str] = {}
        self._lock = threading.Lock()

        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, format: str, *args) -> None:
                pass

            def do_GET(self) -> None:
                with server._lock:
                    server.requests.append(self.path)
                    server.headers_seen.append(dict(self.headers))
                    server.peers.append(self.client_address)
                    failures = server.fail_next.get(self.path, 0)
                    if failures > 0:
                        server.fail_next[self.path] = failures - 1
                        self.send_error(503, "synthetic failure")
                        return
                    location = server.redirects.get(self.path)
                    body = server.content.get(self.path)
                if location is not None:
                    self.send_response(302)
                    self.send_header("Location", location)
                    self.send_header("Content-Length", "0")
                    self.end_headers()
                    return
                if body is None:
                    self.send_error(404, "no such fixture")
                    return
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.send_header("Content-Type",
                                 "application/octet-stream")
                self.end_headers()
                self.wfile.write(body)

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # closing does not wait for a client to drop its idle connection
        self._httpd.block_on_close = False
        self._scheme = "http" if tls is None else "https"
        if tls is not None:
            self._httpd.socket = tls.wrap_socket(self._httpd.socket,
                                                 server_side=True)
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        daemon=True)
        self._thread.start()

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address
        return f"{self._scheme}://{host}:{port}"

    def url(self, path: str) -> str:
        return self.base_url + path

    def add(self, path: str, body: bytes) -> str:
        self.content[path] = body
        return self.url(path)

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()


@pytest.fixture
def file_server():
    server = FileServer()
    yield server
    server.close()


@pytest.fixture
def transport():
    """An HTTP transport, closed after the test."""
    with Transport() as opened:
        yield opened


@pytest.fixture
def schemes(transport):
    """The http(s) scheme registry over the test's transport."""
    return default_registry(transport)


@pytest.fixture
def acceptance(request):
    """Record one acceptance line; failing the check fails the test."""
    def _record(criterion: int, ok: bool, detail: str = "") -> None:
        line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        _ACCEPTANCE_LINES.append(line)
        assert ok, line
    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
