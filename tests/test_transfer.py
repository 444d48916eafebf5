"""HTTP transport, fetching, scheme dispatch, and retry behavior."""

import io
import os
import socket
import threading
import urllib.request
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from conftest import FileServer
from cuflinks import transfer
from cuflinks.errors import SchemeError, TransferError
from cuflinks.transfer import (MAX_REDIRECTS, HttpFetcher, SchemeRegistry,
                               Transport, fetch_with_retries)


@pytest.fixture
def fetcher(transport):
    return HttpFetcher(transport)


def test_http_fetch(file_server, fetcher):
    url = file_server.add("/atlas.csv", b"col\n1\n")
    sink = io.BytesIO()
    count = fetcher.fetch(url, sink)
    assert sink.getvalue() == b"col\n1\n"
    assert count == 6


def test_http_fetch_404_raises(file_server, fetcher):
    with pytest.raises(TransferError) as excinfo:
        fetcher.fetch(file_server.url("/absent"), io.BytesIO())
    assert "404" in str(excinfo.value)


def test_http_fetch_connection_refused(fetcher):
    with pytest.raises(TransferError):
        fetcher.fetch("http://127.0.0.1:9/never", io.BytesIO())


def test_user_agent_header_sent(file_server, fetcher):
    file_server.add("/x", b"x")
    fetcher.fetch(file_server.url("/x"), io.BytesIO())
    assert file_server.headers_seen[-1]["User-Agent"].startswith(
        "cuflinks/")
    # the bytes hashed are the bytes served: no content coding
    assert file_server.headers_seen[-1]["Accept-Encoding"] == "identity"


def test_scheme_registry_dispatch(schemes):
    assert sorted(schemes.schemes()) == ["http", "https"]
    assert schemes.for_url("http://e.org/a") is schemes.for_url(
        "https://e.org/a")
    with pytest.raises(SchemeError) as excinfo:
        schemes.for_url("globus://endpoint/path")
    assert "globus" in str(excinfo.value)
    assert "http" in str(excinfo.value)


def test_scheme_registry_rejects_duplicates(fetcher):
    registry = SchemeRegistry()
    registry.register("http", fetcher)
    with pytest.raises(SchemeError):
        registry.register("http", fetcher)


# --- connections, redirects and proxies ----------------------------------

def test_one_connection_carries_successive_requests(file_server, fetcher):
    for name in "abc":
        fetcher.fetch(file_server.add(f"/{name}", name.encode()),
                      io.BytesIO())
    assert len(set(file_server.peers)) == 1


def test_redirects_are_followed_up_to_the_limit(file_server, fetcher):
    file_server.add("/final", b"arrived")
    for hop in range(MAX_REDIRECTS + 1):
        file_server.redirects[f"/r{hop}"] = (
            f"/r{hop + 1}" if hop < MAX_REDIRECTS else "/final")
    sink = io.BytesIO()
    assert fetcher.fetch(file_server.url("/r1"), sink) == 7  # 5 redirects
    assert sink.getvalue() == b"arrived"
    with pytest.raises(TransferError) as excinfo:
        fetcher.fetch(file_server.url("/r0"), io.BytesIO())  # 6 redirects
    assert "redirects" in str(excinfo.value)
    assert file_server.requests[6:] == [f"/r{hop}" for hop in range(6)]


def test_authorization_is_dropped_at_another_origin(file_server, transport):
    other = FileServer()
    try:
        other.add("/there", b"{}")
        file_server.add("/here", b"{}")
        file_server.redirects["/same"] = "/here"
        file_server.redirects["/away"] = other.url("/there")
        secret = {"Authorization": "Bearer sesame"}
        for path in ("/same", "/away"):
            status, _ = transport.call("GET", file_server.url(path),
                                       headers=secret, limit=100)
            assert status == 200
        seen = [headers.get("Authorization")
                for headers in file_server.headers_seen]
        assert seen == ["Bearer sesame"] * 3
        assert [h.get("Authorization") for h in other.headers_seen] == [None]
    finally:
        other.close()


class ForwardProxy:
    """A stub proxy that answers every request itself, noting its target."""

    def __init__(self) -> None:
        self.targets: list[str] = []
        proxy = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, format: str, *args) -> None:
                pass

            def do_GET(self) -> None:
                proxy.targets.append(self.path)
                self.send_response(200)
                self.send_header("Content-Length", "7")
                self.end_headers()
                self.wfile.write(b"proxied")

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()


@pytest.fixture
def forward_proxy():
    proxy = ForwardProxy()
    yield proxy
    proxy.close()


def test_http_proxy_from_the_environment(forward_proxy, file_server,
                                         monkeypatch):
    for name in ("no_proxy", "NO_PROXY", "HTTP_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("http_proxy", forward_proxy.url)
    sink = io.BytesIO()
    with Transport() as transport:
        transport.get("http://data.example.org/a%20b?x=1", sink)
    assert sink.getvalue() == b"proxied"
    assert forward_proxy.targets == ["http://data.example.org/a%20b?x=1"]

    monkeypatch.setenv("no_proxy", "127.0.0.1")
    url = file_server.add("/direct", b"direct")
    sink = io.BytesIO()
    with Transport() as transport:
        transport.get(url, sink)
    assert sink.getvalue() == b"direct"
    assert file_server.requests == ["/direct"]
    assert len(forward_proxy.targets) == 1


@pytest.mark.parametrize("environment", [
    {"http_proxy": "http://lower:1", "https_proxy": "http://lower:2",
     "no_proxy": "example.org"},
    {"HTTP_PROXY": "http://upper:1", "HTTPS_PROXY": "http://upper:2",
     "NO_PROXY": "example.org"},
    {"http_proxy": "http://lower:1", "HTTP_PROXY": "http://upper:1",
     "HTTPS_PROXY": "http://upper:2", "https_proxy": "http://lower:2"},
    {"http_proxy": "", "HTTP_PROXY": "http://upper:1", "https_proxy": "",
     "NO_PROXY": ""},
    {"all_proxy": "http://all:1", "ALL_PROXY": "http://all:2",
     "ftp_proxy": "http://ftp:1"},
    {"REQUEST_METHOD": "GET", "HTTP_PROXY": "http://upper:1",
     "HTTPS_PROXY": "http://upper:2"},
    {"REQUEST_METHOD": "GET", "http_proxy": "http://lower:1",
     "HTTP_PROXY": "http://upper:1"},
], ids=["lower", "upper", "both", "empty", "all", "cgi-upper", "cgi-lower"])
def test_proxies_follow_urllib(environment, monkeypatch):
    for name in list(os.environ):
        if name.lower().endswith("_proxy") or name == "REQUEST_METHOD":
            monkeypatch.delenv(name)
    for name, value in environment.items():
        monkeypatch.setenv(name, value)
    expected = {scheme: proxy for scheme, proxy
                in urllib.request.getproxies_environment().items()
                if scheme in ("http", "https", "no")}
    with Transport() as transport:
        assert transport._proxies == expected


@contextmanager
def raw_server(*replies: bytes):
    """Answers one request per connection, with each reply in turn, and
    closes the connection after it; yields the URL and a semaphore
    released once per reply sent."""
    listener = socket.create_server(("127.0.0.1", 0))
    answered = threading.Semaphore(0)

    def serve():
        for reply in replies:
            connection, _ = listener.accept()
            with connection:
                connection.recv(65536)
                connection.sendall(reply)
            answered.release()

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    try:
        yield "http://%s:%d/x" % listener.getsockname(), answered
        server.join(timeout=10)
        assert not server.is_alive()
    finally:
        listener.close()


@pytest.mark.parametrize("method", ["POST", "GET"])
def test_idle_connection_closed_by_the_server_is_replaced(transport, method,
                                                          monkeypatch):
    """The server closes each connection after one kept-alive reply.

    The idle-connection check finds that before a POST is sent on it. A
    GET is also sent again on a new connection when the close goes
    unseen, as when it comes just after the check.
    """
    if method == "GET":
        monkeypatch.setattr(transfer, "_is_stale", lambda connection: False)
    ok = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
    with raw_server(ok, ok) as (url, answered):
        assert transport.call("GET", url, limit=10) == (200, b"ok")
        assert answered.acquire(timeout=10)  # and the connection closed
        assert transport.call(method, url, limit=10) == (200, b"ok")
        assert answered.acquire(timeout=10)


def test_idle_check_takes_descriptors_above_fd_setsize():
    """select() refuses a descriptor at or above FD_SETSIZE (1024); the
    idle check still tells a live connection from one the peer closed."""
    import fcntl
    import resource
    from types import SimpleNamespace
    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] <= 2048:
        pytest.skip("the descriptor limit leaves no room above 2048")
    ours, peers = socket.socketpair()
    with ours, peers, socket.socket(fileno=fcntl.fcntl(
            ours.fileno(), fcntl.F_DUPFD, 2048)) as high:
        connection = SimpleNamespace(sock=high)
        assert not transfer._is_stale(connection)
        peers.close()
        assert transfer._is_stale(connection)


def test_body_cut_short_is_a_transfer_error(transport):
    with raw_server(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n"
                    b"short") as (url, _):
        with pytest.raises(TransferError) as excinfo:
            transport.get(url, io.BytesIO())
    assert "5 bytes missing" in str(excinfo.value)


class RecordingSink(io.BytesIO):
    """BytesIO that keeps its content visible after close."""

    def __init__(self):
        super().__init__()
        self.final = b""

    def close(self):
        self.final = self.getvalue()
        super().close()


def test_retries_back_off_and_recover(file_server, fetcher):
    url = file_server.add("/flaky", b"eventually")
    file_server.fail_next["/flaky"] = 2
    delays = []
    sinks = []

    def open_sink():
        sink = RecordingSink()
        sinks.append(sink)
        return sink

    count = fetch_with_retries(fetcher, url, open_sink,
                               sleep=delays.append)
    assert count == 10
    assert delays == [0.5, 1.0]
    assert len(sinks) == 3  # a fresh sink per attempt
    assert sinks[-1].final == b"eventually"


def test_retries_exhaust(file_server, fetcher):
    url = file_server.add("/down", b"never served")
    file_server.fail_next["/down"] = 99
    delays = []
    with pytest.raises(TransferError) as excinfo:
        fetch_with_retries(fetcher, url, io.BytesIO,
                           sleep=delays.append)
    assert delays == [0.5, 1.0]
    assert "3 attempts" in str(excinfo.value)
    assert file_server.requests.count("/down") == 3
