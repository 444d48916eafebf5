"""HTTP transport, fetching, scheme dispatch, and retry behavior."""

import base64
import io
import os
import selectors
import socket
import ssl
import threading
import urllib.request
from contextlib import contextmanager, suppress
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from conftest import FileServer
from cuflinks import transfer
from cuflinks.errors import SchemeError, TransferError
from cuflinks.minid import Checksum, RegistryClient
from cuflinks.transfer import (MAX_REDIRECTS, HttpFetcher, SchemeRegistry,
                               Transport, fetch_with_retries)

# a self-signed certificate for localhost and 127.0.0.1, and its key
CERTIFICATE = Path(__file__).parent / "tls" / "localhost.pem"
KEY = Path(__file__).parent / "tls" / "localhost.key"


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
    fetcher.prefetch(["http://127.0.0.1:9/never"])  # leaves it to fetch
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
def scripted_server(*connections, tls: ssl.SSLContext | None = None):
    """Serves the given connections one after another, over TLS when
    given a server-side context. Each is a list of (n, reply) steps:
    read n more requests (heads without bodies), then send reply; after
    its last step the connection is closed. Yields the server's base
    URL, per connection the request heads it read, and a semaphore
    released as each connection is closed."""
    listener = socket.create_server(("127.0.0.1", 0))
    received: list[list[bytes]] = []
    closed = threading.Semaphore(0)

    def serve():
        for steps in connections:
            connection, _ = listener.accept()
            if tls is not None:
                connection = tls.wrap_socket(connection, server_side=True)
            heads: list[bytes] = []
            received.append(heads)
            buffered = b""
            with connection:
                for count, reply in steps:
                    while buffered.count(b"\r\n\r\n") < count:
                        data = connection.recv(65536)
                        if not data:
                            return
                        buffered += data
                    for _ in range(count):
                        head, _, buffered = buffered.partition(b"\r\n\r\n")
                        heads.append(head)
                    with suppress(ConnectionError):  # the client gave up
                        connection.sendall(reply)
            closed.release()

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    try:
        yield ("http%s://%s:%d" % ("" if tls is None else "s",
                                   *listener.getsockname()),
               received, closed)
        server.join(timeout=10)
        assert not server.is_alive()
    finally:
        listener.close()


@contextmanager
def raw_server(*replies: bytes, kept: bool = False):
    """Answers each request with the next reply, and closes each
    connection after its reply or, when kept, one connection after them
    all; yields the URL and a semaphore released as each connection is
    closed."""
    steps = [(1, reply) for reply in replies]
    with scripted_server(*([steps] if kept else [[step] for step in steps])
                         ) as (base, _, closed):
        yield base + "/x", closed


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


# --- the HTTP/1.1 codec ------------------------------------------------------

def pooled(transport: Transport) -> int:
    """The idle connections a transport holds."""
    return sum(map(len, transport._idle.values()))


def test_chunked_reply_keeps_its_connection(transport):
    """Chunk extensions and trailer fields are read past, and the
    connection carries the next request."""
    chunked = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip, chunked\r\n"
               b"\r\n3;name=value\r\nabc\r\n2\r\nde\r\n0\r\n"
               b"Expires: never\r\n\r\n")
    with raw_server(chunked, chunked, kept=True) as (url, _):
        assert transport.call("GET", url, limit=100) == (200, b"abcde")
        assert pooled(transport) == 1
        sink = io.BytesIO()
        assert transport.get(url, sink) == 5
        assert sink.getvalue() == b"abcde"


def test_interim_replies_are_skipped(transport):
    reply = (b"HTTP/1.1 100 Continue\r\n\r\n"
             b"HTTP/1.1 102 Processing\r\nX-Step: 1\r\n\r\n"
             b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
    with raw_server(reply) as (url, _):
        assert transport.call("GET", url, limit=10) == (200, b"ok")


@pytest.mark.parametrize("reply,body,kept", [
    (b"HTTP/1.1 204 No Content\r\n\r\n", b"", True),
    (b"HTTP/1.1 200 OK\r\nContent-Length: 2, 2\r\n\r\nok", b"ok", True),
    (b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", b"ok", False),
    (b"HTTP/1.1 200 OK\r\nConnection: Keep-Alive, Close\r\n"
     b"Content-Length: 2\r\n\r\nok", b"ok", False),
    (b"HTTP/1.1 200 OK\r\n\r\nup to the close", b"up to the close", False),
    (b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n"
     b"Transfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n", b"ok",
     False),
], ids=["no-content", "same-lengths", "http-1.0", "connection-close",
        "to-close", "chunked-and-length"])
def test_framing_decides_whether_the_connection_is_pooled(transport, reply,
                                                          body, kept):
    with raw_server(reply) as (url, _):
        assert transport.call("GET", url, limit=100)[1] == body
    assert pooled(transport) == kept


def test_replies_at_the_bounds_are_read(transport):
    """A line of 64 KiB and 100 header fields are within the bounds."""
    line = b"X-Long: " + b"x" * (64 * 1024 - 10) + b"\r\n"
    assert len(line) == 64 * 1024
    reply = (b"HTTP/1.1 200 OK\r\n" + b"X-Field: 1\r\n" * 98 + line
             + b"Content-Length: 2\r\n\r\nok")
    with raw_server(reply) as (url, _):
        assert transport.call("GET", url, limit=10) == (200, b"ok")


@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 200 " + b"x" * (64 * 1024) + b"\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nX-Long: " + b"x" * (64 * 1024) + b"\r\n\r\n",
    b"HTTP/1.1 200 OK\r\n" + b"X-Field: 1\r\n" * 101 + b"\r\n",
    b"garbage\r\n\r\n",
    b"HTTP/2 200 OK\r\n\r\n",
    b"HTTP/1.1 2000 OK\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: 1e3\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nok",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nok\r\n",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
    + b"f" * 5000 + b"\r\nok\r\n",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nokay\r\n",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n9\r\nok",
    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n",
], ids=["long-status-line", "long-field-line", "101-fields", "garbage",
        "http-2", "four-digit-status", "field-without-colon",
        "length-1e3", "length-negative", "length-5000-digits",
        "two-lengths", "bad-chunk-size", "chunk-size-5000-digits",
        "chunk-overrun", "chunk-cut-short", "head-cut-short"])
def test_malformed_reply_is_a_transfer_error(transport, reply):
    with raw_server(reply) as (url, _):
        with pytest.raises(TransferError):
            transport.call("GET", url, limit=100)
    assert pooled(transport) == 0


@pytest.mark.parametrize("method,target,headers", [
    ("GET\r\nX-Injected: 1", "/", {}),
    ("GET", "/", {"X-Name\n": "value"}),
    ("GET", "/", {"X-Name": "split\r\nX-Injected: 1"}),
    ("GET", "/", {"X-Name": "nul\0"}),
    ("GET", "/a b", {}),
    ("GET", "/a\tb", {}),
    ("GET", "/a\x7f", {}),
    ("GET", "/caf\xe9", {}),
], ids=["method", "name", "value-crlf", "value-nul", "target-space",
        "target-tab", "target-del", "target-non-ascii"])
def test_request_that_would_change_its_framing_is_refused(method, target,
                                                          headers):
    with pytest.raises(ValueError):
        transfer._request(method, target, "example.org", headers, None)


def test_token_with_a_line_break_is_refused_before_sending(transport):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = RegistryClient(
            "http://%s:%d/minid" % listener.getsockname(),
            transport=transport, token="sesame\r\nX-Admin: yes")
        with pytest.raises(TransferError) as excinfo:
            client.mint("t", "c", ("http://example.org/x",),
                        Checksum("sha256", "1" * 64))
        assert "CR, LF or NUL" in str(excinfo.value)
        listener.setblocking(False)
        with pytest.raises(BlockingIOError):
            listener.accept()  # not even a connection was made


def test_request_goes_out_in_one_write(transport, monkeypatch):
    """The request line, header fields and body leave in one write."""
    sent = []
    sendall = socket.socket.sendall

    def recorded(sock, data, *args):
        sent.append(bytes(data))
        return sendall(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", recorded)
    with raw_server(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n") as (
            url, answered):
        assert transport.call("POST", url, body=b"{}", limit=10) == (200, b"")
        assert answered.acquire(timeout=10)
    request, reply = sent
    assert request.startswith(b"POST /x HTTP/1.1\r\nHost: 127.0.0.1:")
    assert request.endswith(b"\r\nContent-Length: 2\r\n\r\n{}")
    assert reply.startswith(b"HTTP/1.1 200 OK")


def test_host_field_brackets_an_ipv6_literal():
    assert transfer._authority("::1", 8080) == "[::1]:8080"
    assert transfer._authority("::1", 80, 80) == "[::1]"
    assert transfer._authority("example.org", 443, 443) == "example.org"


# --- pipelined GETs ----------------------------------------------------------

def ok(body: bytes, *fields: bytes) -> bytes:
    return (b"HTTP/1.1 200 OK\r\n" + b"".join(f + b"\r\n" for f in fields)
            + b"Content-Length: %d\r\n\r\n" % len(body) + body)


def targets(heads: list[bytes]) -> list[str]:
    return [head.split(b" ")[1].decode() for head in heads]


@pytest.fixture
def requests_sent(monkeypatch):
    """Every write of GET requests a client socket makes."""
    sent = []
    sendall = socket.socket.sendall

    def recorded(sock, data, *args):
        if bytes(data[:4]) == b"GET ":  # not a server's reply
            sent.append(bytes(data))
        return sendall(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", recorded)
    return sent


def test_prefetched_gets_leave_in_one_write_on_one_connection(
        file_server, transport, requests_sent):
    urls = [file_server.add(f"/{name}", name.encode() * 3) for name in "abc"]
    transport.prefetch(urls)
    assert len(requests_sent) == 1
    assert requests_sent[0].count(b"GET /") == 3
    sink = io.BytesIO()
    assert transport.get(urls[0], sink) == 3
    assert sink.getvalue() == b"aaa"
    assert transport.call("GET", urls[1], limit=10) == (200, b"bbb")
    assert transport.call("GET", urls[2], limit=10) == (200, b"ccc")
    assert len(requests_sent) == 1  # each reply read, nothing sent again
    assert file_server.requests == ["/a", "/b", "/c"]
    assert len(set(file_server.peers)) == 1
    assert pooled(transport) == 1  # once all are read, an idle connection


def test_replies_the_server_never_sent_are_requested_again(transport):
    """The server reads all four requests, answers two and closes."""
    with scripted_server([(4, ok(b"a") + ok(b"b"))],
                         [(1, ok(b"c")), (1, ok(b"d"))]) as (base, received,
                                                             _):
        urls = [f"{base}/{name}" for name in "abcd"]
        transport.prefetch(urls)
        assert [transport.call("GET", url, limit=10)[1] for url in urls] == [
            b"a", b"b", b"c", b"d"]
    assert [targets(heads) for heads in received] == [
        ["/a", "/b", "/c", "/d"], ["/c", "/d"]]


@pytest.mark.parametrize("scheme", ["http", "https"])
def test_replies_outlive_a_send_the_closed_connection_refused(transport,
                                                              scheme):
    """GETs prefetched after the server answered and closed cannot be
    sent; the replies already received are still read, and those GETs
    go out again on a new connection when they are made."""
    tls = None
    if scheme == "https":
        tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        tls.load_cert_chain(CERTIFICATE, KEY)
        trust_test_certificate(transport)
    with scripted_server([(2, ok(b"a") + ok(b"b"))],
                         [(1, ok(b"c")), (1, ok(b"d"))], tls=tls) as (
                             base, received, closed):
        urls = [f"{base}/{name}" for name in "abcd"]
        transport.prefetch(urls[:2])
        assert closed.acquire(timeout=10)
        transport.prefetch(urls[2:3])  # reaches a closed socket
        transport.prefetch(urls[3:])  # the send that fails
        assert [transport.call("GET", url, limit=10)[1] for url in urls] == [
            b"a", b"b", b"c", b"d"]
    assert [targets(heads) for heads in received] == [
        ["/a", "/b"], ["/c", "/d"]]


@pytest.mark.parametrize("cut", ["limit", "connection-close", "to-close"])
def test_a_reply_that_ends_the_connection_sends_the_rest_again(transport,
                                                               cut):
    """The second of three pipelined replies leaves its connection
    unusable; the third request is sent again, and the reply queued on
    the closed connection is never handed to it."""
    second = {"limit": ok(b"b" * 50),
              "connection-close": ok(b"b", b"Connection: close"),
              "to-close": b"HTTP/1.1 200 OK\r\n\r\nb"}[cut]
    with scripted_server([(3, ok(b"a") + second + ok(b"stale"))],
                         [(1, ok(b"fresh"))]) as (base, received, _):
        urls = [f"{base}/{name}" for name in "abc"]
        transport.prefetch(urls)
        assert transport.call("GET", urls[0], limit=10) == (200, b"a")
        status, body = transport.call("GET", urls[1], limit=10)
        assert (status, body[:1]) == (200, b"b")
        assert transport.call("GET", urls[2], limit=10) == (200, b"fresh")
    assert [targets(heads) for heads in received] == [
        ["/a", "/b", "/c"], ["/c"]]


@pytest.mark.parametrize("method,headers", [
    ("GET", {"Authorization": "Bearer other"}),
    ("GET", {}),
    ("POST", {"Authorization": "Bearer sesame"}),
], ids=["other-token", "no-token", "post"])
def test_a_request_unlike_the_queued_one_never_gets_its_reply(
        transport, method, headers):
    with scripted_server([(1, ok(b"for the queued request"))],
                         [(1, ok(b"its own"))]) as (base, received, _):
        transport.prefetch([f"{base}/x"],
                           headers={"Authorization": "Bearer sesame"})
        assert transport.call(method, f"{base}/x", headers=headers,
                              limit=100) == (200, b"its own")
        assert transport._pipelined == {}
    queued, own = received
    assert b"\r\nAuthorization: Bearer sesame" in queued[0]
    assert own[0].startswith(method.encode() + b" /x ")
    assert (b"\r\nAuthorization: Bearer sesame" in own[0]) == (
        method == "POST")


def test_a_pipelined_redirect_is_followed(file_server, transport):
    file_server.add("/final", b"arrived")
    file_server.redirects["/moved"] = "/final"
    transport.prefetch([file_server.url("/moved")])
    sink = io.BytesIO()
    assert transport.get(file_server.url("/moved"), sink) == 7
    assert sink.getvalue() == b"arrived"
    assert file_server.requests == ["/moved", "/final"]


def test_requests_in_flight_stay_within_the_bound(file_server, transport,
                                                  requests_sent):
    """Long targets make 40 requests about twice the bound: those that
    fit are pipelined, the rest sent when they are made."""
    paths = [f"/{index:02d}" + "x" * 700 for index in range(40)]
    urls = [file_server.add(path, path[1:3].encode()) for path in paths]
    transport.prefetch(urls[:30])
    transport.prefetch(urls[30:])  # nothing fits beside the first ones
    (pipelined,) = requests_sent
    fitted = pipelined.count(b"GET /")
    assert len(pipelined) <= transfer.PIPELINE_BYTES
    assert len(pipelined) + len(pipelined) // fitted > \
        transfer.PIPELINE_BYTES
    for url, path in zip(urls, paths):
        assert transport.call("GET", url, limit=10) == (
            200, path[1:3].encode())
    assert len(requests_sent) == 1 + 40 - fitted
    assert file_server.requests == paths
    assert len(set(file_server.peers)) == 1


def test_close_closes_pipelined_connections(file_server, transport):
    urls = [file_server.add(f"/{name}", b"unread") for name in "ab"]
    transport.prefetch(urls)
    (connection,) = transport._pipelined.values()
    transport.close()
    assert transport._pipelined == {}
    assert connection.sock.fileno() == -1
    # a closed transport still answers, and keeps nothing
    assert transport.call("GET", urls[0], limit=10) == (200, b"unread")
    assert transport._pipelined == {} and pooled(transport) == 0


# --- HTTPS and CONNECT -------------------------------------------------------

@pytest.fixture
def tls_server():
    """A file server speaking HTTPS with the test certificate."""
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(CERTIFICATE, KEY)
    server = FileServer(tls=context)
    yield server
    server.close()


def trust_test_certificate(transport: Transport) -> Transport:
    transport._tls = ssl.create_default_context(cafile=CERTIFICATE)
    return transport


def test_https_connection_is_kept_alive(tls_server, transport):
    trust_test_certificate(transport)
    for name in ("/a", "/b"):
        sink = io.BytesIO()
        transport.get(tls_server.add(name, name.encode()), sink)
        assert sink.getvalue() == name.encode()
    assert len(tls_server.peers) == 2
    assert len(set(tls_server.peers)) == 1


def test_https_certificate_must_be_trusted(tls_server, transport):
    with pytest.raises(TransferError) as excinfo:
        transport.get(tls_server.add("/a", b"a"), io.BytesIO())
    assert "certificate" in str(excinfo.value)
    assert tls_server.requests == []


class TunnelProxy:
    """A stub proxy that answers CONNECT with a tunnel to one upstream
    address, whatever host is asked for, or refuses it with a status;
    it keeps the head of each request it is sent."""

    def __init__(self, upstream: tuple[str, int],
                 refuse: int | None = None) -> None:
        self.heads: list[bytes] = []
        self._upstream = upstream
        self._refuse = refuse
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        return "http://user:p%%40ss@%s:%d" % self._listener.getsockname()

    def _serve(self) -> None:
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:  # shut down
                return
            with client, suppress(OSError):
                self._answer(client)

    def _answer(self, client: socket.socket) -> None:
        head = b""
        while b"\r\n\r\n" not in head:
            if not (chunk := client.recv(4096)):
                return
            head += chunk
        self.heads.append(head)
        if self._refuse is not None:
            client.sendall(b"HTTP/1.1 %d Refused\r\nContent-Length: 0\r\n"
                           b"\r\n" % self._refuse)
            return
        with socket.create_connection(self._upstream) as upstream, \
                selectors.DefaultSelector() as selector:
            client.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
            selector.register(client, selectors.EVENT_READ, upstream)
            selector.register(upstream, selectors.EVENT_READ, client)
            while True:
                for key, _ in selector.select():
                    if not (data := key.fileobj.recv(65536)):
                        return
                    key.data.sendall(data)

    def close(self) -> None:
        with suppress(OSError):  # wakes accept()
            self._listener.shutdown(socket.SHUT_RDWR)
        self._thread.join(timeout=10)
        self._listener.close()
        assert not self._thread.is_alive()


@contextmanager
def tunnelled(tls_server, monkeypatch, refuse: int | None = None):
    """A stub proxy in front of tls_server, and a transport that reaches
    https through it and trusts the test certificate."""
    upstream = urlsplit(tls_server.base_url)
    proxy = TunnelProxy((upstream.hostname, upstream.port), refuse)
    try:
        for name in ("no_proxy", "NO_PROXY", "HTTPS_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("https_proxy", proxy.url)
        with Transport() as transport:
            yield proxy, trust_test_certificate(transport), upstream.port
    finally:
        proxy.close()


def test_https_tunnels_through_the_proxy(tls_server, monkeypatch):
    with tunnelled(tls_server, monkeypatch) as (proxy, transport, port):
        for name in ("/a", "/b"):
            sink = io.BytesIO()
            transport.get(
                tls_server.add(name, name.encode()).replace(
                    "127.0.0.1", "localhost"), sink)
            assert sink.getvalue() == name.encode()
    assert len(proxy.heads) == 1  # one tunnel carried both requests
    credentials = base64.b64encode(b"user:p@ss")
    assert proxy.heads[0].startswith(
        b"CONNECT localhost:%d HTTP/1.1\r\n" % port)
    assert b"\r\nProxy-Authorization: Basic %s\r\n" % credentials \
        in proxy.heads[0]
    # the credentials are the proxy's: they never reach the origin
    assert [headers.get("Proxy-Authorization")
            for headers in tls_server.headers_seen] == [None, None]


def test_https_name_mismatch_is_refused(tls_server, monkeypatch):
    """The tunnel reaches a server whose certificate does not name the
    host asked for."""
    with tunnelled(tls_server, monkeypatch) as (proxy, transport, port):
        with pytest.raises(TransferError) as excinfo:
            transport.get(f"https://wrong.invalid:{port}/a", io.BytesIO())
    assert "certificate" in str(excinfo.value)
    assert proxy.heads[0].startswith(b"CONNECT wrong.invalid:%d " % port)
    assert tls_server.requests == []


def test_https_proxy_refusal_is_a_transfer_error(tls_server, monkeypatch):
    with tunnelled(tls_server, monkeypatch, refuse=407) as (
            proxy, transport, port):
        with pytest.raises(TransferError) as excinfo:
            transport.get(f"https://localhost:{port}/a", io.BytesIO())
    assert "407" in str(excinfo.value)
    assert len(proxy.heads) == 1
