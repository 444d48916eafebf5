"""One HTTP/1.1 codec at both ends: a head the registry refuses as a
request, the client refuses as a reply."""

import io
import json
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuflinks.errors import CuflinksError, TransferError
from cuflinks.framing import MAX_FIELDS, MAX_LINE, read_head
from cuflinks.minid import Registry, RegistryServer
from cuflinks.minid import service
from cuflinks.transfer import _Response

from test_transfer import pooled, raw_server

# a mint request's body, padded to the 163 bytes that "16_3" would
# declare to a reader that takes it for a number
BODY = json.dumps({"checksum": {"algorithm": "sha256",
                                "digest": "1" * 64}}).encode().ljust(163)
SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: registry\r\n\r\n"

# header fields that frame a message in a way both ends refuse
MALFORMED = {
    "length-16_3": b"Content-Length: 16_3",
    "length-+0": b"Content-Length: +0",
    "differing-lengths": b"Content-Length: 0\r\nContent-Length: 163",
    "space-before-colon": b"Content-Length : 163",
    "obs-fold": b"Content-Length: 163\r\nX-Note: a\r\n folded",
    "long-line": b"Content-Length: 163\r\nX-Long: " + b"x" * MAX_LINE,
    "101-fields": b"Content-Length: 163"
                  + b"\r\nX-Field: 1" * MAX_FIELDS,
}
# ... and ones that only a request can break
MALFORMED_REQUESTS = {
    "no-host": b"Content-Length: 163",
    "two-hosts": b"Host: registry\r\nHost: registry\r\nContent-Length: 163",
    "transfer-encoding": b"Host: registry\r\nTransfer-Encoding: identity"
                         b"\r\nContent-Length: 163",
}


def exchange(address, request: bytes) -> bytes:
    """Everything the server sends back until it closes the connection."""
    reply = b""
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(request)
        try:
            while chunk := sock.recv(4096):
                reply += chunk
        except ConnectionResetError:
            pass  # closed with request bytes unread
    return reply


@pytest.mark.parametrize("fields", [
    *(pytest.param(b"Host: registry\r\n" + fields, id=name)
      for name, fields in MALFORMED.items()),
    *(pytest.param(fields, id=name)
      for name, fields in MALFORMED_REQUESTS.items())])
def test_registry_refuses_the_request_and_closes(tmp_path, fields):
    """One 400, and the connection ends: neither the body nor the
    request pipelined after it is read as a request."""
    with Registry.open(tmp_path / "registry.log") as registry, \
            RegistryServer(registry) as server:
        reply = exchange(server.address, b"POST /minid HTTP/1.1\r\n"
                         + fields + b"\r\n\r\n" + BODY + SMUGGLED)
        assert len(registry) == 0
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert reply.count(b"HTTP/1.1") == 1
    assert b"\r\nConnection: close\r\n" in reply


@pytest.mark.parametrize("fields", MALFORMED.values(), ids=MALFORMED.keys())
def test_client_refuses_the_reply(transport, fields):
    reply = b"HTTP/1.1 200 OK\r\n" + fields + b"\r\n\r\n" + BODY
    with raw_server(reply) as (url, _):
        with pytest.raises(TransferError):
            transport.call("GET", url, limit=1024)
    assert pooled(transport) == 0


@pytest.mark.parametrize("head,status", [
    (b"PUT /minid HTTP/1.1\r\n\r\n", 501),
    (b"GET /healthz HTTP/1.0\r\nHost: registry\r\n\r\n", 200),
    (b"GET /healthz HTTP/1.1\r\nHost: registry\r\nConnection: close"
     b"\r\n\r\n", 200)], ids=["unknown-method", "http-1.0", "close"])
def test_request_answered_before_the_connection_closes(tmp_path, head,
                                                      status):
    """An unknown method gets a JSON 501, before any check of its header
    fields; an HTTP/1.0 request or one that says Connection: close gets
    its answer. Then the connection ends, unread requests and all."""
    with Registry.open(tmp_path / "registry.log") as registry, \
            RegistryServer(registry) as server:
        reply = exchange(server.address, head + SMUGGLED)
    answer, _, body = reply.partition(b"\r\n\r\n")
    assert answer.startswith(b"HTTP/1.1 %d " % status)
    assert b"\r\nConnection: close" in answer
    assert json.loads(body)


# --- generated and mutated heads -------------------------------------------

SEEDS = [
    b"POST /minid HTTP/1.1\r\nHost: registry\r\nContent-Length: 2, 2\r\n"
    b"Connection: keep-alive, close\r\nExpect: 100-continue\r\n\r\n{}",
    b"GET /minid/fPTs86M7VTyb HTTP/1.0\r\nHost: registry\r\n\r\n",
    b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\n"
    b"Content-Length: 2\r\nConnection: close\r\n\r\nok",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip, chunked\r\n"
    b"Content-Length: 9\r\n\r\n2\r\nok\r\n0\r\n\r\n",
]
PIECES = [b"\r\n", b"\n", b"\r", b":", b" ", b"\t", b",", b"\0", b"_", b"+",
          b"-", b"HTTP/1.1 ", b"Host: h\r\n", b"Content-Length: ",
          b"Transfer-Encoding: chunked\r\n", b"\xff", b"9" * 20]


@st.composite
def mutated(draw) -> bytes:
    """A seed head with pieces inserted, deleted and overwritten."""
    data = bytearray(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(data)))
        piece = draw(st.sampled_from(PIECES) | st.binary(max_size=4))
        cut = draw(st.integers(0, 4))
        if draw(st.booleans()):
            data[at:at] = piece
        else:
            data[at:at + cut] = piece[:cut]
    return bytes(data)


def read_request(data: bytes) -> int:
    _, fields = read_head(io.BytesIO(data), service._REQUEST_LINE)
    return service._body_length(fields)


def read_reply(data: bytes) -> _Response:
    return _Response(io.BytesIO(data))


@settings(max_examples=400, deadline=None)
@given(data=st.binary(max_size=200) | mutated(),
       reader=st.sampled_from([read_request, read_reply]))
def test_readers_return_or_raise_the_codec_error(data, reader):
    """Whatever bytes arrive, a head reader returns a value or raises a
    CuflinksError; nothing else escapes to the caller."""
    try:
        reader(data)
    except CuflinksError:
        pass
