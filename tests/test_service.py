"""The resolution API over real sockets, exercised through the client."""

import http.client
import json
import os
import random
import socket
import struct
import sys
import threading
import time
import urllib.request
import zlib

import pytest

from cuflinks.errors import (IdentifierError, NotFoundError, RegistryError,
                             TransferError)
from cuflinks.minid import (Checksum, Registry, RegistryClient,
                            RegistryServer)
from cuflinks.minid import registry as registry_module
from cuflinks.minid import service, store
from cuflinks.minid.model import MAX_BODY_BYTES, MAX_RECORD_BYTES
from cuflinks.minid.service import REQUEST_TIMEOUT
from cuflinks.transfer import Transport

from conftest import FIXED_INSTANT

SHA = "1" * 64
URL = "http://127.0.0.1:1/content"
MINT_BODY = {"author": "tester", "title": "content", "locations": [URL],
             "checksum": {"algorithm": "sha256", "digest": SHA}}


@pytest.fixture
def server(tmp_path):
    registry = Registry.open(tmp_path / "registry.log",
                             clock=lambda: FIXED_INSTANT)
    with RegistryServer(registry) as running:
        yield running
    registry.close()


@pytest.fixture
def client(server, transport):
    return RegistryClient(server.base_url, transport=transport)


def mint(client) -> str:
    record = client.mint("tester", "content", (URL,),
                         Checksum("sha256", SHA))
    return record.identifier


def http_get(url: str):
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_healthz(server):
    status, body = http_get(server.base_url.rsplit("/", 1)[0] + "/healthz")
    assert status == 200
    assert body == {"status": "ok", "identifiers": 0}


def test_mint_and_resolve(client):
    identifier = mint(client)
    record = client.resolve(identifier)
    assert record.identifier == identifier
    assert record.status == "active"
    assert record.created == "2026-01-15T12:00:00Z"


def test_resolve_unknown_is_404(client, server):
    with pytest.raises(NotFoundError):
        client.resolve("minid:fPTs86M7VTyb")
    status, body = http_get(f"{server.base_url}/fPTs86M7VTyb")
    assert status == 404
    assert body["error"] == "not-found"


def test_resolve_malformed_is_400(client, server):
    with pytest.raises(IdentifierError):
        client.resolve("minid:nope")
    status, body = http_get(f"{server.base_url}/nope")
    assert status == 400
    assert body["error"] == "malformed-identifier"


def test_tombstoned_is_410_with_record(client, server):
    identifier = mint(client)
    client.tombstone(identifier, actor="tester")
    record = client.resolve(identifier)  # still resolves via the client
    assert record.status == "tombstoned"
    status, body = http_get(
        f"{server.base_url}/{identifier.removeprefix('minid:')}")
    assert status == 410
    assert body["status"] == {"state": "tombstoned"}
    assert body["checksum"]["digest"] == SHA


def test_update_locations_via_patch(client):
    identifier = mint(client)
    record = client.update_locations(identifier,
                                     add=("https://mirror.org/x",),
                                     actor="tester")
    assert record.locations == (URL, "https://mirror.org/x")
    record = client.update_locations(identifier, remove=(URL,),
                                     actor="tester")
    assert record.locations == ("https://mirror.org/x",)


def test_supersede_via_patch(client):
    old = mint(client)
    new = mint(client)
    record = client.supersede(old, new, actor="tester")
    assert record.status == "superseded"
    assert record.superseded_by == new
    with pytest.raises(RegistryError):  # 409: cycle
        client.supersede(new, old, actor="tester")


def test_conflict_states_are_409(client, server, monkeypatch):
    identifier = mint(client)
    client.tombstone(identifier, actor="t")
    with pytest.raises(RegistryError):
        client.update_locations(identifier, add=("https://e.org/x",),
                                actor="t")
    # a mint that finds no free suffix is refused with the same status
    suffix = identifier.removeprefix("minid:")
    monkeypatch.setattr(registry_module, "new_suffix", lambda: suffix)
    for method, url, body in [
            ("PATCH", f"{server.base_url}/{suffix}",
             {"add": ["https://e.org/x"], "actor": "t"}),
            ("POST", server.base_url, MINT_BODY)]:
        status, reply = http_send(url, method, body)
        assert (status, reply["error"]) == (409, "conflict"), method


def test_healthy_probe(client, transport):
    assert client.healthy()
    unreachable = RegistryClient("http://127.0.0.1:1/minid",
                                 transport=transport)
    assert not unreachable.healthy()


def test_client_wraps_connection_errors(transport):
    client = RegistryClient("http://127.0.0.1:1/minid", transport=transport)
    with pytest.raises(TransferError):
        client.resolve("minid:fPTs86M7VTyb")


@pytest.mark.parametrize("reply", [
    b"{}", b"not json", b"[1]", b"\xff",
    json.dumps({"padding": "x" * MAX_BODY_BYTES}).encode()])
def test_unusable_reply_is_a_registry_error(file_server, transport, reply):
    file_server.add("/minid/fPTs86M7VTyb", reply)
    client = RegistryClient(file_server.url("/minid"), transport=transport)
    with pytest.raises(RegistryError):
        client.resolve("minid:fPTs86M7VTyb")


def test_write_token_enforced(tmp_path, transport):
    registry = Registry.open(tmp_path / "registry.log")
    with RegistryServer(registry, token="sesame") as server:
        anonymous = RegistryClient(server.base_url, transport=transport)
        trusted = RegistryClient(server.base_url, token="sesame",
                                 transport=transport)
        with pytest.raises(RegistryError) as excinfo:
            anonymous.mint("t", "c", (URL,), Checksum("sha256", SHA))
        assert "401" in str(excinfo.value) or "unauthorized" in str(
            excinfo.value)
        identifier = trusted.mint("t", "c", (URL,),
                                  Checksum("sha256", SHA)).identifier
        # reads stay open
        assert anonymous.resolve(identifier).identifier == identifier
        with pytest.raises(RegistryError):
            anonymous.tombstone(identifier, actor="t")
    registry.close()


SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: registry\r\n\r\n"


@pytest.mark.parametrize("head,body,status", [
    pytest.param(b"POST /minid", b"Content-Length: %d\r\n\r\n%s"
                 % (len(SMUGGLED), SMUGGLED), 401, id="unauthorized-post"),
    pytest.param(b"GET /healthz", b"Content-Length: %d\r\n\r\n%s"
                 % (len(SMUGGLED), SMUGGLED), 400, id="get-with-length"),
    pytest.param(b"GET /healthz", b"Transfer-Encoding: chunked\r\n\r\n"
                 b"%x\r\n%s\r\n0\r\n\r\n" % (len(SMUGGLED), SMUGGLED),
                 400, id="chunked-get")])
def test_refused_body_is_never_read_as_a_request(tmp_path, head, body,
                                                 status):
    """A request refused before its body is read ends the connection:
    a request smuggled in the body is never answered."""
    registry = Registry.open(tmp_path / "registry.log")
    with RegistryServer(registry, token="sesame") as server, \
            socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(head + b" HTTP/1.1\r\nHost: registry\r\n" + body)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    registry.close()
    assert reply.startswith(b"HTTP/1.1 %d " % status)
    assert reply.count(b"HTTP/1.1") == 1
    assert b"connection: close" in reply.lower()


def test_each_reply_goes_out_in_one_write(client, server, monkeypatch):
    """Status line, header fields and body leave in one write: a record,
    a route's error, a refusal that ends the connection, and a method
    the service does not serve."""
    identifier = mint(client)
    writes = []
    sendall = socket.socket.sendall

    def recorded(self, data, *args):
        if bytes(data).startswith(b"HTTP/"):  # a reply, not a request
            writes.append(bytes(data))
        return sendall(self, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", recorded)
    assert client.resolve(identifier).identifier == identifier
    with pytest.raises(NotFoundError):
        client.resolve("minid:fPTs86M7VTyb")
    for request in (b"GET /healthz HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
                    b"PUT /minid HTTP/1.1\r\n\r\n"):
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(request)
            while sock.recv(4096):
                pass  # until the server closes the connection
    assert [reply[:12] for reply in writes] == [
        b"HTTP/1.1 200", b"HTTP/1.1 404", b"HTTP/1.1 400", b"HTTP/1.1 501"]
    for reply in writes:
        head, _, body = reply.partition(b"\r\n\r\n")
        assert b"Content-Length: %d\r\n" % len(body) in head + b"\r\n"


def test_pipelined_requests_are_answered_in_order(client, server):
    """GETs written together, before any reply is read, are each
    answered, in order, on the one connection."""
    identifiers = [mint(client) for _ in range(3)]
    client.tombstone(identifiers[1])
    paths = [f"/minid/{identifier[len('minid:'):]}"
             for identifier in identifiers] + ["/minid/fPTs86M7VTyb",
                                               "/healthz"]
    answers = []
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(b"".join(b"GET %s HTTP/1.1\r\nHost: registry\r\n\r\n"
                              % path.encode() for path in paths))
        with sock.makefile("rb") as replies:
            for _ in paths:
                status = int(replies.readline().split()[1])
                fields = dict(line.rstrip(b"\r\n").lower().split(b": ", 1)
                              for line in iter(replies.readline, b"\r\n"))
                body = json.loads(replies.read(
                    int(fields[b"content-length"])))
                answers.append((status, body.get("identifier")))
    assert answers == [(200, identifiers[0]), (410, identifiers[1]),
                       (200, identifiers[2]), (404, None), (200, None)]


def test_interim_reply_is_sent_before_the_body_is_read(server):
    """A client that sends Expect: 100-continue waits for the interim
    reply before it sends the body."""
    body = json.dumps(MINT_BODY).encode()
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(b"POST /minid HTTP/1.1\r\nHost: registry\r\n"
                     b"Expect: 100-continue\r\nContent-Length: %d\r\n\r\n"
                     % len(body))
        assert sock.recv(4096) == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(body)
        assert sock.recv(4096).startswith(b"HTTP/1.1 201 ")


@pytest.mark.parametrize("fields,status", [
    pytest.param(b"Content-Length: 2", 401, id="unauthorized-401"),
    pytest.param(b"Authorization: Bearer sesame\r\nContent-Length: %d"
                 % (MAX_BODY_BYTES + 1), 413, id="too-large-413")])
def test_refused_request_gets_no_interim_reply(tmp_path, fields, status):
    """A request refused before its body is read gets its final status
    only: the client is never invited to send a body left unread."""
    with Registry.open(tmp_path / "registry.log") as registry, \
            RegistryServer(registry, token="sesame") as server, \
            socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(b"POST /minid HTTP/1.1\r\nHost: registry\r\n"
                     b"Expect: 100-continue\r\n%s\r\n\r\n" % fields)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    assert reply.startswith(b"HTTP/1.1 %d " % status)
    assert reply.count(b"HTTP/1.1") == 1


def test_every_record_fits_the_client_reply_cap(tmp_path, transport):
    """Writes that would leave a record larger than a reply can carry
    are refused, so whatever the service stores its client can read."""
    registry = Registry.open(tmp_path / "registry.log")
    with RegistryServer(registry) as server:
        client = RegistryClient(server.base_url, transport=transport)
        checksum = Checksum("sha256", SHA)
        base = client.mint("t", "x", (URL,), checksum).rendered_size() - 1
        with pytest.raises(RegistryError, match="413"):
            client.mint("t", "x" * (MAX_RECORD_BYTES - base + 1), (URL,),
                        checksum)
        assert len(registry) == 1
        largest = client.mint("t", "x" * (MAX_RECORD_BYTES - base), (URL,),
                              checksum)
        assert largest.rendered_size() == MAX_RECORD_BYTES
        assert client.resolve(largest.identifier) == largest
        # locations cannot grow a record past the limit one PATCH at a time
        with pytest.raises(RegistryError, match="413"):
            client.update_locations(largest.identifier,
                                    add=("https://e.org/more",), actor="t")
        with pytest.raises(RegistryError, match="413"):
            client.supersede(largest.identifier,
                             "doi:" + "9" * 4096, actor="t")
        assert client.resolve(largest.identifier) == largest
        # the largest record still has room to be tombstoned and read
        client.tombstone(largest.identifier, actor="t")
        assert client.resolve(largest.identifier).status == "tombstoned"
    registry.close()


def test_client_refuses_a_body_over_the_limit(client, server):
    identifier = mint(client)
    before = client.resolve(identifier)
    with pytest.raises(RegistryError, match=f"request body of .* exceeds "
                                            f"the resolver's "
                                            f"{MAX_BODY_BYTES}-byte limit"):
        client.supersede(identifier, "doi:" + "9" * (8 * 1024 * 1024),
                         actor="t")
    assert client.resolve(identifier) == before


def test_post_with_bad_body_is_400(server):
    request = urllib.request.Request(
        server.base_url, data=b"not json",
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        urllib.request.urlopen(request)
        status = 200
    except urllib.error.HTTPError as error:
        status = error.code
        body = json.loads(error.read())
    assert status == 400
    assert body["error"] == "bad-request"


@pytest.mark.parametrize("header,status", [
    pytest.param("Content-Length: -1", 400, id="-1-400"),
    pytest.param("Content-Length: 99999999", 413, id="99999999-413"),
    pytest.param("Transfer-Encoding: chunked", 400, id="chunked-400")])
def test_unusable_content_length_is_refused(server, header, status):
    with socket.create_connection(server.address, timeout=2) as sock:
        sock.sendall(f"POST /minid HTTP/1.1\r\nHost: registry\r\n"
                     f"{header}\r\n\r\n".encode())
        reply = sock.recv(4096)
    assert reply.startswith(f"HTTP/1.1 {status} ".encode())


def test_concurrent_mints_over_http(server, client):
    import threading
    minted: list[str] = []
    errors: list[Exception] = []

    def work():
        try:
            with Transport() as transport:
                local = RegistryClient(server.base_url, transport=transport)
                for _ in range(10):
                    minted.append(mint_one(local))
        except Exception as exc:  # noqa: BLE001 - surface in main thread
            errors.append(exc)

    def mint_one(local):
        return local.mint("t", "c", (URL,),
                          Checksum("sha256", SHA)).identifier

    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(set(minted)) == 40
    assert client.resolve(minted[0]).status == "active"


# --- store failures and racing requests ----------------------------------

def http_send(url: str, method: str, body: dict):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode(), method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class NoSpace:
    """Stands in for ``os`` inside the store: every write fails ENOSPC."""

    def __getattr__(self, name):
        return getattr(os, name)

    def write(self, fd, data):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("method", ["PATCH", "POST"])
def test_write_that_cannot_be_stored_is_500(client, server, monkeypatch,
                                            method):
    identifier = mint(client)
    monkeypatch.setattr(store, "os", NoSpace())
    if method == "PATCH":
        status, body = http_send(
            f"{server.base_url}/{identifier.removeprefix('minid:')}",
            method, {"add": ["https://mirror.org/x"], "actor": "tester"})
    else:
        status, body = http_send(server.base_url, method, MINT_BODY)
    assert status == 500
    assert body["error"] == "registry-error"
    assert "No space left" in body["detail"]
    monkeypatch.undo()
    assert client.resolve(identifier).locations == (URL,)
    assert len(server.registry) == 1


def test_get_of_a_malformed_committed_event_is_500(tmp_path):
    path = tmp_path / "registry.log"
    event = {"op": "minted", "suffix": "AAAAAAAAAAAA", "author": "tester",
             "created": "2026-01-15T12:00:00Z", "title": "content",
             "locations": [URL], "checksum": {"algorithm": "sha256"},
             "seq": 1}
    payload = json.dumps(event, sort_keys=True,
                         separators=(",", ":")).encode()
    path.write_bytes(struct.pack(">II", len(payload), zlib.crc32(payload))
                     + payload)
    with Registry.open(path) as registry, RegistryServer(registry) as server:
        status, body = http_get(f"{server.base_url}/AAAAAAAAAAAA")
    assert status == 500
    assert body["error"] == "registry-error"
    assert "event 1 of" in body["detail"]


def test_reads_racing_updates_end_at_the_last_acknowledged_one(tmp_path):
    path = tmp_path / "registry.log"
    with Registry.open(path) as registry:
        identifier = registry.mint("tester", "content", (URL,),
                                   Checksum("sha256", SHA)).identifier
    errors: list[Exception] = []
    done = threading.Event()

    def read():
        with Transport() as transport:
            reader = RegistryClient(server.base_url, transport=transport)
            while not done.is_set():
                try:
                    reader.resolve(identifier)
                except Exception as exc:  # noqa: BLE001 - checked below
                    errors.append(exc)
                    return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside builds too
    try:
        # a fresh open: the first reads build the record as updates commit
        with Registry.open(path) as registry, \
                RegistryServer(registry) as server, \
                Transport() as transport:
            writer = RegistryClient(server.base_url, transport=transport)
            readers = [threading.Thread(target=read) for _ in range(3)]
            for thread in readers:
                thread.start()
            for n in range(20):
                last = writer.update_locations(
                    identifier, add=(f"https://mirror.org/{n}",), actor="t")
            done.set()
            for thread in readers:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert writer.resolve(identifier) == last
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert len(last.locations) == 21
    with Registry.open(path, read_only=True) as reopened:
        assert reopened.resolve(identifier) == last


# --- the fixed set of workers ----------------------------------------------

def idle_connection(server) -> http.client.HTTPConnection:
    """A connection kept alive after one answered request."""
    connection = http.client.HTTPConnection(*server.address, timeout=30)
    connection.request("GET", "/healthz")
    response = connection.getresponse()
    assert response.status == 200
    response.read()
    return connection


def test_connect_and_close_never_waits_for_the_backlog(server):
    slowest = 0.0
    for _ in range(150):
        started = time.monotonic()
        socket.create_connection(server.address, timeout=5).close()
        slowest = max(slowest, time.monotonic() - started)
    assert slowest < 0.5  # a full backlog costs a SYN retransmit, ~1 s


def test_idle_connections_hold_at_most_the_workers(tmp_path):
    threads = threading.active_count()
    with Registry.open(tmp_path / "registry.log") as registry, \
            RegistryServer(registry) as server:
        connections = [idle_connection(server) for _ in range(50)]
        try:
            assert (threading.active_count() - threads
                    <= service.WORKERS + 1)
        finally:
            for connection in connections:
                connection.close()


def test_idle_connections_do_not_starve_a_new_client(client, server):
    identifier = mint(client)
    transports = [Transport() for _ in range(service.WORKERS + 1)]
    try:
        clients = [RegistryClient(server.base_url, transport=transport)
                   for transport in transports]
        for held in clients[:-1]:  # one idle connection per worker
            held.resolve(identifier)
        started = time.monotonic()
        assert clients[-1].resolve(identifier).identifier == identifier
        assert time.monotonic() - started < REQUEST_TIMEOUT / 10
        # the evicted connection is replaced on its client's next call
        for held in clients:
            assert held.resolve(identifier).identifier == identifier
    finally:
        for transport in transports:
            transport.close()


def test_stop_ends_every_worker_and_closes_the_socket(tmp_path):
    threads = set(threading.enumerate())
    with Registry.open(tmp_path / "registry.log") as registry:
        server = RegistryServer(registry).start()
        connection = idle_connection(server)
        try:
            server.stop()
        finally:
            connection.close()
    assert set(threading.enumerate()) == threads
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(server.address, timeout=5).close()


def test_history_of_concurrent_clients_survives_a_reopen(tmp_path,
                                                         monkeypatch):
    """Clients outnumber the workers; every acknowledged write is in the
    replayed log, and every reply holds the write it acknowledges."""
    monkeypatch.setattr(service, "WORKERS", 3)
    path = tmp_path / "registry.log"
    with Registry.open(path) as registry:
        shared = [registry.mint("t", "shared", (URL,),
                                Checksum("sha256", SHA)).identifier
                  for _ in range(4)]
    minted: dict[str, tuple[str, str]] = {}  # identifier -> title, digest
    added: dict[str, set[str]] = {identifier: set()
                                  for identifier in shared}
    errors: list[BaseException] = []
    lock = threading.Lock()

    def work(n: int, base_url: str) -> None:
        rng = random.Random(1700 + n)
        mine: dict[str, set[str]] = {}  # this client's acknowledged adds
        with Transport() as transport:
            local = RegistryClient(base_url, transport=transport)
            for step in range(50):
                if rng.random() < 0.05:  # idle long enough to be evicted
                    time.sleep(3 * service.IDLE_GRACE)
                targets = shared + sorted(mine.keys() - set(shared))
                action = rng.choice(("mint", "add", "add", "resolve"))
                if action == "mint":
                    title, digest = f"c{n}-{step}", f"{n:02x}{step:062x}"
                    record = local.mint("t", title, (URL,),
                                        Checksum("sha256", digest))
                    assert (record.title, record.checksum.digest,
                            record.locations) == (title, digest, (URL,))
                    with lock:
                        minted[record.identifier] = (title, digest)
                        added[record.identifier] = set()
                    mine[record.identifier] = set()
                elif action == "add":
                    identifier = rng.choice(targets)
                    location = f"https://mirror.org/{n}/{step}"
                    record = local.update_locations(
                        identifier, add=(location,), actor=f"c{n}")
                    assert location in record.locations
                    with lock:
                        added[identifier].add(location)
                    mine.setdefault(identifier, set()).add(location)
                else:
                    identifier = rng.choice(targets)
                    record = local.resolve(identifier)
                    assert record.identifier == identifier
                    # this client's earlier writes precede the read
                    assert mine.get(identifier, set()) <= set(
                        record.locations)

    def run(n: int, base_url: str) -> None:
        try:
            work(n, base_url)
        except BaseException as exc:  # noqa: BLE001 - checked below
            errors.append(exc)

    with Registry.open(path) as registry, \
            RegistryServer(registry) as server:
        threads = [threading.Thread(target=run, args=(n, server.base_url))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    assert not errors, errors
    assert minted
    with Registry.open(path, read_only=True) as reopened:
        assert len(reopened) == len(shared) + len(minted)
        for identifier, (title, digest) in minted.items():
            record = reopened.resolve(identifier)
            assert (record.title, record.checksum.digest) == (title, digest)
        for identifier, locations in added.items():
            assert locations <= set(reopened.resolve(identifier).locations)
