"""The resolution API over real sockets, exercised through the client."""

import json
import os
import struct
import sys
import threading
import urllib.request
import zlib

import pytest

from cuflinks.errors import (IdentifierError, NotFoundError, RegistryError,
                             TransferError)
from cuflinks.minid import (Checksum, Registry, RegistryClient,
                            RegistryServer)
from cuflinks.minid import store

from conftest import FIXED_INSTANT

SHA = "1" * 64
URL = "http://127.0.0.1:1/content"


@pytest.fixture
def server(tmp_path):
    registry = Registry.open(tmp_path / "registry.log",
                             clock=lambda: FIXED_INSTANT)
    with RegistryServer(registry) as running:
        yield running
    registry.close()


@pytest.fixture
def client(server):
    return RegistryClient(server.base_url)


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


def test_conflict_states_are_409(client):
    identifier = mint(client)
    client.tombstone(identifier, actor="t")
    with pytest.raises(RegistryError):
        client.update_locations(identifier, add=("https://e.org/x",),
                                actor="t")


def test_healthy_probe(client, server):
    assert client.healthy()
    unreachable = RegistryClient("http://127.0.0.1:1/minid", timeout=0.2)
    assert not unreachable.healthy()


def test_client_wraps_connection_errors():
    client = RegistryClient("http://127.0.0.1:1/minid", timeout=0.2)
    with pytest.raises(TransferError):
        client.resolve("minid:fPTs86M7VTyb")


def test_write_token_enforced(tmp_path):
    registry = Registry.open(tmp_path / "registry.log")
    with RegistryServer(registry, token="sesame") as server:
        anonymous = RegistryClient(server.base_url)
        with pytest.raises(RegistryError) as excinfo:
            anonymous.mint("t", "c", (URL,), Checksum("sha256", SHA))
        assert "401" in str(excinfo.value) or "unauthorized" in str(
            excinfo.value)
        trusted = RegistryClient(server.base_url, token="sesame")
        identifier = trusted.mint("t", "c", (URL,),
                                  Checksum("sha256", SHA)).identifier
        # reads stay open
        assert anonymous.resolve(identifier).identifier == identifier
        with pytest.raises(RegistryError):
            anonymous.tombstone(identifier, actor="t")
    registry.close()


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


@pytest.mark.parametrize("length,status", [("-1", 400),
                                           ("99999999", 413)])
def test_unusable_content_length_is_refused(server, length, status):
    import socket
    with socket.create_connection(server.address, timeout=2) as sock:
        sock.sendall(f"POST /minid HTTP/1.1\r\nHost: registry\r\n"
                     f"Content-Length: {length}\r\n\r\n".encode())
        reply = sock.recv(4096)
    assert reply.startswith(f"HTTP/1.0 {status} ".encode())


def test_concurrent_mints_over_http(server):
    import threading
    client = RegistryClient(server.base_url)
    minted: list[str] = []
    errors: list[Exception] = []

    def work():
        try:
            local = RegistryClient(server.base_url)
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


def test_patch_that_cannot_be_stored_is_500(client, server, monkeypatch):
    identifier = mint(client)
    monkeypatch.setattr(store, "os", NoSpace())
    status, body = http_send(
        f"{server.base_url}/{identifier.removeprefix('minid:')}", "PATCH",
        {"add": ["https://mirror.org/x"], "actor": "tester"})
    assert status == 500
    assert body["error"] == "registry-error"
    assert "No space left" in body["detail"]
    monkeypatch.undo()
    assert client.resolve(identifier).locations == (URL,)


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
        reader = RegistryClient(server.base_url)
        while not done.is_set():
            try:
                reader.resolve(identifier)
            except Exception as exc:  # noqa: BLE001 - surface in main thread
                errors.append(exc)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside builds too
    try:
        # a fresh open: the first reads build the record as updates commit
        with Registry.open(path) as registry, \
                RegistryServer(registry) as server:
            readers = [threading.Thread(target=read) for _ in range(3)]
            for thread in readers:
                thread.start()
            writer = RegistryClient(server.base_url)
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
