"""Chain verification over HTTP: `link ci`, `link verify --full` and
`link record` against a registry service and a file server, on a ledger
that holds every kind of node a check can find."""

import hashlib
import json
import socket

import pytest
from click.testing import CliRunner

from cuflinks.cli import main
from cuflinks.links import (EnvironmentRef, Ledger, LinkageRecord, MethodRef,
                            declare_root, record_linkage)
from cuflinks.minid import Checksum, Registry, RegistryServer
from cuflinks.minid import registry as registry_module

from conftest import FIXED_INSTANT

# fixed suffixes, so that the identifiers and the report's order are too
SUFFIXES = {name: f"Node{name.upper():0>8}" for name in (
    "a", "t", "m", "f", "s", "w", "o1", "o2", "x", "y", "n")}
UNMINTED = "minid:Unminted0001"
COMMIT = "c" * 40


def ident(name: str) -> str:
    return UNMINTED if name == "u" else f"minid:{SUFFIXES[name]}"


def sha256(body: bytes) -> Checksum:
    return Checksum("sha256", hashlib.sha256(body).hexdigest())


def linkage(output: str, *inputs: str) -> LinkageRecord:
    return LinkageRecord(
        output=ident(output), inputs=tuple(map(ident, inputs)),
        method=MethodRef.from_commit("https://example.org/p.git", COMMIT),
        environment=EnvironmentRef.from_inline({"os": "linux"}),
        actor="t", performed_at="2026-01-15T12:00:00Z")


@pytest.fixture
def pinned(tmp_path, file_server, monkeypatch):
    """A ledger whose chains hold a tombstoned node (t), an unminted one
    (u), a content mismatch (m), a first location that 404s before one
    that serves (f), a location of an unregistered scheme alone (s) and
    before one that serves (w), and a cycle (x, y); served by a registry
    service. Yields the ledger's path and the environment for the CLI."""
    monkeypatch.setattr(registry_module, "new_suffix",
                        iter(SUFFIXES.values()).__next__)
    monkeypatch.chdir(tmp_path)
    registry = Registry.open(tmp_path / "registry.log",
                             clock=lambda: FIXED_INSTANT)
    locations = {"f": ("/gone", "/f"), "s": ("ftp://example.org/s",),
                 "w": ("ftp://example.org/w", "/w")}
    for name in SUFFIXES:
        body = f"{name} bytes\n".encode()
        urls = tuple(location if "://" in location
                     else file_server.add(location, body)
                     for location in locations.get(name, (f"/{name}",)))
        registry.mint("t", name, urls, sha256(body))
    file_server.content["/m"] = b"swapped out from under the registry\n"
    del file_server.content["/gone"]
    registry.tombstone(ident("t"), actor="t")

    ledger = Ledger(tmp_path / "chain.jsonl")
    for root in "atmfsw":
        declare_root(ledger, ident(root), actor="t",
                     clock=lambda: "2026-01-15T12:00:00Z")
    for output, *inputs in (("o1", "a", "t", "u"),
                            ("o2", "a", "m", "f", "s", "w"),
                            ("x", "a", "y"), ("y", "x")):
        record_linkage(ledger, linkage(output, *inputs), registry)
    with RegistryServer(registry) as server:
        yield (tmp_path / "chain.jsonl",
               {"CUFLINKS_RESOLVER_URL": server.base_url,
                "CUFLINKS_STORE": None})
    registry.close()


def node(name: str, *, resolved=True, fixity="match", root=True,
         detail="") -> dict:
    return {"identifier": ident(name), "resolved": resolved,
            "fixity": fixity, "record_present": name in ("o1", "o2"),
            "declared_root": root, "detail": detail}


def expected_chains(files: str) -> dict[str, dict]:
    """The chains `link ci` reports, by start; files is the file
    server's base URL."""
    ftp = ("no transfer scheme registered for 'ftp' (url "
           "ftp://example.org/{0}); available: http, https, minid")
    chain = {"depth": "full-fixity", "diagnostics": []}
    chains = {
        "o1": {**chain, "start": ident("o1"), "verdict": "broken",
               "failing": [ident("t"), ident("u")],
               "nodes": [node("a"), node("o1", root=False),
                         node("t", resolved=False, fixity="unverifiable",
                              detail="identifier is tombstoned"),
                         node("u", resolved=False, fixity="unverifiable",
                              root=False,
                              detail=f"does not resolve: {UNMINTED} is not "
                                     f"minted here; no linkage record and "
                                     f"not a declared root")],
               "edges": [[ident("o1"), ident(i)] for i in "atu"]},
        "o2": {**chain, "start": ident("o2"), "verdict": "broken",
               "failing": [ident("m")],
               "nodes": [node("a"),
                         node("f"),
                         node("m", fixity="mismatch",
                              detail=f"{ident('m')}: content at "
                                     f"{files}/m does not match the "
                                     f"registered checksum"),
                         node("o2", root=False),
                         node("s", fixity="unverifiable",
                              detail=f"content unreachable: {ident('s')}: "
                                     f"every location failed: "
                                     + ftp.format("s")),
                         node("w")],
               "edges": [[ident("o2"), ident(i)] for i in "afmsw"]},
        "x": {**chain, "start": ident("x"), "verdict": "broken",
              "failing": [ident("x"), ident("y")], "nodes": [], "edges": [],
              "diagnostics": [f"provenance records form a cycle: "
                              f"{ident('x')} -> {ident('y')} -> "
                              f"{ident('x')}"]},
    }
    for body in chains.values():
        body["nodes"].sort(key=lambda entry: entry["identifier"])
    return chains


def invoke(args, env, expect):
    result = CliRunner().invoke(main, args, env=env, catch_exceptions=False)
    assert result.exit_code == expect, result.output
    return result


@pytest.fixture
def registry_gets(monkeypatch):
    """Every identifier the registry is asked to resolve."""
    asked = []
    resolve = Registry.resolve

    def counting(self, identifier):
        asked.append(identifier)
        return resolve(self, identifier)

    monkeypatch.setattr(Registry, "resolve", counting)
    return asked


def test_link_ci_report_is_pinned(pinned, file_server, registry_gets,
                                  monkeypatch):
    """Each distinct node is resolved once and its content fetched once,
    whatever the other nodes find; the sweep's registry GETs go out in
    one write."""
    ledger, env = pinned
    writes = []
    sendall = socket.socket.sendall

    def recorded(sock, data, *args):
        if bytes(data[:11]) == b"GET /minid/":
            writes.append(bytes(data))
        return sendall(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", recorded)
    file_server.requests.clear()
    report_file = ledger.parent / "report.json"
    result = invoke(["link", "ci", "--ledger", str(ledger), "--report",
                     str(report_file), "--json"], env, expect=1)
    report = json.loads(result.output)
    chains = expected_chains(file_server.base_url)
    assert report == {"verdict": "broken",
                      "chains": [chains["o1"], chains["o2"], chains["x"]],
                      "ledger_diagnostics": []}
    assert report_file.read_bytes() == (json.dumps(
        report, sort_keys=True, indent=2, ensure_ascii=False)
        + "\n").encode("utf-8")

    checked = [ident(name) for name in ("a", "t", "u", "o1", "m", "f", "s",
                                        "w", "o2")]
    assert sorted(registry_gets) == sorted(checked)
    assert sorted(file_server.requests) == sorted(
        ["/a", "/o1", "/m", "/gone", "/f", "/w", "/o2"])
    assert len(writes) == 1
    assert writes[0].count(b"GET /minid/") == len(checked)


def test_verify_and_record_report_what_ci_does(pinned, file_server,
                                               registry_gets):
    ledger, env = pinned
    chains = expected_chains(file_server.base_url)
    for start in ("o1", "o2"):
        result = invoke(["link", "verify", ident(start), "--full",
                         "--ledger", str(ledger), "--json"], env, expect=1)
        assert json.loads(result.output) == chains[start]

    registry_gets.clear()
    file_server.requests.clear()
    result = invoke(["link", "record", "--output", ident("n"), "--input",
                     ident("o1"), "--commit",
                     f"https://example.org/p.git@{COMMIT}", "--actor", "t",
                     "--ledger", str(ledger), "--json"], env, expect=1)
    report = json.loads(result.output)
    assert report["failing"] == chains["o1"]["failing"]
    assert report["nodes"] == sorted(
        chains["o1"]["nodes"]
        + [{**node("n", root=False), "record_present": True}],
        key=lambda entry: entry["identifier"])
    # the output is resolved once, to record it, and not again to check it
    assert sorted(registry_gets) == sorted(map(ident, ("n", "a", "t", "u",
                                                      "o1")))
    assert sorted(file_server.requests) == ["/a", "/n", "/o1"]
