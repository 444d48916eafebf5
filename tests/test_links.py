"""Linkage records, the hash-chained ledger, and chain verification."""

import hashlib
import json
import os

import pytest

from cuflinks.errors import (CycleError, IdentifierError, LedgerError,
                             NotInLedgerError)
from cuflinks.links import (EnvironmentRef, Ledger, LinkageRecord,
                            MethodRef, RootRecord, capture_environment,
                            ci_verify, declare_root, record_linkage,
                            verify_chain, walk_chain)
from cuflinks.links.chain import (BROKEN, FIXITY_MATCH, FIXITY_MISMATCH,
                                  FIXITY_UNVERIFIABLE, FULL_FIXITY,
                                  INTACT, RESOLVE_ONLY)
from cuflinks.minid import Checksum, Registry, checksum_of_file

from conftest import FIXED_INSTANT, CountingResolver

COMMIT = "d" * 40


def ids(n: int) -> list[str]:
    return [f"minid:aaaaaaaaaa{i:02d}" for i in range(n)]


def method() -> MethodRef:
    return MethodRef.from_commit("https://example.org/pipeline.git", COMMIT)


def environment() -> EnvironmentRef:
    return EnvironmentRef.from_inline({"os": "linux", "python": "3.10"})


def linkage(output: str, inputs: tuple[str, ...]) -> LinkageRecord:
    return LinkageRecord(output=output, inputs=inputs, method=method(),
                         environment=environment(), actor="tester",
                         performed_at="2026-01-15T12:00:00Z")


class FakeResolver:
    """resolve() from a dict; raising for anything unknown."""

    def __init__(self, known=(), tombstoned=()):
        self.known = set(known)
        self.tombstoned = set(tombstoned)

    def resolve(self, identifier):
        from cuflinks.minid import MinidRecord
        if identifier not in self.known:
            from cuflinks.errors import NotFoundError
            raise NotFoundError(f"{identifier} is not minted here")
        status = ("tombstoned" if identifier in self.tombstoned
                  else "active")
        return MinidRecord(
            identifier=identifier, author="t", created="t", title="t",
            locations=("http://127.0.0.1:1/x",),
            checksum=Checksum("sha256", "0" * 64), status=status)


# --- record types -------------------------------------------------------

def test_method_ref_commit():
    ref = MethodRef.from_commit("https://example.org/x.git", COMMIT.upper())
    assert ref.commit == COMMIT
    body = ref.to_json()
    assert MethodRef.from_json(body) == ref
    with pytest.raises(ValueError):
        MethodRef.from_commit("https://example.org/x.git", "main")
    with pytest.raises(ValueError):
        MethodRef.from_commit("https://example.org/x.git", "d" * 7)
    with pytest.raises(ValueError):
        MethodRef.from_commit("https://example.org/x.git", COMMIT + "\n")


def test_method_ref_artifact():
    ref = MethodRef.from_artifact("minid:aaaaaaaaaa01")
    assert MethodRef.from_json(ref.to_json()) == ref
    with pytest.raises(IdentifierError):
        MethodRef.from_artifact("not-an-id")


def test_environment_ref():
    inline = environment()
    assert EnvironmentRef.from_json(inline.to_json()) == inline
    by_id = EnvironmentRef(identifier="minid:aaaaaaaaaa09")
    assert EnvironmentRef.from_json(by_id.to_json()) == by_id
    with pytest.raises(ValueError):
        EnvironmentRef()


def test_capture_environment_mentions_this_interpreter():
    captured = capture_environment()
    keys = dict(captured.inline)
    assert "os" in keys and "architecture" in keys
    assert any("pytest==" in dep for dep in keys["dependencies"])


def test_linkage_record_rules():
    a, b, c = ids(3)
    record = linkage(a, (b, c))
    assert LinkageRecord.from_json(record.to_json()) == record
    with pytest.raises(CycleError):
        linkage(a, (a, b))
    with pytest.raises(ValueError):
        linkage(a, (b, b))
    with pytest.raises(IdentifierError):
        linkage("minid:bad", (b,))


# --- ledger -------------------------------------------------------------

def test_ledger_lines_are_hash_chained(tmp_path):
    a, b, c = ids(3)
    ledger = Ledger(tmp_path / "chain.jsonl")
    resolver = FakeResolver(known=(a, b, c))
    declare_root(ledger, a, actor="t", clock=lambda: "t0")
    record_linkage(ledger, linkage(b, (a,)), resolver)
    record_linkage(ledger, linkage(c, (b,)), resolver)

    raw = (tmp_path / "chain.jsonl").read_bytes()
    assert raw.endswith(b"\n")
    lines = [line for line in raw.split(b"\n") if line]
    assert len(lines) == 3
    assert json.loads(lines[0])["prev"] == hashlib.sha256(b"").hexdigest()
    for previous, line in zip(lines, lines[1:]):
        assert json.loads(line)["prev"] == \
            hashlib.sha256(previous).hexdigest()

    view = ledger.load()
    assert view.diagnostics == ()
    assert set(view.linkages) == {b, c}
    assert view.roots == frozenset({a})
    assert view.terminal_outputs() == (c,)


def test_tampered_line_surfaces_as_diagnostic(tmp_path):
    a, b, c = ids(3)
    ledger = Ledger(tmp_path / "chain.jsonl")
    resolver = FakeResolver(known=(a, b, c))
    declare_root(ledger, a, actor="t")
    record_linkage(ledger, linkage(b, (a,)), resolver)
    record_linkage(ledger, linkage(c, (b,)), resolver)

    path = tmp_path / "chain.jsonl"
    tampered = path.read_bytes().replace(b'"actor":"tester"',
                                         b'"actor":"evil-x"', 1)
    assert tampered != path.read_bytes()
    path.write_bytes(tampered)
    view = ledger.load()
    assert any("hash chain broken" in d for d in view.diagnostics)
    assert set(view.linkages) == {b, c}  # records still load


def test_deleted_line_breaks_chain(tmp_path):
    a, b, c = ids(3)
    ledger = Ledger(tmp_path / "chain.jsonl")
    resolver = FakeResolver(known=(a, b, c))
    declare_root(ledger, a, actor="t")
    record_linkage(ledger, linkage(b, (a,)), resolver)
    record_linkage(ledger, linkage(c, (b,)), resolver)
    path = tmp_path / "chain.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(lines[0] + lines[2])  # drop b's record
    view = ledger.load()
    assert any("hash chain broken" in d for d in view.diagnostics)
    assert b not in view.linkages


def test_duplicate_output_rejected_and_skipped(tmp_path):
    a, b = ids(2)
    ledger = Ledger(tmp_path / "chain.jsonl")
    resolver = FakeResolver(known=(a, b))
    declare_root(ledger, a, actor="t")
    record_linkage(ledger, linkage(b, (a,)), resolver)
    with pytest.raises(LedgerError):
        record_linkage(ledger, linkage(b, (a,)), resolver)
    # a duplicate smuggled into the file is kept-first on load
    path = tmp_path / "chain.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines) + lines[1])
    view = ledger.load()
    assert any("second record" in d for d in view.diagnostics)
    assert view.linkages[b].actor == "tester"


def test_root_conflicts(tmp_path):
    a, b = ids(2)
    ledger = Ledger(tmp_path / "chain.jsonl")
    resolver = FakeResolver(known=(a, b))
    declare_root(ledger, a, actor="t")
    with pytest.raises(LedgerError):
        declare_root(ledger, a, actor="t")
    record_linkage(ledger, linkage(b, (a,)), resolver)
    with pytest.raises(LedgerError):
        declare_root(ledger, b, actor="t")
    with pytest.raises(LedgerError):
        record_linkage(ledger, linkage(a, (b,)), resolver)


def test_unresolvable_output_rejected(tmp_path):
    a, b = ids(2)
    ledger = Ledger(tmp_path / "chain.jsonl")
    with pytest.raises(LedgerError):
        record_linkage(ledger, linkage(b, (a,)), FakeResolver(known=(a,)))
    assert not (tmp_path / "chain.jsonl").exists()


def test_unreadable_and_unknown_lines_are_diagnostics(tmp_path):
    a, b = ids(2)
    path = tmp_path / "chain.jsonl"
    ledger = Ledger(path)
    declare_root(ledger, a, actor="t")
    with open(path, "ab") as handle:
        handle.write(b"not json at all\n")
        handle.write(json.dumps({"kind": "mystery", "prev": "x"}).encode()
                     + b"\n")
    view = ledger.load()
    assert len(view.diagnostics) >= 2
    assert view.roots == frozenset({a})


# --- chain walking ------------------------------------------------------

def build_pipeline(tmp_path, resolver):
    """d0 (root) -> d1 -> d2; returns (ledger, [d0, d1, d2])."""
    d0, d1, d2 = ids(3)
    ledger = Ledger(tmp_path / "chain.jsonl")
    declare_root(ledger, d0, actor="t")
    record_linkage(ledger, linkage(d1, (d0,)), resolver)
    record_linkage(ledger, linkage(d2, (d1,)), resolver)
    return ledger, [d0, d1, d2]


def test_walk_linear(tmp_path):
    resolver = FakeResolver(known=ids(3))
    ledger, (d0, d1, d2) = build_pipeline(tmp_path, resolver)
    graph = walk_chain(ledger, d2)
    assert graph.start == d2
    assert set(graph.nodes) == {d0, d1, d2}
    assert set(graph.edges) == {(d2, d1), (d1, d0)}


def test_walk_diamond(tmp_path):
    d0, left, right, top = ids(4)
    resolver = FakeResolver(known=(d0, left, right, top))
    ledger = Ledger(tmp_path / "chain.jsonl")
    declare_root(ledger, d0, actor="t")
    record_linkage(ledger, linkage(left, (d0,)), resolver)
    record_linkage(ledger, linkage(right, (d0,)), resolver)
    record_linkage(ledger, linkage(top, (left, right)), resolver)
    graph = walk_chain(ledger, top)
    assert set(graph.nodes) == {d0, left, right, top}
    assert graph.nodes.count(d0) == 1  # shared input visited once
    assert set(graph.edges) == {(top, left), (top, right),
                                (left, d0), (right, d0)}


def test_walk_cycle_raises(tmp_path):
    a, b, c = ids(3)
    path = tmp_path / "chain.jsonl"
    ledger = Ledger(path)
    resolver = FakeResolver(known=(a, b, c))
    declare_root(ledger, a, actor="t")
    record_linkage(ledger, linkage(b, (a, c)), resolver)
    record_linkage(ledger, linkage(c, (b,)), resolver)
    with pytest.raises(CycleError) as excinfo:
        walk_chain(ledger, c)
    assert set(excinfo.value.members) >= {b, c}


def test_walk_unknown_start(tmp_path):
    ledger = Ledger(tmp_path / "chain.jsonl")
    with pytest.raises(NotInLedgerError):
        walk_chain(ledger, ids(1)[0])


def test_verify_resolve_only(tmp_path):
    resolver = FakeResolver(known=ids(3))
    ledger, (d0, d1, d2) = build_pipeline(tmp_path, resolver)
    report = verify_chain(ledger, d2, RESOLVE_ONLY, resolver)
    assert report.verdict == INTACT
    assert report.failing == ()
    assert all(n.fixity == FIXITY_UNVERIFIABLE for n in report.nodes)
    assert all(n.resolved for n in report.nodes)


def test_verify_flags_tombstoned_node(tmp_path):
    all_ids = ids(3)
    resolver = FakeResolver(known=all_ids, tombstoned=(all_ids[1],))
    ledger, (d0, d1, d2) = build_pipeline(tmp_path, resolver)
    report = verify_chain(ledger, d2, RESOLVE_ONLY, resolver)
    assert report.verdict == BROKEN
    assert report.failing == (d1,)


def test_verify_flags_unminted_node(tmp_path):
    all_ids = ids(3)
    resolver = FakeResolver(known=all_ids)
    ledger, (d0, d1, d2) = build_pipeline(tmp_path, resolver)
    resolver.known.discard(d0)
    report = verify_chain(ledger, d2, RESOLVE_ONLY, resolver)
    assert report.verdict == BROKEN
    assert report.failing == (d0,)
    node = {n.identifier: n for n in report.nodes}[d0]
    assert "does not resolve" in node.detail


def test_verify_full_fixity_against_real_content(tmp_path, file_server,
                                                 schemes):
    registry = Registry.open(tmp_path / "registry.log")
    body = b"stage zero bytes\n"
    url = file_server.add("/d0", body)
    source = tmp_path / "d0.bin"
    source.write_bytes(body)
    d0 = registry.mint("t", "d0", (url,),
                       checksum_of_file(source)).identifier
    d1_body = b"stage one bytes\n"
    d1_url = file_server.add("/d1", d1_body)
    d1_file = tmp_path / "d1.bin"
    d1_file.write_bytes(d1_body)
    d1 = registry.mint("t", "d1", (d1_url,),
                       checksum_of_file(d1_file)).identifier

    ledger = Ledger(tmp_path / "chain.jsonl")
    declare_root(ledger, d0, actor="t")
    record_linkage(ledger, linkage(d1, (d0,)), registry)

    report = verify_chain(ledger, d1, FULL_FIXITY, registry, schemes)
    assert report.verdict == INTACT
    assert {n.fixity for n in report.nodes} == {FIXITY_MATCH}

    file_server.content["/d0"] = b"swapped out from under the registry"
    report = verify_chain(ledger, d1, FULL_FIXITY, registry, schemes)
    assert report.verdict == BROKEN
    assert report.failing == (d0,)
    node = {n.identifier: n for n in report.nodes}[d0]
    assert node.fixity == FIXITY_MISMATCH
    registry.close()


def test_verify_full_fixity_needs_schemes(tmp_path):
    resolver = FakeResolver(known=ids(3))
    ledger, (d0, d1, d2) = build_pipeline(tmp_path, resolver)
    with pytest.raises(ValueError):
        verify_chain(ledger, d2, FULL_FIXITY, resolver)


def test_verify_report_json_shape(tmp_path):
    resolver = FakeResolver(known=ids(3))
    ledger, (d0, d1, d2) = build_pipeline(tmp_path, resolver)
    body = verify_chain(ledger, d2, RESOLVE_ONLY, resolver).to_json()
    assert body["start"] == d2
    assert body["verdict"] == INTACT
    assert {node["identifier"] for node in body["nodes"]} == {d0, d1, d2}
    json.dumps(body)  # fully serializable


def test_ci_verify(tmp_path, file_server, schemes):
    registry = Registry.open(tmp_path / "registry.log")
    bodies = {name: f"{name} bytes\n".encode() for name in "abc"}
    minted = {}
    for name, body in bodies.items():
        url = file_server.add(f"/{name}", body)
        blob = tmp_path / f"{name}.bin"
        blob.write_bytes(body)
        minted[name] = registry.mint("t", name, (url,),
                                     checksum_of_file(blob)).identifier
    ledger = Ledger(tmp_path / "chain.jsonl")
    declare_root(ledger, minted["a"], actor="t")
    record_linkage(ledger, linkage(minted["b"], (minted["a"],)), registry)
    record_linkage(ledger, linkage(minted["c"], (minted["a"],)), registry)

    report_path = tmp_path / "report.json"
    status, report = ci_verify(ledger, registry, schemes,
                               report_path=report_path)
    assert status == 0
    assert report["verdict"] == INTACT
    assert [c["start"] for c in report["chains"]] == sorted(
        (minted["b"], minted["c"]))
    on_disk = json.loads(report_path.read_text())
    assert on_disk == report

    registry.tombstone(minted["b"], actor="t")
    status, report = ci_verify(ledger, registry, schemes)
    assert status == 1
    assert report["verdict"] == BROKEN
    broken = [c for c in report["chains"] if c["verdict"] == BROKEN]
    assert len(broken) == 1
    assert broken[0]["failing"] == [minted["b"]]
    registry.close()


def test_ci_verify_reports_a_cycle_no_terminal_reaches(tmp_path, schemes):
    a, b, c, d = ids(4)
    ledger = Ledger(tmp_path / "chain.jsonl")
    resolver = FakeResolver(known=(a, b, c, d))
    declare_root(ledger, a, actor="t")
    record_linkage(ledger, linkage(b, (a, c)), resolver)
    record_linkage(ledger, linkage(c, (b,)), resolver)
    assert ledger.load().terminal_outputs() == ()

    def chains():
        status, report = ci_verify(ledger, resolver, schemes)
        assert (status, report["verdict"]) == (1, BROKEN)
        return [(chain["start"], chain["verdict"], chain["failing"])
                for chain in report["chains"]]

    assert chains() == [(b, BROKEN, [b, c])]
    # once a terminal output reaches the cycle, only its chain reports it
    record_linkage(ledger, linkage(d, (b,)), resolver)
    assert chains() == [(d, BROKEN, [b, c])]


def shared_ancestry(tmp_path, file_server):
    """Root a; b and c from a; d from b and c; e from a.

    Returns (registry, ledger, {name: identifier}); node n's bytes are
    served at /n.
    """
    registry = Registry.open(tmp_path / "registry.log")
    minted = {}
    for name in "abcde":
        body = f"{name} bytes\n".encode()
        url = file_server.add(f"/{name}", body)
        blob = tmp_path / f"{name}.bin"
        blob.write_bytes(body)
        minted[name] = registry.mint("t", name, (url,),
                                     checksum_of_file(blob)).identifier
    ledger = Ledger(tmp_path / "chain.jsonl")
    declare_root(ledger, minted["a"], actor="t")
    for output, inputs in (("b", "a"), ("c", "a"), ("d", "bc"), ("e", "a")):
        record_linkage(ledger, linkage(
            minted[output], tuple(minted[i] for i in inputs)), registry)
    return registry, ledger, minted


def test_ci_verify_checks_each_node_once(tmp_path, file_server, schemes):
    registry, ledger, minted = shared_ancestry(tmp_path, file_server)
    resolver = CountingResolver(registry)
    file_server.requests.clear()
    report_path = tmp_path / "report.json"
    status, report = ci_verify(ledger, resolver, schemes,
                               report_path=report_path)
    assert status == 0
    assert sorted(file_server.requests) == [f"/{name}" for name in "abcde"]
    assert sorted(resolver.calls) == sorted(minted.values())

    # the same report, byte for byte, as checking each chain on its own
    independent = {
        "verdict": INTACT,
        "chains": [verify_chain(ledger, output, FULL_FIXITY, registry,
                                schemes).to_json()
                   for output in sorted((minted["d"], minted["e"]))],
        "ledger_diagnostics": [],
    }
    assert report == independent
    assert report_path.read_bytes() == (json.dumps(
        independent, sort_keys=True, indent=2, ensure_ascii=False)
        + "\n").encode("utf-8")
    registry.close()


def test_ci_verify_shares_failures_but_not_across_sweeps(tmp_path,
                                                         file_server, schemes):
    registry, ledger, minted = shared_ancestry(tmp_path, file_server)
    root = minted["a"]
    original = file_server.content["/a"]

    file_server.content["/a"] = b"swapped out from under the registry"
    status, report = ci_verify(ledger, registry, schemes)
    assert status == 1
    assert len(report["chains"]) == 2
    for chain in report["chains"]:
        assert chain["verdict"] == BROKEN
        assert chain["failing"] == [root]
        node = {n["identifier"]: n for n in chain["nodes"]}[root]
        assert node["fixity"] == FIXITY_MISMATCH

    file_server.content["/a"] = original
    status, report = ci_verify(ledger, registry, schemes)
    assert status == 0
    assert report["verdict"] == INTACT

    registry.tombstone(root, actor="t")
    status, report = ci_verify(ledger, registry, schemes)
    assert status == 1
    for chain in report["chains"]:
        assert chain["failing"] == [root]
        node = {n["identifier"]: n for n in chain["nodes"]}[root]
        assert not node["resolved"]
        assert "tombstoned" in node["detail"]
    registry.close()


@pytest.mark.parametrize("depth", [RESOLVE_ONLY, FULL_FIXITY])
def test_verify_chain_resolves_each_node_once(tmp_path, file_server, depth,
                                              schemes):
    registry, ledger, minted = shared_ancestry(tmp_path, file_server)
    resolver = CountingResolver(registry)
    schemes = schemes if depth == FULL_FIXITY else None
    report = verify_chain(ledger, minted["d"], depth, resolver, schemes)
    assert report.verdict == INTACT
    assert sorted(resolver.calls) == sorted(minted[n] for n in "abcd")
    registry.close()


def test_ci_report_replaces_file_whole(tmp_path, file_server, monkeypatch,
                                       schemes):
    registry, ledger, minted = shared_ancestry(tmp_path, file_server)
    reports = tmp_path / "reports"
    reports.mkdir()
    report_path = reports / "report.json"
    report_path.write_bytes(b"previous report\n")

    def crash(source, destination):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="simulated crash"):
        ci_verify(ledger, registry, schemes,
                  report_path=report_path)
    assert report_path.read_bytes() == b"previous report\n"
    assert os.listdir(reports) == ["report.json"]
    registry.close()


def test_root_record_round_trip():
    a = ids(1)[0]
    record = RootRecord(identifier=a, actor="t", declared_at="t0",
                        notes="external input")
    assert RootRecord.from_json(record.to_json()) == record
