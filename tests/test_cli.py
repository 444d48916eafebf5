"""End-to-end command line behavior, including exit codes."""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import cuflinks
from cuflinks import cli
from cuflinks.bag.model import Bag
from cuflinks.cli import main
from cuflinks.hashing import digest_file
from cuflinks.links import Ledger
from cuflinks.minid import (Checksum, Registry, RegistryClient,
                            RegistryServer)
from cuflinks.transfer import Transport

from test_fetch import punch_holes

COMMIT = "e" * 40


@pytest.fixture
def runner(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return CliRunner()


def invoke(runner, args, expect=0, input=None, env=None):
    result = runner.invoke(main, args, input=input, env=env,
                           catch_exceptions=False)
    assert result.exit_code == expect, (
        f"{args} exited {result.exit_code}, wanted {expect}\n"
        f"stdout: {result.output}\nstderr: {result.stderr}")
    return result


def make_bag(runner, fig3_tree, tmp_path, **kwargs):
    source, metadata = fig3_tree
    result = invoke(runner, [
        "bag", "create", str(source), "-o", str(tmp_path / "bags"),
        "--metadata", str(metadata), "--name", "demo", "--json"], **kwargs)
    return Path(json.loads(result.output)["bag"])


def mint(runner, store, content_file, url, title="demo"):
    result = invoke(runner, [
        "minid", "mint", "--store", str(store), "--title", title,
        "--author", "tester", "--location", url,
        "--from-file", str(content_file), "--json"])
    return json.loads(result.output)["identifier"]


def test_version(runner):
    result = invoke(runner, ["--version"])
    assert "cuflinks" in result.output


def test_bag_create_checks_invariants_once(runner, fig3_tree, tmp_path,
                                          monkeypatch):
    checked = []
    check = Bag.check_invariants

    def counting_check(bag):
        checked.append(bag.root_name)
        check(bag)

    monkeypatch.setattr(Bag, "check_invariants", counting_check)
    make_bag(runner, fig3_tree, tmp_path)
    assert checked == ["demo"]


def test_bag_create_and_validate(runner, fig3_tree, tmp_path):
    source, metadata = fig3_tree
    result = invoke(runner, [
        "bag", "create", str(source), "-o", str(tmp_path / "bags"),
        "--metadata", str(metadata), "--name", "demo",
        "--alg", "md5", "--alg", "sha256",
        "--info", "Contact-Name=Ada", "--json"])
    body = json.loads(result.output)
    bag_dir = Path(body["bag"])
    assert bag_dir.name == "demo"
    assert body["algorithms"] == ["md5", "sha256"]
    assert body["payload_oxum"].endswith(".2")
    assert (bag_dir / "bagit.txt").is_file()
    assert "Contact-Name: Ada" in \
        (bag_dir / "bag-info.txt").read_text()

    result = invoke(runner, ["bag", "validate", str(bag_dir),
                             "--full", "--json"])
    report = json.loads(result.output)
    assert report == {"ok": True, "level": "full", "findings": []}


def test_bag_validate_reports_findings(runner, fig3_tree, tmp_path):
    bag_dir = make_bag(runner, fig3_tree, tmp_path)
    (bag_dir / "data/file1").write_bytes(b"altered")
    result = invoke(runner, ["bag", "validate", str(bag_dir), "--full"],
                    expect=1)
    assert "digest-mismatch" in result.output
    result = invoke(runner, ["bag", "validate", str(bag_dir),
                             "--full", "--json"], expect=1)
    report = json.loads(result.output)
    assert report["ok"] is False
    assert any(f["path"] == "data/file1" for f in report["findings"])


def test_bag_archive_extract_roundtrip(runner, fig3_tree, tmp_path):
    bag_dir = make_bag(runner, fig3_tree, tmp_path)
    result = invoke(runner, ["bag", "archive", str(bag_dir),
                             "-o", str(tmp_path / "demo.zip"), "--json"])
    archive = Path(json.loads(result.output)["archive"])
    assert archive.is_file()
    result = invoke(runner, ["bag", "extract", str(archive),
                             str(tmp_path / "out"), "--json"])
    extracted = Path(json.loads(result.output)["bag"])
    invoke(runner, ["bag", "validate", str(extracted), "--full"])


def test_resolve_fetch_completes_holey_bag(runner, fig3_tree, tmp_path,
                                           file_server):
    bag_dir = make_bag(runner, fig3_tree, tmp_path)
    body = (bag_dir / "data/file1").read_bytes()
    url = file_server.add("/file1", body)
    punch_holes(bag_dir, [("data/file1", url, len(body))])

    result = invoke(runner, ["bag", "resolve-fetch", str(bag_dir),
                             "--json"])
    report = json.loads(result.output)
    assert [o["outcome"] for o in report["outcomes"]] == ["fetched"]
    assert (bag_dir / "data/file1").read_bytes() == body
    assert (bag_dir / "fetch.txt").read_bytes() == b""
    invoke(runner, ["bag", "validate", str(bag_dir), "--full"])


def test_resolve_fetch_flags_bad_content(runner, fig3_tree, tmp_path,
                                         file_server):
    bag_dir = make_bag(runner, fig3_tree, tmp_path)
    body = (bag_dir / "data/file1").read_bytes()
    url = file_server.add("/file1", b"X" * len(body))
    punch_holes(bag_dir, [("data/file1", url, len(body))])
    result = invoke(runner, ["bag", "resolve-fetch", str(bag_dir)],
                    expect=1)
    assert "digest-mismatch" in result.output


def test_resolve_fetch_workers_share_connections(runner, tmp_path,
                                                 file_server):
    source = tmp_path / "many"
    source.mkdir()
    for n in range(8):
        (source / f"part{n}").write_bytes(f"part {n}\n".encode() * 100)
    result = invoke(runner, ["bag", "create", str(source), "-o",
                             str(tmp_path / "bags"), "--json"])
    bag_dir = Path(json.loads(result.output)["bag"])
    holes = []
    for n in range(8):
        body = (bag_dir / f"data/part{n}").read_bytes()
        holes.append((f"data/part{n}", file_server.add(f"/part{n}", body),
                      len(body)))
    punch_holes(bag_dir, holes)

    result = invoke(runner, ["bag", "resolve-fetch", str(bag_dir),
                             "--parallelism", "4", "--json"])
    report = json.loads(result.output)
    assert [o["outcome"] for o in report["outcomes"]] == ["fetched"] * 8
    assert sorted(file_server.requests) == [f"/part{n}" for n in range(8)]
    # four workers, one transport: no more connections than workers
    assert len(set(file_server.peers)) <= 4
    invoke(runner, ["bag", "validate", str(bag_dir), "--full"])


@pytest.mark.parametrize("reply", [b"{}", b"not json", b"[1]"])
def test_unusable_resolver_reply_is_infrastructure_error(runner, reply,
                                                         file_server):
    file_server.add("/minid/fPTs86M7VTyb", reply)
    result = invoke(runner, ["minid", "resolve", "minid:fPTs86M7VTyb"],
                    expect=3, env={"CUFLINKS_RESOLVER_URL":
                                   file_server.url("/minid")})
    assert "resolver answered 200" in result.stderr


def test_mint_and_resolve_with_local_store(runner, tmp_path):
    blob = tmp_path / "blob.bin"
    blob.write_bytes(b"registered content\n")
    store = tmp_path / "registry.log"
    identifier = mint(runner, store, blob, "https://example.org/blob")
    assert identifier.startswith("minid:")

    result = invoke(runner, ["minid", "resolve", identifier,
                             "--store", str(store), "--json"])
    record = json.loads(result.output)
    assert record["title"] == "demo"
    assert record["checksum"]["digest"] == digest_file(blob, "sha256")

    invoke(runner, ["minid", "resolve", "minid:zzzzzzzzzzzz",
                    "--store", str(store)], expect=1)
    invoke(runner, ["minid", "resolve", "not-a-minid",
                    "--store", str(store)], expect=2)


def test_mint_needs_exactly_one_checksum_source(runner, tmp_path):
    blob = tmp_path / "blob.bin"
    blob.write_bytes(b"x")
    result = invoke(runner, [
        "minid", "mint", "--store", str(tmp_path / "r.log"),
        "--title", "t", "--author", "a",
        "--location", "https://example.org/x",
        "--from-file", str(blob), "--sha256", "0" * 64], expect=2)
    assert "exactly one" in result.stderr


def test_resolve_without_any_registry_is_usage_error(runner):
    result = invoke(runner, ["minid", "resolve", "minid:aaaaaaaaaaaa"],
                    expect=2)
    assert "error:" in result.stderr


def test_resolve_download_verifies_content(runner, tmp_path, file_server):
    body = b"downloadable content\n"
    blob = tmp_path / "blob.bin"
    blob.write_bytes(body)
    url = file_server.add("/blob", body)
    store = tmp_path / "registry.log"
    identifier = mint(runner, store, blob, url)
    target = tmp_path / "saved.bin"
    result = invoke(runner, ["minid", "resolve", identifier,
                             "--store", str(store),
                             "--download", str(target), "--json"])
    assert target.read_bytes() == body
    assert json.loads(result.output)["downloaded_to"] == str(target)


def test_resolve_download_looks_up_once(runner, tmp_path, file_server,
                                        monkeypatch):
    body = b"downloadable content\n"
    blob = tmp_path / "blob.bin"
    blob.write_bytes(body)
    store = tmp_path / "registry.log"
    identifier = mint(runner, store, blob, file_server.add("/blob", body))
    calls = []
    resolve = Registry.resolve

    def counting(self, wanted):
        calls.append(wanted)
        return resolve(self, wanted)

    monkeypatch.setattr(Registry, "resolve", counting)
    target = tmp_path / "saved.bin"
    invoke(runner, ["minid", "resolve", identifier, "--store", str(store),
                    "--download", str(target)])
    assert target.read_bytes() == body
    assert calls == [identifier]

    with Registry.open(store) as registry:
        registry.tombstone(identifier, actor="tester")
    calls.clear()
    gone = tmp_path / "gone.bin"
    result = invoke(runner, ["minid", "resolve", identifier,
                             "--store", str(store),
                             "--download", str(gone)], expect=3)
    assert f"{identifier} is tombstoned" in result.stderr
    assert calls == [identifier]
    assert not gone.exists()


def test_registry_serve_runs_one_accept_loop(runner, tmp_path,
                                             monkeypatch):
    loops = []
    watch = RegistryServer._evict_while_full

    def recording(server):
        loops.append((server, threading.current_thread()))
        if threading.current_thread() is threading.main_thread():
            raise KeyboardInterrupt
        watch(server)

    monkeypatch.setattr(RegistryServer, "_evict_while_full", recording)
    threads = threading.active_count()
    invoke(runner, ["registry", "serve", "--store",
                    str(tmp_path / "registry.log"), "--port", "0"])
    assert [thread for _, thread in loops] == [threading.main_thread()]
    assert loops[0][0]._socket.fileno() == -1  # closed when the loop ended
    assert threading.active_count() == threads  # and every worker ended


def test_registry_serve_stops_at_once_on_sigint(tmp_path):
    env = {**os.environ,
           "PYTHONPATH": str(Path(cuflinks.__file__).parents[1])}
    child = subprocess.Popen(
        [sys.executable, "-m", "cuflinks.cli", "registry", "serve",
         "--store", str(tmp_path / "registry.log"), "--port", "0"],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(60, child.kill)
    watchdog.start()
    try:
        base_url = re.search(r"serving (\S+)",
                             child.stderr.readline()).group(1)
        with Transport() as transport:
            client = RegistryClient(base_url, transport=transport)
            for _ in range(3):
                record = client.mint("tester", "content",
                                     ("http://127.0.0.1:1/x",),
                                     Checksum("sha256", "0" * 64))
                assert client.resolve(record.identifier) == record
            # the client's kept-alive connection is open and idle here
            child.send_signal(signal.SIGINT)
            started = time.monotonic()
            assert child.wait(timeout=2) == 0
            assert time.monotonic() - started < 2
    finally:
        watchdog.cancel()
        child.kill()
        child.wait()
        child.stderr.close()


def test_link_workflow(runner, tmp_path, file_server):
    store = tmp_path / "registry.log"
    ledger = tmp_path / "chain.jsonl"
    minted = {}
    for name in ("a", "b"):
        blob = tmp_path / f"{name}.bin"
        blob.write_bytes(f"{name} stage content\n".encode())
        url = file_server.add(f"/{name}", blob.read_bytes())
        minted[name] = mint(runner, store, blob, url, title=name)

    invoke(runner, ["link", "root", minted["a"], "--actor", "t",
                    "--ledger", str(ledger)])
    # a second declaration of the same root is a finding
    invoke(runner, ["link", "root", minted["a"], "--actor", "t",
                    "--ledger", str(ledger)], expect=1)

    result = invoke(runner, [
        "link", "record", "--output", minted["b"],
        "--input", minted["a"],
        "--commit", f"https://example.org/pipeline.git@{COMMIT}",
        "--actor", "t", "--ledger", str(ledger),
        "--store", str(store), "--json"])
    report = json.loads(result.output)
    assert report["verdict"] == "intact"
    assert {n["fixity"] for n in report["nodes"]} == {"match"}

    invoke(runner, ["link", "verify", minted["b"], "--full",
                    "--ledger", str(ledger), "--store", str(store)])

    # unknown identifier: a finding, not a crash
    invoke(runner, ["link", "verify", "minid:zzzzzzzzzzzz",
                    "--ledger", str(ledger), "--store", str(store)],
           expect=1)

    report_file = tmp_path / "ci.json"
    result = invoke(runner, ["link", "ci", "--ledger", str(ledger),
                             "--store", str(store),
                             "--report", str(report_file), "--json"])
    assert json.loads(result.output)["verdict"] == "intact"
    assert json.loads(report_file.read_text())["verdict"] == "intact"

    # content drift behind a's location breaks full verification
    file_server.content["/a"] = b"silently replaced\n"
    result = invoke(runner, ["link", "verify", minted["b"], "--full",
                             "--ledger", str(ledger),
                             "--store", str(store)], expect=1)
    assert f"failing: {minted['a']}" in result.output
    invoke(runner, ["link", "ci", "--ledger", str(ledger),
                    "--store", str(store)], expect=1)


def test_link_commands_read_the_ledger_once(runner, tmp_path, file_server,
                                            monkeypatch):
    store = tmp_path / "registry.log"
    ledger = tmp_path / "chain.jsonl"
    minted = {}
    for name in ("a", "b", "c"):
        blob = tmp_path / f"{name}.bin"
        blob.write_bytes(f"{name} stage content\n".encode())
        url = file_server.add(f"/{name}", blob.read_bytes())
        minted[name] = mint(runner, store, blob, url, title=name)
    invoke(runner, ["link", "root", minted["a"], "--actor", "t",
                    "--ledger", str(ledger)])
    with open(ledger, "ab") as handle:     # a crashed writer's torn line
        handle.write(b'{"kind":"root"')

    reads = []
    read_bytes = Path.read_bytes

    def counting_read_bytes(path):
        if path == ledger:
            reads.append(path)
        return read_bytes(path)

    views = []

    def keeping_view(append):
        def kept(*args, **kwargs):
            views.append(append(*args, **kwargs))
            return views[-1]
        return kept

    monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
    monkeypatch.setattr(cli, "declare_root", keeping_view(cli.declare_root))
    monkeypatch.setattr(cli, "record_linkage",
                        keeping_view(cli.record_linkage))
    commands = (
        ["link", "root", minted["b"], "--actor", "t",
         "--ledger", str(ledger)],
        ["link", "record", "--output", minted["c"],
         "--input", minted["a"], "--input", minted["b"],
         "--commit", f"https://example.org/pipeline.git@{COMMIT}",
         "--actor", "t", "--ledger", str(ledger), "--store", str(store)])
    for command in commands:
        reads.clear()
        invoke(runner, command)
        assert len(reads) == 1, command
        assert views[-1] == Ledger(ledger).load()
    assert len(views) == 2


def test_link_record_resolves_each_identifier_once(runner, tmp_path,
                                                   file_server, monkeypatch):
    store = tmp_path / "registry.log"
    ledger = tmp_path / "chain.jsonl"
    minted = {}
    for name in ("a", "b", "c"):
        blob = tmp_path / f"{name}.bin"
        blob.write_bytes(f"{name} stage content\n".encode())
        url = file_server.add(f"/{name}", blob.read_bytes())
        minted[name] = mint(runner, store, blob, url, title=name)
    invoke(runner, ["link", "root", minted["a"], "--actor", "t",
                    "--ledger", str(ledger)])
    calls = []
    resolve = Registry.resolve

    def counting(self, wanted):
        calls.append(wanted)
        return resolve(self, wanted)

    monkeypatch.setattr(Registry, "resolve", counting)
    for output, source in (("b", "a"), ("c", "b")):
        calls.clear()
        result = invoke(runner, [
            "link", "record", "--output", minted[output],
            "--input", minted[source],
            "--commit", f"https://example.org/pipeline.git@{COMMIT}",
            "--actor", "t", "--ledger", str(ledger), "--store", str(store)])
        assert "verdict: intact" in result.output
        chain = "abc"[:"abc".index(output) + 1]
        assert sorted(calls) == sorted(minted[name] for name in chain)


def test_link_record_rejects_unresolvable_output(runner, tmp_path):
    store = tmp_path / "registry.log"
    blob = tmp_path / "a.bin"
    blob.write_bytes(b"a\n")
    minted = mint(runner, store, blob, "https://example.org/a")
    result = invoke(runner, [
        "link", "record", "--output", "minid:zzzzzzzzzzzz",
        "--input", minted,
        "--commit", f"https://example.org/p.git@{COMMIT}",
        "--actor", "t", "--ledger", str(tmp_path / "chain.jsonl"),
        "--store", str(store)], expect=1)
    assert "does not resolve" in result.stderr


@pytest.mark.parametrize("named", ["self", "pair", "unknown"])
@pytest.mark.parametrize("command", ["resolve", "ci", "record"])
def test_locations_naming_identifiers_end_in_a_verdict(runner, tmp_path,
                                                       file_server, named,
                                                       command):
    """An identifier whose location names an identifier is fetched
    through http(s) only: a loop, or an identifier that does not
    resolve, is a failed location, not a recursion or an abort."""
    store = tmp_path / "registry.log"
    ledger = tmp_path / "chain.jsonl"
    minted, urls = {}, {}
    for name in ("a", "b", "c"):
        blob = tmp_path / f"{name}.bin"
        blob.write_bytes(f"{name} stage content\n".encode())
        urls[name] = file_server.add(f"/{name}", blob.read_bytes())
        minted[name] = mint(runner, store, blob, urls[name], title=name)
    invoke(runner, ["link", "root", minted["a"], "--actor", "t",
                    "--ledger", str(ledger)])
    derive = ["--input", minted["a"], "--commit",
              f"https://example.org/p.git@{COMMIT}", "--actor", "t",
              "--ledger", str(ledger), "--store", str(store), "--json"]
    invoke(runner, ["link", "record", "--output", minted["b"], *derive])
    moves = {"self": {"a": minted["a"]},
             "pair": {"a": minted["b"], "b": minted["a"]},
             "unknown": {"a": "minid:zzzzzzzzzzzz"}}[named]
    with Registry.open(store) as registry:
        for name, location in moves.items():
            registry.update_locations(minted[name], add=(location,),
                                      remove=(urls[name],), actor="t")

    if command == "resolve":
        saved = tmp_path / "saved.bin"
        result = invoke(runner, ["minid", "resolve", minted["a"], "--store",
                                 str(store), "--download", str(saved)],
                        expect=3)
        assert result.stderr.count("error:") == 1
        assert "every location failed" in result.stderr
        assert not saved.exists()
        return
    # content that cannot be fetched leaves a node unverifiable, which
    # does not break its chain
    if command == "ci":
        result = invoke(runner, ["link", "ci", "--ledger", str(ledger),
                                 "--store", str(store), "--json"])
        nodes = json.loads(result.output)["chains"][0]["nodes"]
    else:
        result = invoke(runner, ["link", "record", "--output", minted["c"],
                                 *derive])
        nodes = json.loads(result.output)["nodes"]
        assert minted["c"] in Ledger(ledger).load().linkages
    node = next(n for n in nodes if n["identifier"] == minted["a"])
    assert node["fixity"] == "unverifiable"
    assert "content unreachable" in node["detail"]


def test_dict_lifecycle(runner, tmp_path):
    dictionary = tmp_path / "terms.tsv"
    invoke(runner, ["dict", "add", "complete", "status:complete",
                    "--definition", "all required fields present",
                    "--actor", "curator", "--dict", str(dictionary)])
    invoke(runner, ["dict", "add", "finished", "status:finished",
                    "--actor", "curator", "--dict", str(dictionary)])
    invoke(runner, ["dict", "deprecate", "finished", "--by", "complete",
                    "--actor", "curator", "--dict", str(dictionary)])

    changelog = tmp_path / "terms.tsv.changelog.jsonl"
    entries = [json.loads(line) for line in
               changelog.read_text().splitlines()]
    assert [e["op"] for e in entries] == ["add", "add", "deprecate"]

    result = invoke(runner, ["dict", "check", "complete",
                             "--dict", str(dictionary)])
    assert "ok" in result.output and "status:complete" in result.output

    result = invoke(runner, ["dict", "check", "finished",
                             "--dict", str(dictionary)])
    assert "via finished" in result.output

    result = invoke(runner, ["dict", "check", "Complete",
                             "--dict", str(dictionary), "--json"],
                    expect=1)
    body = json.loads(result.output)
    assert body[0]["ok"] is False
    assert "complete" in body[0]["suggestions"]


def test_dict_check_reads_stdin_batch(runner, tmp_path):
    dictionary = tmp_path / "terms.tsv"
    invoke(runner, ["dict", "add", "complete", "status:complete",
                    "--actor", "curator", "--dict", str(dictionary)])
    result = invoke(runner, ["dict", "check", "--dict", str(dictionary),
                             "--field", "status"],
                    input="complete\ncompleet\n", expect=1)
    assert "ok  status=complete" in result.output
    assert "rejected  status=compleet" in result.output


def test_dict_check_without_dictionary_is_usage_error(runner):
    invoke(runner, ["dict", "check", "anything"], expect=2)


def test_config_file_wires_settings(runner, tmp_path):
    dictionary = tmp_path / "terms.tsv"
    invoke(runner, ["dict", "add", "complete", "status:complete",
                    "--actor", "curator", "--dict", str(dictionary)])
    config = tmp_path / "cuflinks.toml"
    config.write_text(f'dictionary = "{dictionary}"\n')
    invoke(runner, ["--config", str(config), "dict", "check", "complete"])


def test_environment_variable_wires_settings(runner, tmp_path):
    dictionary = tmp_path / "terms.tsv"
    invoke(runner, ["dict", "add", "complete", "status:complete",
                    "--actor", "curator", "--dict", str(dictionary)])
    invoke(runner, ["dict", "check", "complete"],
           env={"CUFLINKS_DICTIONARY": str(dictionary)})


def test_unknown_scheme_is_infrastructure_error(runner, fig3_tree,
                                                tmp_path):
    bag_dir = make_bag(runner, fig3_tree, tmp_path)
    body = (bag_dir / "data/file1").read_bytes()
    punch_holes(bag_dir, [("data/file1",
                           "globus://endpoint/file1", len(body))])
    result = invoke(runner, ["bag", "resolve-fetch", str(bag_dir)],
                    expect=3)
    assert "globus" in result.stderr
