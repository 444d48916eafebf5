"""The three workloads: what one round does and how its outputs are checked.

Every workload has a bag part (create, validate --full, archive,
extract, resolve-fetch) and a provenance part (mint, link record,
link ci, resolve, a history-log open, dict check), so every run reports
every end-to-end metric; the workloads differ in their inputs, which set
where the time goes. A round interleaves the two parts' operations, so
a slow spell of the host hits every metric alike.

Every check compares the program's output with what the generator
computed apart from it (``spec.json``) or with a property the method
must have. A round runs the same operations, in the same order, every
time; the harness times the ones that feed end-to-end metrics.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import re
import shutil
import time
from pathlib import Path
from urllib.parse import quote

_CHUNK = 1024 * 1024
_ESCAPES = {"%0A": "\n", "%0D": "\r", "%25": "%"}
COMMIT_REPO = "https://git.example.org/pipeline.git"


class Mismatch(Exception):
    """An output differs from what the inputs say it must be."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


# --- independent readers -------------------------------------------------

def read_manifest(path: Path) -> dict[str, str]:
    """{in-bag path: digest} from a manifest, decoded per RFC 8493."""
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        digest, _, encoded = line.partition("  ")
        entries[re.sub("%0A|%0D|%25", lambda m: _ESCAPES[m.group(0)],
                       encoded)] = digest
    return entries


def read_bag_info(path: Path) -> dict[str, str]:
    return dict(line.split(": ", 1)
                for line in path.read_text(encoding="utf-8").splitlines()
                if ": " in line)


def file_digests(path: Path, algorithms) -> dict[str, str]:
    hashers = {alg: hashlib.new(alg) for alg in algorithms}
    with open(path, "rb") as handle:
        while chunk := handle.read(_CHUNK):
            for hasher in hashers.values():
                hasher.update(chunk)
    return {alg: hasher.hexdigest() for alg, hasher in hashers.items()}


def tree_files(root: Path) -> dict[str, int]:
    """{relative path: size} of every regular file under root."""
    found = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            found[os.path.relpath(path, root)] = os.path.getsize(path)
    return found


def same_tree(left: Path, right: Path) -> None:
    ours, theirs = tree_files(left), tree_files(right)
    expect(ours == theirs, f"{right} lists other files or sizes than {left}")
    for rel in ours:
        with open(left / rel, "rb") as a, open(right / rel, "rb") as b:
            while True:
                chunk = a.read(_CHUNK)
                expect(chunk == b.read(_CHUNK), f"{rel} differs in {right}")
                if not chunk:
                    break


def check_record(body: dict, digest: str, locations: list[str]) -> None:
    expect(body["checksum"] == {"algorithm": "sha256", "digest": digest},
           f"{body['identifier']} carries checksum {body['checksum']}, "
           f"minted {digest}")
    expect(body["locations"] == locations,
           f"{body['identifier']} carries locations {body['locations']}, "
           f"minted {locations}")


def check_terms(body: list, batch: list[dict]) -> None:
    expect(len(body) == len(batch), "dict check answered another count")
    for got, want in zip(body, batch):
        expect(got["value"] == want["value"] and got["ok"] == want["ok"],
               f"{want['value']!r}: ok={got['ok']}, expected {want['ok']}")
        if want["ok"]:
            expect((got["term"], got["canonical_id"], got.get("followed", []))
                   == (want["term"], want["canonical_id"], want["followed"]),
                   f"{want['value']!r} resolved to {got}")
        else:
            expect(want["source"] in got["suggestions"],
                   f"{want['value']!r}: suggestions {got['suggestions']} "
                   f"miss {want['source']!r}")


def chain_nodes(report: dict) -> set[str]:
    expect(report["verdict"] == "intact",
           f"chain of {report['start']} is {report['verdict']}: "
           f"{report['failing']}")
    return {node["identifier"] for node in report["nodes"]}


def _add(info: dict, key: str, value: float) -> None:
    info[key] = info.get(key, 0) + value


def fsync_path(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def sync_tree(root: Path) -> None:
    """fsync every file and directory under root, root included.

    On the disk-backed, discard-mounted ext4 of the reference machine,
    data written back and blocks discarded after a burst of writes or
    deletions stall the program's own fsyncs (a registry mint, a ledger
    append) that come next. The benchmark forces that work to happen
    outside every timed call: after generating inputs and after building
    the holey bag here, and with one fsync of a directory after each bag
    cycle's deletions and after the run deletes its files.
    """
    for directory, _, names in os.walk(root, topdown=False):
        for name in names:
            fsync_path(Path(directory, name))
        fsync_path(Path(directory))


# --- bags -------------------------------------------------------------------

class BagPart:
    """create -> validate --full -> archive -> extract -> resolve-fetch."""

    def __init__(self, harness, cycles: int = 1) -> None:
        self.h = harness
        self.cycles = cycles
        spec = harness.spec
        self.algorithms = tuple(spec["algorithms"])
        self.source = spec["bag_source"]
        self.src = harness.served / self.source
        self.files = spec["files"]
        # Deleting thousands of small files each round made later file
        # creation on a disk-backed, discard-mounted ext4 stall for
        # seconds, so bags of that many files are only renamed when a
        # round is done with them; the run deletes them all at the end.
        self.defer_deletes = len(self.files) >= 1000
        self.expected = {alg: {f"data/{f['rel']}": f["digests"][alg]
                               for f in self.files}
                         for alg in self.algorithms}
        self.oxum = f"{spec['payload_bytes']}.{len(self.files)}"
        self.out = harness.work / "out"
        self.extracted = harness.work / "extracted"
        self.archives = harness.served / "archives"
        self.holey = harness.work / "holey" / "holey"
        self.fetch_txt = b""
        self.pending: list[dict] = []
        self.trashed = itertools.count()

    def src_url(self, rel: str) -> str:
        return f"{self.h.files_url}/{self.source}/{quote(rel)}"

    def pending_urls(self) -> list[tuple[dict, str]]:
        """A quarter of the payload, pending as http: URLs."""
        return [(entry, self.src_url(entry["rel"]))
                for entry in self.files[::4]]

    def create(self, timed: str | None, name: str) -> Path:
        bag = self.out / name
        self.h.op(timed, ["bag", "create", str(self.src), "-o",
                           str(self.out), "--name", name, "--json",
                           *(a for alg in self.algorithms
                             for a in ("--alg", alg))],
                  check=lambda body: self.check_created(bag))
        return bag

    def check_created(self, bag: Path) -> None:
        for alg, want in self.expected.items():
            expect(read_manifest(bag / f"manifest-{alg}.txt") == want,
                   f"manifest-{alg}.txt disagrees with hashlib")
        oxum = read_bag_info(bag / "bag-info.txt").get("Payload-Oxum")
        expect(oxum == self.oxum, f"Payload-Oxum {oxum}, expected "
                                  f"{self.oxum}")

    def prepare(self) -> None:
        for directory in (self.out, self.extracted, self.archives):
            directory.mkdir(parents=True, exist_ok=True)

    def after_start(self) -> None:
        """Build the holey bag: the bag with some payload only in
        fetch.txt, pointing at the fixture server."""
        self.create(None, "holey")
        self.holey.parent.mkdir(parents=True)
        shutil.move(self.out / "holey", self.holey)
        lines = []
        for entry, url in self.pending_urls():
            self.pending.append(entry)
            (self.holey / "data" / entry["rel"]).unlink()
            encoded = entry["rel"].replace("%", "%25")
            lines.append(f"{url} {entry['size']} data/{encoded}\n")
        self.fetch_txt = "".join(lines).encode("utf-8")
        self.reset_holey()
        sync_tree(self.holey.parent)

    def discard(self, path: Path) -> None:
        if not path.exists():
            return
        if self.defer_deletes:
            self.h.trash.mkdir(exist_ok=True)
            path.rename(self.h.trash / str(next(self.trashed)))
        elif path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()

    def reset_holey(self) -> None:
        for entry in self.pending:
            self.discard(self.holey / "data" / entry["rel"])
        (self.holey / "fetch.txt").write_bytes(self.fetch_txt)

    def steps(self, index: int, info: dict):
        """The round's bag operations, one step per yield."""
        for cycle in range(self.cycles):
            yield from self.cycle(f"r{index}c{cycle}", index, info)

    def cycle(self, name: str, index: int, info: dict):
        h = self.h
        bag = self.create("bag_create", name)
        if info["traced"]:
            self.floors(info)
        yield
        h.op("bag_validate_full",
             ["bag", "validate", str(bag), "--full", "--json"],
             check=lambda body: expect(body["ok"] and not body["findings"],
                                       f"validate --full: {body}"))
        yield
        archive = self.archives / f"{name}.zip"
        h.op("bag_archive", ["bag", "archive", str(bag), "-o",
                               str(archive), "--json"],
             check=lambda body: expect(archive.is_file(), "no archive"))
        if info["traced"] and archive.is_file():
            _add(info, "archive_bytes", archive.stat().st_size)
            _add(info, "bag_bytes", sum(tree_files(bag).values()))
        yield
        destination = self.extracted / name
        h.op("bag_extract", ["bag", "extract", str(archive),
                               str(destination), "--json"],
             check=lambda body: same_tree(bag, destination / name))
        yield
        if self.with_archive(index, archive):
            yield
        h.op("resolve_fetch",
             ["bag", "resolve-fetch", str(self.holey), "--parallelism",
              str(h.nproc), "--json"],
             check=self.check_fetched)
        self.reset_holey()
        for path in (bag, destination, archive):
            self.discard(path)
        # one fsync commits the journal, and with it the deletions
        fsync_path(h.work)

    def floors(self, info: dict) -> None:
        """Raw hashlib over the same bytes and algorithms, and
        shutil.copytree of the same tree, beside each ``bag create``;
        the round's totals."""
        begin = start = time.perf_counter()
        for entry in self.files:
            file_digests(self.src / entry["rel"], self.algorithms)
        _add(info, "hash_floor_s", time.perf_counter() - start)
        _add(info, "hash_floor_bytes", self.h.spec["payload_bytes"])
        target = self.h.work / "floor"
        start = time.perf_counter()
        shutil.copytree(self.src, target)
        _add(info, "copy_floor_s", time.perf_counter() - start)
        self.discard(target)
        _add(info, "payload_bytes", self.h.spec["payload_bytes"])
        _add(info, "floor_s", time.perf_counter() - begin)

    def check_fetched(self, body: dict) -> None:
        outcomes = {o["path"]: o["outcome"] for o in body["outcomes"]}
        expect(body["ok"] and outcomes == {f"data/{e['rel']}": "fetched"
                                           for e in self.pending},
               f"resolve-fetch outcomes {outcomes}")
        for entry in self.pending:
            actual = file_digests(self.holey / "data" / entry["rel"],
                                  entry["digests"])
            expect(actual == entry["digests"],
                   f"fetched {entry['rel']} has digests {actual}")
        expect((self.holey / "fetch.txt").stat().st_size == 0,
               "fetch.txt is not empty after resolve-fetch")

    def with_archive(self, index: int, archive: Path) -> bool:
        """Operations on the round's archive beyond extract; True if
        there were any."""
        return False

    def probe(self) -> None:
        """validate --full must fail on a copy with one flipped byte and
        name the file."""
        bag = self.create(None, "flipped")
        victim = self.files[len(self.files) // 2]
        path = bag / "data" / victim["rel"]
        with open(path, "r+b") as handle:
            handle.seek(victim["size"] // 2)
            byte = handle.read(1)
            handle.seek(victim["size"] // 2)
            handle.write(bytes([byte[0] ^ 0x01]))
        wanted = f"data/{victim['rel']}"
        self.h.op(None, ["bag", "validate", str(bag), "--full", "--json"],
                  expect_code=1,
                  check=lambda body: expect(
                      [(f["path"], f["kind"]) for f in body["findings"]]
                      == [(wanted, "digest-mismatch")],
                      f"flipped byte in {wanted}: {body['findings']}"))
        shutil.rmtree(bag, ignore_errors=True)


class LargeBag(BagPart):
    """Also mints each round's archive, served by the fixture server, and
    links it from its source files' identifiers with ``link record``."""

    def __init__(self, harness, cycles: int = 1) -> None:
        super().__init__(harness, cycles)
        self.sources: dict[str, str] = {}
        self.ledger = harness.work / "ledger.jsonl"

    def mint(self, title: str, path: Path, url: str, digest: str) -> str:
        body = self.h.op(None, ["minid", "mint", "--title", title,
                                "--author", "perfbench", "--location", url,
                                "--from-file", str(path), "--json"],
                         check=lambda b: check_record(b, digest, [url]))
        return body["identifier"] if body else "minid:0000000000"

    def after_start(self) -> None:
        for entry in self.files:
            self.sources[entry["rel"]] = self.mint(
                entry["rel"], self.src / entry["rel"],
                self.src_url(entry["rel"]), entry["digests"]["sha256"])
            self.h.op(None, ["link", "root", self.sources[entry["rel"]],
                             "--actor", "perfbench", "--ledger",
                             str(self.ledger), "--json"])
        super().after_start()

    def pending_urls(self):
        table = next(e for e in self.files if e["kind"] == "table")
        blob = next(e for e in self.files if e["kind"] == "blob")
        return [(table, self.src_url(table["rel"])),
                (blob, self.sources[blob["rel"]])]

    def with_archive(self, index: int, archive: Path) -> bool:
        h = self.h
        if not archive.is_file():
            return False
        url = f"{h.files_url}/archives/{archive.name}"
        digest = file_digests(archive, ("sha256",))["sha256"]
        identifier = self.mint(f"bag archive {index}", archive, url, digest)
        h.op(None, ["minid", "resolve", identifier, "--json"],
             check=lambda b: check_record(b, digest, [url]))
        inputs = sorted(self.sources.values())
        # kept in the full result only: only this workload runs it, and
        # every run reports the same metrics
        h.op("archive_link_record",
             ["link", "record", "--output", identifier,
              *(a for i in inputs for a in ("--input", i)),
              "--commit", f"{COMMIT_REPO}@{'ab' * 20}",
              "--env-file", str(h.env_file), "--actor", "perfbench",
              "--ledger", str(self.ledger), "--json"],
             check=lambda body: expect(
                 chain_nodes(body) == {identifier, *inputs},
                 f"chain of {identifier} has nodes {chain_nodes(body)}"))
        return True


# --- provenance ---------------------------------------------------------------

class ProvenancePart:
    """Mint a layered DAG, declare its roots, record every linkage,
    run ``link ci``, resolve every identifier, open the history log
    locally, and check a term batch.

    ``link ci``, the history-log open and the term check run ``repeats``
    times a round: each is one call, so a round alone would give one
    sample.
    """

    def __init__(self, harness, repeats: int) -> None:
        self.h = harness
        self.repeats = repeats
        # minted in this round, not yet resolved: (identifier, node)
        self.unresolved: list[tuple[str, dict]] = []
        spec = harness.spec
        self.dag = spec["dag"]
        self.batch = spec["batch"]
        self.commit = spec["commit"]
        self.history = spec["history"]

    def steps(self, index: int, info: dict):
        """The round's DAG flow, one step per yield: each layer's nodes
        are minted, then declared roots (layer 0) or recorded; then
        ``link ci`` runs."""
        h = self.h
        ledger = h.work / f"ledger-{index}.jsonl"
        ids: dict[int, str] = {}
        closure = self.dag["closures"]
        for layer in range(1 + max(n["layer"] for n in self.dag["nodes"])):
            nodes = [n for n in self.dag["nodes"] if n["layer"] == layer]
            for node in nodes:
                ids[node["index"]] = self.mint(index, node)
                self.unresolved.append((ids[node["index"]], node))
            for node in nodes:
                output = ids[node["index"]]
                if layer == 0:
                    h.op(None, ["link", "root", output, "--actor",
                                "perfbench", "--ledger", str(ledger),
                                "--json"])
                    continue
                want = {ids[i] for i in closure[str(node["index"])]}
                h.op("link_record",
                     ["link", "record", "--output", output,
                      *(a for i in node["inputs"]
                        for a in ("--input", ids[i])),
                      "--commit", f"{COMMIT_REPO}@{self.commit}",
                      "--env-file", str(h.env_file), "--actor",
                      "perfbench", "--ledger", str(ledger), "--json"],
                     check=lambda body: expect(
                         chain_nodes(body) == want,
                         f"chain of {output}: {sorted(chain_nodes(body))}"))
            yield
        terminals = {ids[t]: {ids[i] for i in closure[str(t)]}
                     for t in self.dag["terminals"]}
        for repeat in range(self.repeats):
            h.op("link_ci", ["link", "ci", "--ledger", str(ledger),
                               "--json"],
                 check=lambda body: self.check_ci(body, terminals))
            yield
        self.resolve_minted()
        for path in (ledger, ledger.with_name(ledger.name + ".lock")):
            path.unlink(missing_ok=True)

    def mint(self, index: int, node: dict) -> str:
        url = f"{self.h.files_url}/{node['rel']}"
        body = self.h.op("mint",
                         ["minid", "mint", "--title",
                          f"node {node['index']} round {index}",
                          "--author", "perfbench", "--location", url,
                          "--from-file", str(self.h.served / node["rel"]),
                          "--json"],
                         check=lambda b: check_record(b, node["sha256"],
                                                      [url]))
        return body["identifier"] if body else "minid:0000000000"

    def resolve_minted(self) -> None:
        """Resolve over HTTP every identifier minted since the last call."""
        while self.unresolved:
            identifier, node = self.unresolved.pop(0)
            url = f"{self.h.files_url}/{node['rel']}"
            self.h.op("resolve", ["minid", "resolve", identifier, "--json"],
                      check=lambda b: check_record(b, node["sha256"],
                                                   [url]))

    def lookups(self, index: int):
        """The round's resolves of what is minted so far, history-log
        opens and term checks, spread over the round: one set per
        yield."""
        h = self.h
        for repeat in range(self.repeats):
            self.resolve_minted()
            record = self.history[(self.repeats * index + repeat)
                                  % len(self.history)]
            h.op("registry_open",
                 ["--config", str(h.local_config), "minid", "resolve",
                  record["identifier"], "--store",
                  str(h.gen / "history.log"), "--json"],
                 check=lambda b: check_record(b, record["digest"],
                                              record["locations"]))
            h.op("dict_check", ["dict", "check", "--dict",
                                  str(h.gen / "terms.tsv"), "--json"],
                 stdin="".join(e["value"] + "\n" for e in self.batch),
                 expect_code=0 if all(e["ok"] for e in self.batch) else 1,
                 check=lambda body: check_terms(body, self.batch))
            yield

    @staticmethod
    def check_ci(body: dict, terminals: dict[str, set[str]]) -> None:
        expect(body["verdict"] == "intact", f"link ci: {body['verdict']}")
        starts = [chain["start"] for chain in body["chains"]]
        expect(sorted(starts) == sorted(terminals),
               f"link ci chains start at {starts}")
        for chain in body["chains"]:
            expect(chain_nodes(chain) == terminals[chain["start"]],
                   f"chain of {chain['start']} differs from its closure")


# --- workloads ----------------------------------------------------------------

class Workload:
    """A bag part and a provenance part, their steps interleaved."""

    bag_part = BagPart
    bag_cycles = 1
    repeats = 2

    def __init__(self, harness) -> None:
        self.bag = self.bag_part(harness, self.bag_cycles)
        self.provenance = ProvenancePart(harness, self.repeats)

    def prepare(self) -> None:
        self.bag.prepare()

    def after_start(self) -> None:
        self.bag.after_start()

    def round(self, index: int, info: dict) -> None:
        parts = [self.provenance.steps(index, info),
                 self.bag.steps(index, info),
                 self.provenance.lookups(index)]
        while parts:
            for part in list(parts):
                if next(part, StopIteration) is StopIteration:
                    parts.remove(part)

    def probe(self) -> None:
        self.bag.probe()


class BagFewLarge(Workload):
    bag_part = LargeBag
    # three rounds a run, each mostly one long bag archive: more
    # samples a round, spread between the bag steps, so that a slow
    # spell of a few seconds does not set a run's median
    repeats = 4


class ProvenanceDag(Workload):
    # its bag takes tens of milliseconds a cycle: several cycles a
    # round give its bag metrics enough samples
    bag_cycles = 4


WORKLOADS = {
    "bag-many-small": Workload,
    "bag-few-large": BagFewLarge,
    "provenance-dag": ProvenanceDag,
}
