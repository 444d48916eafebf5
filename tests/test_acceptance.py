"""Acceptance gate: eight checks, one printed pass/fail line each.

Every check times itself against its stated budget and reports through
the ``acceptance`` fixture, so the run ends with a one-line-per-check
summary block.
"""

import hashlib
import json
import random
import signal
import string
import subprocess
import sys
import time
from pathlib import Path

from click.testing import CliRunner

from cuflinks.bag import (create_bag, extract, read_bag, serialize,
                          validate_bag, write_bag)
from cuflinks.bag.validate import FULL
from cuflinks.cli import main
from cuflinks.errors import FormatError, NotFoundError
from cuflinks.hashing import multi_digest_bytes
from cuflinks.links import Ledger, declare_root, record_linkage
from cuflinks.minid import Checksum, Registry, checksum_of_file, parse_identifier
from cuflinks.terms import validate_term

from test_bag import tree_files
from test_fetch import bag_files, punch_holes
from test_links import linkage
from test_terms import status_dictionary

FIG3_LAYOUT = [
    "bag-info.txt",
    "bagit.txt",
    "data/file1",
    "data/file2",
    "fetch.txt",
    "manifest-md5.txt",
    "metadata/annotations.txt",
    "metadata/manifest.json",
    "tagmanifest-md5.txt",
]


def _finish(acceptance, criterion, problems, start, budget):
    elapsed = time.perf_counter() - start
    detail = f"{elapsed:.2f}s"
    if elapsed >= budget:
        problems.append(f"over the {budget:.0f}s budget")
    if problems:
        detail += "; " + problems[0]
    acceptance(criterion, not problems, detail)


def test_criterion_1_layout(acceptance, fig3_tree, fixed_clock, tmp_path):
    start = time.perf_counter()
    problems = []
    source, metadata = fig3_tree

    trees = []
    for attempt in ("one", "two"):
        bag = create_bag(source, metadata=metadata, algorithms=("md5",),
                         root_name="demo", clock=fixed_clock)
        parent = tmp_path / attempt
        parent.mkdir()
        bag_dir = write_bag(bag, parent)
        trees.append(tree_files(bag_dir))
        if read_bag(bag_dir) != bag:
            problems.append("read-back differs from the written bag")
    if sorted(trees[0]) != FIG3_LAYOUT:
        problems.append(f"layout is {sorted(trees[0])}")
    if trees[0] != trees[1]:
        problems.append("rebuild with the same clock is not byte-exact")

    manifest = trees[0].get("manifest-md5.txt", b"")
    for name in ("file1", "file2"):
        expected = hashlib.md5((source / name).read_bytes()).hexdigest()
        if f"{expected}  data/{name}\n".encode() not in manifest:
            problems.append(f"manifest line for {name} is wrong")
    if b"Bagging-Date: 2026-01-15\n" not in trees[0]["bag-info.txt"]:
        problems.append("Bagging-Date ignores the injected clock")
    _finish(acceptance, 1, problems, start, 1.0)


def _mutation_detected(bag_dir: Path, rel_path: str) -> bool:
    try:
        report = validate_bag(read_bag(bag_dir), FULL)
    except FormatError as exc:
        return exc.path == rel_path or rel_path in str(exc)
    if report.ok:
        return False
    return any(f.path == rel_path for f in report.findings)


def test_criterion_2_fixity(acceptance, tmp_path):
    start = time.perf_counter()
    problems = []
    rng = random.Random(20260115)
    algorithm_choices = [("sha256",), ("md5",), ("md5", "sha256")]
    mutations = 0

    for index in range(100):
        source = tmp_path / f"source{index}"
        source.mkdir()
        for file_number in range(rng.randint(1, 3)):
            body = bytes(rng.randrange(256)
                         for _ in range(rng.randint(1, 64)))
            (source / f"f{file_number}").write_bytes(body)
        bag = create_bag(source, algorithms=rng.choice(algorithm_choices))
        bag_dir = write_bag(bag, tmp_path / f"bag{index}")

        report = validate_bag(read_bag(bag_dir), FULL)
        if report.findings:
            problems.append(f"bag {index}: false finding "
                            f"{report.findings[0]}")
            break

        for victim in sorted(bag_dir.rglob("*")):
            if not victim.is_file():
                continue
            original = victim.read_bytes()
            if not original:
                continue  # nothing to flip in an empty file
            position = rng.randrange(len(original))
            mutated = bytearray(original)
            mutated[position] = (original[position]
                                 + rng.randint(1, 255)) % 256
            victim.write_bytes(bytes(mutated))
            rel_path = victim.relative_to(bag_dir).as_posix()
            mutations += 1
            if not _mutation_detected(bag_dir, rel_path):
                problems.append(
                    f"bag {index}: byte {position} of {rel_path} "
                    f"changed without a finding naming it")
            victim.write_bytes(original)
            if problems:
                break
        if problems:
            break
    if not problems and mutations < 100:
        problems.append(f"only {mutations} mutations exercised")
    _finish(acceptance, 2, problems, start, 30.0)


def test_criterion_3_holey_bags(acceptance, fig3_tree, fixed_clock,
                                tmp_path, file_server):
    start = time.perf_counter()
    problems = []
    source, metadata = fig3_tree
    runner = CliRunner()

    def holey(tag: str, serve):
        bag = create_bag(source, metadata=metadata, clock=fixed_clock,
                         root_name=f"bag-{tag}")
        bag_dir = write_bag(bag, tmp_path / tag)
        holes = []
        for name in ("file1", "file2"):
            body = (source / name).read_bytes()
            url = file_server.add(f"/{tag}/{name}", serve(body))
            holes.append((f"data/{name}", url, len(body)))
        punch_holes(bag_dir, holes)
        return bag_dir

    # both payload entries live only on the server
    good = holey("good", lambda body: body)
    result = runner.invoke(main, ["bag", "resolve-fetch", str(good)])
    if result.exit_code != 0:
        problems.append(f"clean materialize exited {result.exit_code}")
    elif not validate_bag(read_bag(good), FULL).ok:
        problems.append("materialized bag does not fully validate")
    elif (good / "data/file1").read_bytes() != \
            (source / "file1").read_bytes():
        problems.append("materialized payload differs from the source")

    # same-length tampered responses: nothing may land
    bad = holey("bad", lambda body: bytes(b ^ 0xFF for b in body))
    before = bag_files(bad)
    result = runner.invoke(main, ["bag", "resolve-fetch", str(bad)])
    if result.exit_code == 0:
        problems.append("tampered responses still exited 0")
    if "digest-mismatch" not in result.output:
        problems.append("tampered responses not reported as "
                        "digest-mismatch")
    if bag_files(bad) != before:
        problems.append("tampered transfer changed the bag")
    _finish(acceptance, 3, problems, start, 5.0)


CRASH_MINTER = """\
import os, signal, sys
from cuflinks.minid import Checksum, Registry

registry = Registry.open(sys.argv[1])
for index in range(int(sys.argv[2])):
    record = registry.mint("crash-test", f"record {index}",
                           ("https://example.org/blob",),
                           Checksum("sha256", "0" * 64))
    print(record.identifier, flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def test_criterion_4_minid_round_trip(acceptance, tmp_path):
    start = time.perf_counter()
    problems = []

    store = tmp_path / "registry.log"
    with Registry.open(store) as registry:
        minted = registry.mint("tester", "round trip",
                               ("https://example.org/blob",),
                               Checksum("sha256", "a" * 64))
        if registry.resolve(minted.identifier) != minted:
            problems.append("resolve returned a different record")

        parse_identifier("minid:fPTs86M7VTyb")  # stays syntactically valid
        try:
            registry.resolve("minid:fPTs86M7VTyb")
            problems.append("fresh registry resolved an unminted id")
        except NotFoundError:
            pass

        identifiers = {
            registry.mint("tester", f"bulk {i}",
                          ("https://example.org/blob",),
                          Checksum("sha256", "b" * 64)).identifier
            for i in range(10_000)}
        if len(identifiers) != 10_000:
            problems.append(f"{10_000 - len(identifiers)} duplicate "
                            f"identifiers in 10,000 mints")

    crash_store = tmp_path / "crash.log"
    script = tmp_path / "crash_minter.py"
    script.write_text(CRASH_MINTER, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, str(script), str(crash_store), "250"],
        capture_output=True, text=True, timeout=120)
    if run.returncode != -signal.SIGKILL:
        problems.append(f"crash child exited {run.returncode}, not SIGKILL")
    committed = [line for line in run.stdout.split("\n") if line]
    lost = []
    with Registry.open(crash_store) as registry:
        replayed = len(registry)
        for identifier in committed:
            try:
                registry.resolve(identifier)
            except NotFoundError:
                lost.append(identifier)
    if len(committed) != 250:
        problems.append(f"crash child committed {len(committed)} records")
    if lost:
        problems.append(f"{len(lost)} committed records lost on replay")
    # with every acknowledged identifier resolving, a count above theirs
    # means a record that was never acknowledged
    if replayed != len(set(committed)):
        problems.append(f"{replayed} records replayed for "
                        f"{len(set(committed))} acknowledged")
    _finish(acceptance, 4, problems, start, 60.0)


def test_criterion_5_chain_sensitivity(acceptance, tmp_path, file_server):
    start = time.perf_counter()
    problems = []
    runner = CliRunner()
    store = tmp_path / "registry.log"
    ledger_path = tmp_path / "chain.jsonl"

    registry = Registry.open(store)
    stages = {}
    for name in ("d1", "d2", "d3", "d4"):
        blob = tmp_path / f"{name}.bin"
        blob.write_bytes(f"{name} stage bytes\n".encode())
        url = file_server.add(f"/{name}", blob.read_bytes())
        stages[name] = registry.mint("pipeline", name, (url,),
                                     checksum_of_file(blob)).identifier

    ledger = Ledger(ledger_path)
    declare_root(ledger, stages["d1"], actor="pipeline")
    record_linkage(ledger, linkage(stages["d2"], (stages["d1"],)), registry)
    record_linkage(ledger, linkage(stages["d3"], (stages["d2"],)), registry)
    record_linkage(ledger, linkage(stages["d4"], (stages["d3"],)), registry)

    def verdict():
        result = runner.invoke(main, [
            "link", "verify", stages["d4"], "--full",
            "--ledger", str(ledger_path), "--store", str(store), "--json"])
        report = json.loads(result.stdout)
        return result.exit_code, report["verdict"], tuple(report["failing"])

    code, word, failing = verdict()
    if (code, word, failing) != (0, "intact", ()):
        problems.append(f"pristine pipeline: {word}, failing {failing}")

    # injury 1: one payload byte behind d1 changes
    file_server.content["/d1"] = b"D1 stage bytes\n"
    code, word, failing = verdict()
    if (code, word, failing) != (1, "broken", (stages["d1"],)):
        problems.append(f"payload tamper: {word}, failing {failing}")
    file_server.content["/d1"] = b"d1 stage bytes\n"

    # injury 2: d3's linkage line disappears from the ledger
    original = ledger_path.read_bytes()
    lines = original.split(b"\n")
    ledger_path.write_bytes(b"\n".join(lines[:2] + lines[3:]))
    code, word, failing = verdict()
    if (code, word, failing) != (1, "broken", (stages["d3"],)):
        problems.append(f"deleted linkage: {word}, failing {failing}")
    ledger_path.write_bytes(original)

    # injury 3: d2's identifier is tombstoned (not reversible, so last)
    registry.tombstone(stages["d2"], actor="pipeline")
    code, word, failing = verdict()
    if (code, word, failing) != (1, "broken", (stages["d2"],)):
        problems.append(f"tombstone: {word}, failing {failing}")
    registry.close()
    _finish(acceptance, 5, problems, start, 10.0)


def test_criterion_6_term_discipline(acceptance):
    start = time.perf_counter()
    problems = []
    dictionary = status_dictionary()
    variants = ["Complete", "completed", "Completed",
                "completed contaminated", "inprgress", "inprogress",
                "In Progress", "complete"]
    accepted = []
    suggestions_seen = 0
    for variant in variants:
        check = validate_term(variant, dictionary)
        if check.ok:
            accepted.append(variant)
        elif check.suggestions:
            suggestions_seen += 1
    if accepted != ["complete"]:
        problems.append(f"accepted {accepted}")
    if suggestions_seen < 5:
        problems.append(f"suggestions for only {suggestions_seen} rejects")
    _finish(acceptance, 6, problems, start, 1.0)


def test_criterion_7_serialization_identity(acceptance, tmp_path):
    start = time.perf_counter()
    problems = []
    rng = random.Random(8493)
    algorithm_choices = [("sha256",), ("md5",), ("sha512",),
                         ("md5", "sha256")]
    for index in range(25):
        source = tmp_path / f"source{index}"
        for file_number in range(rng.randint(1, 5)):
            depth = rng.randint(0, 2)
            directory = source
            for level in range(depth):
                directory = directory / rng.choice(("inner", "raw", "v2"))
            directory.mkdir(parents=True, exist_ok=True)
            name = "".join(rng.choice(string.ascii_lowercase)
                           for _ in range(6))
            body = bytes(rng.randrange(256)
                         for _ in range(rng.randint(0, 512)))
            (directory / name).write_bytes(body)
        bag = create_bag(source, algorithms=rng.choice(algorithm_choices))
        bag_dir = write_bag(bag, tmp_path / f"bag{index}")
        archive = serialize(bag_dir, tmp_path / f"bag{index}.zip")
        extracted = extract(archive, tmp_path / f"out{index}")
        if tree_files(extracted) != tree_files(bag_dir):
            problems.append(f"bag {index} round trip not byte-identical")
            break
    _finish(acceptance, 7, problems, start, 10.0)


def test_criterion_8_known_answer_digests(acceptance, tmp_path):
    start = time.perf_counter()
    problems = []
    known = {
        "md5": "d41d8cd98f00b204e9800998ecf8427e",
        "sha256": ("e3b0c44298fc1c149afbf4c8996fb924"
                   "27ae41e4649b934ca495991b7852b855"),
    }
    if multi_digest_bytes(b"", ("md5", "sha256")) != known:
        problems.append("empty-input digests are wrong")
    empty = tmp_path / "empty.bin"
    empty.touch()
    if checksum_of_file(empty) != Checksum("sha256", known["sha256"]):
        problems.append("file hashing disagrees on the empty file")
    _finish(acceptance, 8, problems, start, 1.0)
