"""Ledger appends: a crashed writer's torn last line, a writer killed
mid-run, and concurrent writers claiming one identifier."""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import cuflinks
from cuflinks.errors import LedgerError
from cuflinks.links import Ledger, declare_root, record_linkage

from test_links import FakeResolver, ids, linkage


def test_append_after_torn_tail_keeps_the_record(tmp_path):
    path = tmp_path / "chain.jsonl"
    ledger = Ledger(path)
    declare_root(ledger, "minid:AAAAAAAAAA", actor="a")
    with open(path, "ab") as handle:
        handle.write(b'{"kind":"root","identifier":"minid:BBBB')
    view = declare_root(ledger, "minid:CCCCCCCCCC", actor="a")
    assert view.roots == frozenset({"minid:AAAAAAAAAA", "minid:CCCCCCCCCC"})
    assert len(view.diagnostics) == 1
    assert view.diagnostics[0].startswith("line 2: unreadable")


def test_ledger_creation_alone_syncs_the_directory(tmp_path,
                                                   directory_fsyncs):
    ledger = Ledger(tmp_path / "chain.jsonl")
    declare_root(ledger, "minid:AAAAAAAAAA", actor="a")
    assert len(directory_fsyncs) == 1
    declare_root(ledger, "minid:BBBBBBBBBB", actor="a")
    assert len(directory_fsyncs) == 1


CRASH_DECLARER = """\
import sys
from cuflinks.links import Ledger, declare_root

ledger = Ledger(sys.argv[1])
index = 0
while True:
    identifier = f"minid:crash{index:010d}"
    declare_root(ledger, identifier, actor="crash-test")
    print(identifier, flush=True)
    index += 1
"""

ACKNOWLEDGED = 100


def test_killed_writer_loses_no_acknowledged_root(tmp_path):
    path = tmp_path / "chain.jsonl"
    script = tmp_path / "crash_declarer.py"
    script.write_text(CRASH_DECLARER, encoding="utf-8")
    env = {**os.environ,
           "PYTHONPATH": str(Path(cuflinks.__file__).parents[1])}
    child = subprocess.Popen([sys.executable, str(script), str(path)],
                             stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(60, child.kill)
    watchdog.start()
    acknowledged = []
    try:
        while len(acknowledged) < ACKNOWLEDGED:
            line = child.stdout.readline()
            if not line:
                break
            acknowledged.append(line.strip())
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
        # lines printed before the kill landed were acknowledged too
        acknowledged += child.stdout.read().split()
    finally:
        watchdog.cancel()
        child.kill()
        child.stdout.close()
    assert child.returncode == -signal.SIGKILL
    assert len(acknowledged) >= ACKNOWLEDGED

    view = Ledger(path).load()
    assert set(acknowledged) <= view.roots
    # the only damage a kill may leave is a torn final line
    final = len(path.read_bytes().split(b"\n"))
    assert all(d.startswith(f"line {final}: unreadable")
               for d in view.diagnostics)

    after = declare_root(Ledger(path), "minid:afterthecrash", actor="t")
    assert after == Ledger(path).load()
    assert after.roots == view.roots | {"minid:afterthecrash"}
    assert after.diagnostics == view.diagnostics


WRITERS = 4


def race(call) -> list[str]:
    """Start call in WRITERS threads at once; each ends 'ok' or 'refused'."""
    barrier = threading.Barrier(WRITERS)
    outcomes: list[str] = []

    def writer():
        barrier.wait(timeout=10)
        try:
            call()
        except LedgerError:
            outcomes.append("refused")
        else:
            outcomes.append("ok")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer) for _ in range(WRITERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return sorted(outcomes)


class SlowResolver(FakeResolver):
    def resolve(self, identifier):
        time.sleep(0.05)
        return super().resolve(identifier)


def test_concurrent_records_of_one_output_keep_one(tmp_path):
    a, b = ids(2)
    ledger = Ledger(tmp_path / "chain.jsonl")
    declare_root(ledger, a, actor="t")
    resolver = SlowResolver(known=(a, b))
    outcomes = race(lambda: record_linkage(ledger, linkage(b, (a,)),
                                           resolver))
    assert outcomes == ["ok"] + ["refused"] * (WRITERS - 1)
    assert ledger.load().diagnostics == ()


def test_concurrent_roots_of_one_identifier_keep_one(tmp_path, monkeypatch):
    a, b = ids(2)
    ledger = Ledger(tmp_path / "chain.jsonl")
    declare_root(ledger, a, actor="t")
    load = Ledger.load

    def slow_load(self):
        view = load(self)
        time.sleep(0.05)
        return view

    monkeypatch.setattr(Ledger, "load", slow_load)
    outcomes = race(lambda: declare_root(ledger, b, actor="t"))
    assert outcomes == ["ok"] + ["refused"] * (WRITERS - 1)
    assert ledger.load().diagnostics == ()
