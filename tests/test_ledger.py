"""Ledger appends after a crashed writer left a torn last line."""

from cuflinks.links import Ledger, declare_root


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
