"""Term dictionary: validation, suggestions, and evolution."""

import json
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import cuflinks
from cuflinks.cli import main
from cuflinks.errors import CycleError, FormatError
from cuflinks.terms import (TermCheck, TermDictionary, TermRecord,
                            add_term, append_changelog, deprecate_term,
                            dump_dictionary, load_dictionary,
                            save_dictionary, validate_term)


def status_dictionary() -> TermDictionary:
    return TermDictionary(terms={
        "complete": TermRecord(canonical_id="status:complete",
                               definition="all processing finished"),
        "in-progress": TermRecord(canonical_id="status:in-progress",
                                  definition="still being processed"),
    })


def test_exact_match_ok():
    check = validate_term("complete", status_dictionary())
    assert check.ok
    assert check.term == "complete"
    assert check.canonical_id == "status:complete"
    assert check.followed == ()


VARIANTS_WITH_SUGGESTIONS = ["Complete", "completed", "Completed",
                             "inprogress", "In Progress",
                             # one longer than the longest term
                             "in-progresss",
                             # a character no term uses
                             "compl\u20acte", "\u20accomplete",
                             "complete\u20ac", "c\u00f6mplete"]
VARIANTS_WITHOUT = ["completed contaminated", "inprgress"]


@pytest.mark.parametrize("value", VARIANTS_WITH_SUGGESTIONS)
def test_near_miss_rejected_with_suggestion(value):
    check = validate_term(value, status_dictionary())
    assert not check.ok
    assert check.suggestions


@pytest.mark.parametrize("value", VARIANTS_WITHOUT)
def test_far_miss_rejected_without_suggestion(value):
    check = validate_term(value, status_dictionary())
    assert not check.ok
    assert check.suggestions == ()


def folding_dictionary() -> TermDictionary:
    return TermDictionary(terms={
        "Stra\u00dfe": TermRecord(canonical_id="geo:strasse"),
        "\u0130zmir": TermRecord(canonical_id="geo:izmir"),
        "ss": TermRecord(canonical_id="x:ss"),
    })


# casefold() turns \u00df into ss and \u0130 into i plus a combining dot
@pytest.mark.parametrize("value, suggestions", [
    ("strasse", ("Stra\u00dfe",)),
    ("STRASSE", ("Stra\u00dfe",)),
    ("strase", ("Stra\u00dfe",)),
    ("stra\u00dfen", ("Stra\u00dfe",)),
    ("izmir", ("\u0130zmir",)),
    ("\u0130ZM\u0130R", ("\u0130zmir",)),
    ("\u00df", ("ss",)),
    ("s", ("ss",)),
    ("\u00dfs", ("ss",)),
    ("\u00df\u00df", ()),
    ("stra\u00df\u00dfe", ()),
])
def test_suggestions_when_casefolding_changes_the_length(value, suggestions):
    check = validate_term(value, folding_dictionary())
    assert check == TermCheck(ok=False, suggestions=suggestions)


def test_long_value_is_rejected_without_enumerating():
    value = "c" * (1 << 20)
    tracemalloc.start()
    try:
        check = validate_term(value, status_dictionary())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert check == TermCheck(ok=False)
    assert peak < 4 << 20  # the casefolded copy, not a neighbourhood


def test_deprecated_term_resolves_through_chain():
    dictionary = TermDictionary(terms={
        "done": TermRecord(canonical_id="status:done", status="deprecated",
                           superseded_by="finished"),
        "finished": TermRecord(canonical_id="status:finished",
                               status="deprecated",
                               superseded_by="complete"),
        "complete": TermRecord(canonical_id="status:complete"),
    })
    check = validate_term("done", dictionary)
    assert check.ok
    assert check.term == "complete"
    assert check.followed == ("done", "finished")
    assert check.canonical_id == "status:complete"


def test_suggestions_resolve_deprecated_to_active():
    dictionary = TermDictionary(terms={
        "done": TermRecord(canonical_id="s:d", status="deprecated",
                           superseded_by="complete"),
        "complete": TermRecord(canonical_id="s:c"),
    })
    check = validate_term("Done", dictionary)
    assert not check.ok
    assert check.suggestions == ("complete",)


def test_consistency_rejects_cycles():
    with pytest.raises(CycleError):
        TermDictionary(terms={
            "a": TermRecord(canonical_id="x:a", status="deprecated",
                            superseded_by="b"),
            "b": TermRecord(canonical_id="x:b", status="deprecated",
                            superseded_by="a"),
        })


def test_consistency_rejects_dangling_successor():
    with pytest.raises(ValueError):
        TermDictionary(terms={
            "a": TermRecord(canonical_id="x:a", status="deprecated",
                            superseded_by="ghost"),
        })


def test_consistency_rejects_duplicate_canonical_ids():
    with pytest.raises(ValueError):
        TermDictionary(terms={
            "a": TermRecord(canonical_id="x:same"),
            "b": TermRecord(canonical_id="x:same"),
        })


@pytest.mark.parametrize("term, record", [
    ("a\tb", TermRecord(canonical_id="x:a")),
    ("a\nb", TermRecord(canonical_id="x:a")),
    ("", TermRecord(canonical_id="x:a")),
    ("a", TermRecord(canonical_id="x:\ta")),
    ("a", TermRecord(canonical_id="x:a", definition="two\tcols")),
    ("a", TermRecord(canonical_id="x:a", definition="two\nlines")),
    ("a", TermRecord(canonical_id="x:a", definition="carriage\rreturn")),
])
def test_consistency_rejects_tabs_and_line_breaks(term, record):
    with pytest.raises(ValueError):
        TermDictionary(terms={term: record})


def test_load_wraps_consistency_errors(tmp_path):
    path = tmp_path / "terms.tsv"
    path.write_text("a\tx:same\tactive\t\t\nb\tx:same\tactive\t\t\n")
    with pytest.raises(FormatError):
        load_dictionary(path)


def test_add_term(tmp_path):
    updated, entry = add_term(status_dictionary(), "failed",
                              "status:failed", "processing aborted",
                              actor="curator",
                              clock=lambda: "2026-01-15T12:00:00Z")
    assert validate_term("failed", updated).ok
    assert entry == {"op": "add", "term": "failed",
                     "canonical_id": "status:failed",
                     "definition": "processing aborted",
                     "actor": "curator", "at": "2026-01-15T12:00:00Z"}
    with pytest.raises(ValueError):
        add_term(updated, "failed", "status:failed2", actor="curator")


def test_deprecate_term():
    base, _ = add_term(status_dictionary(), "done", "status:done",
                       actor="curator")
    updated, entry = deprecate_term(base, "done", "complete",
                                    actor="curator",
                                    clock=lambda: "2026-01-15T12:00:00Z")
    check = validate_term("done", updated)
    assert check.ok and check.term == "complete"
    assert entry["op"] == "deprecate"
    with pytest.raises(ValueError):
        deprecate_term(updated, "ghost", "complete", actor="curator")
    with pytest.raises(CycleError):
        deprecate_term(updated, "complete", "complete", actor="curator")


def test_deprecate_rejecting_cycle_leaves_dictionary_usable():
    base = status_dictionary()
    one, _ = add_term(base, "done", "status:done", actor="c")
    two, _ = deprecate_term(one, "done", "complete", actor="c")
    with pytest.raises(CycleError):
        deprecate_term(two, "complete", "done", actor="c")
    assert validate_term("complete", two).ok


def test_new_dictionary_suggests_new_terms_and_old_stays(tmp_path):
    old = status_dictionary()
    assert validate_term("faild", old).suggestions == ()  # map built
    added, _ = add_term(old, "failed", "status:failed", actor="c")
    assert validate_term("faild", added).suggestions == ("failed",)
    moved, _ = deprecate_term(added, "failed", "complete", actor="c")
    assert validate_term("faild", moved).suggestions == ("complete",)
    assert validate_term("faild", added).suggestions == ("failed",)
    assert validate_term("faild", old).suggestions == ()


def test_changelog_appends_json_lines(tmp_path):
    log = tmp_path / "changes.jsonl"
    _, entry = add_term(status_dictionary(), "failed", "status:failed",
                        actor="curator")
    append_changelog(log, entry)
    append_changelog(log, entry)
    lines = log.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["op"] == "add"


def test_changelog_creation_alone_syncs_the_directory(tmp_path,
                                                      directory_fsyncs):
    log = tmp_path / "changes.jsonl"
    append_changelog(log, {"op": "add"})
    assert len(directory_fsyncs) == 1
    append_changelog(log, {"op": "add"})
    assert len(directory_fsyncs) == 1


def test_tsv_round_trip(tmp_path):
    dictionary = TermDictionary(terms={
        "done": TermRecord(canonical_id="status:done", status="deprecated",
                           superseded_by="complete",
                           definition="legacy name"),
        "complete": TermRecord(canonical_id="status:complete",
                               definition="all processing finished"),
    })
    path = tmp_path / "terms.tsv"
    save_dictionary(dictionary, path)
    text = path.read_text()
    assert text.startswith(
        "term\tcanonical_id\tstatus\tsuperseded_by\tdefinition\n")
    assert load_dictionary(path).terms == dictionary.terms


def test_save_leaves_old_file_when_rename_fails(tmp_path, monkeypatch):
    path = tmp_path / "terms.tsv"
    save_dictionary(status_dictionary(), path)
    before = path.read_bytes()
    updated, _ = add_term(status_dictionary(), "failed", "status:failed",
                          actor="curator")

    def crash(source, destination):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="simulated crash"):
        save_dictionary(updated, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["terms.tsv"]


def test_tsv_rejects_malformed(tmp_path):
    path = tmp_path / "terms.tsv"
    path.write_text("term\tcanonical_id\tstatus\tsuperseded_by\tdefinition\n"
                    "only\tthree\tfields\n")
    with pytest.raises(FormatError) as excinfo:
        load_dictionary(path)
    assert excinfo.value.line == 2


def test_tsv_rejects_duplicates(tmp_path):
    path = tmp_path / "terms.tsv"
    path.write_text("a\tx:a\tactive\t\t\na\tx:b\tactive\t\t\n")
    with pytest.raises(FormatError):
        load_dictionary(path)


def test_dump_is_sorted():
    text = dump_dictionary(status_dictionary())
    lines = text.splitlines()[1:]
    assert lines == sorted(lines)


def oracle_osa(a: str, b: str) -> int:
    """Full dynamic-programming optimal string alignment distance."""
    rows = len(a) + 1
    cols = len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + cost)
            if (i > 1 and j > 1 and a[i - 1] == b[j - 2]
                    and a[i - 2] == b[j - 1]):
                d[i][j] = min(d[i][j], d[i - 2][j - 2] + 1)
    return d[-1][-1]


# casefold() changes the length of \u00df, \u1e9e and \u0130, and folds the
# Kelvin sign \u212a to k, so suggestions must work on folded forms
_FOLDING_CHAR = st.sampled_from("aAkKs\u00df\u1e9e\u0130i\u212a")
# values may also carry z, which no term uses
_VALUE_CHAR = st.one_of(_FOLDING_CHAR, st.just("z"))
_FOLDING = st.text(_FOLDING_CHAR, min_size=1, max_size=5)  # a term name


@st.composite
def dictionaries(draw):
    """Distinct terms, each active or a deprecated alias of an earlier
    one, so every chain ends at the first term or another active one."""
    names = draw(st.lists(_FOLDING, min_size=1, max_size=12, unique=True))
    terms = {}
    for number, name in enumerate(names):
        if number and draw(st.booleans()):
            terms[name] = TermRecord(
                canonical_id=f"x:{number}", status="deprecated",
                superseded_by=names[draw(st.integers(0, number - 1))])
        else:
            terms[name] = TermRecord(canonical_id=f"x:{number}")
    return TermDictionary(terms=terms)


def scan_suggestions(value: str, dictionary: TermDictionary) -> tuple:
    folded = value.casefold()
    return tuple(sorted(
        {dictionary._resolve(term)[0] for term in dictionary.terms
         if oracle_osa(folded, term.casefold()) <= 1}))


@settings(max_examples=300)
@given(dictionaries(), st.lists(st.text(_VALUE_CHAR, max_size=5),
                                max_size=8), st.data())
def test_indexed_suggestions_match_full_scan(dictionary, values, data):
    values, names = list(values), sorted(dictionary.terms)
    for name in data.draw(st.lists(st.sampled_from(names), max_size=4)):
        where = data.draw(st.integers(0, len(name)))
        extra = data.draw(_VALUE_CHAR)
        values += [name[:where] + extra + name[where:],
                   name[:where] + name[where + 1:],
                   name[:where] + extra + name[where + 1:],
                   name[:where] + name[where + 1:where + 2]
                   + name[where:where + 1] + name[where + 2:]]
    for value in values:
        check = validate_term(value, dictionary)
        if value in dictionary.terms:
            assert check.ok
        else:
            assert check == TermCheck(
                ok=False, suggestions=scan_suggestions(value, dictionary))


# the dictionary has aliases one and two hops deep, mixed case, \u00df and
# \u0130; the batch has hits and misses by case, each edit kind, a
# character no term uses, and far misses
PINNED_DICTIONARY = (
    "term\tcanonical_id\tstatus\tsuperseded_by\tdefinition\n"
    "ABORTED\tstatus:aborted\tactive\t\tstopped by hand\n"
    "Finished\tstatus:finished\tactive\t\tdone and dusted\n"
    "Stra\u00dfe\tgeo:strasse\tactive\t\ta street\n"
    "complete\tstatus:complete\tactive\t\tall processing finished\n"
    "done\tlocal:done\tdeprecated\tcomplete\tone hop\n"
    "ended\tlocal:ended\tdeprecated\tdone\ttwo hops\n"
    "in-progress\tstatus:in-progress\tactive\t\tstill running\n"
    "\u0130zmir\tgeo:izmir\tactive\t\ta city\n"
    "Cot\tx:cot\tactive\t\t\n"
    "cat\tx:cat\tactive\t\t\n"
    "cut\tx:cut\tactive\t\t\n"
    "stopped\tlocal:stopped\tdeprecated\tABORTED\tone hop, mixed case\n")
PINNED_BATCH = [
    "complete", "done", "ended", "Finished", "Stra\u00dfe", "\u0130zmir",
    "Complete", "FINISHED", "strasse", "STRASSE", "stra\u1e9ee", "Done",
    "complet", "finishd", "don", "strase", "izmir",
    "completee", "finnished", "endeds", "in--progress", "xcomplete",
    "compleke", "dane", "aborteb", "Izmir",
    "cmoplete", "fniished", "edned", "in-porgress", "tsopped",
    "compl\u20acte", "\u20accomplete", "complete\u20ac", "d\u00f8ne",
    "\u0130ZM\u0130R", "i\u0307zmir", "completed contaminated",
    "inprgress", "xyz", "a" * 60, "stopped", "Stopped", "stoped",
    "cxt", "ct", "COT", "cone"]


def test_dict_check_json_bytes_are_pinned(tmp_path):
    dictionary = tmp_path / "terms.tsv"
    dictionary.write_text(PINNED_DICTIONARY, encoding="utf-8")
    result = CliRunner().invoke(
        main, ["dict", "check", "--dict", str(dictionary), "--field",
               "status", "--json"],
        input="".join(value + "\n" for value in PINNED_BATCH))
    assert result.exit_code == 1
    pinned = Path(__file__).parent / "data" / "dict_check_pinned.json"
    assert result.stdout_bytes == pinned.read_bytes()


# --- concurrent and killed writers -------------------------------------

def changelog_terms(path: Path) -> list[str]:
    return [json.loads(line)["term"]
            for line in path.read_text(encoding="utf-8").splitlines()]


ADDERS = 8


def test_concurrent_adders_lose_no_term(tmp_path):
    dictionary = tmp_path / "terms.tsv"
    barrier = threading.Barrier(ADDERS)
    acknowledged = []

    def adder(index):
        barrier.wait(timeout=10)
        main(["dict", "add", f"term{index}", f"X:{index}", "--actor", "t",
              "--dict", str(dictionary)], standalone_mode=False)
        acknowledged.append(f"term{index}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=adder, args=(index,))
                   for index in range(ADDERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(acknowledged) == ADDERS
    assert set(load_dictionary(dictionary).terms) == set(acknowledged)
    changelog = tmp_path / "terms.tsv.changelog.jsonl"
    assert sorted(changelog_terms(changelog)) == sorted(acknowledged)


CRASH_ADDER = """\
import sys
from cuflinks.cli import main

index = 0
while True:
    main(["dict", "add", f"term{index:06d}", f"X:{index}", "--actor",
          "crash-test", "--dict", sys.argv[1]], standalone_mode=False)
    index += 1
"""

ACKNOWLEDGED = 30


def test_killed_adder_loses_no_acknowledged_term(tmp_path):
    dictionary = tmp_path / "terms.tsv"
    changelog = tmp_path / "terms.tsv.changelog.jsonl"
    script = tmp_path / "crash_adder.py"
    script.write_text(CRASH_ADDER, encoding="utf-8")
    env = {**os.environ,
           "PYTHONPATH": str(Path(cuflinks.__file__).parents[1])}
    child = subprocess.Popen([sys.executable, str(script), str(dictionary)],
                             stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(60, child.kill)
    watchdog.start()
    acknowledged = []
    try:
        while len(acknowledged) < ACKNOWLEDGED:
            line = child.stdout.readline()
            if not line:
                break
            acknowledged.append(line.split()[1])  # "added <term> -> <id>"
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
        # lines printed before the kill landed were acknowledged too
        acknowledged += [line.split()[1]
                         for line in child.stdout.read().splitlines()]
    finally:
        watchdog.cancel()
        child.kill()
        child.stdout.close()
    assert child.returncode == -signal.SIGKILL
    assert len(acknowledged) >= ACKNOWLEDGED

    saved = set(load_dictionary(dictionary).terms)
    logged = changelog_terms(changelog)
    assert set(acknowledged) <= set(logged)
    assert len(logged) == len(set(logged))
    # the kill can fall between the save and the changelog append, so
    # the TSV may hold one term the changelog has not recorded yet
    assert set(logged) <= saved
    assert len(saved - set(logged)) <= 1

    main(["dict", "add", "afterthecrash", "X:after", "--actor", "t",
          "--dict", str(dictionary)], standalone_mode=False)
    assert set(load_dictionary(dictionary).terms) == saved | {"afterthecrash"}
