"""Controlled-vocabulary term dictionary with aliasing and deprecation.

A dictionary maps local term names to records carrying a canonical
identifier (a CURIE such as ``NCIT:C106052``, or ``local:<term>`` for
project-local terms), a definition, and a status. Deprecated terms point
at their replacement, so stale spellings keep validating to the current
vocabulary instead of silently rotting.

Storage is a tab-separated file so the dictionary stays editable in a
spreadsheet; every change also lands in a JSON-lines changelog.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Callable, Mapping

from cuflinks.errors import CycleError, FormatError
from cuflinks.fileio import append_durably, write_atomically

ACTIVE = "active"
DEPRECATED = "deprecated"

_HEADER = "term\tcanonical_id\tstatus\tsuperseded_by\tdefinition"


@dataclass(frozen=True)
class TermRecord:
    canonical_id: str
    definition: str = ""
    status: str = ACTIVE
    superseded_by: str | None = None


@dataclass(frozen=True)
class TermCheck:
    """Outcome of validating one value against a dictionary."""

    ok: bool
    term: str | None = None           # the active term the value resolved to
    canonical_id: str | None = None
    followed: tuple[str, ...] = ()    # supersession hops taken, oldest first
    suggestions: tuple[str, ...] = ()


@dataclass(frozen=True)
class TermDictionary:
    terms: Mapping[str, TermRecord]

    def __post_init__(self) -> None:
        self._check_consistency()

    def _check_consistency(self) -> None:
        active_ids: dict[str, str] = {}
        for term, record in self.terms.items():
            if record.status not in (ACTIVE, DEPRECATED):
                raise ValueError(f"term {term!r} has status {record.status!r}")
            if record.status == ACTIVE:
                if record.superseded_by is not None:
                    raise ValueError(
                        f"active term {term!r} must not point at a successor")
                clash = active_ids.get(record.canonical_id)
                if clash is not None:
                    raise ValueError(
                        f"canonical id {record.canonical_id!r} is shared by "
                        f"active terms {clash!r} and {term!r}")
                active_ids[record.canonical_id] = term
            else:
                if record.superseded_by is None:
                    raise ValueError(
                        f"deprecated term {term!r} names no successor")
        for term in self.terms:
            self._resolve(term)  # raises on cycles and dangling chains

    def _resolve(self, term: str) -> tuple[str, tuple[str, ...]]:
        """Follow supersession from term to an active term."""
        hops: list[str] = []
        seen: set[str] = set()
        current = term
        while True:
            if current in seen:
                raise CycleError(
                    f"supersession cycle at {current!r}",
                    members=tuple(hops + [current]))
            seen.add(current)
            record = self.terms.get(current)
            if record is None:
                raise ValueError(
                    f"supersession chain from {term!r} leaves the "
                    f"dictionary at {current!r}")
            if record.status == ACTIVE:
                return current, tuple(hops)
            hops.append(current)
            current = record.superseded_by

    @cached_property
    def _near_index(self) -> dict[str, list[str]]:
        """Each term's casefolded form, and every string made by deleting
        one character from it, mapped to the terms that produce it.

        Built on the first miss and kept with this instance only, so a
        dictionary made by add_term or deprecate_term gets its own.
        """
        index: dict[str, list[str]] = {}
        for term in self.terms:
            for key in _deletion_neighbourhood(term.casefold()):
                index.setdefault(key, []).append(term)
        return index


def validate_term(value: str, dictionary: TermDictionary) -> TermCheck:
    """Check one value: exact active match, deprecated alias, or rejection.

    Rejections carry suggestions: active terms reachable from the value by
    case folding or a single edit (insert, delete, substitute, or swap of
    adjacent characters).
    """
    record = dictionary.terms.get(value)
    if record is not None:
        term, hops = dictionary._resolve(value)
        return TermCheck(ok=True, term=term,
                         canonical_id=dictionary.terms[term].canonical_id,
                         followed=hops)
    folded = value.casefold()
    # A term within one edit of folded shares a key with it: an insertion
    # into the term puts folded among the term's deletions, a deletion
    # puts the term among the deletions of folded, and a substitution or
    # an adjacent swap leaves both with one deletion in common. The
    # filter drops the extra candidates, such as abc and bca, which
    # share bc.
    index = dictionary._near_index
    candidates = {term for key in _deletion_neighbourhood(folded)
                  for term in index.get(key, ())}
    suggestions: set[str] = set()
    for term in candidates:
        candidate = term.casefold()
        if candidate == folded or _within_one_edit(folded, candidate):
            resolved, _ = dictionary._resolve(term)
            suggestions.add(resolved)
    return TermCheck(ok=False, suggestions=tuple(sorted(suggestions)))


def _deletion_neighbourhood(text: str) -> set[str]:
    """text and every string made by deleting one character from it."""
    return {text} | {text[:i] + text[i + 1:] for i in range(len(text))}


def _within_one_edit(a: str, b: str) -> bool:
    """True if a equals b or differs by one edit (transpositions count)."""
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        diffs = [i for i in range(la) if a[i] != b[i]]
        if len(diffs) == 1:
            return True
        if len(diffs) == 2:
            i, j = diffs
            return j == i + 1 and a[i] == b[j] and a[j] == b[i]
        return False
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # b is a with one insertion: skip the first mismatch and compare tails
    for i in range(la):
        if a[i] != b[i]:
            return a[i:] == b[i + 1:]
    return True


# --- evolution ---------------------------------------------------------

def _now_utc() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def add_term(dictionary: TermDictionary, term: str, canonical_id: str,
             definition: str = "", *, actor: str,
             clock: Callable[[], str] = _now_utc
             ) -> tuple[TermDictionary, dict]:
    existing = dictionary.terms.get(term)
    if existing is not None and existing.status == ACTIVE:
        raise ValueError(f"term {term!r} is already active")
    if "\t" in term or "\n" in term or not term:
        raise ValueError(f"unusable term name {term!r}")
    updated = dict(dictionary.terms)
    updated[term] = TermRecord(canonical_id=canonical_id,
                               definition=definition)
    new_dictionary = TermDictionary(terms=updated)  # re-checks consistency
    entry = {"op": "add", "term": term, "canonical_id": canonical_id,
             "definition": definition, "actor": actor, "at": clock()}
    return new_dictionary, entry


def deprecate_term(dictionary: TermDictionary, term: str, superseded_by: str,
                   *, actor: str, clock: Callable[[], str] = _now_utc
                   ) -> tuple[TermDictionary, dict]:
    if term not in dictionary.terms:
        raise ValueError(f"unknown term {term!r}")
    if superseded_by not in dictionary.terms:
        raise ValueError(f"unknown successor term {superseded_by!r}")
    if term == superseded_by:
        raise CycleError(f"term {term!r} cannot supersede itself",
                         members=(term,))
    updated = dict(dictionary.terms)
    updated[term] = replace(updated[term], status=DEPRECATED,
                            superseded_by=superseded_by)
    # construction re-checks acyclicity and chain termination; a rejected
    # change leaves the caller's dictionary untouched
    new_dictionary = TermDictionary(terms=updated)
    entry = {"op": "deprecate", "term": term, "superseded_by": superseded_by,
             "actor": actor, "at": clock()}
    return new_dictionary, entry


def append_changelog(path: Path, entry: dict) -> None:
    line = json.dumps(entry, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)
    append_durably(path, (line + "\n").encode("utf-8"))


# --- TSV storage -------------------------------------------------------

def dump_dictionary(dictionary: TermDictionary) -> str:
    lines = [_HEADER]
    for term in sorted(dictionary.terms):
        record = dictionary.terms[term]
        lines.append("\t".join((
            term,
            record.canonical_id,
            record.status,
            record.superseded_by or "",
            record.definition,
        )))
    return "".join(line + "\n" for line in lines)


def save_dictionary(dictionary: TermDictionary, path: Path) -> None:
    write_atomically(path, dump_dictionary(dictionary).encode("utf-8"))


def load_dictionary(path: Path) -> TermDictionary:
    terms: dict[str, TermRecord] = {}
    text = path.read_text(encoding="utf-8")
    for number, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        if number == 1 and line == _HEADER:
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise FormatError(
                f"expected 5 tab-separated fields, got {len(fields)}",
                path=str(path), line=number)
        term, canonical_id, status, superseded_by, definition = fields
        if term in terms:
            raise FormatError(f"duplicate term {term!r}",
                              path=str(path), line=number)
        terms[term] = TermRecord(canonical_id=canonical_id,
                                 definition=definition,
                                 status=status,
                                 superseded_by=superseded_by or None)
    try:
        return TermDictionary(terms=terms)
    except (ValueError, CycleError) as exc:
        raise FormatError(str(exc), path=str(path)) from exc
