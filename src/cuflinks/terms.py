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
from typing import Callable, Iterator, Mapping

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
        deprecated: list[str] = []
        for term, record in self.terms.items():
            # a tab or line break would split or end the TSV row
            row = term + record.canonical_id + record.definition
            if not term or "\t" in row or "\n" in row or "\r" in row:
                raise ValueError(
                    f"unusable term {term!r}: it is empty, or it, its "
                    f"canonical id or its definition holds a tab or line "
                    f"break")
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
                deprecated.append(term)
        for term in deprecated:
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
    def _folded(self) -> tuple[dict[str, list[str]], str, int]:
        """Each term's casefolded form mapped to the terms that have it,
        the characters those forms use, sorted, and the longest form's
        length.

        Built on the first miss and kept with this instance only, so a
        dictionary made by add_term or deprecate_term gets its own.
        """
        forms: dict[str, list[str]] = {}
        for term in self.terms:
            forms.setdefault(term.casefold(), []).append(term)
        alphabet = "".join(sorted(set().union(*forms)))
        return forms, alphabet, max(map(len, forms), default=0)


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
    forms, alphabet, longest = dictionary._folded
    if len(folded) > longest + 1:  # no form is one edit away
        return TermCheck(ok=False)
    suggestions = {dictionary._resolve(term)[0]
                   for variant in _one_edit(folded, alphabet)
                   for term in forms.get(variant, ())}
    return TermCheck(ok=False, suggestions=tuple(sorted(suggestions)))


def _one_edit(text: str, alphabet: str) -> Iterator[str]:
    """text, then every string one delete, adjacent swap, substitution or
    insertion away from it.

    Substituted and inserted characters come from alphabet: a form one
    such edit away holds the new character, so the forms' own characters
    are enough.
    """
    yield text
    for i in range(len(text) + 1):
        head, tail = text[:i], text[i:]
        if tail:
            rest = tail[1:]
            yield head + rest
            if rest:
                yield head + rest[0] + tail[0] + rest[1:]
            for char in alphabet:
                yield head + char + rest
        for char in alphabet:
            yield head + char + tail


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
