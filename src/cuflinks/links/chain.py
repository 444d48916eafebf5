"""Provenance chain traversal and verification.

walk_chain builds the produced-from DAG behind one identifier.
verify_chain resolves every node and, at full depth, re-fetches and
re-hashes every node's bytes. ci_verify sweeps every terminal output so
the whole ledger is re-checked the way continuous integration re-runs a
test suite: frequently, mechanically, and loudly on regression. A sweep
checks each distinct node once and shares that result among the chains
that contain it; nothing is kept from one sweep to the next.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from cuflinks.errors import (CycleError, IdentifierError, IntegrityError,
                             NotFoundError, NotInLedgerError, RegistryError,
                             TransferError)
from cuflinks.fileio import write_atomically
from cuflinks.links.ledger import Ledger, LedgerView
from cuflinks.minid.client import resolve_to_bytes
from cuflinks.minid.model import ACTIVE, TOMBSTONED, MinidRecord
from cuflinks.transfer import SchemeRegistry

RESOLVE_ONLY = "resolve-only"
FULL_FIXITY = "full-fixity"

FIXITY_MATCH = "match"
FIXITY_MISMATCH = "mismatch"
FIXITY_UNVERIFIABLE = "unverifiable"

INTACT = "intact"
BROKEN = "broken"


@dataclass(frozen=True)
class ChainGraph:
    start: str
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]     # (output, input) pairs


@dataclass(frozen=True)
class NodeResult:
    identifier: str
    resolved: bool
    fixity: str
    record_present: bool
    declared_root: bool
    detail: str = ""

    @property
    def failing(self) -> bool:
        return (not self.resolved
                or self.fixity == FIXITY_MISMATCH
                or not (self.record_present or self.declared_root))

    def to_json(self) -> dict:
        return {
            "identifier": self.identifier,
            "resolved": self.resolved,
            "fixity": self.fixity,
            "record_present": self.record_present,
            "declared_root": self.declared_root,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ChainReport:
    start: str
    depth: str
    nodes: tuple[NodeResult, ...]
    edges: tuple[tuple[str, str], ...]
    verdict: str
    failing: tuple[str, ...]
    diagnostics: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "start": self.start,
            "depth": self.depth,
            "verdict": self.verdict,
            "failing": list(self.failing),
            "nodes": [node.to_json() for node in self.nodes],
            "edges": [list(edge) for edge in self.edges],
            "diagnostics": list(self.diagnostics),
        }


def walk_chain(ledger: Ledger | LedgerView, start: str) -> ChainGraph:
    """Transitive closure over inputs, with cross-record cycle detection."""
    view = ledger.load() if isinstance(ledger, Ledger) else ledger
    if start not in view.linkages and start not in view.roots:
        raise NotInLedgerError(
            f"{start} appears in no linkage record and is not a declared "
            f"root")

    nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    # iterative DFS with colors; a gray node seen again closes a cycle
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[str, int] = {}
    stack: list[tuple[str, bool]] = [(start, False)]
    trail: list[str] = []
    while stack:
        node, leaving = stack.pop()
        if leaving:
            color[node] = BLACK
            if trail and trail[-1] == node:
                trail.pop()
            continue
        if color.get(node, WHITE) != WHITE:
            continue
        color[node] = GRAY
        trail.append(node)
        nodes.add(node)
        stack.append((node, True))
        record = view.linkages.get(node)
        if record is None:
            continue
        for input_id in record.inputs:
            edges.add((node, input_id))
            state = color.get(input_id, WHITE)
            if state == GRAY:
                cycle_start = trail.index(input_id)
                raise CycleError(
                    "provenance records form a cycle: "
                    + " -> ".join(trail[cycle_start:] + [input_id]),
                    members=tuple(trail[cycle_start:]))
            if state == WHITE:
                stack.append((input_id, False))

    return ChainGraph(start=start,
                      nodes=tuple(sorted(nodes)),
                      edges=tuple(sorted(edges)))


def verify_chain(ledger: Ledger | LedgerView, start: str, depth: str,
                 resolver, schemes: SchemeRegistry | None = None, *,
                 looked_up: dict[str, MinidRecord] | None = None
                 ) -> ChainReport:
    """Check that every node of the chain still holds its promises.

    resolve-only asks the registry about each identifier; full-fixity
    additionally fetches each node's bytes and re-hashes them, which
    needs a scheme registry. Failures are report content, never raises:
    an unreachable location makes a node unverifiable, not an exception.

    looked_up, when given, holds registry records the caller has just
    resolved: a node found there is not resolved again.
    """
    if depth not in (RESOLVE_ONLY, FULL_FIXITY):
        raise ValueError(f"unknown verification depth {depth!r}")
    if depth == FULL_FIXITY and schemes is None:
        raise ValueError("full-fixity verification needs a scheme registry")
    view = ledger.load() if isinstance(ledger, Ledger) else ledger
    graph = walk_chain(view, start)
    checked = _check_nodes(view, graph.nodes, depth, resolver, schemes,
                           looked_up or {})
    return _report(view, graph, depth, checked)


def _check_nodes(view: LedgerView, identifiers: tuple[str, ...],
                 depth: str, resolver, schemes: SchemeRegistry | None,
                 looked_up: dict[str, MinidRecord]) -> dict[str, NodeResult]:
    """The result of checking each identifier, in two passes: the
    first resolves every node, the second fetches and hashes each
    active node's content.

    Where the resolver and the fetchers can start requests early, the
    registry lookups all go out before the first pass reads a reply,
    and each active node's content GET as soon as its record is read,
    so the registry and the file servers work at the same time. The
    passes then make the same requests in the same order, and each
    reads its reply.
    """
    prefetch = getattr(resolver, "prefetch", None)
    if prefetch is not None:
        prefetch([i for i in identifiers if i not in looked_up])
    records: dict[str, MinidRecord] = {}  # nodes that resolved
    details: dict[str, list[str]] = {}
    for identifier in identifiers:
        details[identifier] = parts = []
        try:
            record = (looked_up[identifier] if identifier in looked_up
                      else resolver.resolve(identifier))
            if record.status == TOMBSTONED:
                parts.append("identifier is tombstoned")
            else:
                records[identifier] = record
                if record.status != ACTIVE:
                    parts.append(f"identifier is {record.status}")
                elif depth == FULL_FIXITY:
                    schemes.prefetch_first(record.locations)
        except (NotFoundError, IdentifierError) as exc:
            parts.append(f"does not resolve: {exc}")
        except (TransferError, RegistryError) as exc:
            parts.append(f"resolver unreachable: {exc}")

    checked: dict[str, NodeResult] = {}
    for identifier in identifiers:
        parts = details[identifier]
        record = records.get(identifier)
        fixity = FIXITY_UNVERIFIABLE
        if depth == RESOLVE_ONLY:
            parts.append("fixity not checked at resolve-only depth")
        elif record is not None and record.status == ACTIVE:
            try:
                resolve_to_bytes(identifier, resolver, schemes,
                                 record=record)
                fixity = FIXITY_MATCH
            except IntegrityError as exc:
                fixity = FIXITY_MISMATCH
                parts.append(str(exc))
            except (TransferError, RegistryError) as exc:
                parts.append(f"content unreachable: {exc}")
        elif record is not None:
            parts.append("content not fetched: identifier is not active")
        record_present = identifier in view.linkages
        declared_root = identifier in view.roots
        if not (record_present or declared_root):
            parts.append("no linkage record and not a declared root")
        checked[identifier] = NodeResult(
            identifier=identifier, resolved=record is not None,
            fixity=fixity, record_present=record_present,
            declared_root=declared_root, detail="; ".join(parts))
    return checked


def _report(view: LedgerView, graph: ChainGraph, depth: str,
            checked: dict[str, NodeResult]) -> ChainReport:
    results = [checked[identifier] for identifier in graph.nodes]
    failing = tuple(sorted(r.identifier for r in results if r.failing))
    return ChainReport(
        start=graph.start, depth=depth,
        nodes=tuple(sorted(results, key=lambda r: r.identifier)),
        edges=graph.edges,
        verdict=BROKEN if failing else INTACT,
        failing=failing,
        diagnostics=view.diagnostics)


def ci_verify(ledger: Ledger, resolver, schemes: SchemeRegistry,
              report_path: Path | None = None) -> tuple[int, dict]:
    """Full-fixity verification of every terminal output in the ledger.

    Then every linkage output that no earlier chain reached starts a
    chain of its own, so a cycle that no terminal output reaches is
    still reported. Returns (exit status, report). The report is
    stable-sorted so two runs over the same ledger state diff cleanly.
    """
    view = ledger.load()
    graphs: dict[str, ChainGraph | CycleError] = {}
    reached: set[str] = set()
    for output in view.terminal_outputs() + tuple(sorted(view.linkages)):
        if output in reached:
            continue
        pending = [output]
        while pending:
            node = pending.pop()
            if node not in reached:
                reached.add(node)
                if node in view.linkages:
                    pending.extend(view.linkages[node].inputs)
        try:
            graphs[output] = walk_chain(view, output)
        except CycleError as exc:
            graphs[output] = exc
    # one result per identifier for the whole sweep: a node shared by
    # several chains is resolved, fetched and hashed once, and the
    # sweep's requests go out together
    checked = _check_nodes(view, tuple(dict.fromkeys(
        node for graph in graphs.values() if isinstance(graph, ChainGraph)
        for node in graph.nodes)), FULL_FIXITY, resolver, schemes, {})
    chains: list[dict] = []
    for output, graph in graphs.items():
        if isinstance(graph, CycleError):
            chains.append({
                "start": output,
                "depth": FULL_FIXITY,
                "verdict": BROKEN,
                "failing": sorted(graph.members),
                "nodes": [],
                "edges": [],
                "diagnostics": [str(graph)],
            })
        else:
            chains.append(_report(view, graph, FULL_FIXITY,
                                  checked).to_json())
    all_intact = all(chain["verdict"] == INTACT for chain in chains)
    report_body = {
        "verdict": INTACT if all_intact else BROKEN,
        "chains": chains,
        "ledger_diagnostics": list(view.diagnostics),
    }
    if report_path is not None:
        text = json.dumps(report_body, sort_keys=True, indent=2,
                          ensure_ascii=False) + "\n"
        write_atomically(report_path, text.encode("utf-8"))
    return (0 if all_intact else 1), report_body
