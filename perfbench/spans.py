"""Spans and counters recorded from outside the program, and the
per-layer metrics derived from them.

The wrappers replace each public name where the program looks it up
(``cuflinks.bag.build.multi_digest_file``, not only
``cuflinks.hashing.multi_digest_file``), so the program itself is not
edited. A span records its name, start, end (``time.monotonic_ns``, one
clock for every process on the host), the span that was open when it
began, and optional attributes such as a byte count. Spans are kept in
memory and written out when the run ends. Counters are bumped at the
same boundaries for calls too frequent to span.

Run as a program, this module is the launcher that starts
``cuflinks registry serve`` with the server-side wrappers installed and
writes the server's spans to ``--out`` when the server stops:

    python3 perfbench/spans.py --out FILE -- [cuflinks CLI arguments]
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import pathlib
import shutil
import statistics
import threading
import time

MIB = 1024 * 1024


class Tracer:
    def __init__(self) -> None:
        # (id, parent id, name, start ns, end ns, attributes or None)
        self.spans: list[tuple] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counts: list[dict[str, int]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def current(self) -> int:
        return self._stack()[-1]

    def begin(self) -> tuple[int, int, int]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1]
        stack.append(span_id)
        return span_id, parent, time.monotonic_ns()

    def end(self, opened: tuple[int, int, int], name: str,
            attrs: dict | None = None) -> None:
        end = time.monotonic_ns()
        self._stack().pop()
        span_id, parent, start = opened
        self.spans.append((span_id, parent, name, start, end, attrs))

    def spanned(self, name: str, fn, measure=None):
        """fn wrapped in a span; measure(args, kwargs, result) gives its
        attributes when the call returns."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            opened = tracer.begin()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(opened, name)
                raise
            tracer.end(opened, name,
                       measure(args, kwargs, result) if measure else None)
            return result
        return wrapper

    def counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                counts = getattr(tracer._local, "counts", None)
                if counts is None:
                    counts = tracer._local.counts = {}
                    tracer._thread_counts.append(counts)
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for counts in list(self._thread_counts):
            for name, value in list(counts.items()):
                total[name] = total.get(name, 0) + value
        return total

    def span_attr(self, owner, attr: str, name: str, measure=None) -> None:
        setattr(owner, attr, self.spanned(name, getattr(owner, attr),
                                          measure))

    def count_attr(self, owner, attr: str, name: str) -> None:
        setattr(owner, attr, self.counted(name, getattr(owner, attr)))

    def propagating_pool(self, base):
        """A pool class whose tasks run as children of the submitter's
        open span, so a layer's self time excludes its workers' spans."""
        tracer = self

        class Pool(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*inner_args, **inner_kwargs):
                    stack = tracer._stack()
                    stack.append(parent)
                    try:
                        return fn(*inner_args, **inner_kwargs)
                    finally:
                        stack.pop()
                return super().submit(run, *args, **kwargs)
        return Pool


class _ModuleProxy:
    """Stands in for a module inside one program module only."""

    def __init__(self, module, **overrides) -> None:
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _file_bytes(args, kwargs, result):
    return {"bytes": os.stat(args[0]).st_size, "file": True}


def _data_bytes(args, kwargs, result):
    return {"bytes": len(args[0])}


def _result_len(args, kwargs, result):
    return {"bytes": len(result)}


def _returned_bytes(args, kwargs, result):
    return {"bytes": result}


def _buffered_bytes(args, kwargs, result):
    content = result[0]
    destination = kwargs.get("destination",
                             args[3] if len(args) > 3 else None)
    if content is None and destination is not None:
        return {"bytes": os.stat(destination).st_size, "id": args[0]}
    return {"bytes": len(content or b""), "id": args[0]}


def _term_outcome(args, kwargs, result):
    return {"ok": result.ok}


def _store_events(args, kwargs, result):
    return {"events": len(args[0])}


def _install_store(tracer: Tracer) -> None:
    from cuflinks.minid import store
    tracer.span_attr(store.EventLog, "__init__", "minid.store.open",
                     _store_events)
    tracer.span_attr(store.EventLog, "append", "minid.store.append")
    store.os = _ModuleProxy(os, fsync=tracer.spanned("minid.store.fsync",
                                                      os.fsync))


def install_client(tracer: Tracer) -> None:
    """Wrap the names the CLI process looks up, layer by layer."""
    from cuflinks import cli, fetch, transfer
    from cuflinks.bag import archive, build, io, model, tagfiles, validate
    from cuflinks.links import chain, ledger
    from cuflinks.minid import client
    span, count = tracer.span_attr, tracer.count_attr

    for module in (build, validate, fetch):
        span(module, "multi_digest_file", "hashing", _file_bytes)
    for module in (build, validate):
        span(module, "multi_digest_bytes", "hashing", _data_bytes)
    span(client, "digest_bytes", "hashing", _data_bytes)
    span(client, "digest_file", "hashing", _file_bytes)

    span(cli, "create_bag", "bag.build")
    span(model.Bag, "check_invariants", "bag.model.check_invariants")
    for module in (model, io):
        count(module, "in_bag_path_problem", "bag.model.path_checks")
        count(module, "payload_path_problem", "bag.model.path_checks")
    count(tagfiles, "payload_path_problem", "bag.model.path_checks")
    for name in ("parse_bagit", "parse_bag_info", "parse_manifest",
                 "parse_fetch"):
        span(tagfiles, name, "bag.tagfiles.parse")
    for name in ("render_bagit", "render_bag_info", "render_manifest",
                 "render_fetch"):
        span(tagfiles, name, "bag.tagfiles.render")
    span(fetch, "parse_fetch", "bag.tagfiles.parse")
    span(fetch, "render_fetch", "bag.tagfiles.render")

    span(cli, "write_bag", "bag.io.write")
    for module in (cli, archive, fetch):
        span(module, "read_bag", "bag.io.read")
    io.shutil = _ModuleProxy(shutil, copyfile=tracer.spanned(
        "bag.io.copyfile", shutil.copyfile, _file_bytes))
    for module in (cli, archive, fetch):
        span(module, "validate_bag", "bag.validate")
    span(cli, "serialize", "bag.archive.serialize")
    span(cli, "extract", "bag.archive.extract")

    span(cli, "materialize", "fetch.materialize")
    span(fetch, "fetch_with_retries", "fetch.entry")
    fetch.ThreadPoolExecutor = tracer.propagating_pool(
        fetch.ThreadPoolExecutor)
    span(transfer.HttpFetcher, "fetch", "transfer.fetch", _returned_bytes)
    span(client.MinidFetcher, "fetch", "minid.client.fetch",
         _returned_bytes)

    for name in ("resolve", "mint", "update_locations", "tombstone",
                 "supersede", "healthy"):
        span(client.RegistryClient, name, f"minid.client.{name}")
    for module in (cli, chain, client):
        span(module, "resolve_to_bytes", "minid.client.resolve_to_bytes",
             _buffered_bytes)
    _install_store(tracer)

    span(ledger.Ledger, "load", "links.ledger.load")
    span(pathlib.Path, "read_bytes", "io.read_bytes", _result_len)
    span(cli, "record_linkage", "links.ledger.record_linkage")
    span(cli, "declare_root", "links.ledger.declare_root")
    for module in (cli, chain):
        span(module, "verify_chain", "links.chain.verify")
    span(chain, "walk_chain", "links.chain.walk")
    span(cli, "ci_verify", "links.chain.ci")

    span(cli, "load_dictionary", "terms.load")
    span(cli, "validate_term", "terms.validate", _term_outcome)


def install_server(tracer: Tracer) -> None:
    from cuflinks.minid import registry, service
    for method in ("do_GET", "do_POST", "do_PATCH"):
        tracer.span_attr(service._Handler, method, "minid.service.handle")
    tracer.span_attr(registry.Registry, "mint", "minid.registry.mint")
    _install_store(tracer)


# --- analysis -------------------------------------------------------------

_APPENDS = ("links.ledger.record_linkage", "links.ledger.declare_root")
_REQUESTS = tuple(f"minid.client.{name}" for name in (
    "resolve", "mint", "update_locations", "tombstone", "supersede",
    "healthy"))


class _Window:
    """The spans of one process that started inside one round."""

    def __init__(self, spans: list[tuple]) -> None:
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.children: dict[int, list[tuple]] = {}
        for s in spans:
            self.children.setdefault(s[1], []).append(s)

    def named(self, *names: str) -> list[tuple]:
        return [s for s in self.spans if s[2] in names]

    def total(self, *names: str) -> float:
        return sum(s[4] - s[3] for s in self.named(*names)) / 1e9

    def self_time(self, *names: str) -> float:
        total = 0
        for s in self.named(*names):
            covered, cursor = 0, s[3]
            for child in sorted(self.children.get(s[0], ()),
                                key=lambda c: c[3]):
                start, end = max(child[3], cursor), min(child[4], s[4])
                if end > start:
                    covered += end - start
                    cursor = end
            total += s[4] - s[3] - covered
        return total / 1e9

    def under(self, span: tuple, *names: str) -> bool:
        """True if an ancestor of span has one of the names."""
        parent = self.by_id.get(span[1])
        while parent is not None:
            if parent[2] in names:
                return True
            parent = self.by_id.get(parent[1])
        return False


def _attr(span: tuple, key: str, default=0):
    """An attribute of a span; spans of calls that raised have none."""
    return (span[5] or {}).get(key, default)


def _in(spans: list[tuple], start: int, end: int) -> list[tuple]:
    return [s for s in spans if start <= s[3] < end]


def layer_metrics(client_spans: list[tuple], server_spans: list[tuple],
                  rounds: list[dict], host_ref_ms: list[float]) -> dict:
    """Per-layer metrics from the traced rounds of one run.

    Times are per round (the median over traced rounds), latencies are
    percentiles over every sample in the traced rounds, and ratios are
    ratios of totals over the traced rounds. A metric whose layer did
    not run is left out.
    """
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    per_round: dict[str, list[float]] = {}
    totals: dict[str, float] = {}
    pooled: dict[str, list[float]] = {}

    def note(key, value):
        per_round.setdefault(key, []).append(value)

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for r in traced:
        c = _Window(_in(client_spans, r["start_ns"], r["end_ns"]))
        s = _Window(_in(server_spans, r["start_ns"], r["end_ns"]))
        counts = r["counts"]
        if c.named("cli"):
            note("cli.self_s", c.self_time("cli"))
        hashing = c.named("hashing")
        if hashing:
            note("hashing.self_s", c.self_time("hashing"))
            outer = [h for h in hashing if not c.under(h, "hashing")]
            # in bag workloads, the hashing that the floor repeats: the
            # bag's files, with the bag's algorithms, in create/validate
            bagged = [h for h in outer
                      if c.under(h, "bag.build", "bag.validate")
                      and _attr(h, "file", False)]
            outer = bagged or outer
            add("hashing.bytes", sum(_attr(h, "bytes") for h in outer))
            add("hashing.ns", sum(h[4] - h[3] for h in outer))
        if r.get("hash_floor_s"):
            add("floor.bytes", r["hash_floor_bytes"])
            add("floor.s", r["hash_floor_s"])
        if c.named("bag.build"):
            note("bag.build.self_s", c.self_time("bag.build"))
            reads = sum(_attr(h, "bytes") for h in hashing
                        if c.under(h, "bag.build") and _attr(h, "file", False)
                        and not c.under(h, "hashing"))
            reads += sum(_attr(x, "bytes") for x in c.named("bag.io.copyfile")
                         if c.under(x, "bag.io.write"))
            add("payload.read", reads)
            add("payload.bytes", r.get("payload_bytes", 0))
        checks = c.named("bag.model.check_invariants")
        if checks:
            note("bag.model.check_invariants_calls", len(checks))
            note("bag.model.check_invariants_s",
                 c.total("bag.model.check_invariants"))
            note("bag.model.path_checks",
                 counts.get("bag.model.path_checks", 0))
        if c.named("bag.tagfiles.parse", "bag.tagfiles.render"):
            note("bag.tagfiles.parse_s", c.total("bag.tagfiles.parse"))
            note("bag.tagfiles.render_s", c.total("bag.tagfiles.render"))
        if c.named("bag.io.write"):
            note("bag.io.write_s", c.total("bag.io.write"))
            if r.get("copy_floor_s"):
                add("write.s", c.total("bag.io.write"))
                add("copytree.s", r["copy_floor_s"])
        if c.named("bag.io.read"):
            note("bag.io.read_s", c.total("bag.io.read"))
        validations = c.named("bag.validate")
        if validations:
            note("bag.validate.self_s", c.self_time("bag.validate"))
            note("bag.validate.calls", len(validations))
        if c.named("bag.archive.serialize"):
            note("bag.archive.serialize_self_s",
                 c.self_time("bag.archive.serialize"))
            add("archive.stored", r.get("archive_bytes", 0))
            add("archive.input", r.get("bag_bytes", 0))
        if c.named("bag.archive.extract"):
            note("bag.archive.extract_self_s",
                 c.self_time("bag.archive.extract"))
        entries = c.named("fetch.entry")
        if entries:
            note("fetch.self_s", c.self_time("fetch.materialize"))
            note("fetch.entries", len(entries))
            attempts = [x for x in c.named("transfer.fetch",
                                           "minid.client.fetch")
                        if c.by_id.get(x[1], (0, 0, ""))[2] == "fetch.entry"]
            add("attempts", len(attempts))
            add("entries", len(entries))
        transfers = c.named("transfer.fetch")
        if transfers:
            note("transfer.fetch_s", c.total("transfer.fetch"))
            note("transfer.bytes", sum(_attr(x, "bytes") for x in transfers))
        requests = c.named(*_REQUESTS)
        if requests:
            note("minid.client.requests", len(requests))
        buffered = c.named("minid.client.resolve_to_bytes")
        if buffered:
            note("minid.client.max_buffered_mib",
                 max(_attr(x, "bytes") for x in buffered) / MIB)
        handled = s.named("minid.service.handle")
        if handled:
            note("minid.service.requests", len(handled))
            pooled.setdefault("minid.service.handler_p50_ms", []).extend(
                (x[4] - x[3]) / 1e6 for x in handled)
        mints = s.named("minid.registry.mint")
        if mints:
            pooled.setdefault("minid.registry.mint_p50_ms", []).extend(
                (x[4] - x[3]) / 1e6 for x in mints)
            pooled.setdefault("minid.store.append_p50_ms", []).extend(
                (x[4] - x[3]) / 1e6 for x in s.named("minid.store.append"))
            add("fsyncs", len(s.named("minid.store.fsync")))
            add("mints", len(mints))
        for opened in c.named("minid.store.open"):
            add("replay.events", _attr(opened, "events"))
            add("replay.ns", opened[4] - opened[3])
        appends = c.named(*_APPENDS)
        if appends:
            add("appends", len(appends))
            add("append.loads", sum(1 for x in c.named("links.ledger.load")
                                    if c.under(x, *_APPENDS)))
            add("append.read", sum(_attr(x, "bytes")
                                   for x in c.named("io.read_bytes")
                                   if c.under(x, *_APPENDS)))
            pooled.setdefault("links.ledger.append_p50_ms", []).extend(
                (x[4] - x[3]) / 1e6
                for x in c.named("links.ledger.record_linkage"))
        if c.named("links.chain.verify"):
            checks = [x for x in buffered
                      if c.under(x, "links.chain.verify")]
            add("node.checks", len(checks))
            add("node.distinct", len({_attr(x, "id") for x in checks}))
            add("chain.resolves", sum(
                1 for x in c.named("minid.client.resolve")
                if c.under(x, "links.chain.verify")))
            note("links.chain.verify_self_s",
                 c.self_time("links.chain.verify"))
            note("links.chain.walk_s", c.total("links.chain.walk"))
        if c.named("terms.load"):
            note("terms.load_s", c.total("terms.load"))
            for x in c.named("terms.validate"):
                key = "hit" if _attr(x, "ok", False) else "miss"
                pooled.setdefault(key, []).append((x[4] - x[3]) / 1e9)

    metrics = {key: statistics.median(values)
               for key, values in per_round.items()}
    for key, values in pooled.items():
        if key == "hit":
            metrics["terms.hit_us"] = statistics.median(values) * 1e6
        elif key == "miss":
            metrics["terms.miss_ms"] = statistics.median(values) * 1e3
        elif values:
            metrics[key] = statistics.median(values)

    def ratio(name, numerator, denominator, scale=1.0):
        if totals.get(denominator):
            metrics[name] = totals.get(numerator, 0) / totals[denominator] \
                * scale

    ratio("hashing.mib_per_s", "hashing.bytes", "hashing.ns", 1e9 / MIB)
    ratio("hashing.floor_mib_per_s", "floor.bytes", "floor.s", 1 / MIB)
    ratio("bag.io.payload_reads_per_byte", "payload.read", "payload.bytes")
    ratio("bag.io.copy_floor_ratio", "write.s", "copytree.s")
    ratio("bag.archive.stored_bytes_per_byte", "archive.stored",
          "archive.input")
    ratio("transfer.attempts_per_entry", "attempts", "entries")
    ratio("minid.store.fsyncs_per_mint", "fsyncs", "mints")
    ratio("minid.store.replay_events_per_s", "replay.events", "replay.ns",
          1e9)
    ratio("links.ledger.loads_per_append", "append.loads", "appends")
    ratio("links.ledger.bytes_read_per_append", "append.read", "appends",
          1 / 1024)
    ratio("links.chain.node_checks_per_distinct_node", "node.checks",
          "node.distinct")
    ratio("links.chain.resolves_per_node_check", "chain.resolves",
          "node.checks")
    metrics["bench.host_ref_ms"] = statistics.median(host_ref_ms)
    if traced and plain:
        # floors run in traced rounds only; they are not tracing cost
        metrics["bench.trace_overhead_ratio"] = (
            statistics.median(r["wall_s"] - r.get("floor_s", 0)
                              for r in traced)
            / statistics.median(r["wall_s"] for r in plain))
    return metrics


def _serve(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the cuflinks CLI with server-side spans.")
    parser.add_argument("--out", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args
    from cuflinks import cli
    tracer = Tracer()
    install_server(tracer)
    tracer.enabled = True
    code = 0
    try:
        cli.main.main(args=cli_args, prog_name="cuflinks")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.enabled = False
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(_serve())
