"""Command-line entry point.

Exit codes are uniform across subcommands: 0 success, 1 a domain
finding (failed validation, broken chain, unresolvable identifier,
rejected term), 2 a usage problem (bad flags, malformed identifier),
3 an infrastructure failure (transfer, locking, storage).

Results go to stdout; diagnostics go to stderr. Every subcommand takes
--json for machine-readable output.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path

import click

from cuflinks.bag import (create_bag, extract, read_bag, serialize,
                          validate_bag, write_bag)
from cuflinks.bag.validate import FAST, FULL
from cuflinks.config import Config, load_config
from cuflinks.errors import (ConfigError, CuflinksError, IdentifierError,
                             LockError, RegistryError, SchemeError,
                             StoreError, TransferError)
from cuflinks.fetch import DIGEST_MISMATCH, LENGTH_MISMATCH, materialize
from cuflinks.fileio import locked
from cuflinks.links import (EnvironmentRef, Ledger, LinkageRecord, MethodRef,
                            capture_environment, ci_verify, declare_root,
                            record_linkage, verify_chain)
from cuflinks.links.chain import FULL_FIXITY, INTACT, RESOLVE_ONLY
from cuflinks.links.ledger import now_utc
from cuflinks.minid import (MinidFetcher, Registry, RegistryClient,
                            RegistryServer, parse_identifier,
                            resolve_to_bytes)
from cuflinks.minid.client import checksum_of_file
from cuflinks.minid.model import Checksum
from cuflinks.terms import (TermDictionary, add_term, append_changelog,
                            deprecate_term, load_dictionary,
                            save_dictionary, validate_term)
from cuflinks.transfer import Transport, default_registry
from cuflinks.version import TOOL_NAME, __version__

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2
EXIT_INFRA = 3


def _die(code: int, error: BaseException) -> None:
    click.echo(f"error: {error}", err=True)
    sys.exit(code)


def _mapped(func):
    """Translate library exceptions into the uniform exit codes."""
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except (click.ClickException, click.Abort):
            raise
        except (IdentifierError, ConfigError, ValueError) as exc:
            _die(EXIT_USAGE, exc)
        except (LockError, SchemeError, TransferError, StoreError,
                RegistryError, OSError) as exc:
            _die(EXIT_INFRA, exc)
        except CuflinksError as exc:
            _die(EXIT_FINDING, exc)
    return wrapper


def _emit_json(payload) -> None:
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


def _settings(ctx: click.Context, **overrides) -> Config:
    filtered = {key: value for key, value in overrides.items()
                if value is not None}
    return load_config(ctx.obj.get("config_file"), overrides=filtered)


@contextmanager
def _session(config: Config, *, writable: bool = False,
             required: bool = True):
    """Yield the configured registry (None when there is none and it is
    not required) and the fetchers by URL scheme, over one transport.

    The ``minid`` fetcher fetches an identifier's locations over http(s)
    only, so a location naming an identifier fails instead of recursing.
    """
    with ExitStack() as stack:
        transport = stack.enter_context(Transport())
        schemes = default_registry(transport)
        resolver = None
        if config.resolver_url:
            resolver = RegistryClient(config.resolver_url,
                                      token=config.registry_token,
                                      transport=transport)
        elif config.store:
            resolver = stack.enter_context(Registry.open(
                Path(config.store), read_only=not writable))
        elif required:
            raise ConfigError(
                "no registry configured: set resolver_url or store (flag, "
                "config file, or CUFLINKS_RESOLVER_URL / CUFLINKS_STORE)")
        if resolver is not None:
            schemes.register("minid", MinidFetcher(
                resolver, default_registry(transport)))
        yield resolver, schemes


@click.group()
@click.version_option(__version__, prog_name=TOOL_NAME)
@click.option("--config", "config_file",
              type=click.Path(path_type=Path), default=None,
              help='Settings file of key = "value" lines.')
@click.pass_context
def main(ctx: click.Context, config_file: Path | None) -> None:
    """Package, identify, and link research data."""
    ctx.obj = {"config_file": config_file}


# ---------------------------------------------------------------- bag --

@main.group("bag")
def bag_group() -> None:
    """Create, validate, complete, and archive bags."""


@bag_group.command("create")
@click.argument("source", type=click.Path(exists=True, file_okay=False,
                                          path_type=Path))
@click.option("-o", "--output", required=True,
              type=click.Path(file_okay=False, path_type=Path),
              help="Parent directory to create the bag under.")
@click.option("--metadata", "metadata_dir",
              type=click.Path(exists=True, file_okay=False, path_type=Path),
              help="Directory of files to carry under metadata/.")
@click.option("--alg", "algorithms", multiple=True,
              help="Checksum algorithm, repeatable (default sha256).")
@click.option("--info", "info_pairs", multiple=True, metavar="LABEL=VALUE",
              help="Extra bag-info field, repeatable.")
@click.option("--name", "root_name", default=None,
              help="Bag directory name (default: the source name).")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
@_mapped
def bag_create(ctx, source, output, metadata_dir, algorithms, info_pairs,
               root_name, as_json) -> None:
    """Package SOURCE as a checksummed bag."""
    config = _settings(ctx, algorithms=",".join(algorithms) or None)
    extras = []
    for pair in info_pairs:
        label, separator, value = pair.partition("=")
        if not separator or not label:
            raise ValueError(f"--info needs LABEL=VALUE, got {pair!r}")
        extras.append((label, value))
    bag = create_bag(source, metadata=metadata_dir,
                     algorithms=config.algorithm_list(),
                     bag_info_extra=tuple(extras), root_name=root_name)
    output.mkdir(parents=True, exist_ok=True)
    destination = write_bag(bag, output)
    if as_json:
        _emit_json({"bag": str(destination),
                    "payload_oxum": bag.bag_info_value("Payload-Oxum"),
                    "algorithms": sorted(bag.manifests)})
    else:
        click.echo(str(destination))


@bag_group.command("validate")
@click.argument("bag_dir", type=click.Path(exists=True, file_okay=False,
                                           path_type=Path))
@click.option("--full/--fast", "full", default=False,
              help="Also re-hash every payload and tag file.")
@click.option("--json", "as_json", is_flag=True)
@_mapped
def bag_validate(bag_dir, full, as_json) -> None:
    """Check the bag's structure and, with --full, every checksum."""
    bag = read_bag(bag_dir)
    report = validate_bag(bag, FULL if full else FAST)
    if as_json:
        _emit_json({
            "ok": report.ok,
            "level": report.level,
            "findings": [{"path": f.path, "kind": f.kind,
                          "detail": f.detail} for f in report.findings],
        })
    else:
        for finding in report.findings:
            click.echo(f"{finding.kind}  {finding.path}  {finding.detail}")
        click.echo("ok" if report.ok
                   else f"{len(report.findings)} finding(s)")
    sys.exit(EXIT_OK if report.ok else EXIT_FINDING)


@bag_group.command("resolve-fetch")
@click.argument("bag_dir", type=click.Path(exists=True, file_okay=False,
                                           path_type=Path))
@click.option("--path", "paths", multiple=True,
              help="Materialize only this in-bag path, repeatable.")
@click.option("--parallelism", type=int, default=None,
              help="Concurrent transfers (default 4).")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
@_mapped
def bag_resolve_fetch(ctx, bag_dir, paths, parallelism, as_json) -> None:
    """Download the bag's pending fetch.txt entries into place."""
    config = _settings(ctx, parallelism=parallelism)
    # with no registry, identifier URLs fail the scheme check
    with _session(config, required=False) as (_, schemes):
        report = materialize(bag_dir, tuple(paths) or "all",
                             registry=schemes,
                             parallelism=config.parallelism)
    if as_json:
        _emit_json({
            "ok": report.ok,
            "outcomes": [{"path": o.path, "url": o.url,
                          "outcome": o.outcome, "detail": o.detail}
                         for o in report.outcomes],
        })
    else:
        for entry in report.outcomes:
            line = f"{entry.outcome}  {entry.path}"
            if entry.detail:
                line += f"  ({entry.detail})"
            click.echo(line)
    if report.ok:
        sys.exit(EXIT_OK)
    integrity = (report.count(DIGEST_MISMATCH)
                 + report.count(LENGTH_MISMATCH))
    sys.exit(EXIT_FINDING if integrity else EXIT_INFRA)


@bag_group.command("archive")
@click.argument("bag_dir", type=click.Path(exists=True, file_okay=False,
                                           path_type=Path))
@click.option("-o", "--output", type=click.Path(path_type=Path),
              default=None, help="Archive path (default: sibling .zip).")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
@_mapped
def bag_archive(ctx, bag_dir, output, as_json) -> None:
    """Pack a valid bag into a single zip archive."""
    archive_path = serialize(bag_dir, output,
                             parallelism=_settings(ctx).parallelism)
    if as_json:
        _emit_json({"archive": str(archive_path)})
    else:
        click.echo(str(archive_path))


@bag_group.command("extract")
@click.argument("archive", type=click.Path(exists=True, dir_okay=False,
                                           path_type=Path))
@click.argument("destination", type=click.Path(file_okay=False,
                                               path_type=Path))
@click.option("--json", "as_json", is_flag=True)
@_mapped
def bag_extract(archive, destination, as_json) -> None:
    """Unpack a bag archive under DESTINATION."""
    destination.mkdir(parents=True, exist_ok=True)
    bag_dir = extract(archive, destination)
    if as_json:
        _emit_json({"bag": str(bag_dir)})
    else:
        click.echo(str(bag_dir))


# -------------------------------------------------------------- minid --

@main.group("minid")
def minid_group() -> None:
    """Mint and resolve compact persistent identifiers."""


@minid_group.command("mint")
@click.option("--title", required=True)
@click.option("--author", required=True)
@click.option("--location", "locations", multiple=True, required=True,
              help="Absolute URL where the content lives, repeatable.")
@click.option("--from-file", "from_file",
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Hash this file for the identifier's checksum.")
@click.option("--sha256", "sha256_hex", default=None,
              help="Use this sha256 digest instead of hashing a file.")
@click.option("--store", "store_path", default=None,
              type=click.Path(path_type=Path),
              help="Local registry store (when no resolver is configured).")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
@_mapped
def minid_mint(ctx, title, author, locations, from_file, sha256_hex,
               store_path, as_json) -> None:
    """Mint a new identifier bound to a sha256 checksum."""
    if (from_file is None) == (sha256_hex is None):
        raise ValueError("exactly one of --from-file and --sha256 is needed")
    checksum = (checksum_of_file(from_file) if from_file is not None
                else Checksum(algorithm="sha256", digest=sha256_hex))
    config = _settings(ctx, store=store_path)
    with _session(config, writable=True) as (resolver, _):
        record = resolver.mint(author, title, tuple(locations), checksum)
    if as_json:
        _emit_json(record.to_json())
    else:
        click.echo(record.identifier)


@minid_group.command("resolve")
@click.argument("identifier")
@click.option("--download", "download_to", default=None,
              type=click.Path(dir_okay=False, path_type=Path),
              help="Also fetch the content, verify it, and save it here.")
@click.option("--store", "store_path", default=None,
              type=click.Path(path_type=Path),
              help="Local registry store (when no resolver is configured).")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
@_mapped
def minid_resolve(ctx, identifier, download_to, store_path, as_json) -> None:
    """Look up an identifier's record; optionally download its content.

    A tombstoned identifier still resolves to its final record. An
    unknown one exits 1; a malformed one exits 2.
    """
    parse_identifier(identifier)  # malformed input is a usage error
    config = _settings(ctx, store=store_path)
    with _session(config) as (resolver, schemes):
        record = resolver.resolve(identifier)
        if download_to is not None:
            resolve_to_bytes(identifier, resolver, schemes,
                             destination=download_to, record=record)
    if as_json:
        payload = record.to_json()
        if download_to is not None:
            payload["downloaded_to"] = str(download_to)
        _emit_json(payload)
    else:
        click.echo(json.dumps(record.to_json(), indent=2))
        if download_to is not None:
            click.echo(f"saved verified content to {download_to}")


# ----------------------------------------------------------- registry --

@main.group("registry")
def registry_group() -> None:
    """Run the identifier resolution service."""


@registry_group.command("serve")
@click.option("--store", "store_path", required=True,
              type=click.Path(path_type=Path),
              help="Event-log file backing the registry.")
@click.option("--host", default="127.0.0.1", show_default=True)
@click.option("--port", type=int, default=8421, show_default=True)
@click.option("--token", default=None,
              help="Bearer token required for writes (default: open).")
@click.pass_context
@_mapped
def registry_serve(ctx, store_path, host, port, token) -> None:
    """Serve the registry over HTTP until interrupted."""
    config = _settings(ctx)
    token = token if token is not None else config.registry_token
    with Registry.open(store_path) as registry:
        server = RegistryServer(registry, host, port, token=token)
        click.echo(f"serving {server.base_url} (store: {store_path})",
                   err=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass


# --------------------------------------------------------------- link --

@main.group("link")
def link_group() -> None:
    """Record and verify derivation links between identifiers."""


def _environment_from_file(path: Path) -> EnvironmentRef:
    body = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(body, dict):
        raise ValueError(f"{path}: environment file must hold an object")
    if set(body) == {"identifier"}:
        return EnvironmentRef(identifier=body["identifier"])
    return EnvironmentRef.from_inline(body)


@link_group.command("record")
@click.option("--output", "output_id", required=True,
              help="Identifier of the produced artifact.")
@click.option("--input", "input_ids", multiple=True, required=True,
              help="Identifier of a consumed artifact, repeatable.")
@click.option("--commit", "commit_ref", default=None, metavar="REPO@HASH",
              help="Method as a repository commit.")
@click.option("--method-artifact", "method_artifact", default=None,
              help="Method as an identified artifact.")
@click.option("--env-file", "env_file", default=None,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Environment descriptor (JSON object, or "
                   '{"identifier": ...}). Default: captured from this '
                   "machine.")
@click.option("--actor", required=True)
@click.option("--notes", default=None)
@click.option("--ledger", "ledger_path", default=None,
              type=click.Path(path_type=Path))
@click.option("--store", "store_path", default=None,
              type=click.Path(path_type=Path))
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
@_mapped
def link_record(ctx, output_id, input_ids, commit_ref, method_artifact,
                env_file, actor, notes, ledger_path, store_path,
                as_json) -> None:
    """Append one derivation record, then verify the output's chain.

    The verification runs at full fixity over everything reachable from
    the new output; the exit status reflects its verdict.
    """
    if (commit_ref is None) == (method_artifact is None):
        raise ValueError(
            "exactly one of --commit and --method-artifact is needed")
    if commit_ref is not None:
        repository, separator, commit = commit_ref.rpartition("@")
        if not separator or not repository:
            raise ValueError(f"--commit needs REPO@HASH, got {commit_ref!r}")
        method = MethodRef.from_commit(repository, commit)
    else:
        method = MethodRef.from_artifact(method_artifact)
    environment = (capture_environment() if env_file is None
                   else _environment_from_file(env_file))
    record = LinkageRecord(output=output_id, inputs=tuple(input_ids),
                           method=method, environment=environment,
                           actor=actor, performed_at=now_utc(),
                           notes=notes)
    config = _settings(ctx, ledger=ledger_path, store=store_path)
    ledger = Ledger(Path(config.ledger))
    with _session(config) as (resolver, schemes):
        looked_up = {}
        view = record_linkage(ledger, record, resolver, looked_up=looked_up)
        report = verify_chain(view, output_id, FULL_FIXITY, resolver,
                              schemes, looked_up=looked_up)
    _print_chain_report(report, as_json)
    sys.exit(EXIT_OK if report.verdict == INTACT else EXIT_FINDING)


def _print_chain_report(report, as_json: bool) -> None:
    for diagnostic in report.diagnostics:
        click.echo(f"ledger: {diagnostic}", err=True)
    if as_json:
        _emit_json(report.to_json())
        return
    click.echo(f"verdict: {report.verdict}")
    if report.failing:
        click.echo("failing: " + ", ".join(report.failing))
    for node in report.nodes:
        line = (f"  {node.identifier}  "
                f"resolved={'yes' if node.resolved else 'no'}  "
                f"fixity={node.fixity}")
        if node.detail:
            line += f"  ({node.detail})"
        click.echo(line)


@link_group.command("verify")
@click.argument("identifier")
@click.option("--full", "full", is_flag=True,
              help="Fetch and re-hash every node's content.")
@click.option("--ledger", "ledger_path", default=None,
              type=click.Path(path_type=Path))
@click.option("--store", "store_path", default=None,
              type=click.Path(path_type=Path))
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
@_mapped
def link_verify(ctx, identifier, full, ledger_path, store_path,
                as_json) -> None:
    """Walk an identifier's derivation chain and check every node."""
    config = _settings(ctx, ledger=ledger_path, store=store_path)
    ledger = Ledger(Path(config.ledger))
    depth = FULL_FIXITY if full else RESOLVE_ONLY
    with _session(config) as (resolver, schemes):
        report = verify_chain(ledger, identifier, depth, resolver, schemes)
    _print_chain_report(report, as_json)
    sys.exit(EXIT_OK if report.verdict == INTACT else EXIT_FINDING)


@link_group.command("ci")
@click.option("--ledger", "ledger_path", default=None,
              type=click.Path(path_type=Path))
@click.option("--store", "store_path", default=None,
              type=click.Path(path_type=Path))
@click.option("--report", "report_path", default=None,
              type=click.Path(dir_okay=False, path_type=Path),
              help="Also write the full report to this file.")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
@_mapped
def link_ci(ctx, ledger_path, store_path, report_path, as_json) -> None:
    """Verify at full fixity every terminal output's chain, and the
    chain of any output that none of them reach."""
    config = _settings(ctx, ledger=ledger_path, store=store_path)
    ledger = Ledger(Path(config.ledger))
    with _session(config) as (resolver, schemes):
        status, report = ci_verify(ledger, resolver, schemes,
                                   report_path=report_path)
    for diagnostic in report["ledger_diagnostics"]:
        click.echo(f"ledger: {diagnostic}", err=True)
    if as_json:
        _emit_json(report)
    else:
        click.echo(f"verdict: {report['verdict']} "
                   f"({len(report['chains'])} chain(s))")
        for chain in report["chains"]:
            line = f"  {chain['start']}: {chain['verdict']}"
            if chain["failing"]:
                line += "  failing: " + ", ".join(chain["failing"])
            click.echo(line)
    sys.exit(status)


@link_group.command("root")
@click.argument("identifier")
@click.option("--actor", required=True)
@click.option("--notes", default=None)
@click.option("--ledger", "ledger_path", default=None,
              type=click.Path(path_type=Path))
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
@_mapped
def link_root(ctx, identifier, actor, notes, ledger_path, as_json) -> None:
    """Declare an identifier a genuinely external input."""
    parse_identifier(identifier)
    config = _settings(ctx, ledger=ledger_path)
    ledger = Ledger(Path(config.ledger))
    declare_root(ledger, identifier, actor=actor, notes=notes)
    if as_json:
        _emit_json({"root": identifier})
    else:
        click.echo(f"declared root: {identifier}")


# --------------------------------------------------------------- dict --

@main.group("dict")
def dict_group() -> None:
    """Maintain and check the descriptive-term dictionary."""


def _dictionary_path(ctx: click.Context, dict_path: Path | None) -> Path:
    config = _settings(ctx, dictionary=dict_path)
    if not config.dictionary:
        raise ConfigError("no dictionary configured: pass --dict or set "
                          "dictionary in the config")
    return Path(config.dictionary)


def _check_payload(check, value: str, field: str | None) -> dict:
    body: dict = {"value": value, "ok": check.ok}
    if field is not None:
        body["field"] = field
    if check.ok:
        body["term"] = check.term
        body["canonical_id"] = check.canonical_id
        if check.followed:
            body["followed"] = list(check.followed)
    else:
        body["suggestions"] = list(check.suggestions)
    return body


@dict_group.command("check")
@click.argument("term", required=False)
@click.option("--dict", "dict_path", default=None,
              type=click.Path(path_type=Path),
              help="Dictionary file (default: the configured one).")
@click.option("--field", default=None,
              help="Label naming where the value came from, for reports.")
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
@_mapped
def dict_check(ctx, term, dict_path, field, as_json) -> None:
    """Validate TERM (or, without it, one term per stdin line)."""
    dictionary = load_dictionary(_dictionary_path(ctx, dict_path))
    values = ([term] if term is not None
              else [line.rstrip("\n") for line in sys.stdin
                    if line.strip()])
    results = [(value, validate_term(value, dictionary))
               for value in values]
    if as_json:
        _emit_json([_check_payload(check, value, field)
                    for value, check in results])
    else:
        prefix = f"{field}=" if field else ""
        for value, check in results:
            if check.ok:
                via = (" via " + " -> ".join(check.followed)
                       if check.followed else "")
                click.echo(f"ok  {prefix}{value} -> "
                           f"{check.canonical_id}{via}")
            else:
                hint = (", ".join(check.suggestions)
                        if check.suggestions else "none")
                click.echo(f"rejected  {prefix}{value}  "
                           f"suggestions: {hint}")
    sys.exit(EXIT_OK if all(check.ok for _, check in results)
             else EXIT_FINDING)


def _default_changelog(dict_path: Path) -> Path:
    return dict_path.with_name(dict_path.name + ".changelog.jsonl")


@dict_group.command("add")
@click.argument("term")
@click.argument("canonical_id")
@click.option("--definition", default="")
@click.option("--actor", required=True)
@click.option("--dict", "dict_path", default=None,
              type=click.Path(path_type=Path))
@click.option("--changelog", "changelog_path", default=None,
              type=click.Path(dir_okay=False, path_type=Path))
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
@_mapped
def dict_add(ctx, term, canonical_id, definition, actor, dict_path,
             changelog_path, as_json) -> None:
    """Add an active term mapped to CANONICAL_ID.

    A missing dictionary file is started fresh.
    """
    path = _dictionary_path(ctx, dict_path)
    with locked(path):
        dictionary = (load_dictionary(path) if path.exists()
                      else TermDictionary(terms={}))
        updated, entry = add_term(dictionary, term, canonical_id, definition,
                                  actor=actor)
        save_dictionary(updated, path)
        append_changelog(changelog_path or _default_changelog(path), entry)
    if as_json:
        _emit_json(entry)
    else:
        click.echo(f"added {term} -> {canonical_id}")


@dict_group.command("deprecate")
@click.argument("term")
@click.option("--by", "superseded_by", required=True,
              help="The term that replaces it.")
@click.option("--actor", required=True)
@click.option("--dict", "dict_path", default=None,
              type=click.Path(path_type=Path))
@click.option("--changelog", "changelog_path", default=None,
              type=click.Path(dir_okay=False, path_type=Path))
@click.option("--json", "as_json", is_flag=True)
@click.pass_context
@_mapped
def dict_deprecate(ctx, term, superseded_by, actor, dict_path,
                   changelog_path, as_json) -> None:
    """Retire TERM in favor of another term."""
    path = _dictionary_path(ctx, dict_path)
    with locked(path):
        dictionary = load_dictionary(path)
        updated, entry = deprecate_term(dictionary, term, superseded_by,
                                        actor=actor)
        save_dictionary(updated, path)
        append_changelog(changelog_path or _default_changelog(path), entry)
    if as_json:
        _emit_json(entry)
    else:
        click.echo(f"deprecated {term}, superseded by {superseded_by}")


if __name__ == "__main__":
    main()
