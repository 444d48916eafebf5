"""Compact identifiers: model, persistent registry, HTTP service, client."""

from cuflinks.minid.client import (MinidFetcher, RegistryClient,
                                   checksum_of_file, resolve_to_bytes)
from cuflinks.minid.model import (Checksum, MinidRecord, is_valid_identifier,
                                  new_suffix, parse_identifier,
                                  render_identifier)
from cuflinks.minid.registry import Registry
from cuflinks.minid.service import RegistryServer
from cuflinks.minid.store import EventLog

__all__ = [
    "Checksum",
    "EventLog",
    "MinidFetcher",
    "MinidRecord",
    "Registry",
    "RegistryClient",
    "RegistryServer",
    "checksum_of_file",
    "is_valid_identifier",
    "new_suffix",
    "parse_identifier",
    "render_identifier",
    "resolve_to_bytes",
]
