"""Research-data packaging: bags, persistent identifiers, linkage.

The pieces compose but stand alone: `cuflinks.bag` packages and checks
directory trees, listing each bag's files and their media types in a
research-object manifest, `cuflinks.minid` mints and resolves content-bound
identifiers, `cuflinks.links` keeps a verifiable chain of derivation
records, and `cuflinks.terms` guards the descriptive vocabulary that
`dict check` holds metadata values to.
"""

from cuflinks.version import __version__

__all__ = ["__version__"]
