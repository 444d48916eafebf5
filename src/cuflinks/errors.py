"""Exception hierarchy shared across the toolkit.

Callers that need to map failures onto exit codes or HTTP statuses catch
these rather than bare ValueError/OSError wherever the failure is a
domain condition and not a programming mistake.
"""

from __future__ import annotations


class CuflinksError(Exception):
    """Base class for every toolkit-raised error."""


class FormatError(CuflinksError):
    """A file's content does not parse as the format it claims to be."""

    def __init__(self, message: str, *, path: str | None = None,
                 line: int | None = None) -> None:
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + where)


class NotABagError(FormatError):
    """The directory does not contain a bag declaration."""


class InvariantError(CuflinksError):
    """An in-memory structure violates one of its structural rules."""


class ValidationError(CuflinksError):
    """An operation's precondition required a clean validation report."""

    def __init__(self, message: str, report=None) -> None:
        self.report = report
        super().__init__(message)


class IntegrityError(CuflinksError):
    """Content bytes do not match the digest or length recorded for them."""

    def __init__(self, message: str, *, expected: str | None = None,
                 actual: str | None = None) -> None:
        self.expected = expected
        self.actual = actual
        super().__init__(message)


class TransferError(CuflinksError):
    """A remote fetch failed (connection, status, or truncated body)."""


class SchemeError(CuflinksError):
    """No transfer scheme is registered for a URL."""


class LockError(CuflinksError):
    """Another process holds the exclusive lock we need."""


class IdentifierError(CuflinksError):
    """Identifier text does not match the compact-identifier grammar."""


class NotFoundError(CuflinksError):
    """A syntactically valid identifier is not present in the registry."""


class RegistryError(CuflinksError):
    """The registry rejected an operation (state rules, bad arguments)."""


class RecordTooLargeError(RegistryError):
    """A write would leave a record larger than a reply can carry."""


class StoreError(CuflinksError):
    """The append-only store could not be opened or written."""


class LedgerError(CuflinksError):
    """The linkage ledger rejected an append."""


class CycleError(CuflinksError):
    """A relation that must be acyclic contains a cycle."""

    def __init__(self, message: str, members: tuple[str, ...] = ()) -> None:
        self.members = members
        super().__init__(message)


class NotInLedgerError(CuflinksError):
    """The identifier appears nowhere in the ledger."""


class ConfigError(CuflinksError):
    """The configuration file or environment is unusable."""
