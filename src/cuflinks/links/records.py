"""Linkage record types: output produced-by(method, environment, inputs).

A method is pinned to a full-length commit hash or to an identified
artifact; a bare repository URL is rejected, because code a branch name
points at can change without notice. Environments are an identifier of
an environment-description bag or an inline descriptor of the running
system.
"""

from __future__ import annotations

import platform
import re
from dataclasses import dataclass
from importlib import metadata as importlib_metadata

from cuflinks.errors import CycleError, IdentifierError
from cuflinks.minid.model import is_valid_identifier

REPOSITORY_COMMIT = "repository_commit"
IDENTIFIED_ARTIFACT = "identified_artifact"

_COMMIT_RE = re.compile(r"[0-9a-f]{40}|[0-9a-f]{64}")


@dataclass(frozen=True)
class MethodRef:
    kind: str
    repository: str | None = None
    commit: str | None = None
    artifact: str | None = None

    def __post_init__(self) -> None:
        if self.kind == REPOSITORY_COMMIT:
            if not self.repository:
                raise ValueError("repository URL is required")
            if not self.commit or not _COMMIT_RE.fullmatch(self.commit):
                raise ValueError(
                    f"commit {self.commit!r} is not a full-length hex hash; "
                    f"branch names and short hashes do not pin code")
            if self.artifact is not None:
                raise ValueError("repository_commit carries no artifact")
        elif self.kind == IDENTIFIED_ARTIFACT:
            if self.artifact is None or not is_valid_identifier(self.artifact):
                raise IdentifierError(
                    f"{self.artifact!r} is not a valid artifact identifier")
            if self.repository or self.commit:
                raise ValueError(
                    "identified_artifact carries no repository or commit")
        else:
            raise ValueError(f"unknown method kind {self.kind!r}")

    @classmethod
    def from_commit(cls, repository: str, commit: str) -> "MethodRef":
        return cls(kind=REPOSITORY_COMMIT, repository=repository,
                   commit=commit.lower())

    @classmethod
    def from_artifact(cls, identifier: str) -> "MethodRef":
        return cls(kind=IDENTIFIED_ARTIFACT, artifact=identifier)

    def to_json(self) -> dict:
        if self.kind == REPOSITORY_COMMIT:
            return {"kind": self.kind, "repository": self.repository,
                    "commit": self.commit}
        return {"kind": self.kind, "artifact": self.artifact}

    @classmethod
    def from_json(cls, body: dict) -> "MethodRef":
        return cls(kind=body["kind"],
                   repository=body.get("repository"),
                   commit=body.get("commit"),
                   artifact=body.get("artifact"))


@dataclass(frozen=True)
class EnvironmentRef:
    identifier: str | None = None
    inline: tuple[tuple[str, object], ...] | None = None

    def __post_init__(self) -> None:
        if self.identifier is None and self.inline is None:
            raise ValueError(
                "an environment needs an identifier or an inline descriptor")
        if self.identifier is not None and \
                not is_valid_identifier(self.identifier):
            raise IdentifierError(
                f"{self.identifier!r} is not a valid identifier")

    @classmethod
    def from_inline(cls, descriptor: dict) -> "EnvironmentRef":
        return cls(inline=tuple(sorted(descriptor.items())))

    def to_json(self) -> dict:
        body: dict = {}
        if self.identifier is not None:
            body["identifier"] = self.identifier
        if self.inline is not None:
            body["inline"] = dict(self.inline)
        return body

    @classmethod
    def from_json(cls, body: dict) -> "EnvironmentRef":
        inline = body.get("inline")
        return cls(identifier=body.get("identifier"),
                   inline=(tuple(sorted(inline.items()))
                           if inline is not None else None))


def capture_environment() -> EnvironmentRef:
    """Inline descriptor of the running system: OS, architecture, and the
    installed package set."""
    dependencies = sorted(
        {f"{dist.metadata['Name']}=={dist.version}"
         for dist in importlib_metadata.distributions()
         if dist.metadata["Name"]})
    return EnvironmentRef.from_inline({
        "os": platform.platform(),
        "architecture": platform.machine(),
        "dependencies": dependencies,
    })


@dataclass(frozen=True)
class LinkageRecord:
    output: str
    inputs: tuple[str, ...]
    method: MethodRef
    environment: EnvironmentRef
    actor: str
    performed_at: str
    notes: str | None = None

    def __post_init__(self) -> None:
        for identifier in (self.output, *self.inputs):
            if not is_valid_identifier(identifier):
                raise IdentifierError(
                    f"{identifier!r} is not a valid identifier")
        if self.output in self.inputs:
            raise CycleError(
                f"output {self.output} cannot also be an input",
                members=(self.output,))
        if len(set(self.inputs)) != len(self.inputs):
            raise ValueError("duplicate input identifiers")

    def to_json(self) -> dict:
        body: dict = {
            "kind": "linkage",
            "output": self.output,
            "inputs": list(self.inputs),
            "method": self.method.to_json(),
            "environment": self.environment.to_json(),
            "actor": self.actor,
            "performed_at": self.performed_at,
        }
        if self.notes is not None:
            body["notes"] = self.notes
        return body

    @classmethod
    def from_json(cls, body: dict) -> "LinkageRecord":
        return cls(
            output=body["output"],
            inputs=tuple(body["inputs"]),
            method=MethodRef.from_json(body["method"]),
            environment=EnvironmentRef.from_json(body["environment"]),
            actor=body["actor"],
            performed_at=body["performed_at"],
            notes=body.get("notes"),
        )


@dataclass(frozen=True)
class RootRecord:
    """Marks an identifier as a genuinely external input.

    Without this, a missing linkage record and an external dataset look
    the same to a chain walk.
    """

    identifier: str
    actor: str
    declared_at: str
    notes: str | None = None

    def __post_init__(self) -> None:
        if not is_valid_identifier(self.identifier):
            raise IdentifierError(
                f"{self.identifier!r} is not a valid identifier")

    def to_json(self) -> dict:
        body: dict = {
            "kind": "root",
            "identifier": self.identifier,
            "actor": self.actor,
            "declared_at": self.declared_at,
        }
        if self.notes is not None:
            body["notes"] = self.notes
        return body

    @classmethod
    def from_json(cls, body: dict) -> "RootRecord":
        return cls(identifier=body["identifier"], actor=body["actor"],
                   declared_at=body["declared_at"], notes=body.get("notes"))
