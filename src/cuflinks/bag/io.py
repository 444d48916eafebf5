"""Write a bag to disk and read one back.

Writing transcribes the bag's bytes verbatim. Reading parses every
recognized tag file but keeps a raw handle to each file on disk, so a
later validation hashes the original bytes, not a normalized rendering.
Root-level names starting with a dot are workspace artifacts (locks,
partial downloads) and are invisible to the model.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from cuflinks.bag import tagfiles
from cuflinks.bag.model import (Bag, Entry, in_bag_path_problem,
                                payload_path_problem)
from cuflinks.errors import FormatError, NotABagError
from cuflinks.hashing import SUPPORTED_ALGORITHMS


def write_bag(bag: Bag, parent: Path) -> Path:
    """Write ``bag`` as ``parent/<root_name>/``; the target must be empty."""
    bag.check_invariants()
    destination = Path(parent) / bag.root_name
    if destination.exists() and any(destination.iterdir()):
        raise FileExistsError(
            f"destination {destination} already exists and is not empty")
    created = not destination.exists()
    destination.mkdir(parents=True, exist_ok=True)
    try:
        (destination / "data").mkdir()
        everything = {**bag.payload, **bag.tag_metadata, **bag.tag_files}
        for path in sorted(everything):
            entry = everything[path]
            target = destination / path
            target.parent.mkdir(parents=True, exist_ok=True)
            if entry.content is not None:
                target.write_bytes(entry.content)
            else:
                shutil.copyfile(entry.source, target)
    except BaseException:
        if created:
            shutil.rmtree(destination, ignore_errors=True)
        else:
            for child in destination.iterdir():
                if child.is_dir():
                    shutil.rmtree(child, ignore_errors=True)
                else:
                    child.unlink(missing_ok=True)
        raise
    return destination


def walk_files(directory: Path, prefix: str) -> dict[str, Entry]:
    """Every file under ``directory``, in sorted order, keyed by
    ``prefix`` plus its relative POSIX path."""
    if not directory.is_dir():
        raise NotADirectoryError(f"not a readable directory: {directory}")
    return {f"{prefix}{path.relative_to(directory).as_posix()}":
            Entry(source=path)
            for path in sorted(directory.rglob("*")) if path.is_file()}


def read_bag(location: Path) -> Bag:
    location = Path(location).resolve()
    if not location.is_dir():
        raise NotABagError(f"{location} is not a directory",
                           path=str(location))
    declaration_file = location / tagfiles.BAGIT_FILENAME
    if not declaration_file.is_file():
        raise NotABagError(
            f"{location} has no {tagfiles.BAGIT_FILENAME}; not a bag",
            path=str(location))

    payload: dict[str, Entry] = {}
    tag_metadata: dict[str, Entry] = {}
    tag_files: dict[str, Entry] = {}
    for child in sorted(location.iterdir()):
        if child.name.startswith("."):
            continue
        if child.is_dir():
            if child.name == "data":
                payload.update(walk_files(child, "data/"))
            elif child.name == "metadata":
                tag_metadata.update(walk_files(child, "metadata/"))
            else:
                # unrecognized tag directory, carried opaquely
                tag_files.update(walk_files(child, f"{child.name}/"))
        else:
            tag_files[child.name] = Entry(source=child)

    decl = tagfiles.parse_bagit(tag_files[tagfiles.BAGIT_FILENAME]
                                .read_bytes())

    bag_info: tuple[tuple[str, str], ...] = ()
    if tagfiles.BAG_INFO_FILENAME in tag_files:
        bag_info = tagfiles.parse_bag_info(
            tag_files[tagfiles.BAG_INFO_FILENAME].read_bytes())

    manifests: dict[str, dict[str, str]] = {}
    tag_manifests: dict[str, dict[str, str]] = {}
    for name, entry in tag_files.items():
        split = tagfiles.split_manifest_filename(name)
        if split is None:
            continue
        is_tag_manifest, algorithm = split
        if algorithm not in SUPPORTED_ALGORITHMS:
            continue  # unknown algorithm: preserved but not interpreted
        parsed = tagfiles.parse_manifest(entry.read_bytes(), algorithm, name,
                                         strict=is_tag_manifest)
        # a listed path must be a path this bag could hold at all
        checker = in_bag_path_problem if is_tag_manifest \
            else payload_path_problem
        for listed in parsed:
            problem = checker(listed)
            if problem:
                raise FormatError(f"entry {listed!r}: {problem}", path=name)
        if is_tag_manifest:
            tag_manifests[algorithm] = parsed
        else:
            manifests[algorithm] = parsed

    fetch: tuple = ()
    if tagfiles.FETCH_FILENAME in tag_files:
        fetch = tagfiles.parse_fetch(
            tag_files[tagfiles.FETCH_FILENAME].read_bytes())

    bag = Bag(root_name=location.name, decl=decl, bag_info=bag_info,
              manifests=manifests, tag_manifests=tag_manifests, fetch=fetch,
              payload=payload, tag_metadata=tag_metadata,
              tag_files=tag_files)
    bag.check_invariants()
    return bag
