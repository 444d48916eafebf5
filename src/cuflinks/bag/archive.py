"""ZIP serialization of a bag directory and the inverse extraction.

The archive holds exactly one top-level directory named after the bag.
Extraction refuses anything else, along with member names that would
escape the destination.
"""

from __future__ import annotations

import shutil
import zipfile
from pathlib import Path

from cuflinks.bag.io import read_bag
from cuflinks.bag.model import in_bag_path_problem
from cuflinks.bag.validate import validate_bag
from cuflinks.errors import FormatError, ValidationError

# fixed member timestamp: archive bytes depend only on content
_EPOCH = (1980, 1, 1, 0, 0, 0)


def serialize(bag_dir: Path, destination: Path | None = None) -> Path:
    bag_dir = Path(bag_dir).resolve()
    report = validate_bag(read_bag(bag_dir), level="fast")
    if not report.ok:
        raise ValidationError(
            f"bag {bag_dir} fails fast validation; not archiving", report)
    if destination is None:
        destination = bag_dir.parent / f"{bag_dir.name}.zip"
    destination = Path(destination)
    if destination.exists():
        raise FileExistsError(f"archive {destination} already exists")

    root = bag_dir.name
    directories: list[str] = []
    files: list[tuple[str, Path]] = []
    for path in sorted(bag_dir.rglob("*")):
        rel = path.relative_to(bag_dir).as_posix()
        if rel.split("/", 1)[0].startswith("."):
            continue  # workspace artifacts stay out of archives
        if path.is_dir():
            directories.append(rel)
        elif path.is_file():
            files.append((rel, path))

    with zipfile.ZipFile(destination, "w", zipfile.ZIP_DEFLATED) as archive:
        for rel in directories:
            info = zipfile.ZipInfo(f"{root}/{rel}/", date_time=_EPOCH)
            archive.writestr(info, b"")
        for rel, path in files:
            info = zipfile.ZipInfo(f"{root}/{rel}", date_time=_EPOCH)
            info.compress_type = zipfile.ZIP_DEFLATED
            with open(path, "rb") as source, \
                    archive.open(info, "w") as member:
                shutil.copyfileobj(source, member)
    return destination


def extract(archive_path: Path, destination_parent: Path) -> Path:
    archive_path = Path(archive_path)
    destination_parent = Path(destination_parent)
    with zipfile.ZipFile(archive_path) as archive:
        names = archive.namelist()
        if not names:
            raise FormatError("archive is empty", path=str(archive_path))
        for name in names:
            # a member name is an in-bag path under the root directory
            problem = in_bag_path_problem(name.removesuffix("/"))
            if problem:
                raise FormatError(f"unsafe member {name!r}: {problem}",
                                  path=str(archive_path))
        roots = {name.split("/", 1)[0] for name in names}
        if len(roots) != 1:
            raise FormatError(
                f"archive must contain a single top-level directory, "
                f"found {len(roots)} roots", path=str(archive_path))
        root = roots.pop()
        if any(name != f"{root}/" and not name.startswith(f"{root}/")
               for name in names):
            raise FormatError(
                "archive must contain a single top-level directory",
                path=str(archive_path))

        destination = destination_parent / root
        if destination.exists() and any(destination.iterdir()):
            raise FileExistsError(
                f"destination {destination} already exists and is not empty")
        destination_parent.mkdir(parents=True, exist_ok=True)
        for name in sorted(names):
            target = destination_parent / name
            if name.endswith("/"):
                target.mkdir(parents=True, exist_ok=True)
                continue
            target.parent.mkdir(parents=True, exist_ok=True)
            with archive.open(name) as member, open(target, "wb") as sink:
                shutil.copyfileobj(member, sink)
    return destination
