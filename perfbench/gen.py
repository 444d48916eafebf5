"""Input generator for the cuflinks benchmark.

Runs in its own process so that generating inputs never counts toward
the peak RSS of the process that runs the workload's CLI commands.
Everything is derived from ``--seed``: the same seed gives the same
bytes, names, dictionary, DAG and event log. Alongside the inputs it
writes ``spec.json``, the expectations the benchmark checks the
program's outputs against; they are computed here, apart from the
program (``hashlib`` digests, byte counts, ancestor closures, expected
term resolutions), and never by calling ``cuflinks``.

    python3 perfbench/gen.py --workload NAME --seed N --size F --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import struct
import zlib
from pathlib import Path

WORKLOADS = ("bag-many-small", "bag-few-large", "provenance-dag")

MIB = 1024 * 1024

# Every workload has a bag part and a provenance part, so every run
# reports every end-to-end metric; the profile sets where the weight is.
# bag-many-small: file count at size factor 1; each file is 768..1280 B
SMALL_FILES = 2000
# bag-few-large: sizes in MiB at size factor 1, per kind (100 MiB total)
LARGE_SIZES_MIB = (24, 16, 10)
# provenance part, per workload, at size factor 1: events of history in
# the registry's log, DAG layers and width, dictionary terms, terms
# checked per batch, and the share of one-edit misses in the batch.
# Each layer's chains have their own length, so a DAG has an odd number
# of produced layers: the median link record then falls inside the
# middle layer, not between two layers' times.
PROVENANCE = {
    "bag-many-small": {"history": 2000, "layers": 4, "width": 3,
                       "terms": 5000, "batch": 2000, "misses": 0},
    "bag-few-large": {"history": 20000, "layers": 4, "width": 4,
                      "terms": 5000, "batch": 300, "misses": 1 / 3},
    "provenance-dag": {"history": 20000, "layers": 4, "width": 8,
                       "terms": 5000, "batch": 300, "misses": 1 / 3},
}

_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"
_BASE62 = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"


def _scaled(count: int, size: float, minimum: int) -> int:
    return max(minimum, round(count * size))


def _write_file(path: Path, data: bytes, algorithms) -> dict[str, str]:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return {alg: hashlib.new(alg, data).hexdigest() for alg in algorithms}


# --- dictionary ----------------------------------------------------------

def _word(rng: random.Random) -> str:
    syllables = rng.randint(2, 4)
    return "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                   for _ in range(syllables))


def _dictionary(rng: random.Random, count: int, out: Path) -> dict:
    """Write terms.tsv; return the term table the checks rely on.

    About a tenth of the terms are deprecated. Each points at an active
    term, or at another deprecated term that does, so aliases resolve
    through chains of one or two hops.
    """
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < count:
        name = _word(rng)
        if rng.random() < 0.3:
            name += "-" + _word(rng)
        if name not in seen:
            seen.add(name)
            names.append(name)
    deprecated_count = max(2, count // 10)
    active = names[deprecated_count:]
    deprecated = names[:deprecated_count]
    table: dict[str, dict] = {}
    for number, term in enumerate(active):
        table[term] = {"canonical_id": f"NCIT:C{100000 + number}",
                       "status": "active", "superseded_by": None}
    for index, term in enumerate(deprecated):
        # odd-indexed aliases chain through the previous (even) alias
        successor = (deprecated[index - 1] if index % 2 == 1
                     else rng.choice(active))
        table[term] = {"canonical_id": f"local:{term}",
                       "status": "deprecated", "superseded_by": successor}
    lines = ["term\tcanonical_id\tstatus\tsuperseded_by\tdefinition"]
    for term in sorted(table):
        row = table[term]
        lines.append("\t".join((term, row["canonical_id"], row["status"],
                                row["superseded_by"] or "",
                                f"definition of {term}")))
    (out / "terms.tsv").write_text("".join(l + "\n" for l in lines),
                                   encoding="utf-8")
    return table


def _resolve_term(table: dict, term: str) -> tuple[str, list[str]]:
    hops: list[str] = []
    while table[term]["status"] != "active":
        hops.append(term)
        term = table[term]["superseded_by"]
    return term, hops


_EDITS = ("substitute", "insert", "delete", "swap")


def _one_edit(rng: random.Random, term: str, kind: str) -> str:
    position = rng.randrange(len(term))
    if kind == "substitute":
        letter = rng.choice([c for c in _CONSONANTS + _VOWELS
                             if c != term[position]])
        return term[:position] + letter + term[position + 1:]
    if kind == "insert":
        return term[:position] + rng.choice(_VOWELS) + term[position:]
    if kind == "delete":
        return term[:position] + term[position + 1:]
    position = min(position, len(term) - 2)
    return (term[:position] + term[position + 1] + term[position]
            + term[position + 2:])


def _batch(rng: random.Random, table: dict, count: int,
           miss_share: float) -> list[dict]:
    """Values for ``dict check``, each with the outcome it must get.

    A miss scans every term, and its cost depends on how many terms have
    about its length, so miss sources are spread evenly over the active
    terms ordered by length and the edit kinds cycle: every seed gets
    the same mix of work. Every third remaining value is an alias.
    """
    active = sorted((t for t, row in table.items()
                     if row["status"] == "active"), key=lambda t: (len(t), t))
    deprecated = sorted(t for t, row in table.items()
                        if row["status"] != "active")
    misses = round(count * miss_share)
    entries: list[dict] = []
    for index in range(misses):
        position = (index * len(active)) // misses
        while True:
            source = active[position % len(active)]
            value = _one_edit(rng, source, _EDITS[index % len(_EDITS)])
            if value != source and value not in table:
                break
            position += 1
        entries.append({"value": value, "ok": False, "source": source})
    for index in range(count - misses):
        value = (rng.choice(deprecated) if index % 3 == 2
                 else rng.choice(active))
        term, hops = _resolve_term(table, value)
        entries.append({"value": value, "ok": True, "term": term,
                        "canonical_id": table[term]["canonical_id"],
                        "followed": hops})
    rng.shuffle(entries)
    return entries


# --- bags ---------------------------------------------------------------

def _small_tree(rng: random.Random, count: int, src: Path) -> list[dict]:
    """A nested tree of ~1 KiB files; a few names carry % and spaces."""
    files = []
    for index in range(count):
        top, mid = index % 10, (index // 10) % 8
        name = f"f{index:05d}.dat"
        if index % 97 == 5:
            name = f"run {index} at 50% load.csv"
        elif index % 97 == 50:
            name = f"raw%25 sample {index}.txt"
        rel = f"d{top}/e{mid}/{name}"
        data = rng.randbytes(rng.randint(768, 1280))
        digests = _write_file(src / rel, data, ("sha256",))
        files.append({"rel": rel, "size": len(data), "digests": digests})
    return files


def _csv_bytes(rng: random.Random, size: int) -> bytes:
    """CSV-like text: numbered rows drawn from a pool of 4096 rows."""
    pool = [",".join((f"{rng.uniform(-90, 90):.5f}",
                      f"{rng.uniform(-180, 180):.5f}",
                      rng.choice(("ok", "flagged", "missing", "calibrated")),
                      f"{rng.randint(0, 10 ** 6)}"))
            for _ in range(4096)]
    parts: list[str] = ["row,lat,lon,status,count\n"]
    total = len(parts[0])
    row = 0
    while total < size:
        for line in rng.choices(pool, k=4096):
            text = f"{row},{line}\n"
            parts.append(text)
            total += len(text)
            row += 1
    return "".join(parts).encode("ascii")[:size]


def _large_files(rng: random.Random, size: float, src: Path) -> list[dict]:
    algorithms = ("sha256", "md5", "sha512")
    files = []
    for index, mib in enumerate(LARGE_SIZES_MIB):
        nbytes = max(64 * 1024, round(mib * MIB * size))
        for kind in ("table", "blob"):
            rel = (f"tables/part{index}.csv" if kind == "table"
                   else f"blobs/part{index}.bin")
            data = (_csv_bytes(rng, nbytes) if kind == "table"
                    else rng.randbytes(nbytes))
            digests = _write_file(src / rel, data, algorithms)
            files.append({"rel": rel, "size": nbytes, "kind": kind,
                          "digests": digests})
    return files


# --- provenance ---------------------------------------------------------

def _suffix(rng: random.Random) -> str:
    return "".join(rng.choice(_BASE62) for _ in range(12))


def _history(rng: random.Random, count: int, path: Path) -> list[dict]:
    """An event log in the registry's frame format, written directly.

    Frame: 4-byte big-endian length, 4-byte big-endian CRC32, compact
    JSON payload. About a tenth of the events add a location to an
    earlier identifier. Returns a sample of records to resolve.
    """
    records: dict[str, dict] = {}
    order: list[str] = []
    frames: list[bytes] = []
    for seq in range(1, count + 1):
        if order and rng.random() < 0.1:
            suffix = rng.choice(order)
            location = f"https://mirror.example.org/{suffix}/{seq}"
            records[suffix]["locations"].append(location)
            event = {"op": "location-added", "suffix": suffix,
                     "location": location, "actor": "history"}
        else:
            suffix = _suffix(rng)
            while suffix in records:
                suffix = _suffix(rng)
            digest = rng.randbytes(32).hex()
            event = {"op": "minted", "suffix": suffix,
                     "author": f"author {seq % 37}",
                     "created": "2025-06-01T00:00:00Z",
                     "title": f"historical dataset {seq}",
                     "locations": [f"https://data.example.org/{suffix}"],
                     "checksum": {"algorithm": "sha256", "digest": digest}}
            records[suffix] = {"identifier": f"minid:{suffix}",
                               "digest": digest,
                               "locations": list(event["locations"])}
            order.append(suffix)
        event["seq"] = seq
        payload = json.dumps(event, sort_keys=True, separators=(",", ":"),
                             ensure_ascii=False).encode("utf-8")
        frames.append(struct.pack(">II", len(payload), zlib.crc32(payload))
                      + payload)
    path.write_bytes(b"".join(frames))
    return [records[s] for s in rng.sample(order, min(8, len(order)))]


def _dag(rng: random.Random, layers: int, width: int, out: Path) -> dict:
    """A layered DAG: layer 0 are roots; node c of layer k > 0 consumes
    nodes c and c + 1 + k mod (width - 1) (mod width) of layer k - 1.
    The shape is the same for every seed, so chain sizes are too; the
    seed picks the node contents. Every node below the top layer is
    consumed, so the top layer's nodes are the terminal outputs. Every
    produced node gets its ancestor closure, itself included: the node
    set its chain must have."""
    nodes = []
    for layer in range(layers):
        for column in range(width):
            index = len(nodes)
            below = (layer - 1) * width
            skip = 1 + layer % (width - 1)
            inputs = ([] if layer == 0 else sorted(
                {below + column, below + (column + skip) % width}))
            data = rng.randbytes(rng.randint(256, 2048))
            rel = f"nodes/n{index:04d}.bin"
            digests = _write_file(out / "files" / rel, data, ("sha256",))
            nodes.append({"index": index, "layer": layer, "inputs": inputs,
                          "rel": rel, "sha256": digests["sha256"]})
    consumed = {i for node in nodes for i in node["inputs"]}
    terminals = [n["index"] for n in nodes
                 if n["layer"] > 0 and n["index"] not in consumed]
    closures = {}
    for produced in (n["index"] for n in nodes if n["layer"] > 0):
        seen, stack = set(), [produced]
        while stack:
            current = stack.pop()
            if current not in seen:
                seen.add(current)
                stack.extend(nodes[current]["inputs"])
        closures[str(produced)] = sorted(seen)
    return {"nodes": nodes, "terminals": terminals, "closures": closures}


# --- entry ----------------------------------------------------------------

def generate(workload: str, seed: int, size: float, out: Path) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    spec: dict = {"workload": workload, "seed": seed, "size": size}
    profile = PROVENANCE[workload]
    spec["history"] = _history(rng, _scaled(profile["history"], size, 40),
                               out / "history.log")
    spec["dag"] = _dag(rng, profile["layers"],
                       _scaled(profile["width"], size, 3), out)
    table = _dictionary(rng, _scaled(profile["terms"], size, 40), out)
    spec["batch"] = _batch(rng, table, _scaled(profile["batch"], size, 6),
                           profile["misses"])
    spec["commit"] = rng.randbytes(20).hex()
    if workload == "bag-many-small":
        files = _small_tree(rng, _scaled(SMALL_FILES, size, 8),
                            out / "files" / "src")
        spec["algorithms"] = ["sha256"]
        spec["bag_source"] = "src"
    elif workload == "bag-few-large":
        files = _large_files(rng, size, out / "files" / "src")
        spec["algorithms"] = ["sha256", "md5", "sha512"]
        spec["bag_source"] = "src"
    else:
        # the bag part bags the registry's history and the dictionary:
        # two files of a few MiB, not the DAG's 32 tiny node files,
        # because creating and deleting small files on the reference
        # disk took from 2 to 50 ms per 37 files from one second to
        # the next, which would drown the bag code's own time
        files = []
        for name in ("history.log", "terms.tsv"):
            data = (out / name).read_bytes()
            digests = _write_file(out / "files" / "state" / name, data,
                                  ("sha256",))
            files.append({"rel": name, "size": len(data),
                          "digests": digests})
        spec["algorithms"] = ["sha256"]
        spec["bag_source"] = "state"
    spec["files"] = files
    spec["payload_bytes"] = sum(f["size"] for f in files)
    (out / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    return spec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=float, default=1.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.size, args.out)


if __name__ == "__main__":
    main()
