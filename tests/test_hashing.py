"""Known-answer digests and hashing utilities.

The reference digests were produced with an independent tool (coreutils
md5sum/sha256sum/sha512sum) before this package existed; they pin the
hashing layer to the outside world.
"""

import errno
import hashlib
import io
import itertools
import random
import threading

import pytest

from cuflinks import hashing, host
from cuflinks.hashing import (DEFAULT_ALGORITHM, HEX_DIGEST_LENGTHS,
                              SUPPORTED_ALGORITHMS, check_algorithm,
                              digest_bytes, digest_file, is_hex_digest,
                              multi_digest_bytes, multi_digest_file)

EMPTY = {
    "md5": "d41d8cd98f00b204e9800998ecf8427e",
    "sha256": ("e3b0c44298fc1c149afbf4c8996fb924"
               "27ae41e4649b934ca495991b7852b855"),
    "sha512": ("cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921"
               "d36ce9ce47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81"
               "a538327af927da3e"),
}

HELLO_WORLD = {
    "md5": "5eb63bbbe01eeed093cb22bb8f5acdc3",
    "sha256": ("b94d27b9934d3e08a52e52d7da7dabfa"
               "c484efe37a5380ee9088f7ace2efcde9"),
    "sha512": ("309ecc489c12d6eb4cc40f50c902f2b4d0ed77ee511a7c7a9bcd3ca8"
               "6d4cd86f989dd35bc5ff499670da34255b45b0cfd830e81f605dcf7d"
               "c5542e93ae9cd76f"),
}


@pytest.mark.parametrize("algorithm", SUPPORTED_ALGORITHMS)
def test_known_answer_empty(algorithm):
    assert digest_bytes(b"", algorithm) == EMPTY[algorithm]


@pytest.mark.parametrize("algorithm", SUPPORTED_ALGORITHMS)
def test_known_answer_hello_world(algorithm):
    assert digest_bytes(b"hello world", algorithm) == HELLO_WORLD[algorithm]


def test_digest_file_matches_digest_bytes(tmp_path):
    path = tmp_path / "sample.bin"
    path.write_bytes(b"hello world")
    for algorithm in SUPPORTED_ALGORITHMS:
        assert digest_file(path, algorithm) == HELLO_WORLD[algorithm]


def test_multi_digest_single_pass_agrees(tmp_path):
    path = tmp_path / "sample.bin"
    path.write_bytes(b"x" * 3_000_000)  # spans several read chunks
    digests = multi_digest_file(path, SUPPORTED_ALGORITHMS)
    for algorithm in SUPPORTED_ALGORITHMS:
        assert digests[algorithm] == digest_file(path, algorithm)
    assert multi_digest_bytes(b"hello world",
                              ("md5", "sha256"))["md5"] == HELLO_WORLD["md5"]


def test_algorithm_checks():
    assert DEFAULT_ALGORITHM == "sha256"
    assert check_algorithm("SHA256") == "sha256"
    with pytest.raises(ValueError):
        check_algorithm("sha1")
    assert HEX_DIGEST_LENGTHS == {"md5": 32, "sha256": 64, "sha512": 128}


def test_is_hex_digest():
    assert is_hex_digest(EMPTY["sha256"], "sha256")
    assert not is_hex_digest(EMPTY["sha256"].upper(), "sha256")
    assert not is_hex_digest(EMPTY["md5"], "sha256")
    assert not is_hex_digest("zz" * 32, "sha256")


CHUNK = hashing._CHUNK_SIZE


def orderings():
    """Every non-empty subset of the algorithms in every order, and each
    of those again with its first name repeated in another spelling."""
    for size in range(1, len(SUPPORTED_ALGORITHMS) + 1):
        for names in itertools.permutations(SUPPORTED_ALGORITHMS, size):
            yield names
            yield names + (names[0].upper(),)


@pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1,
                                  3 * CHUNK + 7])
def test_multi_digest_file_matches_hashlib(tmp_path, size):
    data = random.Random(size).randbytes(size)
    path = tmp_path / "sample.bin"
    path.write_bytes(data)
    for names in orderings():
        expected = {name: hashlib.new(name, data).hexdigest()
                    for name in dict.fromkeys(n.lower() for n in names)}
        digests = multi_digest_file(path, names)
        assert list(digests.items()) == list(expected.items()), names
        assert multi_digest_bytes(data, names) == expected


def test_read_error_reaches_caller_and_stops_threads(tmp_path, monkeypatch):
    path = tmp_path / "sample.bin"
    path.write_bytes(bytes(4 * CHUNK))

    class FailingFile(io.FileIO):
        reads = 0

        def read(self, size=-1):
            self.reads += 1
            if self.reads == 3:
                raise OSError(errno.EIO, "injected read error")
            return super().read(size)

    monkeypatch.setattr(hashing, "open", lambda p, mode: FailingFile(p, mode),
                        raising=False)
    before = threading.active_count()
    outcome = []

    def call():
        try:
            multi_digest_file(path, SUPPORTED_ALGORITHMS)
        except OSError as exc:
            outcome.append(exc)

    caller = threading.Thread(target=call)
    caller.start()
    caller.join(timeout=10)
    assert not caller.is_alive()
    assert [exc.errno for exc in outcome] == [errno.EIO]
    assert threading.active_count() == before


@pytest.fixture
def started_threads(monkeypatch):
    """Names of the threads started while the test runs."""
    started = []

    class RecordingThread(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", RecordingThread)
    return started


@pytest.mark.parametrize("size, algorithms, cores, threads", [
    (3 * CHUNK, ("sha256",), 2, 0),
    (CHUNK, SUPPORTED_ALGORITHMS, 2, 0),
    (3 * CHUNK, SUPPORTED_ALGORITHMS, 1, 0),
    (3 * CHUNK, SUPPORTED_ALGORITHMS, None, 0),
    (CHUNK + 1, ("md5", "sha256"), 2, 1),
    (CHUNK + 1, SUPPORTED_ALGORITHMS, 2, 2),
])
def test_threads_only_for_extra_algorithms_over_chunks(
        tmp_path, monkeypatch, started_threads, size, algorithms, cores,
        threads):
    path = tmp_path / "sample.bin"
    path.write_bytes(bytes(size))
    if cores is None:  # the platform reports neither affinity nor a count
        monkeypatch.delattr(host.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(host.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(hashing, "usable_cores", lambda: cores)
    digests = multi_digest_file(path, algorithms)
    assert digests == multi_digest_bytes(bytes(size), algorithms)
    assert len(started_threads) == threads


def test_usable_cores_prefers_affinity(monkeypatch):
    monkeypatch.setattr(host.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(host.os, "sched_getaffinity", lambda pid: {1},
                        raising=False)
    assert host.usable_cores() == 1
    monkeypatch.delattr(host.os, "sched_getaffinity")
    assert host.usable_cores() == 8
