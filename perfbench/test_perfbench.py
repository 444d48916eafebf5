"""Smoke test of the benchmark: every workload at a tiny size, with every
check on, and proof that the checks catch a planted fault.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
LISTED = tuple(w["name"] for w in SPEC["workloads"])
WORKLOADS = ("bag-many-small", "bag-few-large", "provenance-dag")


def _launch(workload: str, *, trace: int = 0, plant: str = ""):
    """Start the benchmark at size 0.02 in a fresh interpreter, after
    executing ``plant`` there (which may break the program on purpose)."""
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0",
            "--trace", str(trace), "--size", "0.02"]
    code = "\n".join([
        "import runpy, sys",
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]",
        plant,
        f"sys.argv = ['run.py', *{argv!r}]",
        f"runpy.run_path({str(BENCH / 'run.py')!r}, run_name='__main__')",
    ])
    return subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


PLANTED = {
    # one manifest digest is wrong
    "wrong-digest": (
        "import cuflinks.bag.build as b\n"
        "real = b.multi_digest_file\n"
        "def wrong(path, algorithms):\n"
        "    found = real(path, algorithms)\n"
        "    if path.name.startswith('f00003'):\n"
        "        found['sha256'] = found['sha256'][::-1]\n"
        "    return found\n"
        "b.multi_digest_file = wrong"),
    # extraction flips one payload byte
    "flipped-byte": (
        "import cuflinks.cli as c\n"
        "real = c.extract\n"
        "def flipped(archive, destination):\n"
        "    bag = real(archive, destination)\n"
        "    victim = sorted((bag / 'data').rglob('f*.dat'))[0]\n"
        "    data = bytearray(victim.read_bytes())\n"
        "    data[0] ^= 1\n"
        "    victim.write_bytes(bytes(data))\n"
        "    return bag\n"
        "c.extract = flipped"),
}


@pytest.fixture(scope="module")
def results():
    """Every run the tests need, started together to keep this short."""
    runs = {(w, 0, ""): _launch(w) for w in WORKLOADS}
    for workload in LISTED:
        runs[(workload, 1, "")] = _launch(workload, trace=1)
    for fault, plant in PLANTED.items():
        runs[("bag-many-small", 0, fault)] = _launch("bag-many-small",
                                                     plant=plant)
    done = {}
    for key, proc in runs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err[-3000:]
        done[key] = json.loads(out.strip().splitlines()[-1])
    return done


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_clean(results, workload):
    result = results[(workload, 0, "")]
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] > 0
    metrics = result["metrics"]
    if workload in LISTED:
        assert set(metrics) == END_TO_END
    assert set(metrics) <= END_TO_END
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", LISTED)
def test_traced_run_reports_every_layer(results, workload):
    result = results[(workload, 1, "")]
    assert (result["correct"], result["failed"]) == (True, 0)
    metrics = result["metrics"]
    assert set(metrics) == PER_LAYER
    assert all(m["value"] > 0 for m in metrics.values())
    assert metrics["bag.io.payload_reads_per_byte"]["value"] == \
        pytest.approx(2.0)


@pytest.mark.parametrize("fault", sorted(PLANTED))
def test_planted_fault_fails_an_operation(results, fault):
    result = results[("bag-many-small", 0, fault)]
    assert result["failed"] > 0
    assert result["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           WORKLOADS[0], "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
