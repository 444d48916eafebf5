"""Benchmark for cuflinks: three workloads through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S \\
        --trace 0|1 [--size F]

Runs from the root of a source checkout. The CLI runs in this process
(``cuflinks.cli.main`` called directly, so interpreter start-up does not
drown the work). ``cuflinks registry serve`` and a fixture file server
each run in their own process. Inputs come from ``perfbench/gen.py``,
run in its own process, from ``--seed`` and ``--size``.

A run generates its inputs, starts the servers three times (the median
start-up, plus the import of the CLI and one warm-up round, is
``setup_s``), then runs whole rounds, at least three, until the run's
end is nearest to ``--seconds``. Every operation's output is checked.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics, end-to-end ones with ``--trace 0``,
per-layer ones with ``--trace 1``. Working files live under
``.perfbench-work/`` in the checkout and are removed at the end; the
full result and, when traced, the spans are kept under
``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
OUT_ROOT = ROOT / ".perfbench-out"

STARTS = 3          # server start-ups per run; setup_s takes the median
MIN_ROUNDS = 3      # timed rounds, at least; 4 when traced
P90_SAMPLES = 100   # a p90 needs ten samples beyond it

# end-to-end metric -> (operation timed, percentile, scale from seconds)
END_TO_END: dict[str, tuple[str, int, float]] = {
    "bag_create_s": ("bag_create", 50, 1),
    "bag_validate_full_s": ("bag_validate_full", 50, 1),
    "bag_archive_s": ("bag_archive", 50, 1),
    "bag_extract_s": ("bag_extract", 50, 1),
    "registry_open_s": ("registry_open", 50, 1),
    "mint_p50_ms": ("mint", 50, 1000),
    "resolve_p50_ms": ("resolve", 50, 1000),
    "link_record_p50_ms": ("link_record", 50, 1000),
    "link_ci_s": ("link_ci", 50, 1),
    "dict_check_s": ("dict_check", 50, 1),
    "resolve_fetch_s": ("resolve_fetch", 50, 1),
}
# Measured and kept in the full result, but not reported, because every
# run reports the same metrics: a p90 is computed only where at least
# 100 samples back it, which bag-few-large's mints and resolves are not,
# and the archive's link record runs in bag-few-large only, once a round.
UNGATED = {
    "mint_p90_ms": ("mint", 90, 1000),
    "resolve_p90_ms": ("resolve", 90, 1000),
    "archive_link_record_s": ("archive_link_record", 50, 1),
}


class BenchError(Exception):
    """Set-up failed, or an operation exited with an unexpected code."""


def host_ref_ms() -> float:
    """A fixed pure-Python loop, timed: host drift made visible."""
    start = time.perf_counter()
    total = 0
    for number in range(200_000):
        total += number * number % 7
    return (time.perf_counter() - start) * 1000


def percentile(values: list[float], pct: int) -> float:
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[pct - 1]


class Child:
    """A server process; ready once its log shows the pattern."""

    def __init__(self, argv: list[str], log: Path, env: dict,
                 ready: str) -> None:
        self.log = log
        with open(log, "wb") as sink:
            self.proc = subprocess.Popen(argv, stdout=sink,
                                         stderr=subprocess.STDOUT,
                                         stdin=subprocess.DEVNULL,
                                         cwd=ROOT, env=env)
        self.ready = ready
        self.match: re.Match | None = None

    def wait_ready(self, timeout: float = 120) -> re.Match:
        deadline = time.monotonic() + timeout
        while self.match is None:
            text = self.log.read_text(encoding="utf-8", errors="replace")
            self.match = re.search(self.ready, text)
            if self.match is None:
                if self.proc.poll() is not None:
                    raise BenchError(f"server exited: {text[-2000:]}")
                if time.monotonic() > deadline:
                    raise BenchError(f"server not ready: {text[-2000:]}")
                time.sleep(0.002)
        return self.match

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Harness:
    def __init__(self, args, work: Path) -> None:
        self.args = args
        self.work = work
        self.gen = work / "gen"
        self.served = self.gen / "files"
        self.spec: dict = {}
        self.nproc = len(os.sched_getaffinity(0))
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.timed = False
        self.tracer = None
        self.cli = None
        self.children: list[Child] = []
        self.files_url = ""
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("CUFLINKS_")}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]]
                          if self.env.get("PYTHONPATH") else []))
        self.config = work / "cuflinks.toml"
        self.local_config = work / "local.toml"
        self.env_file = work / "environment.json"
        self.server_spans = work / "server-spans.json"
        self.trash = work / "trash"

    # --- the CLI, in process ---------------------------------------------

    def invoke(self, args: list[str], stdin: str | None):
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin = io.StringIO(stdin or "")
        sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
        tracer = self.tracer
        opened = tracer.begin() if tracer and tracer.enabled else None
        code = 0
        try:
            self.cli.main.main(args=args, prog_name="cuflinks",
                               standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an escaped program error fails the op
            code = f"{type(exc).__name__}: {exc}"
        finally:
            if opened is not None:
                tracer.end(opened, "cli")
            out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
            sys.stdin, sys.stdout, sys.stderr = saved
        return code, out, err

    def op(self, timed: str | None, args: list[str], *,
           stdin: str | None = None, expect_code: int = 0, check=None):
        """Run one CLI operation and check it; in a timed round, record
        its seconds under the operation name ``timed``."""
        if args[0] != "--config":
            args = ["--config", str(self.config), *args]
        self.attempted += 1
        start = time.perf_counter()
        code, out, err = self.invoke(args, stdin)
        elapsed = time.perf_counter() - start
        try:
            if code != expect_code:
                raise BenchError(f"exit {code}, expected {expect_code}: "
                                 f"{err.strip()[-500:]}")
            body = json.loads(out) if out.strip() else None
            if check is not None:
                check(body)
        except (BenchError, workloads.Mismatch, ValueError, KeyError,
                TypeError, OSError) as exc:
            self.failed += 1
            if not isinstance(exc, BenchError):
                self.wrong += 1
            if len(self.errors) < 20:
                self.errors.append(f"{' '.join(args[2:5])}: {exc}")
            return None
        if timed is not None and self.timed:
            self.samples.setdefault(timed, []).append(elapsed)
        return body

    # --- set-up ------------------------------------------------------------

    def generate(self) -> None:
        args = self.args
        subprocess.run([sys.executable, str(BENCH / "gen.py"),
                        "--workload", args.workload, "--seed",
                        str(args.seed), "--size", str(args.size),
                        "--out", str(self.gen)],
                       check=True, env=self.env, cwd=ROOT)
        workloads.sync_tree(self.gen)
        self.spec = json.loads((self.gen / "spec.json").read_text())
        self.env_file.write_text(json.dumps(
            {"os": "perfbench", "architecture": "any",
             "dependencies": ["cuflinks"]}), encoding="utf-8")
        self.local_config.write_text("# no resolver: use --store\n")
        self.config.write_text("# no resolver: use --store\n")

    def start_servers(self, count: int) -> float:
        """Start the servers; return seconds until both serve."""
        store = self.work / "registry.log"
        store.unlink(missing_ok=True)
        shutil.copyfile(self.gen / "history.log", store)
        start = time.perf_counter()
        files = Child([sys.executable, str(BENCH / "fileserver.py"),
                       str(self.served)], self.work / f"files-{count}.log",
                      self.env, r"port (\d+)")
        self.children.append(files)
        serve = ["registry", "serve", "--store", str(store), "--port", "0"]
        if self.args.trace:
            argv = [sys.executable, str(BENCH / "spans.py"), "--out",
                    str(self.server_spans), "--", *serve]
        else:
            argv = [sys.executable, "-m", "cuflinks.cli", *serve]
        server = Child(argv, self.work / f"registry-{count}.log",
                       self.env, r"serving (http://\S+/minid)")
        self.children.append(server)
        resolver = server.wait_ready().group(1)
        port = files.wait_ready().group(1)
        elapsed = time.perf_counter() - start
        self.files_url = f"http://127.0.0.1:{port}"
        self.config.write_text(f'resolver_url = "{resolver}"\n')
        return elapsed

    def stop_servers(self) -> None:
        while self.children:
            self.children.pop().stop()


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _load_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def run(args) -> dict:
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    h = Harness(args, work)
    try:
        return _run(h)
    finally:
        h.stop_servers()
        shutil.rmtree(work, ignore_errors=True)
        # commits the deletions, so they do not land in the next run
        workloads.fsync_path(WORK_ROOT)


def _run(h: Harness) -> dict:
    args = h.args
    h.generate()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from cuflinks import cli
    import_s = time.perf_counter() - start
    h.cli = cli
    if args.trace:
        h.tracer = spans.Tracer()
        spans.install_client(h.tracer)
    workload = workloads.WORKLOADS[args.workload](h)
    workload.prepare()

    starts = []
    for count in range(STARTS):
        if count:
            h.stop_servers()
        starts.append(h.start_servers(count))
    workload.after_start()

    rounds: list[dict] = []
    host_refs: list[float] = []
    min_rounds = MIN_ROUNDS + (1 if args.trace else 0)
    begin = None
    index = 0
    # Between rounds, outside the timed calls, collect garbage; after
    # set-up, freeze what survives. A CLI command normally runs in a fresh
    # process with a small heap, so the harness's own long-lived objects
    # should not make its collections slower here.
    gc.collect()
    gc.freeze()
    while True:
        gc.collect()
        host_refs.append(host_ref_ms())
        info = {"index": index, "traced": bool(args.trace and index % 2)}
        h.timed = index > 0
        if h.tracer is not None:
            h.tracer.enabled = info["traced"]
            before = h.tracer.counts()
        info["start_ns"] = time.monotonic_ns()
        round_start = time.perf_counter()
        workload.round(index, info)
        info["wall_s"] = time.perf_counter() - round_start
        info["end_ns"] = time.monotonic_ns()
        info["rss_mib"] = _rss_mib()
        if h.tracer is not None:
            h.tracer.enabled = False
            after = h.tracer.counts()
            info["counts"] = {k: v - before.get(k, 0)
                              for k, v in after.items()}
        if index == 0:
            warm_s = info["wall_s"]
            begin = time.perf_counter()
        else:
            rounds.append(info)
        if index == MIN_ROUNDS:
            # the peak over a fixed amount of work: in-process calls leave
            # the heap a little more fragmented each time, so a peak over
            # every round would grow with the number of rounds run
            peak_rss_mib = info["rss_mib"]
        index += 1
        elapsed = time.perf_counter() - begin
        # stop where the run ends nearest to --seconds: a round of
        # bag-few-large lasts about a third of a run
        typical = statistics.median(r["wall_s"] for r in rounds) \
            if rounds else 0
        if index > min_rounds and elapsed + typical / 2 >= args.seconds:
            break
        if elapsed >= 3 * max(args.seconds, 1) + 30:
            break
    h.timed = False
    workload.probe()
    h.stop_servers()

    metrics: dict[str, float] = {}
    if args.trace:
        server = (json.loads(h.server_spans.read_text())
                  if h.server_spans.exists() else [])
        metrics = spans.layer_metrics(h.tracer.spans,
                                      [tuple(s) for s in server],
                                      rounds, host_refs)
        OUT_ROOT.mkdir(exist_ok=True)
        trace_path = OUT_ROOT / (f"{args.workload}-seed{args.seed}"
                                 f"-size{args.size:g}.spans.json")
        trace_path.write_text(json.dumps({"client": h.tracer.spans,
                                          "server": server}))
    else:
        metrics["setup_s"] = import_s + statistics.median(starts) + warm_s
        for name, (key, pct, scale) in {**END_TO_END, **UNGATED}.items():
            values = h.samples.get(key)
            if values and (pct == 50 or len(values) >= P90_SAMPLES):
                metrics[name] = percentile(values, pct) * scale
        metrics["peak_rss_mib"] = peak_rss_mib

    units = _load_units()
    result = {
        "correct": h.wrong == 0,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())
                    if name not in UNGATED},
    }
    details = {
        "result": result, "workload": args.workload, "seed": args.seed,
        "size": args.size, "seconds": args.seconds, "trace": args.trace,
        "ungated": {name: metrics[name] for name in UNGATED
                    if name in metrics},
        "nproc": h.nproc, "import_s": import_s, "starts_s": starts,
        "warm_s": warm_s, "host_ref_ms": host_refs,
        "round_wall_s": [r["wall_s"] for r in rounds],
        "round_rss_mib": [r["rss_mib"] for r in rounds],
        "samples": h.samples,
        "errors": h.errors,
    }
    OUT_ROOT.mkdir(exist_ok=True)
    (OUT_ROOT / (f"{args.workload}-seed{args.seed}-size{args.size:g}"
                 f"-trace{args.trace}.json")
     ).write_text(json.dumps(details, indent=1))
    for error in h.errors:
        print(f"failed: {error}", file=sys.stderr)
    return result


class Stopped(BaseException):
    """SIGTERM arrived; unlike SystemExit, no CLI call swallows it."""


def _stop(signum, frame) -> None:
    raise Stopped(f"stopped by signal {signum}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cuflinks benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=float, default=1.0,
                        help="input size factor (default 1)")
    args = parser.parse_args(argv)
    if not (SRC / "cuflinks" / "cli.py").is_file():
        print(f"error: no cuflinks source under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _stop)
    try:
        result = run(args)
    except (BenchError, Stopped, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
