#!/usr/bin/env python3
"""cinfer benchmark: one workload per run, checked for correctness.

    python3 bench/run.py --workload <paper|structure|dist|cli> --seed N
                         --seconds S --trace <0|1>

Run it from the root of a checkout; it imports cinfer from ``src`` there and
exits with status 2, printing no result, when that tree is missing.

Workloads (why each was chosen is in BENCHMARK.json):

* ``paper``     -- the full ``verify-paper`` battery, one fresh interpreter per
  battery; at least five batteries, and more until S seconds have passed.
* ``structure`` -- closure and orbit queries on seeded 24-bit triplet sets.
* ``dist``      -- exact four-variable distributions: induced structure,
  entropy, Ingleton, conditional and lattice products.
* ``cli``       -- cold ``python -m cinfer.cli`` processes, five verbs.

Every workload is a closed loop with one client.  With ``--trace 0`` the run
measures the end-to-end metrics named in BENCHMARK.json (README.md says how
each is taken).  With ``--trace 1`` it runs the
workload untraced for half the time and traced for the other half, and
reports the per-layer metrics of the traced half (set-up plus one pass, or
one battery), the tracing overhead between the halves, and the cold-start
floor of the CLI.  The spans of the traced half are written to
``.bench_out/``.  The last line of stdout of a run that completes is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
a run that cannot complete prints the reason on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import CLI_VERBS, TAIL_PERCENTILE, percentile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper", "structure", "dist", "cli")
SEGMENTS = 4  # fresh workers per run of a loop workload
MIN_BATTERIES = 5  # fresh workers per run of `paper`, at least
PROBE_COUNT = 5  # interpreter and import probes of a traced run
DEADLINE_S = 170.0  # a run must end within 180 s
OUT_DIR = ".bench_out"


class BenchError(Exception):
    """A run that cannot produce a result."""


class Runner:
    """Starts workers from the checkout root and enforces the run deadline."""

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.start = time.perf_counter()

    def remaining(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - self.start)
        if left <= 0:
            raise BenchError("run deadline passed")
        return left

    def worker(self, workload: str, seconds: float = 0.0, *extra: str) -> tuple[float, dict]:
        """Run one worker; returns (set-up seconds, result dict)."""
        cmd = [
            sys.executable, os.path.join(BENCH_DIR, "worker.py"), workload,
            "--seed", str(self.seed), "--seconds", repr(seconds), *extra,
        ]
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=self.env, text=True, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - spawned
            out, err = proc.communicate(timeout=self.remaining())
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)  # the worker and any cinfer child
                proc.wait()
        if line.strip() != "READY" or proc.returncode != 0:
            raise BenchError(f"worker {workload} failed (exit {proc.returncode}): {err.strip()[-2000:]}")
        result = {}
        for row in out.splitlines():
            if row.startswith("RESULT "):
                result = json.loads(row[len("RESULT "):])
        if "--setup-only" not in extra and not result:
            raise BenchError(f"worker {workload} printed no result")
        return setup_s, result

    def probe(self, code: str) -> tuple[float, str]:
        """Wall seconds and stdout of one cold ``python -c`` process."""
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=self.remaining(),
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"probe failed: {proc.stderr.strip()[-2000:]}")
        return wall, proc.stdout


def measure(
    runner: Runner, workload: str, seconds: float, workers: int,
    trace: bool = False, probes: bool = False,
) -> dict:
    """Passes of a workload from ``workers`` fresh workers (`paper`: at least
    that many batteries, and more until ``seconds`` have passed; loop
    workloads: ``seconds / workers`` each).  With ``probes``, a set-up-only
    worker follows each one, so set-up samples spread over the whole run."""
    extra = ["--trace", "--spans", spans_path(runner, workload)] if trace else []
    m = {"setups": [], "pass_times": [], "best": None, "latencies": [], "attempted": 0,
         "failed": 0, "failures": [], "rss": [], "stats": None, "trace": None}
    worker_seconds = 0.0 if workload == "paper" else seconds / workers
    begin = time.perf_counter()
    while True:
        setup_s, r = runner.worker(workload, worker_seconds, *extra)
        m["setups"].append(setup_s)
        m["pass_times"] += r["pass_times"]
        m["best"] = list(map(min, m["best"] or r["best"], r["best"]))
        m["latencies"] += r.get("latencies", [])
        for key in ("attempted", "failed", "failures"):
            m[key] += r[key]
        m["rss"].append(r["peak_rss_mb"])
        m["stats"] = m["stats"] or r["stats"]
        m["trace"] = m["trace"] or r.get("trace")
        if probes:
            m["setups"].append(runner.worker(workload, 0.0, "--setup-only")[0])
        done = len(m["rss"]) >= workers
        if workload == "paper":
            done = done and time.perf_counter() - begin >= seconds
        if done:
            return m


def spans_path(runner: Runner, workload: str) -> str:
    os.makedirs(os.path.join(runner.root, OUT_DIR), exist_ok=True)
    return os.path.join(runner.root, OUT_DIR, f"spans-{workload}-seed{runner.seed}.json")


def end_to_end(runner: Runner, workload: str, seconds: float) -> tuple[dict, dict, dict, list[str]]:
    """The end-to-end metrics, from each query's fastest latency over the
    run's passes (each check's, over the batteries of `paper`).  The host
    alternates between fast and slow states for seconds at a time, so a
    median over one run would read how long the run spent in each; the
    per-query minimum reads the program."""
    workers = MIN_BATTERIES if workload == "paper" else SEGMENTS
    m = measure(runner, workload, seconds, workers, probes=True)
    best = m["best"]
    if workload == "paper":
        # One query is one battery: its twelve checks, each at its fastest.
        best = [sum(best)]
    run_s = sum(best)
    pct = TAIL_PERCENTILE[workload]
    what = "battery of 12 checks, each" if workload == "paper" else "queries, each"
    passes = f"{len(m['pass_times'])} {'batteries' if workload == 'paper' else 'passes'}"
    values = {
        "setup_s": statistics.median(m["setups"]),
        "run_s": run_s,
        "ops_per_s": len(best) / run_s,
        "op_p50_ms": 1000.0 * statistics.median(best),
        "op_tail_ms": 1000.0 * percentile(best, pct),
        "peak_rss_mb": max(m["rss"]),
    }
    notes = {
        "setup_s": f"median of {len(m['setups'])} fresh interpreters",
        "run_s": f"{len(best)} {what} at its fastest of {passes}; "
        f"fastest whole pass {min(m['pass_times']):.6g} s",
        "ops_per_s": f"{len(best)} over run_s",
        "op_p50_ms": f"median of {len(best)} per-query fastest latencies",
        "op_tail_ms": f"p{pct:g} of {len(best)}, {len(best) - math.ceil(pct / 100.0 * len(best))} beyond it",
        "peak_rss_mb": "largest worker" + (" child" if workload == "cli" else ""),
    }
    report = {"attempted": m["attempted"], "failed": m["failed"], "corpus": m["stats"]}
    return values, notes, report, m["failures"]


def per_layer(runner: Runner, workload: str, seconds: float) -> tuple[dict, dict, dict, list[str]]:
    """The per-layer metrics of one traced worker, the tracing overhead
    against an untraced worker, and the cold-start floor of the CLI."""
    interp = [runner.probe("pass")[0] for _ in range(PROBE_COUNT)]
    imports = [
        float(runner.probe(
            "import time; t = time.perf_counter(); import cinfer.cli; "
            "print(time.perf_counter() - t)"
        )[1])
        for _ in range(PROBE_COUNT)
    ]
    untraced = measure(runner, workload, seconds / 2, 1)
    # One traced battery, so that the spans file and the metrics describe
    # the same battery.
    traced = measure(runner, workload, 0.0 if workload == "paper" else seconds / 2, 1, trace=True)
    runs = [untraced, traced]
    if workload == "cli":
        cli_run = untraced
    else:
        cli_run = measure(runner, "cli", 0.0, 1)
        runs.append(cli_run)
    values = dict(traced["trace"])
    t = traced["trace"]
    calls = t.get("dist.marginal_calls", 0)
    values["dist.marginal_cache_hit_ratio"] = t.get("dist.marginal_repeats", 0) / calls if calls else 0.0
    values["cli.interpreter_ms"] = 1000.0 * statistics.median(interp)
    values["cli.import_ms"] = 1000.0 * statistics.median(imports)
    for k, verb in enumerate(CLI_VERBS):
        values[f"cli.{verb}_p50_ms"] = 1000.0 * statistics.median(cli_run["latencies"][k::len(CLI_VERBS)])
    fastest_untraced, fastest_traced = sum(untraced["best"]), sum(traced["best"])
    values["trace.overhead_ratio"] = fastest_traced / fastest_untraced - 1.0
    report = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "per_layer_basis": "one battery" if workload == "paper" else "set-up plus one pass",
        "untraced_run_s": fastest_untraced,
        "traced_run_s": fastest_traced,
        "spans_file": os.path.relpath(spans_path(runner, workload), runner.root),
        "corpus": traced["stats"],
    }
    failures = [f for r in runs for f in r["failures"]]
    with open(os.path.join(runner.root, OUT_DIR, f"trace-{workload}-seed{runner.seed}.json"), "w") as f:
        json.dump({"metrics": values, "report": report}, f, indent=1)
    return values, {}, report, failures


def _terminate(signum, frame):
    raise SystemExit(1)  # unwinds through Runner.worker, which kills its worker


def _metric_table(root: str, kind: str) -> list[tuple[str, str]]:
    """(name, unit) of every metric of one kind, as BENCHMARK.json lists them."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


def main() -> int:
    parser = argparse.ArgumentParser(description="cinfer benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cinfer", "__init__.py")):
        print("error: run from the root of a cinfer checkout (src/cinfer is missing)", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    runner = Runner(root, args.seed)
    try:
        if args.trace:
            table = _metric_table(root, "per_layer")
            values, notes, report, failures = per_layer(runner, args.workload, args.seconds)
        else:
            table = _metric_table(root, "end_to_end")
            values, notes, report, failures = end_to_end(runner, args.workload, args.seconds)
        missing = [name for name, _ in table if name not in values]
        if missing:
            raise BenchError(f"BENCHMARK.json lists metrics this benchmark does not produce: {missing}")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report["failed_ratio"] = report["failed"] / report["attempted"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, unit in table:
        note = notes.get(name)
        print(f"  {name:<36} {values[name]:>14.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"  {'failed_ratio':<36} {report['failed_ratio']:>14.6g} ratio  "
          f"({report['failed']} of {report['attempted']})")
    for failure in failures[:20]:
        print(f"  FAILED: {failure}")
    print("report " + json.dumps(report))
    result = {
        "correct": not failures and report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
