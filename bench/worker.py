"""One fresh interpreter running one workload: set-up, then the timed loop.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Protocol on stdout: the line ``READY`` once set-up is done (the
parent times set-up up to that line, interpreter start included), then one
line ``RESULT <json>``.

    python3 bench/worker.py <paper|structure|dist|cli> --seed N --seconds S
        [--setup-only] [--trace] [--spans PATH]
    python3 bench/worker.py cli-child <cinfer arguments...>

``cli-child`` runs the cinfer CLI in process with the tracer installed and
prints the per-layer totals as a last ``TRACE <json>`` line on stderr; the
traced `cli` run starts it in place of ``python -m cinfer.cli``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

from tracer import Tracer
import workloads


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _ready() -> None:
    print("READY", flush=True)


def _per_pass(setup: dict, total: dict, passes: int) -> dict:
    """Set-up totals plus the average over the traced passes."""
    return {k: setup.get(k, 0) + (v - setup.get(k, 0)) / passes for k, v in total.items()}


def run_paper(args) -> dict:
    from cinfer import checks  # noqa: F401  (import is part of set-up)

    tracer = Tracer()
    if args.trace:
        tracer.install()
    _ready()
    if args.setup_only:
        return {}
    tracer.active = args.trace
    start = time.perf_counter()
    with tracer.span("bench.battery"):
        results = workloads.run_battery()
    run_s = time.perf_counter() - start
    tracer.active = False
    failures = workloads.check_battery(results)
    out = {
        "pass_times": [run_s],
        "best": [r[3] for r in results],
        "attempted": max(len(results), workloads.PAPER_CHECKS),
        "failures": failures,
        "failed": len(failures),
        "stats": {"checks": len(results)},
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
    }
    if args.trace:
        out["trace"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    return out


def run_loop(args) -> dict:
    tracer = Tracer()
    if args.trace:
        tracer.install()
        tracer.active = True
    cls = workloads.WORKLOADS[args.workload]
    if args.workload == "cli":
        child = None
        if args.trace:
            child = [sys.executable, os.path.abspath(__file__), "cli-child"]
        wl = cls(args.seed, os.getcwd(), child)
    else:
        wl = cls(args.seed)
    tracer.active = False
    setup_trace = tracer.summary() if args.trace else {}
    _ready()
    if args.setup_only:
        return {}

    key = getattr(wl, "key", lambda answer: answer)
    n = len(wl)
    best = [math.inf] * n  # per-query fastest latency over the passes
    latencies: list[float] = []
    pass_times: list[float] = []
    child_totals: dict[str, float] = {}
    first = first_keys = None
    mismatches = 0
    clock = time.perf_counter
    begin = clock()
    while True:
        answers = []
        pass_start = clock()
        for i in range(n):
            tracer.active = args.trace
            with tracer.span("bench.query"):
                t0 = clock()
                answer = wl.query(i)
                t1 = clock()
            tracer.active = False
            latencies.append(t1 - t0)
            best[i] = min(best[i], t1 - t0)
            answers.append(answer)
        pass_times.append(clock() - pass_start)
        if args.trace and args.workload == "cli":
            for _, _, err in answers:
                _add(child_totals, _child_trace(err))
        keys = [key(a) for a in answers]
        if first is None:
            first, first_keys = answers, keys
        else:
            mismatches += sum(k != f for k, f in zip(keys, first_keys))
        if clock() - begin >= args.seconds:
            break

    failures = wl.check(first)
    out = {
        "pass_times": pass_times,
        "best": best,
        "latencies": latencies if args.workload == "cli" else [],
        "attempted": len(latencies),
        "failures": failures + [f"{mismatches} answers differ between passes"] * bool(mismatches),
        "failed": len(failures) + mismatches,
        "stats": wl.stats(first),
        "peak_rss_mb": _peak_rss_mb(
            resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        ),
    }
    if args.trace:
        total = tracer.summary()
        _add(total, child_totals)
        out["trace"] = _per_pass(setup_trace, total, len(pass_times))
        if args.spans:
            tracer.write(args.spans)
    return out


def _add(into: dict, more: dict) -> None:
    for k, v in more.items():
        into[k] = into.get(k, 0) + v


def _child_trace(stderr: str) -> dict:
    for line in reversed(stderr.splitlines()):
        if line.startswith("TRACE "):
            return json.loads(line[len("TRACE "):])
    return {}


def cli_child(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    import cinfer.cli

    tracer.active = True
    try:
        code = cinfer.cli.main(argv)
    finally:
        tracer.active = False
        sys.stdout.flush()
        print("TRACE " + json.dumps(tracer.summary()), file=sys.stderr)
    return code


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "cli-child":
        return cli_child(sys.argv[2:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("paper", *workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    out = run_paper(args) if args.workload == "paper" else run_loop(args)
    if not args.setup_only:
        print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
