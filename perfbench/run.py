"""The repository benchmark: real ``repro serve`` / ``repro route`` processes
driven by seeded closed-loop workloads, plus a traced per-layer run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload light-distinct --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` boots the workload's server several times (``setup_s`` is
the median), then measures for ``--seconds`` and prints the end-to-end
metrics.  ``--trace 1`` prints the per-layer table (see :mod:`traced`).
Every answer is compared with the in-process oracle built by
:mod:`build`; the run exits 1 when any request failed or mismatched.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--quick`` runs the same code on tiny corpora (the self-tests in
``test_perfbench.py``); ``--cache-dir`` moves the corpus and oracle
cache, which defaults to ``.perfbench_cache`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Server launches per untraced run; ``setup_s`` is their median.
SETUPS = 3
QUICK_SETUPS = 2
#: Back-to-back time windows of the measured phase.  Median latency,
#: throughput and CPU per query are medians over the windows, so one slow
#: stretch of a shared host does not set a run's figure.
WINDOWS = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny corpora and pools (self-tests)")
    parser.add_argument("--cache-dir", type=Path, default=ROOT / ".perfbench_cache")
    return parser.parse_args(argv)


def _log(text: str) -> None:
    print(text, flush=True)


def _host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: a record of how fast the
    (shared) host ran around this run, for reading its figures."""
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        sum(i * i for i in range(200_000))
        samples.append((time.perf_counter() - started) * 1e3)
    return sorted(samples)[len(samples) // 2]


def run_untraced(cache, workload, requests, seconds: float, setups: int):
    """Returns ``(end-to-end values, outcome, report details)``."""
    from build import repro_env
    from client import closed_loop
    from metrics import chunked_p99, median
    from server import cpu_seconds, launch, process_tree, rss_peak_mb

    env = repro_env(ROOT)
    network = cache.network_json(workload.corpus)
    setup_samples = []
    server = None
    try:
        for attempt in range(setups):
            candidate = launch(ROOT, workload.serve_args, network, env)
            setup_samples.append(candidate.setup_s)
            if attempt + 1 < setups:
                candidate.stop()
            else:
                server = candidate
        warm = closed_loop(server.port, requests, clients=workload.clients,
                           max_requests=workload.warmup, keepalive=False)
        cpu_marks = [cpu_seconds(process_tree(server.pid))]
        windows = []
        for _ in range(WINDOWS):
            windows.append(closed_loop(
                server.port, requests, clients=workload.clients,
                seconds=seconds / WINDOWS, keepalive=workload.keepalive,
                start_index=windows[-1].next_index if windows else warm.next_index,
            ))
            tree = process_tree(server.pid)
            cpu_marks.append(cpu_seconds(tree))
        rss_mb = rss_peak_mb(tree)
    finally:
        if server is not None:
            server.stop()
    cpu_per_query = []
    for window, before, after in zip(windows, cpu_marks, cpu_marks[1:]):
        cpu_s = sum(after[pid] - before.get(pid, 0.0) for pid in after)
        answered = sum(1 for status in window.statuses if status == 200)
        cpu_per_query.append(cpu_s * 1e3 / max(answered, 1))
    latencies = [latency for window in windows for latency in window.latencies_s]
    attempted = sum(window.attempted for window in windows)
    correct = sum(window.correct for window in windows)
    latency_p99, tail_chunks = chunked_p99(latencies, WINDOWS)
    values = {
        "setup_s": median(setup_samples),
        "latency_p50_ms": median(median(w.latencies_s) for w in windows) * 1e3,
        "latency_p99_ms": latency_p99 * 1e3,
        "throughput_qps": median(w.correct / w.wall_s for w in windows),
        "success_rate": correct / attempted,
        "server_cpu_ms_per_query": median(cpu_per_query),
        "rss_peak_mb": rss_mb,
    }
    statuses = [status for window in windows for status in window.statuses]
    outcome = {
        "attempted": warm.attempted + attempted,
        "failed": warm.failed + attempted - correct,
    }
    details = {
        "samples": attempted,
        "p99_chunks": tail_chunks,
        "samples_beyond_p99_per_chunk": len(latencies) // tail_chunks
        - math.ceil(0.99 * (len(latencies) // tail_chunks)),
        "error_rate": (attempted - correct) / attempted,
        "non_200": sum(1 for status in statuses if status not in (0, 200)),
        "transport_errors": sum(w.transport_errors for w in windows),
        "mismatches": warm.mismatches + sum(w.mismatches for w in windows),
        "warmup_requests": warm.attempted,
        "setup_samples_s": setup_samples,
        "server_processes": len(tree),
        "measured_wall_s": sum(w.wall_s for w in windows),
    }
    return values, outcome, details


def main(argv=None) -> int:
    args = _parse(argv)
    # Unwind on SIGTERM too, so every server this run started is stopped.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from build import CORPUS_SEED, FULL, QUICK, ensure_built
    from metrics import UNITS, result_line
    from workloads import WORKLOADS, request_list

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    scale = QUICK if args.quick else FULL
    cache = ensure_built(ROOT, args.cache_dir, scale, log=_log)
    requests, draw = request_list(workload, cache.load_pool(workload.corpus), args.seed)
    host_before = _host_loop_ms()

    if args.trace:
        from traced import run_traced

        spans_path = args.cache_dir / "traces" / f"{workload.name}-seed{args.seed}.jsonl"
        values, outcome, details = run_traced(
            ROOT, cache, workload, requests, args.seconds, spans_path
        )
    else:
        values, outcome, details = run_untraced(
            cache, workload, requests, args.seconds,
            QUICK_SETUPS if args.quick else SETUPS,
        )

    correct = outcome["failed"] == 0
    report = {
        "workload": workload.name,
        "why": workload.why,
        "trace": args.trace,
        "seconds": args.seconds,
        "host_loop_ms": [host_before, _host_loop_ms()],
        "generation": {**draw, "corpus_seed": CORPUS_SEED, "scale": asdict(scale)},
        **details,
    }
    for name, value in values.items():
        _log(f"# {name:<34} {value:14.4f} {UNITS[name]}")
    if not args.trace:
        _log(f"# {'error_rate':<34} {details['error_rate']:14.4f} ratio")
    _log("# report " + json.dumps(report))
    print(json.dumps(result_line(values, correct=correct,
                                 attempted=outcome["attempted"],
                                 failed=outcome["failed"])), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
