"""Metric names, units and directions -- the table ``BENCHMARK.json`` lists.

Each per-layer metric carries the layer (a ``repro`` module) it measures
and where a change to that layer should show end to end ("moves"), so a
later change can be judged against the prediction it makes.
"""

from __future__ import annotations

import math

#: (name, unit, better, bound) of the untraced run.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p99_ms", "ms", "lower", 0.25),
    ("throughput_qps", "1/s", "higher", 0.25),
    ("success_rate", "ratio", "higher", 0.01),
    ("server_cpu_ms_per_query", "ms", "lower", 0.25),
    ("rss_peak_mb", "MB", "lower", 0.1),
)

#: (name, unit, better, layer, moves) of the traced run.
PER_LAYER = (
    ("io.load_json_s", "s", "lower", "hin.io", "setup_s on heavy-broad"),
    ("index.build_s", "s", "lower", "engine.index", "setup_s on heavy-broad"),
    ("index.size_mb", "MB", "lower", "engine.index", "rss_peak_mb on heavy-broad"),
    ("backends.spawn_s", "s", "lower", "service.backends", "setup_s on heavy-broad"),
    ("supervisor.replicas_ready_s", "s", "lower", "service.supervisor",
     "setup_s on hot-keepalive-route"),
    ("backends.execute_ms.p50", "ms", "lower", "service.backends",
     "throughput_qps on heavy-broad"),
    ("backends.execute_ms.p99", "ms", "lower", "service.backends",
     "throughput_qps on heavy-broad"),
    ("backends.failures", "count", "lower", "service.backends", "success_rate everywhere"),
    ("router.self_ms.p50", "ms", "lower", "service.router",
     "latency_p50_ms on hot-keepalive-route"),
    ("router.self_ms.p99", "ms", "lower", "service.router",
     "latency_p99_ms on hot-keepalive-route"),
    ("router.attempts_per_request", "count", "lower", "service.router",
     "success_rate on hot-keepalive-route"),
    ("router.failovers", "count", "lower", "service.router",
     "success_rate on hot-keepalive-route"),
    ("router.breaker_skips", "count", "lower", "service.router",
     "success_rate on hot-keepalive-route"),
    ("http.overhead_ms.p50", "ms", "lower", "service.http",
     "latency_p50_ms on hot-keepalive-route and light-distinct"),
    ("http.overhead_ms.p99", "ms", "lower", "service.http", "latency_p99_ms on heavy-broad"),
    ("http.response_kb", "KB", "lower", "service.http", "latency_p99_ms on heavy-broad"),
    ("keys.canonical_key_ms", "ms", "lower", "service.keys", "latency_p50_ms on light-distinct"),
    ("service.submit_ms", "ms", "lower", "service.service", "latency_p50_ms on light-distinct"),
    ("service.handoff_ms.p50", "ms", "lower", "service.service",
     "latency_p50_ms on light-distinct"),
    ("service.handoff_ms.p99", "ms", "lower", "service.service",
     "throughput_qps on light-distinct"),
    ("service.coalesced", "count", "higher", "service.service", "throughput_qps on light-distinct"),
    ("cache.hit_rate", "ratio", "higher", "service.cache",
     "latency_p50_ms on hot-keepalive-route"),
    ("cache.evictions", "count", "lower", "service.cache", "latency_p50_ms on hot-keepalive-route"),
    ("cache.invalidations", "count", "lower", "service.cache",
     "latency_p50_ms on hot-keepalive-route"),
    ("cache.expirations", "count", "lower", "service.cache",
     "latency_p50_ms on hot-keepalive-route"),
    ("admission.rejected", "count", "lower", "service.admission", "success_rate everywhere"),
    ("caching.subpath_hit_rate", "ratio", "higher", "engine.caching",
     "latency_p50_ms on heavy-broad"),
    ("caching.row_cache_hit_rate", "ratio", "higher", "engine.caching",
     "latency_p50_ms on heavy-broad"),
    ("query.parse_ms", "ms", "lower", "query.parser", "latency_p50_ms on light-distinct"),
    ("query.validate_ms", "ms", "lower", "query.semantics", "latency_p50_ms on light-distinct"),
    ("evaluator.set_eval_ms.p50", "ms", "lower", "engine.evaluator",
     "latency_p50_ms on heavy-broad"),
    ("evaluator.set_eval_ms.p99", "ms", "lower", "engine.evaluator",
     "latency_p99_ms on heavy-broad"),
    ("evaluator.candidates_per_query", "count", "lower", "engine.evaluator",
     "latency_p50_ms on heavy-broad"),
    ("evaluator.reference_per_query", "count", "lower", "engine.evaluator",
     "latency_p50_ms on heavy-broad"),
    ("strategies.materialize_ms.p50", "ms", "lower", "engine.strategies",
     "latency_p50_ms on heavy-broad"),
    ("strategies.materialize_ms.p99", "ms", "lower", "engine.strategies",
     "latency_p99_ms on heavy-broad"),
    ("strategies.phi_nnz_per_query", "count", "lower", "engine.strategies",
     "latency_p50_ms on heavy-broad"),
    ("measures.score_ms.p50", "ms", "lower", "core.measures", "latency_p50_ms on heavy-broad"),
    ("measures.score_ms.p99", "ms", "lower", "core.measures", "latency_p99_ms on heavy-broad"),
    ("results.rank_ms", "ms", "lower", "core.results", "latency_p50_ms on heavy-broad"),
    ("results.serialize_ms", "ms", "lower", "core.results",
     "latency_p50_ms on heavy-broad and light-distinct"),
    ("executor.execute_ms.p50", "ms", "lower", "engine.executor", "latency_p50_ms on heavy-broad"),
    ("executor.execute_ms.p99", "ms", "lower", "engine.executor", "latency_p99_ms on heavy-broad"),
    ("executor.unattributed_ms", "ms", "lower", "engine.executor",
     "latency_p50_ms on heavy-broad"),
    ("trace.overhead_pct", "%", "lower", "benchmark", "none; it validates the traced run"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def median(values) -> float:
    """Median, 0.0 for no values (a layer the workload does not reach)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def p99(values) -> tuple[float, int]:
    """Nearest-rank 99th percentile and the number of samples beyond it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0
    rank = math.ceil(0.99 * len(ordered))
    return float(ordered[rank - 1]), len(ordered) - rank


def chunked_p99(values, max_chunks: int) -> tuple[float, int]:
    """Median of the p99s of consecutive chunks of at least 1,000 samples,
    so each chunk leaves 10 or more samples beyond its p99; one chunk (the
    plain p99) when there are fewer than 2,000.  Returns the value and the
    number of chunks."""
    values = list(values)
    chunks = max(1, min(max_chunks, len(values) // 1000))
    size = len(values) // chunks
    tails = [
        p99(values[i * size : (i + 1) * size if i + 1 < chunks else len(values)])[0]
        for i in range(chunks)
    ]
    return median(tails), chunks


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def result_line(values: dict[str, float], *, correct: bool, attempted: int,
                failed: int) -> dict:
    """The final JSON object the driver reads."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in values.items()
        },
    }
