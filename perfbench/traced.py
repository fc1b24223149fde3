"""The traced run: the per-layer table of one workload.

Phases, each about a quarter of ``--seconds``:

1. **HTTP pass** against the workload's real server: ``/stats`` before and
   after give the server-side counters, and client latency minus the
   body's own ``elapsed_ms`` gives the HTTP overhead.
2. **Untraced replay** of the request list through an in-process
   ``EngineHandle`` + ``QueryService`` (thread backend), one request at a
   time.
3. **Traced replay** of the same requests through a fresh service with the
   span wrappers of :mod:`spans` installed.  Phases 2 and 3 give
   ``trace.overhead_pct``.
4. **Router replay** (routed workloads only): ``Router.route_query``
   in-process against real ``repro serve`` replicas started by an
   in-process ``ReplicaSupervisor``.

The spans of phases 3 and 4 are written, one JSON object per line, to
``<cache-dir>/traces/<workload>-seed<seed>.jsonl`` when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from multiprocessing import resource_tracker
from collections import defaultdict
from pathlib import Path

from build import Cache, digest, repro_env
from client import closed_loop, payload_matches
from metrics import PER_LAYER, mean, median, p99
from server import launch, stats_snapshot
from spans import (
    Instrumentation,
    Span,
    SpanRecorder,
    accounting_errors,
    instrument_router,
    instrument_service_and_engine,
    self_times_ms,
)
from workloads import Request, Workload


def _make_service(network, workload: Workload):
    from repro.service import QueryService, ServiceConfig

    # The CLI's serve defaults, on the thread backend.
    config = ServiceConfig(workers=workload.workers, backend="thread")
    return QueryService.from_network(network, config, strategy="pm")


def _replay(service, requests: list[Request], *, seconds=None, count=None,
            recorder: SpanRecorder | None = None) -> dict:
    """Send requests one at a time; returns latencies and correctness."""
    from repro.exceptions import ReproError

    latencies, counts, failed = [], [], 0
    deadline = time.perf_counter() + seconds if seconds is not None else None
    index = 0
    while (count is None or index < count) and (
        deadline is None or time.perf_counter() < deadline
    ):
        request = requests[index % len(requests)]
        token = recorder.begin_request(index) if recorder is not None else None
        sent = time.perf_counter()
        try:
            result = service.execute(request.query)
            if recorder is not None:
                with recorder.span("results.serialize"):
                    payload = json.dumps(result.to_dict())
            else:
                payload = json.dumps(result.to_dict())
        except ReproError:
            payload = None
        latencies.append((time.perf_counter() - sent) * 1e3)
        if token is not None:
            recorder.end_request(token)
        if payload is None or digest(payload.encode("utf-8")) != request.fast.decode():
            failed += 1
        else:
            counts.append((result.candidate_count, result.reference_count))
        index += 1
    return {"latencies_ms": latencies, "failed": failed, "attempted": index,
            "counts": counts}


def _stats_delta(before: list[dict], after: list[dict], routed: bool) -> dict:
    """Counter deltas summed over replicas (and the router's own)."""
    replicas = slice(1, None) if routed else slice(0, None)

    def total(snapshots, section, key):
        return sum(snap[section][key] for snap in snapshots[replicas])

    def delta(section, key):
        return total(after, section, key) - total(before, section, key)

    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    counters = {
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions": delta("cache", "evictions"),
        "cache.invalidations": delta("cache", "invalidations"),
        "cache.expirations": delta("cache", "expirations"),
        "admission.rejected": delta("admission", "shed"),
        "service.coalesced": delta("service", "coalesced"),
        "backends.failures": delta("service", "failed"),
        "router.failovers": 0,
        "router.breaker_skips": 0,
    }
    if routed:
        for key in ("failovers", "breaker_skips"):
            counters[f"router.{key}"] = (
                after[0]["router"][key] - before[0]["router"][key]
            )
    return counters


def _http_pass(root: Path, workload: Workload, network_path: Path, env: dict,
               requests: list[Request], seconds: float) -> tuple[dict, dict, int]:
    server = launch(root, workload.serve_args, network_path, env)
    try:
        warm = closed_loop(server.port, requests, clients=workload.clients,
                           max_requests=workload.warmup, keepalive=False)
        before = stats_snapshot(server, workload.routed)
        loop = closed_loop(server.port, requests, clients=workload.clients,
                           seconds=seconds, keepalive=workload.keepalive,
                           start_index=warm.next_index, server_elapsed=True)
        after = stats_snapshot(server, workload.routed)
    finally:
        server.stop()
    overhead_p99, _ = p99(loop.overhead_ms)
    values = {
        "http.overhead_ms.p50": median(loop.overhead_ms),
        "http.overhead_ms.p99": overhead_p99,
        "http.response_kb": mean(loop.response_bytes) / 1024.0,
        **_stats_delta(before, after, workload.routed),
    }
    outcome = {"attempted": warm.attempted + loop.attempted,
               "failed": warm.failed + loop.failed}
    return values, outcome, loop.attempted


def _router_pass(root: Path, workload: Workload, network_path: Path,
                 requests: list[Request], seconds: float
                 ) -> tuple[dict, dict, list[Span]]:
    from repro.service import ReplicaSupervisor, Router

    commands = ReplicaSupervisor.serve_commands(
        sys.executable, str(network_path), workload.replicas,
        serve_args=["--backend", workload.backend, "--workers", str(workload.workers)],
    )
    router = Router(list(commands))
    supervisor = ReplicaSupervisor(commands, on_up=router.set_replica_address,
                                   on_down=router.mark_replica_down,
                                   env=repro_env(root))
    recorder = SpanRecorder()
    instrumentation = Instrumentation(recorder)
    attempts, failed, sent = [], 0, 0
    started = time.perf_counter()
    supervisor.start()
    try:
        while router.healthy_count() < workload.replicas:
            if time.perf_counter() - started > 120:
                raise RuntimeError("replicas did not come up")
            time.sleep(0.005)
        ready_s = time.perf_counter() - started
        instrument_router(instrumentation)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            request = requests[sent % len(requests)]
            token = recorder.begin_request(sent)
            routed = router.route_query(request.body)
            recorder.end_request(token)
            sent += 1
            attempts.append(routed.attempts)
            if routed.status != 200 or not payload_matches(request, routed.body):
                failed += 1
    finally:
        instrumentation.remove()
        supervisor.stop()
    spans = recorder.finished()
    self_ms = self_times_ms(spans)
    router_self = [self_ms[s.span_id] for s in spans if s.name == "router.route_query"]
    self_p99, _ = p99(router_self)
    values = {
        "supervisor.replicas_ready_s": ready_s,
        "router.self_ms.p50": median(router_self),
        "router.self_ms.p99": self_p99,
        "router.attempts_per_request": mean(attempts),
    }
    return values, {"attempted": sent, "failed": failed}, spans


def _span_metrics(spans: list[Span], backend_ms: list[float]) -> tuple[dict, dict]:
    by_name: dict[str, list] = defaultdict(list)
    names = {span.span_id: span.name for span in spans}
    for span in spans:
        # Outermost span of a name only (a strategy may delegate inward).
        if span.parent is None or names[span.parent] != span.name:
            by_name[span.name].append(span)
    self_ms = self_times_ms(spans)
    per_request: dict[object, dict[str, list]] = defaultdict(lambda: defaultdict(list))
    for name, group in by_name.items():
        for span in group:
            per_request[span.request][name].append(span)

    def durations(name):
        return [span.duration_ms for span in by_name[name]]

    def pair(name, values):
        high, _ = p99(values)
        return {f"{name}.p50": median(values), f"{name}.p99": high}

    engine_requests = [r for r in per_request.values() if r.get("handle.execute")]
    handoff = [
        r["service.execute"][0].duration_ms - r["handle.execute"][0].duration_ms
        for r in engine_requests
        if r.get("service.execute")
    ]
    nnz = [
        sum(span.count for span in r.get("strategies.materialize", ()))
        for r in engine_requests
    ]
    values = {
        "index.build_s": sum(durations("index.build")) / 1e3,
        "keys.canonical_key_ms": median(durations("keys.canonical_key")),
        "service.submit_ms": median(durations("service.submit")),
        **pair("service.handoff_ms", handoff),
        **pair("backends.execute_ms", backend_ms),
        "query.parse_ms": median(durations("query.parse")),
        "query.validate_ms": median(durations("query.validate")),
        **pair("evaluator.set_eval_ms", durations("evaluator.set_eval")),
        **pair("strategies.materialize_ms", durations("strategies.materialize")),
        "strategies.phi_nnz_per_query": mean(nnz),
        **pair("measures.score_ms", durations("measures.score")),
        "results.rank_ms": median(durations("results.rank")),
        "results.serialize_ms": median(durations("results.serialize")),
        **pair("executor.execute_ms", durations("executor.execute")),
        "executor.unattributed_ms": median(
            self_ms[span.span_id] for span in by_name["executor.execute"]
        ),
    }
    errors = accounting_errors(spans, "executor.execute")
    table = {
        name: {
            "calls": len(group),
            "p50_ms": median(s.duration_ms for s in group),
            "self_p50_ms": median(self_ms[s.span_id] for s in group),
            "self_total_ms": sum(self_ms[s.span_id] for s in group),
        }
        for name, group in sorted(by_name.items())
    }
    details = {
        "spans": len(spans),
        "engine_requests": len(engine_requests),
        "accounting_error_max": max(errors, default=0.0),
        "span_table": table,
    }
    return values, details


def _write_spans(path: Path, passes: dict[str, list[Span]]) -> None:
    """A header line of field names, then one JSON array per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        handle.write(json.dumps(["pass", *Span._fields]) + "\n")
        for name, spans in passes.items():
            for span in spans:
                handle.write(json.dumps([name, *span]) + "\n")


def run_traced(root: Path, cache: Cache, workload: Workload,
               requests: list[Request], seconds: float,
               spans_path: Path) -> tuple[dict, dict, dict]:
    """Returns ``(per-layer values, outcome, report details)``; the spans
    themselves go to ``spans_path``."""
    from repro.hin.io import load_json
    from repro.service.backends import make_backend

    env = repro_env(root)
    network_path = cache.network_json(workload.corpus)
    phase = seconds / 4.0
    values, outcome, http_samples = _http_pass(
        root, workload, network_path, env, requests, phase
    )

    started = time.perf_counter()
    network = load_json(network_path)
    values["io.load_json_s"] = time.perf_counter() - started

    service = _make_service(network, workload)
    try:
        untraced = _replay(service, requests, seconds=phase)
    finally:
        service.close()
    del service

    recorder = SpanRecorder()
    instrumentation = Instrumentation(recorder)
    instrument_service_and_engine(instrumentation)
    try:
        service = _make_service(network, workload)
        try:
            traced = _replay(service, requests, count=untraced["attempted"],
                             recorder=recorder)
            handle = service.handle
            subpath = handle.subpath_cache.snapshot() if handle.subpath_cache else {}
            rows = handle.row_cache.snapshot() if handle.row_cache else {}
        finally:
            service.close()
    finally:
        instrumentation.remove()

    started = time.perf_counter()
    backend = make_backend(handle, backend=workload.backend, workers=workload.workers)
    values["backends.spawn_s"] = time.perf_counter() - started
    backend.close()
    # A process backend starts the stdlib's shared-memory tracker in this
    # process; stop it too, so no process of the run outlives the run.
    resource_tracker._resource_tracker._stop()
    values["index.size_mb"] = handle.index_size_bytes() / 1e6

    spans = recorder.finished()
    span_values, details = _span_metrics(spans, recorder.samples["backends.execute"])
    values.update(span_values)
    values["caching.subpath_hit_rate"] = subpath.get("hit_rate", 0.0)
    values["caching.row_cache_hit_rate"] = rows.get("hit_rate", 0.0)
    values["evaluator.candidates_per_query"] = mean(c for c, _ in traced["counts"])
    values["evaluator.reference_per_query"] = mean(r for _, r in traced["counts"])
    values["trace.overhead_pct"] = (
        median(traced["latencies_ms"]) / median(untraced["latencies_ms"]) - 1.0
    ) * 100.0

    for run in (untraced, traced):
        outcome["attempted"] += run["attempted"]
        outcome["failed"] += run["failed"]

    router_spans: list[Span] = []
    values.update({"supervisor.replicas_ready_s": 0.0, "router.self_ms.p50": 0.0,
                   "router.self_ms.p99": 0.0, "router.attempts_per_request": 0.0})
    if workload.routed:
        router_values, router_outcome, router_spans = _router_pass(
            root, workload, network_path, requests, phase
        )
        values.update(router_values)
        outcome["attempted"] += router_outcome["attempted"]
        outcome["failed"] += router_outcome["failed"]

    _write_spans(spans_path, {"replay": spans, "router": router_spans})
    details.update(
        spans_file=str(spans_path),
        http_samples=http_samples,
        replay_samples=untraced["attempted"],
        router_samples=sum(1 for s in router_spans if s.name == "router.route_query"),
    )
    ordered = {name: float(values[name]) for name, *_ in PER_LAYER}
    return ordered, outcome, details
