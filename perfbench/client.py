"""The closed-loop HTTP client and the per-response correctness check.

Each client thread sends its next request only after the previous answer
arrived.  Connections use stdlib ``http.client`` defaults; a keep-alive
workload reuses one connection per thread, every other workload opens a
new connection per request.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import re
import threading
import time
from dataclasses import dataclass, field

from build import digest
from workloads import Request

_RESULT_PREFIX = b'{"result": '
_RESULT_END = b', "cached": '
_ELAPSED = re.compile(rb'"elapsed_ms": ([0-9.eE+-]+)')
_HEADERS = {"Content-Type": "application/json"}


def _fast_digest(body: bytes) -> bytes | None:
    """Digest of the raw ``result`` bytes when the framing is the known one."""
    if not body.startswith(_RESULT_PREFIX):
        return None
    end = body.rfind(_RESULT_END)
    if end < 0:
        return None
    return (
        hashlib.blake2b(body[len(_RESULT_PREFIX) : end], digest_size=16)
        .hexdigest()
        .encode("ascii")
    )


def payload_matches(request: Request, body: bytes) -> bool:
    """Exact comparison of a 200 body's ``result`` with the oracle's."""
    if _fast_digest(body) == request.fast:
        return True
    # Framing differs or bytes differ: compare the parsed payload.
    try:
        result = json.loads(body)["result"]
    except (ValueError, KeyError, TypeError):
        return False
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return digest(canonical.encode("utf-8")) == request.canonical


@dataclass
class LoopResult:
    latencies_s: list[float] = field(default_factory=list)
    statuses: list[int] = field(default_factory=list)
    #: Client latency minus the body's ``elapsed_ms``, when asked for.
    overhead_ms: list[float] = field(default_factory=list)
    response_bytes: list[int] = field(default_factory=list)
    correct: int = 0
    mismatches: int = 0
    transport_errors: int = 0
    wall_s: float = 0.0
    next_index: int = 0

    @property
    def attempted(self) -> int:
        return len(self.statuses)

    @property
    def failed(self) -> int:
        return self.attempted - self.correct


def closed_loop(
    port: int,
    requests: list[Request],
    *,
    clients: int,
    seconds: float | None = None,
    max_requests: int | None = None,
    keepalive: bool,
    start_index: int = 0,
    server_elapsed: bool = False,
) -> LoopResult:
    """Drive ``requests`` (wrapping around) with ``clients`` threads.

    Stops issuing after ``seconds`` or ``max_requests``; requests in
    flight at that point complete and count.  The digest check of each
    body runs inline (microseconds); only a body that fails it is kept
    for the slower parsed comparison after the loop.
    """
    counter = itertools.count(start_index)
    lock = threading.Lock()
    finished: list[tuple] = []
    result = LoopResult()
    unmatched: list[tuple[Request, bytes]] = []
    started = time.perf_counter()
    deadline = started + seconds if seconds is not None else float("inf")
    stop_at = start_index + max_requests if max_requests is not None else None

    def worker() -> None:
        connection = None
        rows = []
        while time.perf_counter() < deadline:
            index = next(counter)
            if stop_at is not None and index >= stop_at:
                break
            request = requests[index % len(requests)]
            sent = time.perf_counter()
            try:
                if connection is None:
                    connection = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=120
                    )
                connection.request("POST", "/query", request.body, _HEADERS)
                response = connection.getresponse()
                body = response.read()
                status = response.status
            except (OSError, http.client.HTTPException):
                status, body = 0, b""
                if connection is not None:
                    connection.close()
                connection = None
            done = time.perf_counter()
            latency = done - sent
            if not keepalive and connection is not None:
                connection.close()
                connection = None
            matched = status == 200 and _fast_digest(body) == request.fast
            kept = (request, body) if status == 200 and not matched else None
            server_ms = None
            if server_elapsed and status == 200:
                found = _ELAPSED.search(body, max(0, len(body) - 200))
                server_ms = float(found.group(1)) if found else None
            rows.append(
                (done, index, latency, status, matched, kept, len(body), server_ms)
            )
        if connection is not None:
            connection.close()
        with lock:
            finished.extend(rows)

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall_s = time.perf_counter() - started
    result.next_index = start_index
    # Completion order, so a caller can cut the samples into slices.
    for row in sorted(finished, key=lambda row: row[0]):
        _done, index, latency, status, matched, kept, size, server_ms = row
        result.next_index = max(result.next_index, index + 1)
        result.latencies_s.append(latency)
        result.statuses.append(status)
        result.response_bytes.append(size)
        result.transport_errors += status == 0
        result.correct += matched
        if kept is not None:
            unmatched.append(kept)
        if server_ms is not None:
            result.overhead_ms.append(latency * 1e3 - server_ms)
    for request, body in unmatched:
        if payload_matches(request, body):
            result.correct += 1
        else:
            result.mismatches += 1
    return result
