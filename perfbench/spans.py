"""Span recording around the public functions of each ``repro`` layer.

The wrappers live here, in the benchmark, and are installed only for the
traced replay; the program itself is not changed.  Spans stay in memory
until the run ends.

A span's request id comes from a :mod:`contextvars` variable set by the
replay loop.  Backend worker threads do not inherit it, so they fall back
to the request the loop began last -- unambiguous because the traced
replay sends one request at a time.  A span's parent is the innermost
open span of its own thread; a thread's first span of a request nests
under the request's outermost open span, so a worker's
``EngineHandle.execute`` is a child of the ``QueryService.execute`` its
caller is blocked in.
"""

from __future__ import annotations

import contextvars
import functools
import http.client
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    span_id: int
    request: int | None
    name: str
    parent: int | None
    start_ns: int
    end_ns: int
    #: The layer's work count where one is recorded (materialized nnz).
    count: int | None

    @property
    def duration_ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class SpanRecorder:
    """Collects spans and side samples (durations that are not spans).

    Finished spans are kept as plain tuples of numbers and strings, which
    the garbage collector stops tracking, so a long trace does not make
    every later collection slower; :meth:`finished` wraps them as
    :class:`Span` for analysis.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._lock = threading.Lock()
        self._open: dict[int | None, list[int]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request = contextvars.ContextVar("perfbench_request", default=None)
        self._last_request: int | None = None

    def begin_request(self, request_id: int) -> contextvars.Token:
        self._last_request = request_id
        return self._request.set(request_id)

    def end_request(self, token: contextvars.Token) -> None:
        self._request.reset(token)

    def open(self, name: str) -> list:
        request = self._request.get()
        if request is None:
            request = self._last_request
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        with self._lock:
            span_id = next(self._ids)
            open_spans = self._open.setdefault(request, [])
            if stack:
                parent = stack[-1]
            else:
                parent = open_spans[0] if open_spans else None
            open_spans.append(span_id)
        stack.append(span_id)
        return [span_id, request, name, parent, time.perf_counter_ns()]

    def close(self, token: list, count: int | None = None) -> None:
        end_ns = time.perf_counter_ns()
        self._local.stack.pop()
        span_id, request = token[0], token[1]
        with self._lock:
            open_spans = self._open[request]
            open_spans.remove(span_id)
            if not open_spans:
                del self._open[request]
            self.spans.append((*token, end_ns, count))

    @contextmanager
    def span(self, name: str):
        token = self.open(name)
        try:
            yield
        finally:
            self.close(token)

    def finished(self) -> list[Span]:
        return [Span(*record) for record in self.spans]


class Instrumentation:
    """Installs span wrappers on ``repro`` functions; ``remove`` undoes it."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, value) -> None:
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def _wrap(self, name: str, func, count=None):
        recorder = self.recorder

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            token = recorder.open(name)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                recorder.close(
                    token, count(result) if count and result is not None else None
                )

        return wrapper

    def function(self, func, name: str, count=None) -> None:
        """Wrap a module-level function in every ``repro`` module that
        holds a reference to it (callers import it by name)."""
        wrapped = self._wrap(name, func, count)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._replace(module, attr, wrapped)

    def method(self, base: type, attr: str, name: str, count=None) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass overriding it."""
        for cls, raw in _definitions(base, attr):
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, count))
            else:
                wrapped = self._wrap(name, raw, count)
            self._replace(cls, attr, wrapped)

    def backend_submit(self, base: type) -> None:
        """Time each backend task from ``submit`` to its future resolving."""
        samples = self.recorder.samples["backends.execute"]
        for cls, raw in _definitions(base, "submit"):

            def wrapper(backend, query_text, _raw=raw):
                started = time.perf_counter_ns()
                future = _raw(backend, query_text)
                future.add_done_callback(
                    lambda _f: samples.append((time.perf_counter_ns() - started) / 1e6)
                )
                return future

            self._replace(cls, "submit", wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _definitions(base: type, attr: str):
    """``(class, raw attribute)`` for ``base`` and each subclass defining
    ``attr`` itself."""
    seen, frontier = set(), [base]
    while frontier:
        cls = frontier.pop()
        if cls in seen:
            continue
        seen.add(cls)
        frontier.extend(cls.__subclasses__())
        if attr in vars(cls):
            yield cls, vars(cls)[attr]


def instrument_service_and_engine(instrumentation: Instrumentation) -> None:
    """Spans from ``QueryService`` down to ranking (see the module doc)."""
    from repro.core.measures import Measure
    from repro.core.results import OutlierResult
    from repro.engine import index
    from repro.engine.evaluator import SetEvaluator
    from repro.engine.executor import QueryExecutor
    from repro.engine.strategies import MaterializationStrategy
    from repro.query.parser import parse_query
    from repro.query.semantics import validate_query
    from repro.service.backends import ExecutionBackend
    from repro.service.cache import ResultCache
    from repro.service.handle import EngineHandle
    from repro.service.keys import canonical_query_key
    from repro.service.service import QueryService

    add = instrumentation
    add.function(canonical_query_key, "keys.canonical_key")
    add.function(parse_query, "query.parse")
    add.function(validate_query, "query.validate")
    add.function(index.build_pm_index, "index.build")
    add.function(index.build_spm_index, "index.build")
    add.method(QueryService, "submit", "service.submit")
    add.method(QueryService, "execute", "service.execute")
    add.method(ResultCache, "get", "cache.get")
    add.method(ResultCache, "put", "cache.put")
    add.backend_submit(ExecutionBackend)
    add.method(EngineHandle, "execute", "handle.execute")
    add.method(QueryExecutor, "execute", "executor.execute")
    add.method(SetEvaluator, "evaluate", "evaluator.set_eval")
    add.method(
        MaterializationStrategy,
        "neighbor_matrix",
        "strategies.materialize",
        count=lambda matrix: int(matrix.nnz),
    )
    add.method(Measure, "score", "measures.score")
    add.method(OutlierResult, "from_scores", "results.rank")
    add.method(OutlierResult, "to_dict", "results.to_dict")


def instrument_router(instrumentation: Instrumentation) -> None:
    """``Router.route_query`` and, under it, the replica round trip."""
    from repro.service.router import Router

    add = instrumentation
    add.method(Router, "route_query", "router.route_query")
    for attr in ("connect", "request", "getresponse"):
        add.method(http.client.HTTPConnection, attr, "router.replica_rtt")
    add.method(http.client.HTTPResponse, "read", "router.replica_rtt")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def _covered_ns(start: int, end: int, intervals) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    covered, cursor = 0, start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            covered += high - low
            cursor = high
    return covered


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def self_times_ms(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its children cover."""
    children = _children(spans)
    return {
        span.span_id: (
            span.end_ns
            - span.start_ns
            - _covered_ns(
                span.start_ns,
                span.end_ns,
                [(c.start_ns, c.end_ns) for c in children[span.span_id]],
            )
        )
        / 1e6
        for span in spans
    }


def accounting_errors(spans: list[Span], root_name: str) -> list[float]:
    """For every ``root_name`` span: |self + descendants' self - duration|
    as a share of its duration.  Near zero when children nest inside
    their parents and siblings do not overlap."""
    self_ms = self_times_ms(spans)
    children = _children(spans)
    errors = []
    for root in spans:
        if root.name != root_name or root.end_ns == root.start_ns:
            continue
        total, frontier = 0.0, [root]
        while frontier:
            span = frontier.pop()
            total += self_ms[span.span_id]
            frontier.extend(children[span.span_id])
        errors.append(abs(total - root.duration_ms) / root.duration_ms)
    return errors
