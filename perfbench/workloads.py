"""The benchmark's workloads and their seeded request lists.

Every workload is a closed loop of one or two client connections against
a real ``repro serve`` / ``repro route`` process.  Requests are drawn from the
pools of :mod:`build` by ``--seed``; the draw parameters are recorded in
each run's report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: Zipf exponent and working-set size of the hot workload.
HOT_ZIPF_S = 1.1
HOT_SET = 50
#: Length of the hot workload's Zipf draw; the loop wraps around it.
HOT_DRAWS = 20_000
#: Queries of one kind and similar work per stratum of a distinct-key draw.
STRATUM = 40


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: str  # "ego" or "heavy"; also names the query pool
    #: "distinct" (every key once) or "hot" (Zipf over a small hot set).
    draw: str
    #: Connections (and client threads) of the closed loop.
    clients: int
    keepalive: bool
    backend: str
    workers: int
    #: Requests sent before the clock starts (over fresh connections).
    warmup: int
    #: Replicas behind ``repro route``; 0 serves with ``repro serve``.
    replicas: int = 0

    @property
    def routed(self) -> bool:
        return self.replicas > 0

    @property
    def serve_args(self) -> tuple[str, ...]:
        """``repro`` argv of the server, minus ``--network`` and ``--port``."""
        engine = ("--backend", self.backend, "--workers", str(self.workers))
        if self.routed:
            return ("route", "--replicas", str(self.replicas), *engine)
        return ("serve", "--strategy", "pm", *engine)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="light-distinct",
            why="distinct cheap Q1-Q3 keys on the ego corpus, a connection per "
            "request: per-request overhead outside the engine dominates",
            corpus="ego",
            draw="distinct",
            # One connection: a second only queues behind the first on
            # the GIL-bound server (throughput +5%, median latency x1.9),
            # and that queueing amplified host noise run to run.
            clients=1,
            keepalive=False,
            backend="thread",
            workers=2,
            warmup=200,
        ),
        Workload(
            name="hot-keepalive-route",
            why="Zipf over 50 Q1 keys through repro route on keep-alive "
            "connections: result-cache hits, so router and transport dominate",
            corpus="ego",
            draw="hot",
            clients=2,
            keepalive=True,
            backend="thread",
            workers=1,
            warmup=300,
            replicas=2,
        ),
        Workload(
            name="heavy-broad",
            why="distinct broad queries on a 53,750-vertex corpus behind the "
            "process backend: materialization and scoring dominate",
            corpus="heavy",
            draw="distinct",
            clients=2,
            keepalive=False,
            backend="process",
            workers=2,
            warmup=40,
        ),
    )
}


@dataclass(frozen=True)
class Request:
    query: str
    body: bytes
    fast: bytes  # hex digest, see build.payload_digests
    canonical: str


def _request(entry: list) -> Request:
    query, _kind, fast, canonical, _work = entry
    return Request(
        query=query,
        body=json.dumps({"query": query}).encode("utf-8"),
        fast=fast.encode("ascii"),
        canonical=canonical,
    )


def _stratified_order(pool: list[list], rng: np.random.Generator) -> list[int]:
    """A seeded order of the pool whose every prefix has about the pool's mix.

    Queries are grouped by kind and work into strata of ``STRATUM``; the
    order is a series of rounds, each taking one random unused query from
    every stratum.  A run then sends nearly the same mix of cheap and
    expensive queries whatever the seed, and the seed changes which
    queries, not how much work, a run sends.
    """
    by_kind: dict[str, list[int]] = {}
    for position, entry in enumerate(pool):
        by_kind.setdefault(entry[1], []).append(position)
    strata = []
    for kind in sorted(by_kind):
        members = sorted(by_kind[kind], key=lambda i: (pool[i][4], pool[i][0]))
        strata += [members[i : i + STRATUM] for i in range(0, len(members), STRATUM)]
    for stratum in strata:
        rng.shuffle(stratum)
    order = []
    for round_index in range(STRATUM):
        batch = [s[round_index] for s in strata if round_index < len(s)]
        rng.shuffle(batch)
        order += batch
    return order


def request_list(
    workload: Workload, pool: list[list], seed: int
) -> tuple[list[Request], dict]:
    """The seeded request sequence of one run, and how it was drawn.

    Distinct-key workloads send a seeded, stratified permutation of their
    pool, so no key repeats until the pool is exhausted; the pools are
    larger than a run at the seed code's rate, and a wrap-around comes
    back to a key long evicted from the 1,024-entry result cache.
    """
    rng = np.random.default_rng(seed)
    if workload.draw == "distinct":
        order = _stratified_order(pool, rng)
        requests = [_request(pool[i]) for i in order]
        return requests, {
            "seed": seed,
            "draw": "stratified permutation of the pool",
            "stratum": STRATUM,
            "pool_size": len(pool),
        }
    # Hot set: one Q1 query per author (TOP 10), Zipf-weighted by rank.
    q1 = [entry for entry in pool if entry[1] == "Q1" and entry[0].endswith("TOP 10;")]
    chosen = rng.choice(len(q1), size=min(HOT_SET, len(q1)), replace=False)
    hot = [_request(q1[int(i)]) for i in chosen]
    weights = 1.0 / np.arange(1, len(hot) + 1) ** HOT_ZIPF_S
    draws = rng.choice(len(hot), size=HOT_DRAWS, p=weights / weights.sum())
    return [hot[int(i)] for i in draws], {
        "seed": seed,
        "draw": "zipf over a hot set of Q1 queries",
        "zipf_s": HOT_ZIPF_S,
        "hot_set": len(hot),
        "draws": HOT_DRAWS,
        "pool_size": len(pool),
    }
