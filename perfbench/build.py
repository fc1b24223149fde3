"""Corpora, query pools and the correctness oracle, built once per checkout.

The first run in a checkout writes both networks as JSON, draws a fixed
pool of executable queries for each corpus, and computes every pool
query's expected ``result`` payload in-process with
:class:`~repro.engine.detector.OutlierDetector` on the same network file.
Only digests of the payloads are kept.  Later runs read the cache; each
run's ``--seed`` then picks and orders requests from the pools
(:mod:`workloads`), so the servers only ever see generated query bodies.

Two digests per query:

``fast``
    blake2b of ``json.dumps(result.to_dict())`` -- the exact bytes a server
    writes between ``{"result": `` and ``, "cached": ``, so a response can
    be checked without parsing it while the clock runs.
``canonical``
    blake2b of the payload re-serialized with sorted keys; the fallback
    check for a response whose framing differs from the above.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

#: Bump when the pools or corpora change meaning; stale caches are rebuilt.
CACHE_VERSION = 3


@dataclass(frozen=True)
class Scale:
    """How big the corpora and pools are.

    ``full`` is the benchmark; ``quick`` is the tiny variant the self-tests
    run.  ``heavy_corpus`` holds :class:`StreamingCorpusConfig` fields.
    """

    name: str
    heavy_corpus: dict
    ego_authors: int | None
    ego_top_k: tuple[int, ...]
    heavy_queries: int


FULL = Scale(
    name="full",
    # One twentieth of the StreamingCorpusConfig defaults: 53,750
    # vertices.  Papers per venue, and so candidates per venue-anchored
    # query, stay those of the full corpus; the set-up (JSON load + PM
    # build) stays the largest of the workloads.
    heavy_corpus={
        "num_papers": 30_000,
        "num_authors": 17_500,
        "num_venues": 250,
        "num_terms": 6_000,
        "chunk_papers": 10_000,
    },
    ego_authors=None,
    ego_top_k=(3, 5, 8, 10, 12, 15, 20, 25, 30, 40),
    heavy_queries=4000,
)

QUICK = Scale(
    name="quick",
    heavy_corpus={
        "num_papers": 3000,
        "num_authors": 1750,
        "num_venues": 25,
        "num_terms": 600,
        "chunk_papers": 3000,
    },
    ego_authors=60,
    ego_top_k=(5, 10),
    heavy_queries=60,
)

#: Seed of the corpora and of the pool draws.  Fixed, so a pool is one
#: universe that every run's ``--seed`` samples from.
CORPUS_SEED = 0

#: Table 4 templates (paper §7.1) with the TOP k left open.
TABLE4_TEMPLATES = {
    "Q1": 'FIND OUTLIERS FROM author{{"{anchor}"}}.paper.author\n'
    "JUDGED BY author.paper.venue\nTOP {k};",
    "Q2": 'FIND OUTLIERS IN author{{"{anchor}"}}.paper.venue\n'
    "JUDGED BY venue.paper.term\nTOP {k};",
    "Q3": 'FIND OUTLIERS IN author{{"{anchor}"}}.paper.term\n'
    "JUDGED BY term.paper.venue\nTOP {k};",
}

#: Broad queries over the large corpus: hundreds to thousands of
#: candidates each, so materialization and scoring dominate.
HEAVY_TEMPLATES = {
    "venue-by-venue": 'FIND OUTLIERS FROM venue{{"{a}"}}.paper.author '
    "JUDGED BY author.paper.venue TOP {k};",
    "venue-by-term": 'FIND OUTLIERS FROM venue{{"{a}"}}.paper.author '
    "JUDGED BY author.paper.term TOP {k};",
    "term-vs-venue": 'FIND OUTLIERS FROM term{{"{a}"}}.paper.author '
    'COMPARED TO venue{{"{b}"}}.paper.author '
    "JUDGED BY author.paper.venue TOP {k};",
    "apvpa": 'FIND OUTLIERS FROM author{{"{a}"}}.paper.venue.paper.author '
    "JUDGED BY author.paper.venue TOP {k};",
}


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def payload_digests(result_dict: dict) -> tuple[str, str]:
    """The ``(fast, canonical)`` digests of one ``result`` payload."""
    fast = digest(json.dumps(result_dict).encode("utf-8"))
    canonical = digest(
        json.dumps(result_dict, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
    )
    return fast, canonical


@dataclass(frozen=True)
class Cache:
    """Paths of one built cache."""

    directory: Path
    scale: Scale

    @property
    def ego_json(self) -> Path:
        return self.directory / "ego.json"

    @property
    def heavy_json(self) -> Path:
        return self.directory / "heavy.json"

    def network_json(self, corpus: str) -> Path:
        return self.ego_json if corpus == "ego" else self.heavy_json

    def pool_path(self, corpus: str) -> Path:
        return self.directory / f"pool-{corpus}.json"

    @property
    def manifest(self) -> Path:
        return self.directory / "manifest.json"

    def load_pool(self, corpus: str) -> list[list]:
        """Pool entries ``[query, kind, fast_digest, canonical_digest, work]``
        where ``work`` is candidates + references, a deterministic proxy
        of a query's cost."""
        return json.loads(self.pool_path(corpus).read_text())


def _source_digest(root: Path) -> str:
    """Digest of the program's source: the oracle is the program's own
    in-process answer, so it is rebuilt whenever the program changes."""
    hasher = hashlib.blake2b(digest_size=16)
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        hasher.update(str(path.relative_to(root)).encode("utf-8"))
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def ensure_built(root: Path, cache_dir: Path, scale: Scale, log=print) -> Cache:
    """Build the cache under ``cache_dir/scale.name`` unless it is current."""
    cache = Cache(cache_dir / scale.name, scale)
    expected = json.dumps(
        {
            "version": CACHE_VERSION,
            "corpus_seed": CORPUS_SEED,
            "scale": asdict(scale),
            "source": _source_digest(root),
        }
    )
    if cache.manifest.exists() and cache.manifest.read_text() == expected:
        return cache
    cache.directory.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    _write_ego(root, cache)
    _write_heavy(cache)
    _write_pool(cache, "ego", cache.ego_json, _ego_queries)
    _write_pool(cache, "heavy", cache.heavy_json, _heavy_queries)
    _atomic_write(cache.manifest, expected)
    log(f"# built {cache.directory} in {time.perf_counter() - started:.1f}s")
    return cache


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_ego(root: Path, cache: Cache) -> None:
    # The CLI path the issue names: `repro generate --preset ego`.
    tmp = cache.ego_json.with_suffix(".json.tmp")
    subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "generate",
            "--preset",
            "ego",
            "--seed",
            str(CORPUS_SEED),
            "--out",
            str(tmp),
        ],
        check=True,
        stdout=subprocess.DEVNULL,
        env=repro_env(root),
        timeout=300,
    )
    os.replace(tmp, cache.ego_json)


def _write_heavy(cache: Cache) -> None:
    from repro.datagen.synthetic import (
        StreamingCorpusConfig,
        streaming_bibliographic_network,
    )
    from repro.hin.io import save_json

    network = streaming_bibliographic_network(
        StreamingCorpusConfig(**cache.scale.heavy_corpus), seed=CORPUS_SEED
    )
    tmp = cache.heavy_json.with_suffix(".json.tmp")
    save_json(network, tmp)
    os.replace(tmp, cache.heavy_json)


def _ego_queries(network, scale: Scale):
    authors = sorted(network.vertex_names("author"))
    if scale.ego_authors is not None:
        rng = np.random.default_rng(CORPUS_SEED)
        picked = rng.choice(len(authors), size=scale.ego_authors, replace=False)
        authors = [authors[int(i)] for i in sorted(picked)]
    for anchor in authors:
        escaped = anchor.replace("\\", "\\\\").replace('"', '\\"')
        for kind, template in TABLE4_TEMPLATES.items():
            for k in scale.ego_top_k:
                yield kind, template.format(anchor=escaped, k=k)


def _heavy_queries(network, scale: Scale):
    rng = np.random.default_rng(CORPUS_SEED)
    names = {
        vertex_type: network.vertex_names(vertex_type)
        for vertex_type in ("author", "venue", "term")
    }
    anchor_types = {
        "venue-by-venue": ("venue", None),
        "venue-by-term": ("venue", None),
        "term-vs-venue": ("term", "venue"),
        "apvpa": ("author", None),
    }
    kinds = list(HEAVY_TEMPLATES)
    for position in range(scale.heavy_queries):
        kind = kinds[position % len(kinds)]
        first, second = anchor_types[kind]
        a = names[first][int(rng.integers(len(names[first])))]
        b = (
            names[second][int(rng.integers(len(names[second])))]
            if second is not None
            else ""
        )
        k = int(rng.integers(1, 21))
        yield kind, HEAVY_TEMPLATES[kind].format(a=a, b=b, k=k)


def _write_pool(cache: Cache, name: str, network_path: Path, generate) -> None:
    """Execute every generated query once; keep those that succeed."""
    from repro.engine.detector import OutlierDetector
    from repro.exceptions import ReproError
    from repro.hin.io import load_json

    network = load_json(network_path)
    detector = OutlierDetector(network, strategy="pm")
    seen: set[str] = set()
    entries = []
    for kind, query in generate(network, cache.scale):
        if query in seen:
            continue
        seen.add(query)
        try:
            result = detector.detect(query)
        except ReproError:
            # Empty candidate or reference sets: the server would answer
            # 422, which says nothing about the program's speed.
            continue
        fast, canonical = payload_digests(result.to_dict())
        work = result.candidate_count + result.reference_count
        entries.append([query, kind, fast, canonical, work])
    _atomic_write(cache.pool_path(name), json.dumps(entries))


def repro_env(root: Path) -> dict:
    """Environment for child processes that import ``repro`` from source."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env
