"""Self-tests of the benchmark, on tiny corpora.

Run from the checkout root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from build import QUICK, ensure_built  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from spans import Span, SpanRecorder, accounting_errors, self_times_ms  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="session")
def quick_cache(tmp_path_factory) -> Path:
    cache_dir = tmp_path_factory.mktemp("perfbench-cache")
    ensure_built(ROOT, cache_dir, QUICK, log=lambda _text: None)
    return cache_dir


def _run(cache_dir: Path, workload: str, trace: int, seconds: float = 1.0):
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--quick",
            "--cache-dir", str(cache_dir),
        ],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=ROOT,
    )
    lines = completed.stdout.strip().splitlines()
    assert lines, completed.stderr
    reports = [line for line in lines if line.startswith("# report ")]
    report = json.loads(reports[-1][len("# report "):]) if reports else {}
    return completed.returncode, json.loads(lines[-1]), report


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in PER_LAYER
    ]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(quick_cache, workload):
    code, result, report = _run(quick_cache, workload, trace=0)
    assert code == 0, result
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit, *_ in END_TO_END
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["error_rate"] == 0.0
    assert report["generation"]["seed"] == 3 and report["why"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(quick_cache, workload):
    code, result, report = _run(quick_cache, workload, trace=1, seconds=2.0)
    assert code == 0, result
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit, *_ in PER_LAYER
    }
    # Child self times plus the executor's own time make up each
    # executor span.
    assert report["engine_requests"] > 0
    assert report["accounting_error_max"] <= 0.05
    if WORKLOADS[workload].routed:
        assert result["metrics"]["router.attempts_per_request"]["value"] >= 1


def test_corrupted_reference_payload_is_a_failure(quick_cache, tmp_path):
    corrupted = tmp_path / "cache"
    shutil.copytree(quick_cache, corrupted)
    pool_path = corrupted / QUICK.name / "pool-ego.json"
    pool = json.loads(pool_path.read_text())
    for entry in pool:
        entry[2] = entry[3] = "0" * 32
    pool_path.write_text(json.dumps(pool))
    code, result, report = _run(corrupted, "light-distinct", trace=0)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert report["mismatches"] == result["attempted"]


def test_self_time_is_duration_minus_covered_child_time():
    recorder = SpanRecorder()
    token = recorder.begin_request(0)
    parent = recorder.open("parent")
    for name in ("a", "b"):
        recorder.close(recorder.open(name))
    recorder.close(parent)
    recorder.end_request(token)
    spans = {span.name: span for span in recorder.finished()}
    assert spans["a"].parent == spans["parent"].span_id
    assert spans["b"].parent == spans["parent"].span_id
    self_ms = self_times_ms(list(spans.values()))
    children_ms = spans["a"].duration_ms + spans["b"].duration_ms
    assert self_ms[spans["parent"].span_id] == pytest.approx(
        spans["parent"].duration_ms - children_ms
    )
    assert max(accounting_errors(list(spans.values()), "parent")) < 1e-9


def test_worker_thread_span_nests_under_the_blocked_caller():
    recorder = SpanRecorder()
    token = recorder.begin_request(7)
    outer = recorder.open("service.execute")
    inner = recorder.open("service.submit")
    worker = threading.Thread(target=lambda: recorder.close(recorder.open("engine")))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    recorder.close(inner)
    recorder.close(outer)
    recorder.end_request(token)
    spans = {span.name: span for span in recorder.finished()}
    assert spans["engine"].request == 7
    assert spans["engine"].parent == spans["service.execute"].span_id


def test_overlapping_and_overhanging_children_are_counted_once():
    spans = [
        Span(1, 0, "p", None, 0, 100_000_000, None),
        Span(2, 0, "c", 1, 10_000_000, 30_000_000, None),
        Span(3, 0, "c", 1, 20_000_000, 50_000_000, None),
        Span(4, 0, "c", 1, 90_000_000, 120_000_000, None),
    ]
    assert self_times_ms(spans)[1] == pytest.approx(50.0)
