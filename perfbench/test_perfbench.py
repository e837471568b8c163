"""Self-tests of the benchmark: ``python -m pytest perfbench -q``.

The first test runs every workload at a tiny length in both modes, as the
benchmark is run (a subprocess from the root of the checkout), so the
suite takes a minute or two.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from spans import Span, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = run_benchmark(
        ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", trace
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in section]
    summary = "\n".join(lines[:-1])
    for metric in section:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))
        assert f" {metric['unit']}" in summary.split(metric["name"], 1)[1].split("\n", 1)[0]
    if trace == "0":
        assert "failed_share" in summary


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(
        tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_gate_flags_a_corrupted_row():
    import numpy as np
    import workloads

    checked = np.arange(100, 110)
    expected = np.stack(
        [checked % 40, 20 + checked % 5, np.zeros(10, int), np.ones(10, int)], axis=1
    )
    rows = np.array([101, 103, 106, 109])
    answers = expected[rows - 100].copy()
    assert workloads.mismatched_rows(rows, answers, checked, expected) == []
    answers[2, 1] += 1  # row 106: DOM code
    answers[0, 2] = 1  # row 101: tie flag
    assert workloads.mismatched_rows(rows, answers, checked, expected) == [101, 106]
    # Rows outside the checked batch are left to the batch that holds them.
    assert workloads.mismatched_rows(rows, answers, checked[5:], expected[5:]) == [106]


def test_modelled_metrics_repeat_exactly_for_a_seed():
    import workloads
    from repro import build_pipeline, load_default_dataset
    from repro.backends.registry import create_backend

    dataset = load_default_dataset(seed=workloads.DATASET_SEED)
    pipeline = build_pipeline(
        dataset,
        seed=workloads.DATASET_SEED,
        input_variation=workloads.OFFLINE_INPUT_VARIATION,
    )
    codes = pipeline.extractor.extract_many(dataset.test_images)
    results = []
    for _ in range(2):
        stream = workloads.RowStream(codes, dataset.test_labels, seed=5)
        with create_backend("serial", pipeline.amm) as oracle:
            results.append(workloads.verify(oracle, pipeline.amm, stream, []))
    assert results[0] == results[1]
    wrong, accuracy, energy_pj = results[0]
    assert wrong == [] and 0.5 < accuracy <= 1.0 and energy_pj > 0


def test_union_length_merges_overlaps_and_skips_empty_intervals():
    assert spans.union_length([]) == 0
    assert spans.union_length([(0, 10), (5, 15), (20, 25), (30, 30)]) == 20
    assert spans.union_length([(5, 15), (0, 10), (6, 7)]) == 15


def test_self_times_and_closure_on_a_synthetic_tree():
    tree = [
        Span(1, None, "root", 0, 100),
        Span(2, 1, "a", 10, 40),
        Span(3, 1, "b", 50, 70),
        Span(4, 2, "leaf", 15, 25),
        Span(5, 2, "leaf", 20, 30),  # overlaps its sibling
    ]
    own = spans.self_times(tree)
    assert own == {1: 50, 2: 15, 3: 20, 4: 10, 5: 10}
    # The overlapping leaves double count 5 units: closure shows it.
    assert spans.closure(tree, 100) == pytest.approx(1.05)
    assert spans.layer_self_ns(tree) == {"root": 50, "a": 15, "b": 20, "leaf": 20}
    nested = tree[:4]
    assert spans.closure(nested, 100) == pytest.approx(1.0)
    # Spans that cover only part of the end-to-end time leave a gap.
    assert spans.closure(nested, 125) == pytest.approx(0.8)
    # A child sticking out of its parent is only subtracted where it overlaps.
    outside = [Span(1, None, "root", 0, 10), Span(2, 1, "child", 5, 20)]
    assert spans.self_times(outside) == {1: 5, 2: 15}
    with pytest.raises(ValueError):
        spans.closure(nested, 0)


def test_request_trees_join_threads_by_seed_and_close():
    tracer = Tracer()
    seeds = (11, 12)
    root = tracer.add("client.call", 5, 100, seeds=seeds)
    tracer.add("service.admit", 10, 15, seeds=seeds)
    call = tracer.add("backends.call", 30, 80, rows=2, seeds=seeds)
    tracer.add("amm.recognise", 31, 79, parent=call.span_id, rows=2)
    tracer.resolved.update({11: 85, 12: 90})
    # A second request whose row rides in the same backend call.
    other = tracer.add("client.call", 20, 95, seeds=(13,))
    tracer.add("service.admit", 25, 28, seeds=(13,))
    call.seeds = (11, 12, 13)
    tracer.resolved[13] = 82

    trees = spans.request_trees(tracer, [root, other])
    by_name = {}
    for span in trees:
        by_name.setdefault(span.name, []).append(span)
    services = by_name["service.span"]
    assert [(span.start, span.end) for span in services] == [(10, 90), (25, 82)]
    assert [(span.start, span.end) for span in by_name["service.queue"]] == [(15, 30), (28, 30)]
    assert len(by_name["backends.call"]) == 2  # shared call copied into both
    assert spans.closure(trees, root.duration + other.duration) == pytest.approx(1.0)
    own = spans.layer_self_ns(trees)
    assert own["client.call"] == (95 - 80) + (75 - 57)
    assert own["amm.recognise"] == 2 * 48


def test_instrumented_wraps_and_restores_layer_methods():
    from repro.core.amm import InputDacBank
    from repro.serving.service import RecognitionService

    original = InputDacBank.__dict__["conductances"]
    original_submit = RecognitionService.submit_many
    tracer = Tracer()
    with spans.instrumented(tracer):
        assert InputDacBank.__dict__["conductances"] is not original
        assert RecognitionService.submit_many is not original_submit
    assert InputDacBank.__dict__["conductances"] is original
    assert RecognitionService.submit_many is original_submit


def test_tracer_nests_spans_per_thread():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("outer"):
        with tracer.span("inner", rows=3):
            pass
    inner, outer = tracer.spans
    assert inner.parent == outer.span_id and outer.parent is None
    assert inner.rows == 3 and outer.start <= inner.start <= inner.end <= outer.end
    tracer.enabled = False
    with tracer.span("ignored"):
        pass
    assert len(tracer.spans) == 2


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert spans.percentile(values, 0.99) == 99
    assert spans.percentile(values, 0.5) == 50
    assert spans.percentile([3.0], 0.99) == 3.0
    with pytest.raises(ValueError):
        spans.percentile([], 0.5)
