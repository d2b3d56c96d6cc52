"""Tests of the benchmark's own code: span accounting, metric names, and
a seconds-scale smoke of every workload on a tiny corpus."""

import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import awekit  # noqa: E402
from awekit import pipelines, synth  # noqa: E402

from awebench import runner, tracing, workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = workloads.Sizes(
    embed=synth.SyntheticSpec(vocab_size=8, num_train=40, num_eval=24),
    asr=synth.SyntheticSpec(vocab_size=8, num_train=200, num_eval=8, words_per_utterance=(1, 3),
                            noise=0.3, speaker_scale=0.3),
)


def _span(i, name, parent, thread, start, end):
    return tracing.Span(i, name, parent, thread, start, end)


def test_self_time_subtracts_union_of_children_across_threads():
    spans = [
        _span(1, "stage.x", None, 1, 0.0, 10.0),
        _span(2, "a", 1, 1, 1.0, 3.0),
        _span(3, "b", 1, 2, 2.0, 6.0),  # on a worker thread, overlapping a
        _span(4, "c", 3, 2, 4.0, 5.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 10.0 - 5.0, 2: 2.0, 3: 4.0 - 1.0, 4: 1.0}
    assert {k: v.id for k, v in tracing.roots(spans).items()} == {1: 1, 2: 1, 3: 1, 4: 1}
    assert tracing.self_time_overruns(spans) == []
    # two busy worker threads can each fill the stage, but never exceed it
    spans.append(_span(5, "d", 1, 3, 0.0, 11.0))
    assert len(tracing.self_time_overruns(spans)) == 1


def test_parallel_map_worker_spans_link_to_the_submitting_span():
    tracer = tracing.Tracer()
    parallel_map = tracing._wrap_parallel_map(tracer, pipelines.parallel_map)

    def work(x):
        with tracer.span("leaf"):
            time.sleep(0.02)
        return x * 2

    with tracer.span("stage.t"):
        assert parallel_map(work, range(4), 2) == [0, 2, 4, 6]
    by_name = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(sp)
    (stage,) = by_name["stage.t"]
    (pmap,) = by_name["pipelines.parallel_map"]
    tasks = by_name["pipelines.parallel_map.task"]
    assert pmap.parent == stage.id and pmap.attrs == {"items": 4, "workers": 2}
    assert len(tasks) == 4 and all(t.parent == pmap.id for t in tasks)
    assert {t.thread for t in tasks} != {stage.thread}
    task_ids = {t.id for t in tasks}
    assert all(leaf.parent in task_ids for leaf in by_name["leaf"])

    selfs = tracing.self_times(tracer.spans)
    for t in tasks:
        (leaf,) = [s for s in by_name["leaf"] if s.parent == t.id]
        assert selfs[t.id] == pytest.approx(t.duration - leaf.duration, abs=1e-12)
    union = tracing.covered((t.start, t.end) for t in tasks)
    assert selfs[pmap.id] == pytest.approx(pmap.duration - union, abs=1e-12)
    assert tracing.self_time_overruns(tracer.spans) == []
    layers = tracing.layer_metrics(tracer.spans)
    assert layers["pipelines.parallel_map.calls"] == 1
    assert layers["pipelines.parallel_map.items"] == 4
    assert 0 < layers["pipelines.parallel_map.efficiency"] <= 1


def test_tracer_is_safe_under_many_threads():
    tracer = tracing.Tracer()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work():
            for _ in range(200):
                with tracer.span("outer"):
                    with tracer.span("inner"):
                        pass

        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert len(tracer.spans) == 6 * 200 * 2
    assert len({sp.id for sp in tracer.spans}) == len(tracer.spans)
    by_id = {sp.id: sp for sp in tracer.spans}
    for sp in tracer.spans:
        if sp.name == "inner":
            assert by_id[sp.parent].name == "outer" and by_id[sp.parent].thread == sp.thread


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (list(runner.STAGE_METRICS) + list(runner.END_TO_END) + list(tracing.PER_LAYER)
             + [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]])
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert spec["paths"] == ["benchmarks"]


def test_instrument_restores_every_patched_name():
    before = {(id(o), a): o.__dict__[a] for o, a, _, _ in tracing._span_table(awekit)}
    before[(id(awekit.recognition), "parallel_map")] = awekit.recognition.parallel_map
    with tracing.instrument(tracing.Tracer(), awekit):
        assert awekit.nn.run_recurrent_layer is not before[(id(awekit.nn), "run_recurrent_layer")]
        assert awekit.recognition.parallel_map is awekit.pipelines.parallel_map
    after = {(id(o), a): o.__dict__[a] for o, a, _, _ in tracing._span_table(awekit)}
    after[(id(awekit.recognition), "parallel_map")] = awekit.recognition.parallel_map
    assert after == before


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_smoke(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    result, report = runner.run_workload(name, 5, 0.0, False, str(tmp_path), sizes=TINY)
    assert report["failures"] == [] and report["invalid"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(runner.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(report["stages"]) == {"setup_s", "peak_rss_mb", *wl.timings, *wl.qualities}
    assert all(report["stages"][m]["samples"] >= 1 for m in wl.timings)

    traced, treport = runner.run_workload(name, 5, 0.0, True, str(tmp_path), sizes=TINY)
    assert treport["failures"] == [] and treport["invalid"] == []
    assert traced["correct"] and set(traced["metrics"]) == set(tracing.PER_LAYER)
    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    uses = {"embed-train": {"autodiff", "objectives"}, "qbe-eval": {"dtw", "search"},
            "asr-train": {"autodiff", "ctc", "segmental"}}[name]
    for layer in ("autodiff", "objectives", "ctc", "segmental", "dtw", "search"):
        values = [v for k, v in layers.items() if k.startswith(layer + ".")]
        assert any(values) == (layer in uses), layer
    assert layers["synth.generate.busy_s"] > 0 and layers["nn.recurrent.calls"] > 0
    # the same seed gives the same outputs, traced or not
    assert treport["digests"] == report["digests"]
    assert {m: report["stages"][m]["value"] for m in wl.qualities} == \
           {m: treport["stages"][m]["value"] for m in wl.qualities}
    assert os.listdir(tmp_path) == []


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "embed-train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
