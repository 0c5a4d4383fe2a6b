"""Tests of the benchmark itself, on workloads small enough to run in seconds.

    PYTHONPATH=src:. python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import harness
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS, generate_log

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# counters that must repeat bit-for-bit between runs of one seed
EXACT_COUNTERS = (
    "autodiff.tape_records_per_step",
    "autodiff.adam_steps",
    "autodiff.gru_cell_calls",
    "models.scores_calls",
    "training.steps_per_epoch",
    "data.rows_in",
    "data.events_kept",
    "evaluation.users",
    "trace.spans",
)

TINY = dataclasses.replace(
    WORKLOADS["svae-long"],
    log_args=dict(n_users=60, n_items=30, median_length=10, max_length=25, sigma=0.5),
    train_users=8, val_users=6,
    quality_users=8, quality_epochs=1,
    requests_per_round=12,
    quality_gate=False,
)


@pytest.fixture(autouse=True)
def few_rounds(monkeypatch):
    monkeypatch.setattr(harness, "MIN_ROUNDS", 1)
    monkeypatch.setattr(harness, "TRACE_EPOCHS", 1)


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in _benchmark_json()[section]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _benchmark_json()["workloads"]] == list(WORKLOADS)


def test_same_seed_same_log_same_size_for_every_seed(tmp_path):
    paths = [str(tmp_path / name) for name in ("a", "b", "c")]
    for path, seed in zip(paths, (4, 4, 5)):
        generate_log(WORKLOADS["catalog-wide"], seed, path)
    blobs = [open(p, "rb").read() for p in paths]
    assert blobs[0] == blobs[1]
    assert blobs[0] != blobs[2]
    # another seed draws other ratings, in the same amount
    assert blobs[0].count(b"\n") == blobs[2].count(b"\n")


def test_timed_run_reports_every_end_to_end_metric(tmp_path):
    metrics, tally = harness.timed_run(TINY, 3, 0.0, ROOT, str(tmp_path))
    assert tally.failed == 0 and tally.attempted > TINY.requests_per_round
    assert {name: unit for name, (_, unit) in metrics.items()} == _units("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


def test_failing_requests_end_the_run(tmp_path, monkeypatch):
    def refuse(state, index, expected):
        raise harness.CheckFailed(f"request {index} refused")

    monkeypatch.setattr(harness, "op_recommend", refuse)
    with pytest.raises(harness.NoSamples, match="recommend_ms"):
        harness.timed_run(TINY, 3, 0.0, ROOT, str(tmp_path))


def test_a_failing_request_counts_against_attempts(tmp_path, monkeypatch):
    answer = harness.op_recommend

    def first_refused(state, index, expected):
        if index == 0:
            raise harness.CheckFailed("request 0 refused")
        return answer(state, index, expected)

    monkeypatch.setattr(harness, "op_recommend", first_refused)
    metrics, tally = harness.timed_run(TINY, 3, 0.0, ROOT, str(tmp_path))
    # one refusal in each round, and the other requests answered
    assert tally.failed >= 1
    assert len(tally.samples["recommend_ms"]) == tally.failed * (TINY.requests_per_round - 1)
    assert metrics["recommend_p95_ms"][0] > 0


def test_every_round_samples_every_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "MIN_ROUNDS", 3)
    metrics, tally = harness.timed_run(TINY, 3, 0.0, ROOT, str(tmp_path))
    assert tally.failed == 0
    # one sample a round; each round's train() gives ROUND_EPOCHS - 1 epochs
    for name in ("prepare_s", "svae.eval_s", "mvae.eval_s", "rvae.eval_s"):
        assert len(tally.samples[name]) == 3, name
    assert len(tally.samples["recommend_ms"]) == 3 * TINY.requests_per_round
    # the first set-up, and one every other round
    assert len(tally.samples["setup_s"]) == 3
    for kind in ("svae", "mvae", "rvae"):
        assert len(tally.samples[f"{kind}.epoch_s"]) == 3 * (harness.ROUND_EPOCHS - 1)


def test_losses_that_change_between_rounds_fail(tmp_path, monkeypatch):
    train = harness.training.train
    calls = []

    def drifting(kind, split, config, callback=None):
        def shifted(stats):
            if kind == "mvae":
                stats = harness.training.EpochStats(
                    stats.epoch, stats.train_loss + len(calls), stats.val_ndcg100,
                    stats.seconds)
            callback(stats)

        calls.append(kind)
        return train(kind, split, config, callback=shifted if callback else None)

    monkeypatch.setattr(harness.training, "train", drifting)
    monkeypatch.setattr(harness, "MIN_ROUNDS", 3)
    metrics, tally = harness.timed_run(TINY, 3, 0.0, ROOT, str(tmp_path))
    # every mvae round after the first differs from the first
    assert tally.failed == 2
    assert "mvae.epoch_s" in tally.samples


def test_traced_counters_repeat_exactly(tmp_path):
    runs = []
    for attempt in range(2):
        metrics, tally, tracer = harness.traced_run(TINY, 7, str(tmp_path / str(attempt)))
        assert tally.failed == 0
        runs.append(metrics)
    assert {name: unit for name, (_, unit) in runs[0].items()} == _units("per_layer")
    for name in EXACT_COUNTERS:
        assert runs[0][name][0] == runs[1][name][0], name
    # today recommend scores the history twice
    assert runs[0]["models.scores_calls"][0] > 2 * TINY.requests_per_round


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer()

    def inner():
        return sum(range(1000))

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()
    names = [record[0] for record in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[2][3] == 0
    assert tracer.self_time("outer") == pytest.approx(
        tracer.total("outer") - tracer.total("inner"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "svae-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
