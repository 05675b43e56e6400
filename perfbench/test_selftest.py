"""Self-test of the benchmark harness at a tiny size; asserts no timing.

Run from the root of a checkout with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import END_TO_END, EVALS, REPORT, SYNTH, INGEST, ANALYZE, TRAIN_ALL  # noqa: E402

# The SMALL shape of the CLI tests: every stage runs in well under a second.
TINY = {
    "why": "harness self-test",
    "overrides": {
        "data": {"min_orders": 6},
        "synth": {
            "n_users": 100, "n_stores": 30, "n_orders_per_user": 12,
            "situation_coupling": 0.6, "collab_coupling": 0.6, "n_locations": 8,
            "n_brands": 10, "n_cuisines": 6, "modes_per_user": 2, "n_clusters": 4,
        },
        "model": {"dim": 8, "repeat_window": 10, "history_window": 6,
                  "k_neighbors": 4, "attn_dim": 4, "budget": 8},
        "train": {"lr": 0.05, "batch_size": 128, "patience": 2, "max_epochs": 2,
                  "max_instances": 400, "val_max_cases": 40},
        "eval": {"max_cases": 50},
    },
    "setup": SYNTH + INGEST,
    "timed": ANALYZE + TRAIN_ALL + EVALS + REPORT,
}
N_STAGES = len(TINY["timed"])


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    return "tiny"


def _check_line(line: dict, spec: list[tuple[str, str]]) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int)
    assert list(line["metrics"]) == [name for name, _ in spec]
    for name, unit in spec:
        entry = line["metrics"][name]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == unit
        assert isinstance(entry["value"], (int, float))
    json.dumps(line)


def test_untraced_run_reports_every_end_to_end_metric(tiny, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_TARGET_S", 0.0)
    record = run.benchmark(tiny, seed=3, seconds=2.0, trace=False, workdir=str(tmp_path))
    line = record["line"]
    _check_line(line, [(n, u) for n, u, _ in END_TO_END])
    assert record["problems"] == []
    assert line["correct"] and line["failed"] == 0
    stages = record["stages"][0]
    assert line["attempted"] == len(stages)
    assert sum(s["phase"] == "setup" for s in stages) == run.SETUP_REPEATS * 2
    assert sum(s["phase"] == "timed" for s in stages) % N_STAGES == 0
    for name, _, _ in END_TO_END:
        assert line["metrics"][name]["value"] > 0, name
    env = record["environment"]
    assert env["blas_threads"] == run.BLAS_THREADS
    assert env["seed"] == 3 and env["workload"] == "tiny"
    for key in ("nproc", "cpu_model", "python", "numpy", "blas", "config_hash", "src_sha256"):
        assert env[key], key


def test_traced_run_matches_untraced_and_covers_every_layer(tiny, tmp_path):
    record = run.benchmark(tiny, seed=3, seconds=0.01, trace=True, workdir=str(tmp_path))
    line = record["line"]
    _check_line(line, run.per_layer_metrics())
    assert record["problems"] == []
    assert line["correct"] and line["failed"] == 0
    m = {k: v["value"] for k, v in line["metrics"].items()}
    for layer in LAYERS:
        assert m[f"{layer}.calls"] > 0, layer
    assert m["diffcore.tape_nodes"] > 0
    assert m["training.exprec.batches"] > 0 and m["training.exprec.epochs"] == 2
    assert m["evalharness.score.ensemble.cases"] > 0
    assert m["ensemble.slates.count"] > 0
    spans = json.loads((tmp_path / "traced" / "spans.json").read_text())
    assert spans["count"] > 0 and "cli.main" in spans["names"]


def test_failing_stage_is_counted(tiny, tmp_path):
    record = run.benchmark(tiny, seed=3, seconds=0.01, trace=False,
                           workdir=str(tmp_path), fail_label="train.exprec")
    line = record["line"]
    _check_line(line, [(n, u) for n, u, _ in END_TO_END])
    assert line["failed"] == 1 and not line["correct"]
    assert any("train.exprec" in p for p in record["problems"])


def test_changed_artifact_is_a_problem(tiny, tmp_path):
    record = run.benchmark(tiny, seed=3, seconds=0.01, trace=False, workdir=str(tmp_path))
    assert record["problems"] == []
    res = json.loads((tmp_path / "plain" / "worker.json").read_text())
    res["round_hashes"].append({k: "0" for k in res["round_hashes"][0]})
    name = "eval.reprec.repeat.json"
    res["reports"][name]["protocols"]["repeat"]["n"] += 1
    problems = run.check(res)
    assert any("snapshot 1 differ" in p for p in problems)
    assert any(name in p and "build_cases" in p for p in problems)


def test_without_sources_exits_nonzero_and_prints_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    rc = run.main(["--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert rc != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_harness():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.per_layer_metrics()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
