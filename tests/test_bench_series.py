"""``scripts/bench_series.py`` on two synthetic perfbench results."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_series.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_series", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(commit, wall_s, rss, correct=True, failed=0):
    return {
        "line": {"correct": correct, "attempted": 14, "failed": failed, "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }},
        "problems": [],
        "environment": {"git_commit": commit, "numpy": "2.0", "seed": 1},
        "stages": [],
    }


def test_series_lists_each_run_and_summarizes_each_metric(tmp_path):
    paths = []
    for i, res in enumerate([result("abc", 2.0, 100.0),
                             result("abc", 3.0, 120.0, correct=False, failed=1)]):
        paths.append(tmp_path / f"r{i}.json")
        paths[-1].write_text(json.dumps(res))
    out = tmp_path / "BENCH.json"
    assert load_script().main(["--out", str(out), *map(str, paths)]) == 0
    series = json.loads(out.read_text())
    assert [(r["commit"], r["correct"], r["failed"]) for r in series["runs"]] == [
        ("abc", True, 0), ("abc", False, 1)]
    assert series["runs"][0]["environment"] == {"git_commit": "abc", "numpy": "2.0", "seed": 1}
    assert series["runs"][1]["metrics"] == {"wall_s": 3.0, "peak_rss_mb": 120.0}
    wall = series["metrics"]["wall_s"]
    assert (wall["unit"], wall["n"]) == ("s", 2)
    assert (wall["q1"], wall["median"], wall["q3"]) == pytest.approx((2.25, 2.5, 2.75))
    assert series["metrics"]["peak_rss_mb"]["median"] == pytest.approx(110.0)


def test_one_run_is_its_own_median_and_quartiles():
    series = load_script().summarize([result(None, 1.5, 90.0)])
    wall = series["metrics"]["wall_s"]
    assert (wall["q1"], wall["median"], wall["q3"]) == (1.5, 1.5, 1.5)
