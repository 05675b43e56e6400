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


def write_series(tmp_path, name, walls, rates):
    """A series file of runs with these ``wall_s`` and ``eval_cases_per_s``."""
    records = []
    for wall, rate in zip(walls, rates):
        res = result("abc", wall, 100.0)
        res["line"]["metrics"]["eval_cases_per_s"] = {"value": rate, "unit": "1/s"}
        records.append(res)
    path = tmp_path / name
    path.write_text(json.dumps(load_script().summarize(records)))
    return path


def test_against_prints_medians_change_parent_iqr_and_wins_in_run_order(tmp_path, capsys):
    parent = write_series(tmp_path, "p.json", [2.0, 2.2, 2.4, 2.6, 2.8],
                          [100.0, 100.0, 100.0, 100.0, 100.0])
    change = write_series(tmp_path, "c.json", [1.0, 2.3, 1.2, 2.6, 1.4],
                          [110.0, 90.0, 100.0, 120.0, 130.0])
    assert load_script().main(["--against", str(parent), str(change)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["metric", "parent", "change", "relative", "parent",
                                "IQR", "wins"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    # wall_s: medians 2.4 and 1.4, IQR 2.6 - 2.2; lower wins in pairs 1, 3 and 5,
    # and the tie of pair 4 counts for neither side
    assert rows["wall_s"] == ["2.4", "1.4", "−41.7", "%", "0.4", "3/5"]
    # eval_cases_per_s is higher-better in BENCHMARK.json
    assert rows["eval_cases_per_s"] == ["100", "110", "+10.0", "%", "0", "3/5"]
    assert rows["peak_rss_mb"][-1] == "0/5"


def test_against_takes_one_series_file_and_writes_nothing(tmp_path):
    parent = write_series(tmp_path, "p.json", [2.0, 3.0], [1.0, 1.0])
    run = tmp_path / "r.json"
    run.write_text(json.dumps(result("def", 1.0, 90.0)))
    script = load_script()
    for argv in ([str(run)], [str(parent), str(parent)]):
        with pytest.raises(SystemExit):
            script.main(["--against", str(parent), *argv])
    with pytest.raises(SystemExit):  # one mode at a time
        script.main(["--against", str(parent), "--out", str(tmp_path / "o.json"), str(parent)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json", "r.json"]


def test_against_refuses_series_of_different_lengths(tmp_path, capsys):
    parent = write_series(tmp_path, "p.json", [2.0, 2.1, 2.2], [1.0] * 3)
    change = write_series(tmp_path, "c.json", [1.0, 1.1], [1.0] * 2)
    assert load_script().main(["--against", str(parent), str(change)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "3 runs" in captured.err and "2" in captured.err


def test_a_mode_is_required(tmp_path):
    parent = write_series(tmp_path, "p.json", [2.0], [1.0])
    with pytest.raises(SystemExit):
        load_script().main([str(parent)])
