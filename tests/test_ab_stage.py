"""``scripts/ab_stage.py`` on two checkouts of a tiny perfbench run."""

import importlib.util
import json
import os
import pathlib
import shutil

import pytest

from fdrec import cli
from fdrec.config import load_config, write_config

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ab_stage.py"

TINY = {
    "data": {"min_orders": 6},
    "synth": {"n_users": 30, "n_stores": 12, "n_orders_per_user": 10, "seed": 3},
    "model": {"dim": 8, "repeat_window": 6, "history_window": 4},
    "train": {"max_epochs": 1, "patience": 1, "max_instances": 60, "val_max_cases": 10},
}
TRAIN = ["train", "--config", "{cfg}", "--model", "reprec"]


def load_script():
    spec = importlib.util.spec_from_file_location("ab_stage", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def checkouts(tmp_path_factory):
    """Two checkouts of this ``src``, each with the run directory a
    ``perfbench/run.py --workload tiny --seed 1`` pass would leave."""
    first = tmp_path_factory.mktemp("ab") / "parent"
    work = first / ".perfbench" / "tiny-s1-t0" / "plain"
    work.mkdir(parents=True)
    (first / "src").symlink_to(ROOT / "src")
    setup = [["synth", "--out", "{data}", "--config", "{base}"],
             ["ingest", "--config", "{cfg}"]]
    (work / "spec.json").write_text(json.dumps({"setup": setup, "timed": [TRAIN]}))
    write_config(str(work / "base.cfg"), TINY)
    paths = {"base": str(work / "base.cfg"), "data": str(work / "data"),
             "cfg": str(work / "data" / "cfg")}
    for argv in setup:
        assert cli.main([a.format(**paths) for a in argv]) == 0
    second = first.parent / "change"
    shutil.copytree(first, second, symlinks=True)
    return first, second


def test_it_times_the_stage_in_fresh_processes_of_each_checkout(checkouts, capsys):
    parent, change = checkouts
    assert load_script().main([str(parent), str(change), "--workload", "tiny",
                               "--label", "train.reprec", "--rounds", "3",
                               "--runs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("tiny train.reprec: 3 fresh processes a side, 2 runs each, "
                        "per-process minimums in ms")
    assert lines[1] == f"parent {parent}" and lines[5] == f"change {change}"
    for at in (2, 6):
        head, *mins = lines[at].split()
        assert head == "minimums" and len(mins) == 3
        stats = lines[at + 1].split()
        assert stats[::2] == ["min", "q1", "median", "q3"]
        lo, q1, median, q3 = map(float, stats[1::2])
        assert 0.0 < lo == min(map(float, mins)) and lo <= q1 <= median <= q3
        faults = lines[at + 2].split()
        assert faults[:4] == ["minor", "faults", "a", "run:"] and faults[4::2] == [
            "median", "min", "max"]
        median, lo, hi = map(float, faults[5::2])
        assert 0 <= lo <= median <= hi
    # each side ran the stage in its own run directory
    for root in checkouts:
        work = root / ".perfbench" / "tiny-s1-t0" / "plain"
        run_dir = load_config(str(work / "data" / "cfg")).run_dir()
        assert os.path.isfile(os.path.join(run_dir, "reprec.ckpt"))


def test_checkouts_may_be_given_relative_to_the_cwd(checkouts, monkeypatch, capsys):
    parent, change = checkouts
    monkeypatch.chdir(parent.parent)
    assert load_script().main([parent.name, change.name, "--workload", "tiny",
                               "--label", "train.reprec", "--rounds", "1",
                               "--runs", "1"]) == 0
    assert f"change {change}" in capsys.readouterr().out.splitlines()


def test_the_fault_median_pools_every_run_of_a_side(checkouts, monkeypatch, capsys):
    """Each process reports each run's minor page faults; a side's median,
    minimum and maximum are over all its runs, whatever process ran them."""
    parent, change = checkouts
    script = load_script()
    # round 0 runs the parent first, round 1 the change first
    runs = iter([([0.2, 0.1], [10, 30]), ([0.3, 0.4], [7, 9]),
                 ([0.5, 0.3], [9, 30]), ([0.1, 0.1], [100, 40])])
    monkeypatch.setattr(script, "time_process", lambda *a: next(runs))
    assert script.main([str(parent), str(change), "--workload", "tiny",
                        "--label", "train.reprec", "--rounds", "2", "--runs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "  minimums 100.0 100.0"
    assert lines[4] == "  minor faults a run: median 35  min 10  max 100"
    assert lines[6] == "  minimums 300.0 300.0"
    assert lines[8] == "  minor faults a run: median 9  min 7  max 30"


def test_rounds_alternate_which_side_goes_first():
    assert load_script().schedule(4) == [(0, 1), (1, 0), (0, 1), (1, 0)]


def test_the_per_process_summary_is_the_inclusive_quartiles():
    script = load_script()
    assert script.summary([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert script.summary([2.5]) == (2.5, 2.5, 2.5)


def test_a_missing_run_directory_or_stage_exits_2(checkouts, tmp_path, capsys):
    parent, change = checkouts
    script = load_script()
    assert script.main([str(parent), str(tmp_path), "--workload", "tiny",
                        "--label", "train.reprec", "--rounds", "1"]) == 2
    assert "spec.json" in capsys.readouterr().err
    assert script.main([str(parent), str(change), "--workload", "tiny",
                        "--label", "train.exprec", "--rounds", "1"]) == 2
    assert "no stage labelled 'train.exprec'" in capsys.readouterr().err


def test_a_stage_that_fails_exits_1(checkouts, tmp_path, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(checkouts[0], broken, symlinks=True)
    spec = broken / ".perfbench" / "tiny-s1-t0" / "plain" / "spec.json"
    spec.write_text(json.dumps({"setup": [], "timed": [
        ["train", "--config", "{cfg}", "--model", "nosuch"]]}))
    assert load_script().main([str(broken), str(broken), "--workload", "tiny",
                               "--label", "train.nosuch", "--rounds", "1",
                               "--runs", "1"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {broken}")
