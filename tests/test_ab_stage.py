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
    assert lines[1] == f"parent {parent}" and lines[4] == f"change {change}"
    for at in (2, 5):
        head, *mins = lines[at].split()
        assert head == "minimums" and len(mins) == 3
        stats = lines[at + 1].split()
        assert stats[::2] == ["min", "q1", "median", "q3"]
        lo, q1, median, q3 = map(float, stats[1::2])
        assert 0.0 < lo == min(map(float, mins)) and lo <= q1 <= median <= q3
    # each side ran the stage in its own run directory
    for root in checkouts:
        work = root / ".perfbench" / "tiny-s1-t0" / "plain"
        run_dir = load_config(str(work / "data" / "cfg")).run_dir()
        assert os.path.isfile(os.path.join(run_dir, "reprec.ckpt"))


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
