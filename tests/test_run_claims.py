"""``scripts/run_claims.py`` on a small config."""

import importlib.util
import os
import pathlib

from fdrec.config import write_config

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_claims.py"

SMALL = {
    "data": {"min_orders": 6},
    "synth": {"n_users": 60, "n_stores": 20, "n_orders_per_user": 12,
              "situation_coupling": 0.6, "collab_coupling": 0.6, "n_locations": 6,
              "span_days": 28},
    "model": {"dim": 8, "repeat_window": 10, "history_window": 6, "k_neighbors": 4},
    "train": {"batch_size": 128, "patience": 1, "max_epochs": 1,
              "max_instances": 200, "val_max_cases": 20},
    "eval": {"max_cases": 30},
}


def load_script():
    spec = importlib.util.spec_from_file_location("run_claims", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stages_follow_the_claims_config_header():
    stages = load_script().stages("c.cfg", 2, "out")
    assert stages[0] == ["synth", "--out", "out", "--config", "c.cfg", "--seed", "2"]
    assert [s[0] for s in stages] == ["synth", "ingest", "analyze"] + ["train"] * 4 + [
        "eval"] * 6 + ["report"]
    assert [s[-1] for s in stages[3:7]] == ["sonly", "reprec", "exprec", "ensemble"]
    assert [s[4] for s in stages[7:13]] == ["hispop", "sonly", "reprec", "exprec",
                                             "ensemble", "concat"]
    assert all(s[-2:] == ["--protocol", "all"] for s in stages[7:13])
    assert all(s[1:3] == ["--config", os.path.join("out", "cfg")] for s in stages[1:])


def test_the_script_runs_every_stage_and_prints_the_run_directory(tmp_path, capsys):
    config = tmp_path / "small.cfg"
    write_config(str(config), SMALL)
    out = tmp_path / "claims-s3"
    assert load_script().main(["--config", str(config), "--seed", "3", "--out", str(out)]) == 0
    run_dir = capsys.readouterr().out.splitlines()[-1]
    assert os.path.dirname(run_dir) == str(out / "runs")
    files = set(os.listdir(run_dir))
    assert {f"{m}.ckpt" for m in ("sonly", "reprec", "exprec", "ensemble")} <= files
    assert {"eval.concat.combined.json", "eval.ensemble.combined.json",
            "eval.exprec.exploration.json", "eval.hispop.repeat.json",
            "eval.reprec.repeat.json", "eval.sonly.repeat.json", "summary.csv"} <= files
    assert os.path.isfile(os.path.join(run_dir, "analysis", "summary.csv"))


def test_a_failing_stage_stops_the_script_with_its_exit_code(tmp_path, capsys):
    code = load_script().main(["--config", str(tmp_path / "missing.cfg"), "--seed", "1",
                               "--out", str(tmp_path / "out")])
    assert code == 2
    assert "`fdrec synth" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
