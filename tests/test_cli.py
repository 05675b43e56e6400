import json
import os

import pytest

from fdrec import cli
from fdrec.config import load_config, write_config
from fdrec.diffcore import ModelState

SMALL = {
    "data": {"min_orders": 6},
    "synth": {
        "n_users": 100, "n_stores": 30, "n_orders_per_user": 12,
        "repeat_prob": 0.55, "situation_coupling": 0.6, "collab_coupling": 0.6,
        "n_locations": 8, "n_brands": 10, "n_cuisines": 6, "span_days": 28,
        "modes_per_user": 2, "n_clusters": 4, "seed": 7,
    },
    "model": {
        "dim": 8, "repeat_window": 10, "history_window": 6, "k_neighbors": 4,
        "attn_dim": 4, "budget": 8,
    },
    "train": {
        "lr": 0.05, "batch_size": 128, "patience": 2, "max_epochs": 2,
        "max_instances": 400, "val_max_cases": 40,
    },
    "eval": {"max_cases": 50},
}

EVAL_FILES = (
    "eval.ensemble.combined.json",
    "eval.exprec.exploration.json",
    "eval.hispop.repeat.json",
    "eval.reprec.repeat.json",
    "eval.sonly.combined.json",
    "eval.sonly.exploration.json",
    "eval.sonly.repeat.json",
)


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """One full synth -> ingest -> analyze -> train -> eval -> report run."""
    root = tmp_path_factory.mktemp("cli")
    base = root / "base.cfg"
    write_config(str(base), SMALL)
    data_dir = root / "data"
    assert cli.main(["synth", "--out", str(data_dir),
                     "--config", str(base)]) == 0
    cfg_path = str(data_dir / "cfg")
    assert cli.main(["ingest", "--config", cfg_path]) == 0
    assert cli.main(["analyze", "--config", cfg_path]) == 0
    for model in ("sonly", "reprec", "exprec", "ensemble"):
        assert cli.main(["train", "--config", cfg_path, "--model", model]) == 0
    for model, protocol in (("hispop", "repeat"), ("sonly", "all"),
                            ("reprec", "repeat"), ("exprec", "exploration"),
                            ("ensemble", "combined")):
        assert cli.main(["eval", "--config", cfg_path, "--model", model,
                         "--protocol", protocol]) == 0
    assert cli.main(["report", "--config", cfg_path]) == 0
    return cfg_path, load_config(cfg_path).run_dir()


def test_synth_writes_dataset_and_config(pipeline):
    cfg_path, _ = pipeline
    data_dir = os.path.dirname(cfg_path)
    assert os.path.isfile(os.path.join(data_dir, "interactions.tsv"))
    assert os.path.isfile(os.path.join(data_dir, "stores.tsv"))
    cfg = load_config(cfg_path)
    assert cfg.data.interactions == "interactions.tsv"
    assert cfg.synth.n_users == 100


def test_ingest_manifest(pipeline):
    _, run_dir = pipeline
    with open(os.path.join(run_dir, "split.json")) as fh:
        manifest = json.load(fh)
    assert manifest["users"] <= 100
    assert manifest["stores"] <= 30
    parts = manifest["partitions"]
    assert manifest["interactions"] == sum(parts.values())
    assert 0.0 < manifest["repeat_fraction"] < 1.0
    assert manifest["valid_boundary"] < manifest["test_boundary"]


def test_analyze_outputs(pipeline):
    _, run_dir = pipeline
    adir = os.path.join(run_dir, "analysis")
    for name in ("repeat_ratio.csv", "explored.csv", "cdf_users.csv",
                 "cdf_stores.csv", "inf_his.csv", "inf_col.csv", "summary.csv"):
        assert os.path.isfile(os.path.join(adir, name)), name


def test_train_artifacts(pipeline):
    _, run_dir = pipeline
    for model in ("sonly", "reprec", "exprec", "ensemble"):
        assert os.path.isfile(os.path.join(run_dir, f"{model}.ckpt"))
        with open(os.path.join(run_dir, f"{model}.train.json")) as fh:
            payload = json.load(fh)
        if model == "ensemble":
            assert set(payload["stages"]) == {"intent", "combine"}
        else:
            assert payload["epochs"] >= 1


def test_eval_reports(pipeline):
    _, run_dir = pipeline
    for name in EVAL_FILES:
        path = os.path.join(run_dir, name)
        assert os.path.isfile(path), name
        with open(path) as fh:
            payload = json.load(fh)
        protocol = name.split(".")[2]
        stats = payload["protocols"][protocol]
        assert 0.0 <= stats["hr@3"] <= 1.0
        assert stats["n"] > 0


def test_eval_rerun_is_byte_identical(pipeline):
    cfg_path, run_dir = pipeline
    path = os.path.join(run_dir, "eval.hispop.repeat.json")
    with open(path, "rb") as fh:
        before = fh.read()
    assert cli.main(["eval", "--config", cfg_path, "--model", "hispop",
                     "--protocol", "repeat"]) == 0
    with open(path, "rb") as fh:
        assert fh.read() == before


def test_report_table_and_csv(pipeline, capsys):
    cfg_path, run_dir = pipeline
    assert cli.main(["report", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].split()[:2] == ["model", "protocol"]
    assert lines[-1].endswith("summary.csv")
    with open(os.path.join(run_dir, "summary.csv")) as fh:
        rows = fh.read().strip().splitlines()
    assert rows[0] == "model,protocol,k,hr,ndcg,n,parameters"
    body = [r.split(",")[:2] for r in rows[1:]]
    assert body == sorted(body)
    assert len(body) == len(EVAL_FILES)
    models = {r[0] for r in body}
    assert models == {"hispop", "sonly", "reprec", "exprec", "ensemble"}


def test_incompatible_protocol_is_usage_error(pipeline, capsys):
    cfg_path, _ = pipeline
    assert cli.main(["eval", "--config", cfg_path, "--model", "hispop",
                     "--protocol", "exploration"]) == 2
    err = capsys.readouterr().err
    assert "does not support" in err


def test_ablated_exprec_trains_and_evaluates(tmp_path):
    base = tmp_path / "base.cfg"
    write_config(str(base), {**SMALL, "model": {**SMALL["model"], "ablate": "collab"}})
    data_dir = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data_dir), "--config", str(base)]) == 0
    cfg_path = str(data_dir / "cfg")
    assert cli.main(["train", "--config", cfg_path, "--model", "exprec"]) == 0
    run_dir = load_config(cfg_path).run_dir()
    state = ModelState.load(os.path.join(run_dir, "exprec.ckpt"))
    assert state.meta["ablate"] == [False, False, False, True]
    assert cli.main(["eval", "--config", cfg_path, "--model", "exprec",
                     "--protocol", "exploration"]) == 0
    with open(os.path.join(run_dir, "eval.exprec.exploration.json")) as fh:
        assert json.load(fh)["protocols"]["exploration"]["n"] > 0


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert cli.main(["ingest", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "not found" in capsys.readouterr().err


def test_config_without_data_paths_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bare.cfg"
    write_config(str(path))
    assert cli.main(["ingest", "--config", str(path)]) == 2
    assert "must both be set" in capsys.readouterr().err


def test_untrainable_model_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--config", "x", "--model", "hispop"])
    assert exc.value.code == 2


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_threads_env_validation(pipeline, monkeypatch, capsys):
    cfg_path, _ = pipeline
    monkeypatch.setenv("FDREC_THREADS", "abc")
    assert cli.main(["report", "--config", cfg_path]) == 2
    assert "FDREC_THREADS" in capsys.readouterr().err
    monkeypatch.setenv("FDREC_THREADS", "0")
    assert cli.main(["report", "--config", cfg_path]) == 2
    monkeypatch.setenv("FDREC_THREADS", "2")
    assert cli.main(["report", "--config", cfg_path]) == 0


def test_missing_checkpoint_is_runtime_error(pipeline, capsys):
    cfg_path, _ = pipeline
    # a distinct eval seed hashes to a fresh run directory with no checkpoints
    text = open(cfg_path).read().replace("[eval]\nk = 3\nseed = 0",
                                         "[eval]\nk = 3\nseed = 99")
    alt = os.path.join(os.path.dirname(cfg_path), "alt.cfg")
    with open(alt, "w") as fh:
        fh.write(text)
    assert load_config(alt).run_dir() != load_config(cfg_path).run_dir()
    assert cli.main(["eval", "--config", alt, "--model", "ensemble",
                     "--protocol", "combined"]) == 1
    err = capsys.readouterr().err
    assert "no reprec checkpoint" in err or "no ensemble checkpoint" in err
    assert "fdrec train" in err


def test_locked_run_dir_fails_cleanly(pipeline, capsys):
    cfg_path, run_dir = pipeline
    lock = os.path.join(run_dir, ".lock")
    with open(lock, "w") as fh:
        fh.write("12345\n")
    try:
        assert cli.main(["ingest", "--config", cfg_path]) == 1
        assert "locked" in capsys.readouterr().err
    finally:
        os.unlink(lock)
    assert cli.main(["ingest", "--config", cfg_path]) == 0


def test_report_without_evals_is_runtime_error(tmp_path, capsys):
    base = tmp_path / "base.cfg"
    write_config(str(base), SMALL)
    data_dir = tmp_path / "d"
    assert cli.main(["synth", "--out", str(data_dir),
                     "--config", str(base)]) == 0
    cfg_path = str(data_dir / "cfg")
    assert cli.main(["report", "--config", cfg_path]) == 1
    assert "nothing to report" in capsys.readouterr().err
    assert cli.main(["ingest", "--config", cfg_path]) == 0
    assert cli.main(["report", "--config", cfg_path]) == 1
    assert "no evaluation reports" in capsys.readouterr().err


def synth_cfg(tmp_path, name="b.cfg", **synth):
    base = tmp_path / name
    small = {"n_users": 20, "n_stores": 10, "n_orders_per_user": 6,
             "n_locations": 4, "n_brands": 4, "n_cuisines": 3,
             "modes_per_user": 2, "n_clusters": 2, "seed": 7}
    small.update(synth)
    write_config(str(base), {"synth": small})
    return str(base)


def test_synth_seed_flag_overrides_config(tmp_path):
    base = synth_cfg(tmp_path)
    out_a = tmp_path / "a"
    assert cli.main(["synth", "--out", str(out_a), "--config", base,
                     "--seed", "9"]) == 0
    assert load_config(str(out_a / "cfg")).synth.seed == 9
    out_b = tmp_path / "b"
    assert cli.main(["synth", "--out", str(out_b), "--config", base]) == 0
    assert load_config(str(out_b / "cfg")).synth.seed == 7


def test_synth_determinism_across_invocations(tmp_path):
    base = synth_cfg(tmp_path)
    dirs = [tmp_path / n for n in ("x", "y", "z")]
    for d, seed in zip(dirs, ("3", "3", "4")):
        assert cli.main(["synth", "--out", str(d), "--config", base,
                         "--seed", seed]) == 0
    read = lambda d: (d / "interactions.tsv").read_bytes()
    assert read(dirs[0]) == read(dirs[1])
    assert read(dirs[0]) != read(dirs[2])


def test_synth_without_config_uses_defaults(tmp_path):
    out = tmp_path / "plain"
    assert cli.main(["synth", "--out", str(out), "--seed", "2"]) == 0
    cfg = load_config(str(out / "cfg"))
    assert cfg.synth.n_users == 1000
    assert cfg.synth.seed == 2
    assert cfg.data.interactions == "interactions.tsv"
    assert os.path.getsize(out / "interactions.tsv") > 0


def test_synth_infeasible_settings_fail(tmp_path, capsys):
    base = synth_cfg(tmp_path, repeat_prob=0.0, n_orders_per_user=12,
                     n_stores=5)
    assert cli.main(["synth", "--out", str(tmp_path / "bad"),
                     "--config", base]) == 1
    assert "error" in capsys.readouterr().err
