import dataclasses
import json
import os
import platform
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from fdrec import cli, dataio, evalharness, exprec, features
from fdrec.config import load_config, write_config
from fdrec.diffcore import ParamTensor, load_checkpoint, save_checkpoint

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
    "eval.concat.combined.json",
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
                            ("ensemble", "combined"), ("concat", "combined")):
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
    m = SMALL["model"]
    # every [model] key SMALL sets away from its default, as each model records it
    recorded = {
        "sonly": {"dim": m["dim"]},
        "reprec": {"dim": m["dim"], "window": m["repeat_window"]},
        "exprec": {"dim": m["dim"], "window": m["history_window"],
                   "k_neighbors": m["k_neighbors"]},
        "ensemble": {"dim": m["dim"], "window": m["history_window"],
                     "budget": m["budget"]},
    }
    for model, want in recorded.items():
        meta = load_checkpoint(os.path.join(run_dir, f"{model}.ckpt")).meta
        assert {key: meta[key] for key in want} == want, model
        assert "attn_dim" not in meta, model
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
    assert models == {"hispop", "sonly", "reprec", "exprec", "ensemble", "concat"}


def test_concat_scores_the_base_checkpoints_alone(pipeline, capsys):
    cfg_path, run_dir = pipeline
    with open(os.path.join(run_dir, "eval.concat.combined.json")) as fh:
        payload = json.load(fh)
    params = [load_checkpoint(os.path.join(run_dir, f"{m}.ckpt")).param_count()
              for m in ("reprec", "exprec")]
    assert payload["model"] == "concat"
    assert payload["parameters"] == sum(params)
    with open(os.path.join(run_dir, "eval.ensemble.combined.json")) as fh:
        ens = json.load(fh)
    assert ens["protocols"]["combined"]["n"] == payload["protocols"]["combined"]["n"]
    for protocol in ("repeat", "exploration"):
        assert cli.main(["eval", "--config", cfg_path, "--model", "concat",
                         "--protocol", protocol]) == 2
        assert "does not support" in capsys.readouterr().err


def test_incompatible_protocol_is_usage_error(pipeline, capsys):
    cfg_path, _ = pipeline
    assert cli.main(["eval", "--config", cfg_path, "--model", "hispop",
                     "--protocol", "exploration"]) == 2
    err = capsys.readouterr().err
    assert "does not support" in err


@pytest.mark.parametrize("model, protocol", [("reprec", "exploration"),
                                             ("exprec", "repeat")])
def test_each_task_model_evaluates_on_the_other_task(pipeline, tmp_path, model, protocol):
    cfg_path = copy_run(pipeline, tmp_path)
    assert cli.main(["eval", "--config", cfg_path, "--model", model,
                     "--protocol", protocol]) == 0
    cfg = load_config(cfg_path)
    data = features.load(os.path.join(cfg.run_dir(), cli.DATA_FILE))
    cases = evalharness.build_cases(data.split, protocol, seed=cfg.eval.seed,
                                    max_cases=cfg.eval.max_cases, seqs=data.seqs,
                                    vocabs=data.vocabs)
    with open(os.path.join(cfg.run_dir(), f"eval.{model}.{protocol}.json")) as fh:
        assert json.load(fh)["protocols"][protocol]["n"] == len(cases) > 0


def test_ablated_exprec_trains_and_evaluates(tmp_path):
    base = tmp_path / "base.cfg"
    write_config(str(base), {**SMALL, "model": {**SMALL["model"], "ablate": "collab"}})
    data_dir = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data_dir), "--config", str(base)]) == 0
    cfg_path = str(data_dir / "cfg")
    assert cli.main(["ingest", "--config", cfg_path]) == 0
    assert cli.main(["train", "--config", cfg_path, "--model", "exprec"]) == 0
    run_dir = load_config(cfg_path).run_dir()
    state = load_checkpoint(os.path.join(run_dir, "exprec.ckpt"))
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


def test_missing_checkpoint_is_runtime_error(pipeline, capsys):
    cfg_path, _ = pipeline
    # a distinct eval seed hashes to a fresh run directory with no checkpoints
    text = open(cfg_path).read().replace("[eval]\nk = 3\nseed = 0",
                                         "[eval]\nk = 3\nseed = 99")
    alt = os.path.join(os.path.dirname(cfg_path), "alt.cfg")
    with open(alt, "w") as fh:
        fh.write(text)
    assert load_config(alt).run_dir() != load_config(cfg_path).run_dir()
    assert cli.main(["ingest", "--config", alt]) == 0
    assert cli.main(["eval", "--config", alt, "--model", "ensemble",
                     "--protocol", "combined"]) == 1
    err = capsys.readouterr().err
    assert "no reprec checkpoint" in err or "no ensemble checkpoint" in err
    assert "fdrec train" in err


def test_checkpoint_of_other_data_is_runtime_error(pipeline, tmp_path, capsys):
    """Store codes index a checkpoint's tables: reordering the catalog after
    training and ingesting it again must stop the eval, not score with the
    wrong rows."""
    cfg_path, _ = pipeline
    data_dir = tmp_path / "data"
    shutil.copytree(os.path.dirname(cfg_path), data_dir)
    stores = data_dir / "stores.tsv"
    header, *rows = stores.read_text().splitlines(keepends=True)
    stores.write_text(header + "".join(reversed(rows)))
    cfg = str(data_dir / "cfg")
    assert cli.main(["ingest", "--config", cfg]) == 0
    assert cli.main(["eval", "--config", cfg, "--model", "reprec",
                     "--protocol", "repeat"]) == 1
    err = capsys.readouterr().err
    ckpt = os.path.join(load_config(cfg).run_dir(), "reprec.ckpt")
    assert f"checkpoint {ckpt} does not match this run's data: its store_ids" in err
    assert "retrain with `fdrec train --model reprec`" in err


def copy_run(pipeline, tmp_path) -> str:
    """A copy of the pipeline's data directory, run directory included."""
    cfg_path, _ = pipeline
    shutil.copytree(os.path.dirname(cfg_path), tmp_path / "data")
    return str(tmp_path / "data" / "cfg")


def test_edited_data_needs_ingest_then_retraining(pipeline, tmp_path, capsys):
    """One changed timestamp leaves every vocabulary as it was, so only the
    data fingerprint can tell that the TSVs are not what was trained on."""
    cfg = copy_run(pipeline, tmp_path)
    inter = tmp_path / "data" / "interactions.tsv"
    lines = inter.read_text().splitlines(keepends=True)
    user, store, time, loc = lines[len(lines) // 2].split("\t")
    lines[len(lines) // 2] = "\t".join((user, store, str(int(time) + 1), loc))
    inter.write_text("".join(lines))
    evaluate = ["eval", "--config", cfg, "--model", "reprec", "--protocol", "repeat"]
    assert cli.main(evaluate) == 1
    err = capsys.readouterr().err
    data = os.path.join(load_config(cfg).run_dir(), cli.DATA_FILE)
    assert (f"{inter} and {tmp_path / 'data' / 'stores.tsv'} no longer match the "
            f"data in {data}; run `fdrec ingest --config {cfg}` again") in err

    assert cli.main(["ingest", "--config", cfg]) == 0
    assert cli.main(evaluate) == 1
    ckpt = os.path.join(load_config(cfg).run_dir(), "reprec.ckpt")
    assert (f"checkpoint {ckpt} does not match this run's data: its data_fingerprint "
            f"differ; retrain with `fdrec train --model reprec`") in capsys.readouterr().err


def damaged(blob: bytes, damage: str, key: bytes) -> bytes:
    """``blob`` cut inside its header or its last tensor, with bytes after
    its last tensor, or with the header entry ``key``, a tensor spec's
    ``shape`` or the ``users`` tensor renamed."""
    if damage in ("key", "spec", "tensor"):
        key = {"key": key, "spec": b"shape", "tensor": b"users"}[damage]
        return blob.replace(b'"%s"' % key, b'"%sz"' % key[:-1], 1)
    if damage == "trailing":
        return blob + bytes(8)
    return blob[:30] if damage == "header" else blob[:-1]


@pytest.mark.parametrize("damage", ["missing", "header", "tensors", "key", "spec",
                                    "tensor", "trailing"])
def test_missing_or_truncated_data_fails_naming_it(pipeline, tmp_path, capsys, damage):
    cfg = copy_run(pipeline, tmp_path)
    path = os.path.join(load_config(cfg).run_dir(), cli.DATA_FILE)
    with open(path, "rb") as fh:
        blob = fh.read()
    os.unlink(path)
    if damage != "missing":
        with open(path, "wb") as fh:
            fh.write(damaged(blob, damage, b"tensors"))
    assert cli.main(["train", "--config", cfg, "--model", "reprec"]) == 1
    err = capsys.readouterr().err
    assert path in err
    assert f"run `fdrec ingest --config {cfg}`" in err
    assert ("8 trailing bytes" in err) == (damage == "trailing")
    assert (f"{path}: no tensor 'users'; run `fdrec ingest` again" in err) == (damage == "tensor")


@pytest.mark.parametrize("damage", ["none stored", "renamed", "cut short"])
def test_data_with_damaged_case_sets_fails_naming_it(pipeline, tmp_path, capsys, damage):
    """A data.bin without case sets, as ingest wrote it before it stored
    them, or with a damaged case tensor, asks for ``ingest`` again."""
    cfg = copy_run(pipeline, tmp_path)
    path = os.path.join(load_config(cfg).run_dir(), cli.DATA_FILE)
    header, tensors = dataio.read_tensors(path, features.DATA_MAGIC)
    del header["tensors"]
    name = "cases.1.cand"
    if damage == "none stored":
        del header["cases"]
        tensors = {k: v for k, v in tensors.items() if not k.startswith("cases.")}
    elif damage == "renamed":
        tensors["cases.1.kand"] = tensors.pop(name)
    else:
        tensors[name] = tensors[name][:-1]
    dataio.write_tensors(path, features.DATA_MAGIC, header, tensors)
    assert cli.main(["eval", "--config", cfg, "--model", "sonly", "--protocol", "all"]) == 1
    err = capsys.readouterr().err
    again = f"run `fdrec ingest --config {cfg}`"
    assert f"cannot read the ingested data at {path}; {again}" in err
    detail = {"none stored": "damaged header, without cases",
              "renamed": f"no tensor {name!r}; run `fdrec ingest` again",
              "cut short": "damaged case set 1; run `fdrec ingest` again"}[damage]
    assert f"{path}: {detail}" in err



def _damage_tensor(tensors: dict, damage: str) -> str:
    """Damage one of the ``data.bin`` ``tensors`` in place; the name it damaged."""
    name = damage.split(" ")[-1]
    t = tensors[name]
    if damage == "float users":
        tensors[name] = t.astype(np.float64)
    elif damage == "2-d users":
        tensors[name] = t[:, None]
    elif damage in ("short users", "truncated neighbors.0.ids"):
        tensors[name] = t[:-1]
    elif damage == "int64 repeat_flags":
        tensors[name] = t.astype(np.int64)
    elif damage == "out of range train_idx":
        tensors[name] = np.append(t, len(tensors["times"]))
    else:  # a case whose target column is its row's length
        t[3, 0] = t[1, 0]
    return name


@pytest.mark.parametrize("damage", ["float users", "2-d users", "short users",
                                    "out of range train_idx", "truncated neighbors.0.ids",
                                    "int64 repeat_flags", "tcol past length cases.0.rows"])
def test_data_with_a_damaged_tensor_fails_naming_it(pipeline, tmp_path, capsys, damage):
    """A tensor of another dtype kind or shape, or with a code outside its
    range, fails at load, naming the file and the tensor, not later."""
    cfg = copy_run(pipeline, tmp_path)
    path = os.path.join(load_config(cfg).run_dir(), cli.DATA_FILE)
    header, tensors = dataio.read_tensors(path, features.DATA_MAGIC)
    del header["tensors"]
    assert header["neighbors"] and header["cases"]
    name = _damage_tensor(tensors, damage)
    dataio.write_tensors(path, features.DATA_MAGIC, header, tensors)
    assert cli.main(["analyze", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert f"cannot read the ingested data at {path}; run `fdrec ingest --config {cfg}`" in err
    detail = ("damaged case set 0" if name.startswith("cases.")
              else f"damaged tensor {name!r}")
    assert f"{path}: {detail}; run `fdrec ingest` again" in err

def test_eval_reports_keep_their_bytes_when_case_sets_are_built_on_a_miss(
        pipeline, tmp_path, monkeypatch):
    """``eval`` reads the sets ``ingest`` stored for ``[eval]``; with none
    stored it builds each set on first use, and every report is the same."""
    cfg = copy_run(pipeline, tmp_path)
    run_dir = load_config(cfg).run_dir()
    path = os.path.join(run_dir, cli.DATA_FILE)
    data = features.load(path)
    c = load_config(cfg).eval
    assert list(data._cases) == [(p, c.seed, c.max_cases) for p in evalharness.PROTOCOLS]
    built, build = [], evalharness.build_cases

    def counting(split, protocol, *args, **kwargs):
        built.append(protocol)
        return build(split, protocol, *args, **kwargs)

    monkeypatch.setattr(evalharness, "build_cases", counting)
    evals = (("hispop", "repeat"), ("sonly", "all"), ("ensemble", "combined"))
    names = ["eval.hispop.repeat.json", "eval.ensemble.combined.json",
             *(f"eval.sonly.{p}.json" for p in evalharness.PROTOCOLS)]
    reports = []
    for stored in (True, False):
        if not stored:
            data._cases.clear()
            data.save(path)
        for name in names:
            os.unlink(os.path.join(run_dir, name))
        for model, protocol in evals:
            assert cli.main(["eval", "--config", cfg, "--model", model,
                             "--protocol", protocol]) == 0
        reports.append([open(os.path.join(run_dir, n), "rb").read() for n in names])
    assert built == ["repeat", "repeat", "exploration", "combined", "combined"]
    assert reports[0] == reports[1]
    with open(os.path.join(pipeline[1], names[1]), "rb") as fh:
        assert fh.read() == reports[0][1]


@pytest.mark.parametrize("damage", ["tensors", "key", "spec", "trailing"])
def test_truncated_or_damaged_checkpoint_fails_naming_it(pipeline, tmp_path, capsys, damage):
    cfg = copy_run(pipeline, tmp_path)
    path = os.path.join(load_config(cfg).run_dir(), "reprec.ckpt")
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(damaged(blob, damage, b"meta"))
    assert cli.main(["eval", "--config", cfg, "--model", "reprec",
                     "--protocol", "repeat"]) == 1
    err = capsys.readouterr().err
    assert path in err
    assert "retrain with `fdrec train --model reprec`" in err
    assert ("8 trailing bytes" in err) == (damage == "trailing")


def restale(state, stale: str) -> None:
    """``state`` as a checkpoint of another version would hold it."""
    if stale == "missing":
        del state.params["inv_temp"]
    elif stale == "extra":
        state.add_param("attn.w", (4, 8), 0.0)
    else:
        state.params["fuse.w"] = ParamTensor("fuse.w", np.zeros((4, 8)))


@pytest.mark.parametrize("stale, model, detail", [
    ("missing", "ensemble", "missing inv_temp"),
    ("extra", "reprec", "extra attn.w"),
    ("shape", "exprec", "fuse.w shaped (4, 8) where (4, 16) is built"),
])
def test_checkpoint_of_another_version_fails_naming_its_parameters(
        pipeline, tmp_path, capsys, stale, model, detail):
    """The config hash and the data still match, so only the parameters can
    tell that the checkpoint is not what this version builds."""
    cfg = copy_run(pipeline, tmp_path)
    path = os.path.join(load_config(cfg).run_dir(), f"{model}.ckpt")
    state = load_checkpoint(path)
    restale(state, stale)
    save_checkpoint(state, path)
    protocol = cli.COMPATIBLE[model][0]
    assert cli.main(["eval", "--config", cfg, "--model", "ensemble",
                     "--protocol", "combined"]) == 1
    assert (f"checkpoint {path} does not hold the parameters this version builds for "
            f"{model}: {detail}; retrain with `fdrec train --model {model}`"
            ) in capsys.readouterr().err
    assert cli.main(["eval", "--config", cfg, "--model", model, "--protocol", protocol]) == 1
    assert f"{detail}; retrain" in capsys.readouterr().err


def test_ingest_rewrites_identical_data(pipeline):
    cfg_path, run_dir = pipeline
    path = os.path.join(run_dir, cli.DATA_FILE)
    with open(path, "rb") as fh:
        before = fh.read()
    assert cli.main(["ingest", "--config", cfg_path]) == 0
    with open(path, "rb") as fh:
        assert fh.read() == before


def test_ingest_reads_each_tsv_once(pipeline, tmp_path, monkeypatch):
    """What is fingerprinted must be what was parsed: one read of each file."""
    cfg = copy_run(pipeline, tmp_path)
    tsvs = [str(tmp_path / "data" / name) for name in ("interactions.tsv", "stores.tsv")]
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    assert cli.main(["ingest", "--config", cfg]) == 0
    assert [opened.count(path) for path in tsvs] == [1, 1]


def test_analyze_builds_no_vocabularies_or_sequences(pipeline, tmp_path, monkeypatch):
    cfg = copy_run(pipeline, tmp_path)

    def unused(*args):
        raise AssertionError("the analyses read only the split")

    monkeypatch.setattr(features, "build_vocabs", unused)
    monkeypatch.setattr(features, "build_sequences", unused)
    assert cli.main(["analyze", "--config", cfg]) == 0


def assert_same_fields(got, want, names):
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, name
            assert_array_equal(a, b, err_msg=name)
        else:
            assert a == b, name


def test_ingested_data_is_the_parsed_data(pipeline):
    cfg_path, run_dir = pipeline
    cfg = load_config(cfg_path)
    got = features.load(os.path.join(run_dir, cli.DATA_FILE))
    want = features.Dataset(*cli._load_split(cfg))
    assert got.fingerprint == want.fingerprint
    log_fields = [name for name in vars(want.split.log) if not name.startswith("_")]
    assert_same_fields(got.split.log, want.split.log, log_fields)
    for part in ("split", "vocabs", "seqs"):
        names = [f.name for f in dataclasses.fields(getattr(want, part)) if f.name != "log"]
        assert_same_fields(getattr(got, part), getattr(want, part), names)
    key = (cfg.model.k_neighbors, want.split.valid_boundary)
    assert list(got._neighbors) == [key]
    for a, b in zip(got._neighbors[key], exprec.neighbor_arrays(want.split.log, *key)):
        assert a.dtype == b.dtype
        assert_array_equal(a, b)


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


def _dead_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # exited and reaped: its pid names no process
    return child.pid


def test_stale_lock_of_an_exited_process_is_taken_over(tmp_path):
    lock = tmp_path / ".lock"
    lock.write_text(f"{_dead_pid()} {platform.node()}\n")
    with cli._RunDirLock(str(tmp_path)):
        assert lock.read_text() == f"{os.getpid()} {platform.node()}\n"
    assert not lock.exists()


def test_stale_lock_replaced_by_a_live_one_before_the_takeover_stays(tmp_path, monkeypatch):
    """Another command may replace the stale lock between this command's read
    and its takeover; the takeover then fails and leaves the live lock."""
    lock = tmp_path / ".lock"
    lock.write_text(f"{_dead_pid()} {platform.node()}\n")
    live = f"{os.getpid()} {platform.node()}\n"
    exited_here = cli._exited_here

    def replaced_after_the_read(owner):
        stale = exited_here(owner)
        lock.write_text(live)
        return stale

    monkeypatch.setattr(cli, "_exited_here", replaced_after_the_read)
    with pytest.raises(RuntimeError, match="run directory is locked"):
        with cli._RunDirLock(str(tmp_path)):
            pass
    assert lock.read_text() == live
    assert os.listdir(tmp_path) == [".lock"]


def test_lock_removed_by_its_holder_as_the_create_fails_is_taken(tmp_path, monkeypatch):
    """The holder may exit and remove its lock between this command's failed
    O_EXCL create and its read of the owner; the lock is then free."""
    lock = tmp_path / ".lock"
    lock.write_text(f"{os.getpid()} {platform.node()}-holder\n")
    real_open, failed = os.open, []

    def released_as_the_create_fails(path, flags, *args):
        try:
            return real_open(path, flags, *args)
        except FileExistsError:
            failed.append(path)
            os.unlink(path)
            raise

    monkeypatch.setattr(os, "open", released_as_the_create_fails)
    with cli._RunDirLock(str(tmp_path)):
        assert lock.read_text() == f"{os.getpid()} {platform.node()}\n"
    assert failed == [str(lock)]
    assert not lock.exists()


def test_lock_that_vanishes_at_both_attempts_fails_cleanly(tmp_path, monkeypatch):
    """Holders that take and release the lock around both creates leave
    nothing to read or write: the command fails with a clear error."""
    lock = tmp_path / ".lock"
    real_open = os.open

    def taken_and_released(path, flags, *args):
        if path == str(lock):
            raise FileExistsError(path)
        return real_open(path, flags, *args)

    monkeypatch.setattr(os, "open", taken_and_released)
    with pytest.raises(RuntimeError, match="keeps changing hands"):
        with cli._RunDirLock(str(tmp_path)):
            pass
    assert not lock.exists()


@pytest.mark.parametrize("owner", ["live", "other-host"])
def test_lock_of_a_live_or_foreign_owner_still_fails(tmp_path, owner):
    """A live pid holds its lock; a pid of another host cannot be checked."""
    pid, host = os.getpid(), platform.node()
    if owner == "other-host":
        pid, host = _dead_pid(), host + "-other"
    lock = tmp_path / ".lock"
    lock.write_text(f"{pid} {host}\n")
    want = re.escape(f"locked by pid {pid} on host {host}")
    with pytest.raises(RuntimeError, match=want):
        with cli._RunDirLock(str(tmp_path)):
            pass
    assert lock.read_text() == f"{pid} {host}\n"
