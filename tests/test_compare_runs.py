"""``scripts/compare_runs.py`` on two small synthetic run directories."""

import importlib.util
import json
import pathlib

import numpy as np

from fdrec import dataio, features
from fdrec import diffcore as dc

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "compare_runs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("compare_runs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(root, nudge=0.0, intent_ll=-0.41951831392982525, hr=0.37):
    root.mkdir()
    state = dc.ModelState(seed=3)
    state.add_dense("head", 2, 3)
    state.add_embedding("emb", 4, 2)
    state.value("emb")[1, 0] += nudge
    dc.save_checkpoint(state, str(root / "exprec.ckpt"))
    train = {"model": "exprec", "stages": {"intent": {"history": [intent_ll], "epochs": 1},
                                            "combine": {"best_metric": 0.37}}}
    (root / "exprec.train.json").write_text(json.dumps(train))
    (root / "eval.exprec.exploration.json").write_text(json.dumps({"hr@3": hr}))
    (root / "analysis").mkdir()
    (root / "analysis" / "summary.csv").write_text("a,b\n1,2\n")
    return state


def test_identical_runs_report_every_file_identical(tmp_path, capsys):
    write_run(tmp_path / "a")
    write_run(tmp_path / "b")
    assert load_script().main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "analysis/summary.csv identical",
        "eval.exprec.exploration.json identical",
        "exprec.ckpt identical",
        "exprec.train.json identical",
    ]


def test_checkpoint_and_train_log_may_differ_with_their_figures(tmp_path):
    state = write_run(tmp_path / "a")
    write_run(tmp_path / "b", nudge=1e-13, intent_ll=-0.4195183139298253)
    lines, ok = load_script().compare(str(tmp_path / "a"), str(tmp_path / "b"))
    assert ok
    rel = 1e-13 / np.abs(state.value("emb")).max()
    assert lines[1:] == [
        "eval.exprec.exploration.json identical",
        f"exprec.ckpt differs max relative parameter difference {rel:.3g} (emb)",
        "exprec.train.json differs keys stages.intent.history max rel 1.3e-16",
    ]


def test_a_differing_eval_or_a_one_sided_file_fails(tmp_path, capsys):
    write_run(tmp_path / "a")
    write_run(tmp_path / "b", hr=0.38)
    script = load_script()
    assert script.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert "eval.exprec.exploration.json differs" in capsys.readouterr().out
    write_run(tmp_path / "c")
    (tmp_path / "c" / "eval.sonly.repeat.json").write_text("{}")
    lines, ok = script.compare(str(tmp_path / "a"), str(tmp_path / "c"))
    assert not ok
    assert f"eval.sonly.repeat.json only in {tmp_path / 'c'}" in lines


def test_a_lock_file_on_one_side_is_not_compared(tmp_path, capsys):
    """Every fdrec command leaves its run directory's ``.lock`` behind, and an
    older fdrec removed it, so the file says nothing about the run."""
    write_run(tmp_path / "a")
    write_run(tmp_path / "b")
    (tmp_path / "b" / ".lock").write_text("")
    (tmp_path / "b" / "analysis" / ".lock").write_text("123 host\n")
    assert load_script().main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out
    assert ".lock" not in out
    assert len(out.splitlines()) == 4


def test_a_differing_eval_shows_each_differing_key_with_both_values(tmp_path):
    for side, hr, params in (("a", 0.40384615384615385, 120), ("b", 0.4075, 96)):
        write_run(tmp_path / side)
        report = {"model": "exprec", "parameters": params,
                  "protocols": {"exploration": {"hr@3": hr, "ndcg@3": 0.3, "n": 52}}}
        if side == "b":
            report["protocols"]["exploration"]["ndcg@3"] = 0.30000000000000004
            report["seed"] = 0
        (tmp_path / side / "eval.exprec.exploration.json").write_text(json.dumps(report))
    lines, ok = load_script().compare(str(tmp_path / "a"), str(tmp_path / "b"))
    assert not ok
    assert lines[1] == (
        "eval.exprec.exploration.json differs parameters 120 -> 96, "
        "protocols.exploration.hr@3 0.4038 -> 0.4075, "
        "protocols.exploration.ndcg@3 0.3 -> 0.30000000000000004, seed absent -> 0"
    )


def test_checkpoints_with_other_parameters_name_them(tmp_path):
    write_run(tmp_path / "a")
    state = write_run(tmp_path / "b")
    state.add_param("inv_temp", (2,), 0.0)
    del state.params["head.b"]
    dc.save_checkpoint(state, str(tmp_path / "b" / "exprec.ckpt"))
    lines, ok = load_script().compare(str(tmp_path / "a"), str(tmp_path / "b"))
    assert ok
    assert lines[2] == ("exprec.ckpt differs parameters only in the first run: head.b; "
                        "only in the second run: inv_temp")


def test_a_differing_train_log_shows_each_numeric_keys_largest_relative_difference(tmp_path):
    for side, history, epochs, stop in (("a", [0.5, -0.25, 0.125], 3, "patience"),
                                        ("b", [0.5, -0.2500000001, 0.125], 4, "max_epochs")):
        write_run(tmp_path / side)
        train = {"stages": {"intent": {"history": history, "epochs": epochs,
                                       "stopped": stop, "grid": [[1.0], [2.0]]},
                            "combine": {"history": [0.3], "best": 0.0}}}
        if side == "b":
            train["stages"]["combine"].update(history=[0.3, 0.4], best=1e-300)
            train["stages"]["intent"]["grid"] = [[1.0], [3.0]]
        (tmp_path / side / "exprec.train.json").write_text(json.dumps(train))
    lines, ok = load_script().compare(str(tmp_path / "a"), str(tmp_path / "b"))
    assert ok
    assert lines[3] == (
        "exprec.train.json differs keys stages.combine.best max rel 1.0e+00, "
        "stages.combine.history, stages.intent.epochs max rel 2.5e-01, "
        "stages.intent.grid, stages.intent.history max rel 4.0e-10, stages.intent.stopped"
    )


def test_a_differing_data_file_names_its_header_keys_and_tensors(tmp_path):
    """As when a data.bin gains case sets: new header keys and tensors, and
    an old tensor whose dtype or values moved."""
    users = np.arange(4, dtype=np.int32)
    for side in ("a", "b"):
        header = {"fingerprint": "f", "neighbors": [[4, 9]]}
        tensors = {"users": users, "valid_idx": np.arange(2), "neighbors.0.ids": users}
        if side == "b":
            header.update(cases=[["repeat", 0, 5]], fingerprint="g")
            tensors.update({"cases.0.rows": np.zeros((4, 1), dtype=np.int64),
                            "cases.0.cand": np.zeros(1, dtype=np.uint8),
                            "valid_idx": np.arange(2, dtype=np.int32),
                            "neighbors.0.ids": users + 1})
            del tensors["users"]
        write_run(tmp_path / side)
        dataio.write_tensors(str(tmp_path / side / "data.bin"), features.DATA_MAGIC,
                             header, tensors)
    lines, ok = load_script().compare(str(tmp_path / "a"), str(tmp_path / "b"))
    assert ok
    assert lines[1] == (
        "data.bin differs header keys only in the second run: cases; "
        "header keys differ: fingerprint; tensors only in the first run: users; "
        "tensors only in the second run: cases.0.cand, cases.0.rows; "
        "tensors differ: neighbors.0.ids, valid_idx"
    )
