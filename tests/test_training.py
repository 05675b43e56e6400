"""End-to-end properties of the shared training loop across all four trainers:
each batch's tape is freed before the next forward, training reads no
test-window label, and no test case's rank reads a later order."""

import functools
import weakref

import numpy as np
import pytest

from fdrec import baselines, dataio, ensemble, evalharness, exprec, features, reprec, training
from fdrec.cli import COMPATIBLE
from fdrec.training import ModelSection, TrainSettings
from conftest import DAY, rng

SETTINGS = TrainSettings(lr=0.05, batch_size=64, patience=2, max_epochs=3, seed=3,
                         max_instances=300, val_max_cases=40)
MODEL = ModelSection(dim=8, history_window=5, k_neighbors=3, budget=6)
BASES = {"sonly": baselines.sonly_train, "reprec": reprec.reprec_train,
         "exprec": exprec.exprec_train}


def train_all(data):
    """``{model: (state, result)}`` for the three base trainers and the
    ensemble over the trained RepRec and ExpRec."""
    out = {name: train(data, SETTINGS, MODEL) for name, train in BASES.items()}
    out["ensemble"] = ensemble.ensemble_train(data, SETTINGS, MODEL, out["reprec"][0],
                                              out["exprec"][0])
    return out


def interior_nodes(out):
    """Every node of ``out``'s tape that an op made (not a leaf)."""
    nodes, seen, stack = [], set(), [out]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._vjp is not None:
            nodes.append(node)
        stack.extend(node._parents)
    return nodes


@pytest.mark.parametrize("model", ["sonly", "reprec", "exprec", "ensemble"])
def test_each_batch_tape_is_freed_before_the_next_forward_and_validation(
        small_data, model, monkeypatch):
    # ``Var`` has __slots__ and takes no weakref, so watch each node's array
    refs, calls = [], {"batch": 0, "val": 0}

    def all_dead(where):
        live = sum(ref() is not None for ref in refs)
        assert live == 0, f"{live} arrays of an earlier batch's tape are alive at {where}"

    def watched(run):
        def run_training(state, n, batch_loss, val_metric, settings, stream=0):
            def loss_of(st, chunk, gen):
                all_dead("a batch_loss call")
                calls["batch"] += 1
                loss = batch_loss(st, chunk, gen)
                refs.extend(weakref.ref(node.data) for node in interior_nodes(loss))
                return loss

            def metric_of(st):
                all_dead("a val_metric call")
                calls["val"] += 1
                return val_metric(st)

            return run(state, n, loss_of, metric_of, settings, stream)

        return run_training

    monkeypatch.setattr(training, "run_training", watched(training.run_training))
    monkeypatch.setattr(ensemble, "run_training", watched(ensemble.run_training))
    if model == "ensemble":
        rep = reprec.reprec_build(small_data, MODEL, seed=31)
        exp = exprec.exprec_build(small_data, MODEL, seed=32)
        ensemble.ensemble_train(small_data, SETTINGS, MODEL, rep, exp)
    else:
        BASES[model](small_data, SETTINGS, MODEL)
    all_dead("the end of training")
    assert refs and calls["batch"] > calls["val"] >= 2


def with_test_stores_permuted(split, seed, since=0):
    """``split`` with the stores of its test-window orders at or after time
    ``since`` permuted among themselves; users, times, locations and the
    catalog stay the same."""
    log, test = split.log, split.test_idx
    test = test[log.times[test] >= since]
    stores = log.stores.copy()
    stores[test] = stores[test[rng(seed).permutation(len(test))]]
    assert (stores != log.stores).any()
    moved = dataio.InteractionLog(log.user_ids, log.store_ids, log.location_ids, log.users,
                                  stores, log.times, log.locs,
                                  tz_offset_minutes=log.tz_offset_minutes, catalog=log.catalog)
    return dataio.split_global_timeline(moved, test_window_s=4 * DAY, valid_window_s=4 * DAY)


def test_training_reads_no_test_window_store(small_split):
    moved = with_test_stores_permuted(small_split, seed=7)
    for f in ("valid_boundary", "test_boundary", "train_idx", "valid_idx", "test_idx"):
        np.testing.assert_array_equal(getattr(moved, f), getattr(small_split, f))
    # a fresh Dataset each: nothing memoized on the session's carries over
    got = train_all(features.Dataset(moved))
    for model, (state, result) in train_all(features.Dataset(small_split)).items():
        state2, result2 = got[model]
        assert list(state.params) == list(state2.params), model
        for name in state.params:
            assert state.value(name).tobytes() == state2.value(name).tobytes(), (model, name)
        results = result if isinstance(result, dict) else {"": result}
        results2 = result2 if isinstance(result2, dict) else {"": result2}
        assert list(results) == list(results2), model
        for stage, a in results.items():
            b = results2[stage]
            assert (a.epochs, a.best_epoch) == (b.epochs, b.best_epoch), (model, stage)
            for x, y in ((a.best_metric, b.best_metric), (a.history, b.history)):
                assert np.array(x).tobytes() == np.array(y).tobytes(), (model, stage)


def ranks_of_every_model(data):
    """``{(model, protocol): (cases, ranks)}`` for each model that ``fdrec
    eval`` scores, trained on ``data``, over all test cases of each protocol
    it answers (``max_cases = 0``)."""
    trained = {m: state for m, (state, _) in train_all(data).items()}
    rep, exp, ens = trained["reprec"], trained["exprec"], trained["ensemble"]
    scorers = {"hispop": functools.partial(baselines.hispop_scores, data),
               "concat": functools.partial(ensemble.concat_scores, rep, exp, data),
               "ensemble": functools.partial(ensemble.ensemble_scores, ens, rep, exp, data)}
    for m, module in (("sonly", baselines), ("reprec", reprec), ("exprec", exprec)):
        scorers[m] = functools.partial(evalharness.dot_scores, trained[m], data,
                                       query=getattr(module, f"{m}_query"))
    out = {}
    for m, protocols in COMPATIBLE.items():
        for protocol in protocols:
            cases = data.cases(protocol, SETTINGS.seed, 0)
            out[m, protocol] = cases, evalharness.evaluate(scorers[m], cases).ranks
    return out


def test_no_test_case_rank_reads_a_later_order(small_split):
    """Permuting the stores of the test-window orders from a time T on, and
    training and scoring again, leaves every earlier test case's rank the
    same for every model and protocol."""
    times, test = small_split.log.times, small_split.test_idx
    since = int(np.sort(times[test])[len(test) // 2])
    moved = with_test_stores_permuted(small_split, seed=5, since=since)
    got = ranks_of_every_model(features.Dataset(moved))
    later_moved = 0
    for key, (cases, ranks) in ranks_of_every_model(features.Dataset(small_split)).items():
        cases2, ranks2 = got[key]
        before, before2 = times[cases.position] < since, times[cases2.position] < since
        assert 0 < before.sum() < len(cases), key
        np.testing.assert_array_equal(cases.position[before], cases2.position[before2])
        np.testing.assert_array_equal(ranks[before], ranks2[before2], err_msg=str(key))
        later_moved += not np.array_equal(ranks[~before], ranks2[~before2])
    assert later_moved  # the permutation reaches the later cases' ranks
