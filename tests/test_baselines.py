import dataclasses

import numpy as np
import pytest

import oracles
from fdrec import baselines, evalharness, features
from fdrec.training import ModelSection, TrainSettings
from oracles import Interaction, SituationFeatures


# ---------------------------------------------------------------------------
# history popularity


def test_hispop_sums_situation_similarity():
    # store A seen in two situations (sims 0.9-ish), store B in one
    history = [
        Interaction("u", "A", 0, "l1"),
        Interaction("u", "A", 3600, "l1"),
        Interaction("u", "B", 7200, "l1"),
    ]
    # unix time 0 falls on a Thursday: day_of_week 3 with Monday = 0
    now = SituationFeatures(day_index=0, hour=2, day_of_week=3, location_id="l1")
    scores = oracles.hispop_score(history, now, ["A", "B"], epoch=0).scores
    sims = [
        oracles.situation_similarity(SituationFeatures(0, h, 3, "l1"), now)
        for h in (0, 1, 2)
    ]
    assert scores[0] == pytest.approx(sims[0] + sims[1], abs=1e-12)
    assert scores[1] == pytest.approx(sims[2], abs=1e-12)
    assert scores[0] > scores[1]  # frequency counts, all else equal


def test_hispop_worked_example_more_evidence_wins():
    # s_A with sims {0.9, 0.5}; s_B with {0.8}: A = 1.4 > B = 0.8
    a = np.array([0.9, 0.5]).sum()
    b = np.array([0.8]).sum()
    assert a > b  # documents the summation (not averaging) semantics


def test_hispop_rejects_unvisited_candidates():
    history = [Interaction("u", "A", 0, "l1")]
    now = SituationFeatures(0, 0, 0, "l1")
    with pytest.raises(ValueError, match="never visited"):
        oracles.hispop_score(history, now, ["A", "Z"], epoch=0)


def test_hispop_scorer_matches_public_op(small_split, small_data, small_seqs):
    seqs, vocabs = small_seqs
    log = small_split.log
    cases = evalharness.build_cases(small_split, "repeat", seed=0, seqs=seqs,
                                    vocabs=vocabs)
    scores = baselines.hispop_scores(small_data, cases)
    for i, case in enumerate(cases):
        want = oracles.hispop_score(
            oracles.history_before(log, case.position),
            oracles.situation(log, case.position), list(case.candidates),
            tz_offset_minutes=log.tz_offset_minutes, epoch=log.epoch,
        )
        # bit-equal: each total sums its store's similarities in history order
        np.testing.assert_array_equal(scores[i, : len(want.scores)], want.scores)
        assert not scores[i, len(want.scores):].any()


def test_hispop_scorer_names_the_case_of_an_unvisited_candidate(small_split, small_data,
                                                                small_seqs):
    seqs, vocabs = small_seqs
    cases = evalharness.build_cases(small_split, "repeat", seed=0, max_cases=5, seqs=seqs,
                                    vocabs=vocabs)
    row = seqs.flat_of_global[cases.position[2]]
    visited = seqs.store[seqs.offsets[seqs.user[row]] : row]
    unvisited = np.setdiff1d(np.arange(len(vocabs.store_ids)), visited)
    cand = cases.cand.copy()
    cand[2, cases.length[2] - 1] = unvisited[0]
    with pytest.raises(ValueError, match="visited candidates: case at log position "
                       f"{cases.position[2]}$"):
        baselines.hispop_scores(small_data, dataclasses.replace(cases, cand=cand))


def test_hispop_is_deterministic(small_split, small_data, small_seqs):
    seqs, vocabs = small_seqs
    cases = evalharness.build_cases(small_split, "repeat", seed=0, seqs=seqs,
                                    vocabs=vocabs)

    def scorer(cs):
        return baselines.hispop_scores(small_data, cs)

    r1 = evalharness.evaluate(scorer, cases, k=3)
    r2 = evalharness.evaluate(scorer, cases, k=3)
    assert oracles.to_json(r1) == oracles.to_json(r2)


# ---------------------------------------------------------------------------
# situation-only embedding model


def test_sonly_build_shapes(small_split, small_data):
    state = baselines.sonly_build(small_data, ModelSection(dim=16), seed=0)
    n_stores = len(small_split.log.store_ids)
    assert state.value("emb.store").shape == (n_stores, 16)
    assert state.value("emb.hour").shape == (24, 16)
    assert state.value("emb.dow").shape == (7, 16)
    assert state.meta["model"] == "sonly"
    assert state.meta["dim"] == 16


def test_sonly_score_is_dot_of_situation_and_store(small_split, small_data):
    state = baselines.sonly_build(small_data, ModelSection(dim=8), seed=1)
    log = small_split.log
    now = SituationFeatures(2, 13, 4, log.location_ids[0])
    candidates = log.store_ids[:5]
    scores = oracles.sonly_score(state, now, candidates).scores
    loc_ids = state.meta["location_ids"]
    loc_idx = loc_ids.index(log.location_ids[0])
    situ = (
        state.value("emb.hour")[13]
        + state.value("emb.dow")[4]
        + state.value("emb.loc")[loc_idx]
    )
    store_idx = [state.meta["store_ids"].index(c) for c in candidates]
    want = state.value("emb.store")[store_idx] @ situ
    np.testing.assert_allclose(scores, want, atol=1e-12, rtol=0)


def test_sonly_score_unseen_location_uses_fallback(small_split, small_data):
    state = baselines.sonly_build(small_data, ModelSection(dim=8), seed=1)
    now_known = SituationFeatures(0, 9, 2, "no-such-location")
    scores = oracles.sonly_score(state, now_known, small_split.log.store_ids[:3]).scores
    situ = (
        state.value("emb.hour")[9]
        + state.value("emb.dow")[2]
        + state.value("emb.loc")[features.FALLBACK]
    )
    idx = [state.meta["store_ids"].index(c) for c in small_split.log.store_ids[:3]]
    want = state.value("emb.store")[idx] @ situ
    np.testing.assert_allclose(scores, want, atol=1e-12, rtol=0)


def test_sonly_training_improves_validation_metric(small_data):
    settings = TrainSettings(lr=0.05, batch_size=128, patience=3, max_epochs=8,
                             seed=0)
    state, result = baselines.sonly_train(small_data, settings, ModelSection(dim=16))
    assert result.epochs >= 1
    assert result.best_metric == max(result.history)
    assert state.meta["model"] == "sonly"
    # training must be reproducible
    state2, result2 = baselines.sonly_train(small_data, settings, ModelSection(dim=16))
    assert result2.history == result.history
    for name in state.params:
        np.testing.assert_array_equal(state.value(name), state2.value(name))


def test_sonly_scorer_covers_all_protocols(small_split, small_data, small_seqs):
    seqs, vocabs = small_seqs
    state = baselines.sonly_build(small_data, ModelSection(dim=8), seed=0)
    for protocol in ("repeat", "exploration", "combined"):
        cases = evalharness.build_cases(small_split, protocol, seed=0,
                                        max_cases=10, seqs=seqs, vocabs=vocabs)
        report = evalharness.evaluate(
            lambda cs: evalharness.dot_scores(state, small_data, cs, baselines.sonly_query),
            cases, k=3)
        assert report.protocols[protocol]["n"] == len(cases)


def test_sonly_scorer_matches_public_op(small_split, small_data, small_seqs):
    seqs, vocabs = small_seqs
    log = small_split.log
    state = baselines.sonly_build(small_data, ModelSection(dim=8), seed=2)
    cases = evalharness.build_cases(small_split, "exploration", seed=0,
                                    max_cases=8, seqs=seqs, vocabs=vocabs)
    scores = evalharness.dot_scores(state, small_data, cases, baselines.sonly_query)
    for i, case in enumerate(cases):
        now = oracles.situation(log, case.position)
        want = oracles.sonly_score(state, now, list(case.candidates))
        np.testing.assert_allclose(scores[i, : len(want.scores)], want.scores,
                                   atol=1e-9, rtol=0)
