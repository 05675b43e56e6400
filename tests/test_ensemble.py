import numpy as np
import pytest

import oracles
from fdrec import diffcore as dc
from fdrec import baselines, ensemble, evalharness, exprec, features, reprec
from fdrec.training import ModelSection, TrainSettings
from oracles import ScoredSlate, SituationFeatures
from conftest import rng, take
from test_exprec import manual_gru, np_softmax


def build(data, seed=0, **model):
    return ensemble.ensemble_build(data, ModelSection(**model), seed)


def test_intent_estimate_validation():
    est = oracles.IntentEstimate(0.6, 0.4)
    assert est.repeat_prob == 0.6
    with pytest.raises(ValueError, match="lie in"):
        oracles.IntentEstimate(1.2, -0.2)
    with pytest.raises(ValueError, match="sum to 1"):
        oracles.IntentEstimate(0.6, 0.3)


def test_predict_intent_zero_state_is_even_split(tiny_data):
    state = build(tiny_data, dim=8, attn_dim=4)
    for name in state.params:
        state.value(name)[...] = 0.0
    user = state.meta["user_ids"][0]
    now = SituationFeatures(0, 12, 2, state.meta["location_ids"][0])
    est = oracles.predict_intent(state, user, [True, False, True], now)
    assert est.repeat_prob == pytest.approx(0.5, abs=1e-12)
    assert est.explore_prob == pytest.approx(0.5, abs=1e-12)


def test_predict_intent_unknown_user(tiny_data):
    state = build(tiny_data, dim=8, attn_dim=4)
    now = SituationFeatures(0, 12, 2, state.meta["location_ids"][0])
    with pytest.raises(ValueError, match="unknown user"):
        oracles.predict_intent(state, "nobody", [True], now)


def test_predict_intent_matches_manual_transcription(tiny_data):
    state = build(tiny_data, dim=8, attn_dim=4, seed=5, history_window=3)
    values = {n: state.value(n) for n in state.params}
    meta = state.meta
    user = meta["user_ids"][1]
    flags = [True, False, False, True, True]
    now = SituationFeatures(4, 19, 6, meta["location_ids"][0])
    est = oracles.predict_intent(state, user, flags, now)

    h = np.zeros(8)
    for f in flags[-3:]:  # history is windowed
        h = manual_gru(values, "gru.intent", values["emb.flag"][int(f)], h)
    e_mu = (values["emb.hour"][19] + values["emb.dow"][6]
            + values["emb.loc"][0])
    u = values["emb.user"][1]
    logits = (np.concatenate([h, e_mu, u]) @ values["intent.w"].T
              + values["intent.b"])
    want = np_softmax(logits)
    assert est.repeat_prob == pytest.approx(want[0], abs=1e-12)
    assert est.explore_prob == pytest.approx(want[1], abs=1e-12)
    assert est.repeat_prob + est.explore_prob == pytest.approx(1.0)


def test_batched_intent_matches_single_op(small_split, small_data, small_seqs):
    seqs, vocabs = small_seqs
    state = build(small_data, dim=8, attn_dim=4, seed=7, history_window=5)
    values = {n: state.value(n) for n in state.params}
    rows = seqs.flat_of_global[small_split.test_idx[:6]]
    probs = ensemble._intent_probs(state, small_data, rows)
    for i, row in enumerate(rows):
        row = int(row)
        ucode = int(np.searchsorted(seqs.offsets, row, side="right") - 1)
        lo = int(seqs.offsets[ucode])
        flags = [bool(seqs.repeat[r]) for r in range(lo, row)]
        now = oracles.situation(small_split.log, int(small_split.test_idx[i]))
        est = oracles.predict_intent(state, vocabs.user_ids[ucode], flags, now)
        assert probs[i, 0] == pytest.approx(est.repeat_prob, abs=1e-12)
        assert probs[i, 1] == pytest.approx(est.explore_prob, abs=1e-12)


def test_normalize_slate_reference_values():
    np.testing.assert_allclose(
        ensemble.normalize_slate([-2.0, 0.0, 2.0]), [0.0, 0.5, 1.0]
    )
    np.testing.assert_array_equal(
        ensemble.normalize_slate([3.0, 3.0, 3.0]), [0.5, 0.5, 0.5]
    )
    np.testing.assert_array_equal(ensemble.normalize_slate([7.0]), [0.5])
    with pytest.raises(ValueError, match="empty"):
        ensemble.normalize_slate([])


def test_normalize_slate_affine_invariance():
    x = rng(3).normal(size=12)
    base = ensemble.normalize_slate(x)
    np.testing.assert_allclose(ensemble.normalize_slate(4.0 * x - 7.0), base,
                               atol=1e-12, rtol=0)
    assert base.min() == 0.0 and base.max() == 1.0


def slates_for(state, seed=0):
    stores = state.meta["store_ids"]
    gen = rng(seed)
    rep = ScoredSlate(tuple(stores[:3]),
                      ensemble.normalize_slate(gen.normal(size=3)), "reprec")
    exp = ScoredSlate(tuple(stores[3:7]),
                      ensemble.normalize_slate(gen.normal(size=4)), "exprec")
    return rep, exp


def test_combine_is_exact_elementwise_product(tiny_data):
    state = build(tiny_data, dim=8, attn_dim=4, seed=1)
    rep, exp = slates_for(state)
    out = oracles.combine(state, rep, exp, oracles.IntentEstimate(0.7, 0.3))
    assert out.a == 3 and out.b == 4
    assert out.candidates == rep.candidates + exp.candidates
    np.testing.assert_array_equal(out.base,
                                  np.concatenate([rep.scores, exp.scores]))
    np.testing.assert_array_equal(out.scores, out.weights * out.base)
    assert ((out.weights > 0) & (out.weights < 1)).all()


def test_combine_weights_match_attention_oracle(tiny_data):
    state = build(tiny_data, dim=8, attn_dim=4, seed=2)
    values = {n: state.value(n) for n in state.params}
    rep, exp = slates_for(state, seed=9)
    intent = oracles.IntentEstimate(0.25, 0.75)
    out = oracles.combine(state, rep, exp, intent)

    base = np.concatenate([rep.scores, exp.scores])
    origin = np.concatenate([np.ones(3), np.zeros(4)])
    A = 4
    X = np.stack([base, origin], axis=-1) @ values["lift.w"].T + values["lift.b"]
    att = np_softmax_rows((X @ values["attn.wq"]) @ (X @ values["attn.wk"]).T
                          / np.sqrt(A))
    H = X + att @ (X @ values["attn.wv"])
    q = np.array([0.25, 0.75]) @ values["cq.w"].T + values["cq.b"]
    att2 = np_softmax(q @ (H @ values["cross.wk"]).T / np.sqrt(A))
    c = att2 @ (H @ values["cross.wv"])
    feats = np.concatenate([H, np.tile(c, (len(H), 1))], axis=-1)
    logits = (feats @ values["proj.w"].T + values["proj.b"])[:, 0]
    want = 1.0 / (1.0 + np.exp(-logits))
    np.testing.assert_allclose(out.weights, want, atol=1e-12, rtol=0)


def np_softmax_rows(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def test_combine_single_sided_slates(tiny_data):
    state = build(tiny_data, dim=8, attn_dim=4, seed=3)
    rep, exp = slates_for(state, seed=4)
    intent = oracles.IntentEstimate(0.5, 0.5)
    only_rep = oracles.combine(state, rep, None, intent)
    assert only_rep.a == 3 and only_rep.b == 0
    only_exp = oracles.combine(state, None, exp, intent)
    assert only_exp.a == 0 and only_exp.b == 4
    np.testing.assert_array_equal(only_exp.scores,
                                  only_exp.weights * exp.scores)


def test_combine_input_validation(tiny_data):
    state = build(tiny_data, dim=8, attn_dim=4, seed=0)
    stores = state.meta["store_ids"]
    intent = oracles.IntentEstimate(0.5, 0.5)
    with pytest.raises(ValueError, match="both slates are empty"):
        oracles.combine(state, None, None, intent)
    rep, exp = slates_for(state)
    shared = ScoredSlate((stores[0], stores[5]), np.array([0.0, 1.0]), "exprec")
    with pytest.raises(ValueError, match="overlap"):
        oracles.combine(state, rep, shared, intent)
    raw = ScoredSlate(tuple(stores[7:9]), np.array([0.2, 1.5]), "exprec")
    with pytest.raises(ValueError, match="normalized"):
        oracles.combine(state, rep, raw, intent)


def test_item_weights_var_matches_numpy_path(tiny_data):
    state = build(tiny_data, dim=8, attn_dim=4, seed=6)
    values = {n: state.value(n) for n in state.params}
    gen = rng(11)
    G, n = 3, 5
    base = gen.uniform(size=(G, n))
    origin = (gen.uniform(size=(G, n)) > 0.5).astype(np.float64)
    probs_np = np_softmax_rows(gen.normal(size=(G, 2)))
    x_feats = np.stack([base, origin], axis=-1)
    out = ensemble._item_weights_var(state, x_feats, dc.Var(probs_np))
    for g in range(G):
        want = ensemble._item_weights_np(values, base[g], origin[g], probs_np[g])
        np.testing.assert_allclose(out.data[g], want, atol=1e-12, rtol=0)


ITEM_WEIGHT_SLATES = {
    # name: (C, leading repeat items a, constant base, Wq/Wk scale);
    # C=1000 and C=300 span several ROW_BLOCK blocks, the last one partial
    "C1000-a0": (1000, 0, False, 1.0),
    "C1000-a7": (1000, 7, False, 1.0),
    "C1000-a1000": (1000, 1000, False, 1.0),
    "C1": (1, 1, False, 1.0),
    "constant-base": (50, 10, True, 1.0),
    "large-logits": (300, 40, False, 150.0),
}


@pytest.mark.parametrize("slate", ITEM_WEIGHT_SLATES.values(),
                         ids=ITEM_WEIGHT_SLATES.keys())
def test_item_weights_factorized_attention_matches_plain_expression(tiny_data, slate):
    C, a, constant, scale = slate
    state = build(tiny_data, dim=8, attn_dim=4, seed=7)
    values = {n: state.value(n) for n in state.params}
    values["attn.wq"] = values["attn.wq"] * scale
    values["attn.wk"] = values["attn.wk"] * scale
    gen = rng(12)
    base = ensemble.normalize_slate(np.ones(C) if constant else gen.normal(size=C))
    origin = (np.arange(C) < a).astype(np.float64)
    probs = np.array([0.35, 0.65])

    A = 4
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = ensemble._item_weights_np(values, base, origin, probs)
        X = np.stack([base, origin], axis=-1) @ values["lift.w"].T + values["lift.b"]
        logits = (X @ values["attn.wq"]) @ (X @ values["attn.wk"]).T / np.sqrt(A)
        att = dc._softmax(logits, axis=-1)
        H = X + att @ (X @ values["attn.wv"])
        q = probs @ values["cq.w"].T + values["cq.b"]
        att2 = dc._softmax(q @ (H @ values["cross.wk"]).T / np.sqrt(A), axis=-1)
        c = att2 @ (H @ values["cross.wv"])
        feats = np.concatenate([H, np.broadcast_to(c, H.shape)], axis=-1)
        want = dc._sigmoid((feats @ values["proj.w"].T + values["proj.b"])[:, 0])
    if scale > 1.0:
        assert np.ptp(logits, axis=-1).max() > 1000.0  # exp overflows unshifted
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def frozen_bases(data, dim=6):
    rep = reprec.reprec_build(data, ModelSection(dim=dim), seed=31)
    exp = exprec.exprec_build(data, ModelSection(dim=dim, history_window=4, k_neighbors=3),
                              seed=32)
    return rep, exp


@pytest.mark.parametrize("budget", [2, 3, 4, 30])
def test_training_slates_stay_within_budget(small_data, budget):
    seqs = small_data.seqs
    rep, exp = frozen_bases(small_data, dim=8)
    rows = seqs.flat_of_global[small_data.split.train_idx][:400]
    slates = ensemble._build_training_slates(
        small_data, rows, budget=budget, seed=0, rep_state=rep, exp_state=exp,
    )
    assert slates
    assert max(len(sl.x_feats) for sl in slates) <= budget
    assert max(sl.a for sl in slates) <= budget // 2


def test_training_slate_construction(tiny_data):
    seqs = tiny_data.seqs
    rep, exp = frozen_bases(tiny_data)
    rows = seqs.flat_of_global[tiny_data.split.train_idx]
    rows = rows[seqs.distinct_before[rows] >= 1][:12]
    slates = ensemble._build_training_slates(
        tiny_data, rows, budget=6, seed=0, rep_state=rep, exp_state=exp,
    )
    assert slates
    for sl in slates:
        n = len(sl.x_feats)
        assert n <= 6 and 0 <= sl.tgt < n
        base, origin = sl.x_feats[:, 0], sl.x_feats[:, 1]
        assert base.min() >= 0.0 and base.max() <= 1.0
        np.testing.assert_array_equal(origin[: sl.a], 1.0)
        np.testing.assert_array_equal(origin[sl.a:], 0.0)
        # the target sits in the part matching its repeat flag
        if seqs.repeat[sl.row]:
            assert sl.tgt == 0 and sl.a >= 1
        else:
            assert sl.tgt == sl.a


def test_combined_loss_gradients_match_finite_differences(tiny_data):
    seqs = tiny_data.seqs
    state = build(tiny_data, dim=6, attn_dim=4, seed=33, history_window=4, budget=6)
    rep, exp = frozen_bases(tiny_data)
    rows = seqs.flat_of_global[tiny_data.split.train_idx]
    rows = rows[seqs.distinct_before[rows] >= 1][:8]
    slates = ensemble._build_training_slates(
        tiny_data, rows, budget=6, seed=1, rep_state=rep, exp_state=exp,
    )
    chunk = np.arange(len(slates))

    def forward(st):
        gen = np.random.Generator(np.random.PCG64(7))  # frozen draws per call
        return ensemble._combined_batch_loss(st, slates, seqs, chunk, gen, 1.0)

    err = oracles.finite_difference_check(forward, state, num_coords=80, rng_seed=2)
    assert err <= 1e-4


def test_train_runs_two_stages_and_is_deterministic(small_data):
    rep, exp = frozen_bases(small_data, dim=8)
    settings = TrainSettings(lr=0.05, batch_size=64, patience=2, max_epochs=2,
                             seed=3, max_instances=300, val_max_cases=40)
    model = ModelSection(dim=8, attn_dim=4, history_window=5, budget=6)
    state, results = ensemble.ensemble_train(small_data, settings, model, rep, exp)
    assert set(results) == {"intent", "combine"}
    assert state.meta["model"] == "ensemble"
    state2, results2 = ensemble.ensemble_train(small_data, settings, model, rep, exp)
    assert results["combine"].history == results2["combine"].history
    for name in state.params:
        np.testing.assert_array_equal(state.value(name), state2.value(name))
    with pytest.raises(ValueError, match="both frozen base models"):
        ensemble.ensemble_train(small_data, settings, model, None, exp)


def test_scorer_composes_public_pieces(small_split, small_data, small_seqs):
    seqs, vocabs = small_seqs
    state = build(small_data, dim=8, attn_dim=4, seed=41, history_window=5)
    rep, exp = frozen_bases(small_data, dim=8)
    nb_ids, nb_w = exprec.neighbor_arrays(
        small_split.log, int(exp.meta["k_neighbors"]), int(exp.meta["neighbor_as_of"])
    )
    cases = evalharness.build_cases(small_split, "combined", seed=0,
                                    max_cases=8, seqs=seqs, vocabs=vocabs)
    log = small_split.log
    rep_window = int(rep.meta["window"])
    scores = ensemble.ensemble_scores(state, rep, exp, small_data, cases)
    for i, case in enumerate(cases):
        p = case.position
        u = int(log.users[p])
        history = oracles.history_before(log, p)
        now = oracles.situation(log, p)
        a = case.n_prior
        rep_slate = None
        if a:
            raw = oracles.reprec_forward(rep, history[-rep_window:], now,
                                        list(case.candidates[:a])).scores
            rep_slate = ScoredSlate(case.candidates[:a],
                                    ensemble.normalize_slate(raw), "reprec")
        exp_slate = None
        if len(case.candidates) > a:
            neighbors = [(vocabs.user_ids[int(i)], float(wk))
                         for i, wk in zip(nb_ids[u], nb_w[u]) if i >= 0]
            raw = oracles.exprec_score(exp, case.user_id, history, now,
                                      case.candidates[a:],
                                      neighbors=neighbors).scores
            exp_slate = ScoredSlate(case.candidates[a:],
                                    ensemble.normalize_slate(raw), "exprec")
        lo = int(seqs.offsets[u])
        flags = [bool(f) for f in seqs.repeat[lo : lo + len(history)]]
        intent = oracles.predict_intent(state, case.user_id, flags, now)
        want = oracles.combine(state, rep_slate, exp_slate, intent)
        assert want.candidates == case.candidates
        np.testing.assert_allclose(scores[i, : len(want.scores)], want.scores,
                                   atol=1e-9, rtol=0)


@pytest.mark.parametrize("model, protocol", [
    ("sonly", "combined"), ("reprec", "repeat"), ("exprec", "exploration"),
    ("ensemble", "combined"),
])
def test_cases_across_chunks_score_as_each_case_alone(
    small_split, small_data, small_seqs, monkeypatch, model, protocol
):
    seqs, vocabs = small_seqs
    rep, exp = frozen_bases(small_data, dim=8)
    son = baselines.sonly_build(small_data, ModelSection(dim=8), seed=4)
    ens = build(small_data, dim=8, attn_dim=4, seed=43, history_window=5)
    scores = {
        "sonly": lambda cs: evalharness.dot_scores(son, small_data, cs, baselines.sonly_query),
        "reprec": lambda cs: evalharness.dot_scores(rep, small_data, cs, reprec.reprec_query),
        "exprec": lambda cs: evalharness.dot_scores(exp, small_data, cs, exprec.exprec_query),
        "ensemble": lambda cs: ensemble.ensemble_scores(ens, rep, exp, small_data, cs),
    }
    monkeypatch.setattr(features, "QUERY_CHUNK", 4)
    cases = evalharness.build_cases(small_split, protocol, seed=3, max_cases=11,
                                    seqs=seqs, vocabs=vocabs)
    assert len(cases) > 2 * features.QUERY_CHUNK
    together = scores[model](cases)
    for i in range(len(cases)):
        np.testing.assert_array_equal(together[i], scores[model](take(cases, [i]))[0])


def test_concat_scorer_returns_normalized_bases(small_split, small_data, small_seqs):
    seqs, vocabs = small_seqs
    rep, exp = frozen_bases(small_data, dim=8)
    cases = evalharness.build_cases(small_split, "combined", seed=2,
                                    max_cases=6, seqs=seqs, vocabs=vocabs)
    scores = ensemble.concat_scores(rep, exp, small_data, cases)
    for i, case in enumerate(cases):
        out = scores[i, : len(case.candidates)]
        a = case.n_prior
        assert out.min() >= 0.0 and out.max() <= 1.0
        if a >= 2:
            part = out[:a]
            assert part.min() == 0.0 and part.max() == 1.0
        if len(case.candidates) - a >= 2:
            part = out[a:]
            assert part.min() == 0.0 and part.max() == 1.0


def test_checkpoint_roundtrip(tiny_data, tmp_path):
    state = build(tiny_data, dim=8, attn_dim=4, seed=9)
    path = tmp_path / "ensemble.ckpt"
    dc.save_checkpoint(state, str(path))
    back = dc.load_checkpoint(str(path))
    assert back.meta == state.meta
    for name in state.params:
        np.testing.assert_array_equal(back.value(name), state.value(name))
