import numpy as np
import pytest

from fdrec import diffcore as dc
from fdrec import baselines, ensemble, evalharness, exprec, features, reprec
from fdrec.dataio import SituationFeatures
from fdrec.evalharness import ScoredSlate
from fdrec.training import TrainSettings
from conftest import rng
from test_exprec import manual_gru, np_softmax


def build(split, **kw):
    return ensemble.ensemble_build(split, **kw)


def test_intent_estimate_validation():
    est = ensemble.IntentEstimate(0.6, 0.4)
    assert est.repeat_prob == 0.6
    with pytest.raises(ValueError, match="lie in"):
        ensemble.IntentEstimate(1.2, -0.2)
    with pytest.raises(ValueError, match="sum to 1"):
        ensemble.IntentEstimate(0.6, 0.3)


def test_predict_intent_zero_state_is_even_split(tiny_split):
    state = build(tiny_split, dim=8, attn_dim=4)
    for name in state.params:
        state.value(name)[...] = 0.0
    user = state.meta["user_ids"][0]
    now = SituationFeatures(0, 12, 2, state.meta["location_ids"][0])
    est = ensemble.predict_intent(state, user, [True, False, True], now)
    assert est.repeat_prob == pytest.approx(0.5, abs=1e-12)
    assert est.explore_prob == pytest.approx(0.5, abs=1e-12)


def test_predict_intent_unknown_user(tiny_split):
    state = build(tiny_split, dim=8, attn_dim=4)
    now = SituationFeatures(0, 12, 2, state.meta["location_ids"][0])
    with pytest.raises(ValueError, match="unknown user"):
        ensemble.predict_intent(state, "nobody", [True], now)


def test_predict_intent_matches_manual_transcription(tiny_split):
    state = build(tiny_split, dim=8, attn_dim=4, seed=5, window=3)
    values = {n: state.value(n) for n in state.params}
    meta = state.meta
    user = meta["user_ids"][1]
    flags = [True, False, False, True, True]
    now = SituationFeatures(4, 19, 6, meta["location_ids"][0])
    est = ensemble.predict_intent(state, user, flags, now)

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


def test_batched_intent_matches_single_op(small_split, small_seqs):
    seqs, vocabs = small_seqs
    state = build(small_split, dim=8, attn_dim=4, seed=7, window=5)
    values = {n: state.value(n) for n in state.params}
    log = small_split.log
    day, hour, dow = log.facets
    rows = seqs.flat_of_global[small_split.test_idx[:6]]
    probs = ensemble._intent_probs(state, seqs, rows)
    for i, row in enumerate(rows):
        row = int(row)
        ucode = int(np.searchsorted(seqs.offsets, row, side="right") - 1)
        lo = int(seqs.offsets[ucode])
        flags = [bool(seqs.repeat[r]) for r in range(lo, row)]
        p = int(small_split.test_idx[:6][i])
        now = SituationFeatures(int(day[p]), int(hour[p]), int(dow[p]),
                                log.location_ids[log.locs[p]])
        est = ensemble.predict_intent(state, vocabs.user_ids[ucode], flags, now)
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
                               atol=1e-12)
    assert base.min() == 0.0 and base.max() == 1.0


def slates_for(state, seed=0):
    stores = state.meta["store_ids"]
    gen = rng(seed)
    rep = ScoredSlate(tuple(stores[:3]),
                      ensemble.normalize_slate(gen.normal(size=3)), "reprec")
    exp = ScoredSlate(tuple(stores[3:7]),
                      ensemble.normalize_slate(gen.normal(size=4)), "exprec")
    return rep, exp


def test_combine_is_exact_elementwise_product(tiny_split):
    state = build(tiny_split, dim=8, attn_dim=4, seed=1)
    rep, exp = slates_for(state)
    out = ensemble.combine(state, rep, exp, ensemble.IntentEstimate(0.7, 0.3))
    assert out.a == 3 and out.b == 4
    assert out.candidates == rep.candidates + exp.candidates
    np.testing.assert_array_equal(out.base,
                                  np.concatenate([rep.scores, exp.scores]))
    np.testing.assert_array_equal(out.scores, out.weights * out.base)
    assert ((out.weights > 0) & (out.weights < 1)).all()


def test_combine_weights_match_attention_oracle(tiny_split):
    state = build(tiny_split, dim=8, attn_dim=4, seed=2)
    values = {n: state.value(n) for n in state.params}
    rep, exp = slates_for(state, seed=9)
    intent = ensemble.IntentEstimate(0.25, 0.75)
    out = ensemble.combine(state, rep, exp, intent)

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
    np.testing.assert_allclose(out.weights, want, atol=1e-12)


def np_softmax_rows(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def test_combine_single_sided_slates(tiny_split):
    state = build(tiny_split, dim=8, attn_dim=4, seed=3)
    rep, exp = slates_for(state, seed=4)
    intent = ensemble.IntentEstimate(0.5, 0.5)
    only_rep = ensemble.combine(state, rep, None, intent)
    assert only_rep.a == 3 and only_rep.b == 0
    only_exp = ensemble.combine(state, None, exp, intent)
    assert only_exp.a == 0 and only_exp.b == 4
    np.testing.assert_array_equal(only_exp.scores,
                                  only_exp.weights * exp.scores)


def test_combine_input_validation(tiny_split):
    state = build(tiny_split, dim=8, attn_dim=4, seed=0)
    stores = state.meta["store_ids"]
    intent = ensemble.IntentEstimate(0.5, 0.5)
    with pytest.raises(ValueError, match="both slates are empty"):
        ensemble.combine(state, None, None, intent)
    rep, exp = slates_for(state)
    shared = ScoredSlate((stores[0], stores[5]), np.array([0.0, 1.0]), "exprec")
    with pytest.raises(ValueError, match="overlap"):
        ensemble.combine(state, rep, shared, intent)
    raw = ScoredSlate(tuple(stores[7:9]), np.array([0.2, 1.5]), "exprec")
    with pytest.raises(ValueError, match="normalized"):
        ensemble.combine(state, rep, raw, intent)


def test_item_weights_var_matches_numpy_path(tiny_split):
    state = build(tiny_split, dim=8, attn_dim=4, seed=6)
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
        np.testing.assert_allclose(out.data[g], want, atol=1e-12)


def test_item_weights_in_place_softmax_matches_plain_expression(tiny_split):
    state = build(tiny_split, dim=8, attn_dim=4, seed=7)
    values = {n: state.value(n) for n in state.params}
    gen = rng(12)
    C = 300
    base = gen.uniform(size=C)
    origin = (np.arange(C) < 40).astype(np.float64)
    probs = np.array([0.35, 0.65])
    got = ensemble._item_weights_np(values, base, origin, probs)

    A = 4
    X = np.stack([base, origin], axis=-1) @ values["lift.w"].T + values["lift.b"]
    att = dc._softmax((X @ values["attn.wq"]) @ (X @ values["attn.wk"]).T
                      / np.sqrt(A), axis=-1)
    H = X + att @ (X @ values["attn.wv"])
    q = probs @ values["cq.w"].T + values["cq.b"]
    att2 = dc._softmax(q @ (H @ values["cross.wk"]).T / np.sqrt(A), axis=-1)
    c = att2 @ (H @ values["cross.wv"])
    feats = np.concatenate([H, np.broadcast_to(c, H.shape)], axis=-1)
    want = dc._sigmoid((feats @ values["proj.w"].T + values["proj.b"])[:, 0])
    np.testing.assert_allclose(got, want, atol=1e-12)


def frozen_bases(split, dim=6):
    rep = reprec.reprec_build(split, dim=dim, seed=31)
    exp = exprec.exprec_build(split, dim=dim, seed=32, window=4, k_neighbors=3)
    return rep, exp


def test_training_slate_construction(tiny_split):
    vocabs = features.build_vocabs(tiny_split)
    seqs = features.build_sequences(tiny_split, vocabs)
    rep, exp = frozen_bases(tiny_split)
    neighbors = exprec.neighbor_arrays(tiny_split.log, vocabs.user_ids, 3,
                                       tiny_split.valid_boundary)
    rows = seqs.flat_of_global[tiny_split.train_idx]
    rows = rows[seqs.distinct_before[rows] >= 1][:12]
    slates = ensemble._build_training_slates(
        tiny_split, seqs, vocabs, rows, budget=6, seed=0,
        rep_state=rep, exp_state=exp, neighbors=neighbors,
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


def test_combined_loss_gradients_match_finite_differences(tiny_split):
    vocabs = features.build_vocabs(tiny_split)
    seqs = features.build_sequences(tiny_split, vocabs)
    state = build(tiny_split, dim=6, attn_dim=4, seed=33, window=4, budget=6)
    rep, exp = frozen_bases(tiny_split)
    neighbors = exprec.neighbor_arrays(tiny_split.log, vocabs.user_ids, 3,
                                       tiny_split.valid_boundary)
    rows = seqs.flat_of_global[tiny_split.train_idx]
    rows = rows[seqs.distinct_before[rows] >= 1][:8]
    slates = ensemble._build_training_slates(
        tiny_split, seqs, vocabs, rows, budget=6, seed=1,
        rep_state=rep, exp_state=exp, neighbors=neighbors,
    )
    chunk = np.arange(len(slates))

    def forward(st):
        gen = np.random.Generator(np.random.PCG64(7))  # frozen draws per call
        return ensemble._combined_batch_loss(st, slates, seqs, chunk, gen, 1.0)

    err = dc.finite_difference_check(forward, state, num_coords=80, rng_seed=2)
    assert err <= 1e-4


def test_train_runs_two_stages_and_is_deterministic(small_split):
    rep, exp = frozen_bases(small_split, dim=8)
    settings = TrainSettings(lr=0.05, batch_size=64, patience=2, max_epochs=2,
                             seed=3)
    state, results = ensemble.ensemble_train(
        small_split, rep, exp, settings, dim=8, attn_dim=4, window=5,
        budget=6, max_instances=300, val_max_cases=40,
    )
    assert set(results) == {"intent", "combine"}
    assert state.meta["model"] == "ensemble"
    state2, results2 = ensemble.ensemble_train(
        small_split, rep, exp, settings, dim=8, attn_dim=4, window=5,
        budget=6, max_instances=300, val_max_cases=40,
    )
    assert results["combine"].history == results2["combine"].history
    for name in state.params:
        np.testing.assert_array_equal(state.value(name), state2.value(name))
    with pytest.raises(ValueError, match="both frozen base models"):
        ensemble.ensemble_train(small_split, None, exp, settings)


def test_scorer_composes_public_pieces(small_split, small_seqs):
    seqs, vocabs = small_seqs
    state = build(small_split, dim=8, attn_dim=4, seed=41, window=5)
    rep, exp = frozen_bases(small_split, dim=8)
    nb_ids, nb_w = exprec.neighbor_arrays(
        small_split.log, vocabs.user_ids, int(exp.meta["k_neighbors"]),
        int(exp.meta["neighbor_as_of"]),
    )
    cases = evalharness.build_cases(small_split, "combined", seed=0,
                                    max_cases=8, seqs=seqs, vocabs=vocabs)
    scorer = ensemble.ensemble_scorer(state, rep, exp, small_split, cases,
                                      seqs=seqs, vocabs=vocabs,
                                      neighbors=(nb_ids, nb_w))
    log = small_split.log
    day, hour, dow = log.facets
    rep_window = int(rep.meta["window"])
    for case in cases:
        p = case.position
        u = int(log.users[p])
        history = [log.interaction(int(q)) for q in log.per_user[u] if q < p]
        now = SituationFeatures(int(day[p]), int(hour[p]), int(dow[p]),
                                log.location_ids[log.locs[p]])
        a = case.n_prior
        rep_slate = None
        if a:
            raw = reprec.reprec_forward(rep, history[-rep_window:], now,
                                        list(case.candidates[:a])).scores
            rep_slate = ScoredSlate(case.candidates[:a],
                                    ensemble.normalize_slate(raw), "reprec")
        exp_slate = None
        if len(case.candidates) > a:
            neighbors = [(vocabs.user_ids[int(i)], float(wk))
                         for i, wk in zip(nb_ids[u], nb_w[u]) if i >= 0]
            raw = exprec.exprec_score(exp, case.user_id, history, now,
                                      case.candidates[a:],
                                      neighbors=neighbors).scores
            exp_slate = ScoredSlate(case.candidates[a:],
                                    ensemble.normalize_slate(raw), "exprec")
        flags = [bool(f) for f in
                 seqs.repeat[seqs.user_slice(u)][: len(history)]]
        intent = ensemble.predict_intent(state, case.user_id, flags, now)
        want = ensemble.combine(state, rep_slate, exp_slate, intent)
        got = scorer(case)
        assert got.candidates == want.candidates
        np.testing.assert_allclose(got.scores, want.scores, atol=1e-9)


@pytest.mark.parametrize("model, protocol", [
    ("sonly", "combined"), ("reprec", "repeat"), ("exprec", "exploration"),
    ("ensemble", "combined"),
])
def test_cases_across_chunks_score_as_each_case_alone(
    small_split, small_seqs, monkeypatch, model, protocol
):
    seqs, vocabs = small_seqs
    rep, exp = frozen_bases(small_split, dim=8)
    son = baselines.sonly_build(small_split, dim=8, seed=4)
    ens = build(small_split, dim=8, attn_dim=4, seed=43, window=5)
    makers = {
        "sonly": lambda cs: baselines.sonly_scorer(son, small_split, cs, seqs, vocabs),
        "reprec": lambda cs: reprec.reprec_scorer(rep, small_split, cs, seqs, vocabs),
        "exprec": lambda cs: exprec.exprec_scorer(exp, small_split, cs, seqs, vocabs),
        "ensemble": lambda cs: ensemble.ensemble_scorer(ens, rep, exp, small_split,
                                                        cs, seqs, vocabs),
    }
    monkeypatch.setattr(features, "QUERY_CHUNK", 4)
    cases = evalharness.build_cases(small_split, protocol, seed=3, max_cases=11,
                                    seqs=seqs, vocabs=vocabs)
    assert len(cases) > 2 * features.QUERY_CHUNK
    together = makers[model](cases)
    for case in cases:
        alone = makers[model]([case])
        np.testing.assert_array_equal(together(case).scores, alone(case).scores)


def test_concat_scorer_returns_normalized_bases(small_split, small_seqs):
    seqs, vocabs = small_seqs
    rep, exp = frozen_bases(small_split, dim=8)
    cases = evalharness.build_cases(small_split, "combined", seed=2,
                                    max_cases=6, seqs=seqs, vocabs=vocabs)
    scorer = ensemble.concat_scorer(rep, exp, small_split, cases, seqs=seqs,
                                    vocabs=vocabs)
    for case in cases:
        out = scorer(case)
        a = case.n_prior
        assert out.origin == "concat"
        assert out.scores.min() >= 0.0 and out.scores.max() <= 1.0
        if a >= 2:
            part = out.scores[:a]
            assert part.min() == 0.0 and part.max() == 1.0
        if len(case.candidates) - a >= 2:
            part = out.scores[a:]
            assert part.min() == 0.0 and part.max() == 1.0


def test_checkpoint_roundtrip(tiny_split, tmp_path):
    state = build(tiny_split, dim=8, attn_dim=4, seed=9)
    path = tmp_path / "ensemble.ckpt"
    state.save(str(path))
    back = dc.ModelState.load(str(path))
    assert back.meta == state.meta
    for name in state.params:
        np.testing.assert_array_equal(back.value(name), state.value(name))
