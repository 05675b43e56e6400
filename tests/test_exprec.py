import numpy as np
import pytest

from fdrec import diffcore as dc
from fdrec import evalharness, exprec, features
from fdrec.dataio import Interaction, SituationFeatures, time_facets
from fdrec.training import TrainSettings
from conftest import DAY, make_log, rng


def np_softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


ACTS = (
    lambda x: x,
    np.tanh,
    lambda x: 1.0 / (1.0 + np.exp(-x)),
    lambda x: np.maximum(x, 0.0),
)


def manual_gru(values, prefix, x, h):
    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    z = sig(values[f"{prefix}.wz"] @ x + values[f"{prefix}.uz"] @ h
            + values[f"{prefix}.bz"])
    r = sig(values[f"{prefix}.wr"] @ x + values[f"{prefix}.ur"] @ h
            + values[f"{prefix}.br"])
    cand = np.tanh(values[f"{prefix}.wh"] @ x
                   + values[f"{prefix}.uh"] @ (r * h) + values[f"{prefix}.bh"])
    return (1.0 - z) * h + z * cand


def build(split, **kw):
    return exprec.exprec_build(split, **kw)


def values_of(state):
    return {name: state.value(name) for name in state.params}


def user_history(split, n=5):
    log = split.log
    user_code = max(log.per_user, key=lambda c: len(log.per_user[c]))
    positions = log.per_user[user_code]
    history = [log.interaction(int(p)) for p in positions[:n]]
    p = int(positions[n])
    day, hour, dow = log.facets
    now = SituationFeatures(
        int(day[p]), int(hour[p]), int(dow[p]), log.location_ids[log.locs[p]]
    )
    return log.user_ids[user_code], history, now


def test_encode_history_empty_is_zero(tiny_split):
    state = build(tiny_split, dim=8, seed=0)
    np.testing.assert_array_equal(exprec.encode_history(state, []), np.zeros(8))


def test_encode_history_zero_gru_stays_zero(tiny_split):
    state = build(tiny_split, dim=8, seed=1)
    for name in state.params:
        if name.startswith("gru."):
            state.value(name)[...] = 0.0
    _, history, _ = user_history(tiny_split)
    np.testing.assert_array_equal(
        exprec.encode_history(state, history), np.zeros(8)
    )


def test_encode_history_respects_window(tiny_split):
    state = build(tiny_split, dim=8, seed=2, window=3)
    _, history, _ = user_history(tiny_split, n=6)
    full = exprec.encode_history(state, history)
    tail = exprec.encode_history(state, history[-3:])
    np.testing.assert_array_equal(full, tail)
    two = exprec.encode_history(state, history, limit=2)
    np.testing.assert_array_equal(
        two, exprec.encode_history(state, history[-2:])
    )


def test_encode_history_matches_manual_gru(tiny_split):
    state = build(tiny_split, dim=6, seed=3, window=10)
    values = values_of(state)
    meta = state.meta
    _, history, _ = user_history(tiny_split, n=4)
    loc_index = {l: i for i, l in enumerate(meta["location_ids"])}
    times = np.array([it.time for it in history], dtype=np.int64)
    _, hours, dows = time_facets(times, meta["tz_offset_minutes"], meta["epoch"])
    store_index = {s: i for i, s in enumerate(meta["store_ids"])}
    h = np.zeros(6)
    for it, hr, dw in zip(history, hours, dows):
        situ = (values["emb.hour"][int(hr)] + values["emb.dow"][int(dw)]
                + values["emb.loc"][loc_index.get(it.location_id,
                                                  features.FALLBACK)])
        x = np.concatenate([values["emb.store"][store_index[it.store_id]], situ])
        h = manual_gru(values, "gru.hist", x, h)
    np.testing.assert_allclose(exprec.encode_history(state, history), h,
                               atol=1e-12)


def test_condition_all_zero_inputs_gives_eighth(tiny_split):
    state = build(tiny_split, dim=8, seed=0)
    for name in state.params:
        state.value(name)[...] = 0.0
    out = exprec.condition_user(state, np.zeros(8), np.zeros(8))
    np.testing.assert_allclose(out, np.full(8, 0.125), atol=1e-15)


def test_condition_is_quarter_mix_when_gate_is_flat(tiny_split):
    state = build(tiny_split, dim=8, seed=4)
    state.value("cond.w")[...] = 0.0
    state.value("cond.b")[...] = 0.0
    u = rng(7).normal(size=8)
    want = sum(act(u) for act in ACTS) / 4.0
    np.testing.assert_allclose(
        exprec.condition_user(state, u, rng(8).normal(size=8)), want, atol=1e-12
    )


def test_condition_gate_responds_to_situation(tiny_split):
    state = build(tiny_split, dim=8, seed=5)
    values = values_of(state)
    mu = rng(9).normal(size=8)
    u = rng(10).normal(size=8)
    a = np_softmax(mu @ values["cond.w"].T + values["cond.b"])
    want = sum(aj * act(u) for aj, act in zip(a, ACTS))
    np.testing.assert_allclose(exprec.condition_user(state, u, mu), want,
                               atol=1e-12)


def collab_fixture(split, seed=0):
    state = build(split, dim=8, seed=seed)
    state.value("cond.w")[...] = 0.0
    state.value("cond.b")[...] = 0.0
    users = state.meta["user_ids"]

    def g(uid):
        idx = users.index(uid)
        emb = state.value("emb.user")[idx]
        return sum(act(emb) for act in ACTS) / 4.0

    return state, users, g


def test_collaborative_weights_are_normalized_similarities(tiny_split):
    state, users, g = collab_fixture(tiny_split)
    mu = np.zeros(8)
    out = exprec.collaborative_embedding(
        state, users[0], [(users[1], 0.6), (users[2], 0.2)], mu
    )
    np.testing.assert_allclose(out, 0.75 * g(users[1]) + 0.25 * g(users[2]),
                               atol=1e-12)


def test_collaborative_negative_similarities_are_clipped(tiny_split):
    state, users, g = collab_fixture(tiny_split, seed=1)
    out = exprec.collaborative_embedding(
        state, users[0], [(users[1], 0.5), (users[2], -0.5)], np.zeros(8)
    )
    np.testing.assert_allclose(out, g(users[1]), atol=1e-12)


def test_collaborative_uniform_fallback_when_no_positive_mass(tiny_split):
    state, users, g = collab_fixture(tiny_split, seed=2)
    out = exprec.collaborative_embedding(
        state, users[0], [(users[1], -1.0), (users[2], 0.0)], np.zeros(8)
    )
    np.testing.assert_allclose(out, 0.5 * g(users[1]) + 0.5 * g(users[2]),
                               atol=1e-12)


def test_collaborative_empty_neighbors_is_zero(tiny_split):
    state = build(tiny_split, dim=8, seed=3)
    out = exprec.collaborative_embedding(
        state, state.meta["user_ids"][0], [], np.zeros(8)
    )
    np.testing.assert_array_equal(out, np.zeros(8))


def test_collaborative_rejects_self_neighbor(tiny_split):
    state = build(tiny_split, dim=8, seed=3)
    u = state.meta["user_ids"][0]
    with pytest.raises(ValueError, match="own neighbor"):
        exprec.collaborative_embedding(state, u, [(u, 0.9)], np.zeros(8))


def test_fusion_weights_uniform_when_head_is_zero(tiny_split):
    state = build(tiny_split, dim=8, seed=0)
    state.value("fuse.w")[...] = 0.0
    state.value("fuse.b")[...] = 0.0
    w = exprec.fusion_weights(state, rng(1).normal(size=8),
                              rng(2).normal(size=8))
    np.testing.assert_allclose(w, np.full(4, 0.25), atol=1e-15)


def test_fusion_weights_masking(tiny_split):
    state = build(tiny_split, dim=8, seed=6)
    e_mu, e_u = rng(3).normal(size=8), rng(4).normal(size=8)
    w = exprec.fusion_weights(state, e_mu, e_u)
    assert w.sum() == pytest.approx(1.0) and (w > 0).all()
    masked = exprec.fusion_weights(state, e_mu, e_u,
                                   ablation_mask=[True, False, False, False])
    assert masked[0] == 0.0
    assert masked[1:].sum() == pytest.approx(1.0)
    # kept logits are renormalized, preserving their relative order
    order = np.argsort(w[1:])
    np.testing.assert_array_equal(np.argsort(masked[1:]), order)
    with pytest.raises(ValueError, match="4 entries"):
        exprec.fusion_weights(state, e_mu, e_u, ablation_mask=[True, False])
    with pytest.raises(ValueError, match="all four"):
        exprec.fusion_weights(state, e_mu, e_u, ablation_mask=[True] * 4)


def test_trigger_fusion_is_weighted_sum(tiny_split):
    state = build(tiny_split, dim=8, seed=7)
    vecs = [rng(i).normal(size=8) for i in range(4)]
    w = exprec.fusion_weights(state, vecs[0], vecs[2])
    want = sum(wk * v for wk, v in zip(w, vecs))
    np.testing.assert_allclose(exprec.trigger_fusion(state, *vecs), want,
                               atol=1e-12)


def test_score_matches_manual_transcription(tiny_split):
    state = build(tiny_split, dim=8, seed=11, window=4)
    values = values_of(state)
    meta = state.meta
    user, history, now = user_history(tiny_split, n=6)
    visited = {it.store_id for it in history}
    candidates = [s for s in meta["store_ids"] if s not in visited][:4]
    others = [u for u in meta["user_ids"] if u != user]
    neighbors = [(others[0], 0.6), (others[1], 0.2)]

    slate = exprec.exprec_score(state, user, history, now, candidates,
                                neighbors=neighbors)

    loc_index = {l: i for i, l in enumerate(meta["location_ids"])}
    store_index = {s: i for i, s in enumerate(meta["store_ids"])}
    user_index = {u: i for i, u in enumerate(meta["user_ids"])}
    e_mu = (values["emb.hour"][now.hour] + values["emb.dow"][now.day_of_week]
            + values["emb.loc"][loc_index.get(now.location_id,
                                              features.FALLBACK)])
    h = np.zeros(8)
    tail = history[-int(meta["window"]):]
    times = np.array([it.time for it in tail], dtype=np.int64)
    _, hours, dows = time_facets(times, meta["tz_offset_minutes"], meta["epoch"])
    for it, hr, dw in zip(tail, hours, dows):
        situ = (values["emb.hour"][int(hr)] + values["emb.dow"][int(dw)]
                + values["emb.loc"][loc_index.get(it.location_id,
                                                  features.FALLBACK)])
        x = np.concatenate([values["emb.store"][store_index[it.store_id]], situ])
        h = manual_gru(values, "gru.hist", x, h)

    a = np_softmax(e_mu @ values["cond.w"].T + values["cond.b"])

    def g(v):
        return sum(aj * act(v) for aj, act in zip(a, ACTS))

    e_u = g(values["emb.user"][user_index[user]])
    e_cu = (0.75 * g(values["emb.user"][user_index[others[0]]])
            + 0.25 * g(values["emb.user"][user_index[others[1]]]))
    logits = np.concatenate([e_mu, e_u]) @ values["fuse.w"].T + values["fuse.b"]
    w = np_softmax(logits)
    s_e = w[0] * e_mu + w[1] * h + w[2] * e_u + w[3] * e_cu
    want = np.array([values["emb.store"][store_index[c]] @ s_e
                     for c in candidates])
    np.testing.assert_allclose(slate.scores, want, atol=1e-10)


def test_score_input_validation(tiny_split):
    state = build(tiny_split, dim=8, seed=0)
    user, history, now = user_history(tiny_split)
    visited_store = history[0].store_id
    with pytest.raises(ValueError, match="already visited"):
        exprec.exprec_score(state, user, history, now, [visited_store])
    fresh = [s for s in state.meta["store_ids"]
             if s not in {it.store_id for it in history}]
    with pytest.raises(ValueError, match="unknown user"):
        exprec.exprec_score(state, "nobody", history, now, fresh[:1])


def test_score_ablation_changes_output(tiny_split):
    state = build(tiny_split, dim=8, seed=13)
    user, history, now = user_history(tiny_split)
    fresh = [s for s in state.meta["store_ids"]
             if s not in {it.store_id for it in history}][:3]
    base = exprec.exprec_score(state, user, history, now, fresh).scores
    masked = exprec.exprec_score(
        state, user, history, now, fresh,
        ablation_mask=[True, False, False, False],
    ).scores
    assert not np.allclose(base, masked)


def test_neighbor_arrays_ignore_interactions_after_cutoff():
    """Two logs identical before the cutoff must yield identical tables."""
    before = [
        ("u0", "a", 1 * DAY, "l0"), ("u0", "b", 2 * DAY, "l0"),
        ("u1", "a", 1 * DAY + 60, "l0"), ("u1", "b", 2 * DAY + 60, "l0"),
        ("u2", "c", 3 * DAY, "l1"), ("u2", "a", 4 * DAY, "l1"),
    ]
    after_a = [("u0", "c", 10 * DAY, "l1"), ("u2", "b", 11 * DAY, "l0")]
    after_b = [("u1", "c", 10 * DAY, "l9"), ("u2", "c", 12 * DAY, "l1"),
               ("u0", "a", 12 * DAY, "l0")]
    cutoff = 5 * DAY
    users = ["u0", "u1", "u2"]
    ids_a, w_a = exprec.neighbor_arrays(make_log(before + after_a), users, 2,
                                        cutoff)
    ids_b, w_b = exprec.neighbor_arrays(make_log(before + after_b), users, 2,
                                        cutoff)
    np.testing.assert_array_equal(ids_a, ids_b)
    np.testing.assert_array_equal(w_a, w_b)
    assert (w_a.sum(axis=1) > 0).all()


def test_neighbor_arrays_pad_users_without_history():
    records = [
        ("u0", "a", 10 * DAY, "l0"), ("u0", "b", 11 * DAY, "l0"),
        ("u1", "a", 10 * DAY, "l0"), ("u1", "b", 11 * DAY, "l0"),
    ]
    log = make_log(records)
    ids, w = exprec.neighbor_arrays(log, ["u0", "u1"], 3, as_of=1 * DAY)
    np.testing.assert_array_equal(ids, np.full((2, 3), -1))
    np.testing.assert_array_equal(w, np.zeros((2, 3)))


def batch_loss_fd_error(tiny_split, ablation_mask):
    state = build(tiny_split, dim=6, seed=17, window=4, k_neighbors=3)
    vocabs = features.build_vocabs(tiny_split)
    seqs = features.build_sequences(tiny_split, vocabs)
    n_stores = len(vocabs.store_ids)
    train_rows = seqs.flat_of_global[tiny_split.train_idx]
    local = train_rows - seqs.offsets[
        np.searchsorted(seqs.offsets, train_rows, side="right") - 1
    ]
    keep = ((~seqs.repeat[train_rows])
            & (seqs.distinct_before[train_rows] <= n_stores - 2)
            & (local >= 1))
    rows = train_rows[keep][:8]
    assert len(rows) >= 4
    nb_ids, nb_w = exprec.neighbor_arrays(
        tiny_split.log, vocabs.user_ids, 3, tiny_split.valid_boundary
    )
    win = features.gather_window(seqs, rows, 4)
    visited = exprec._visited_mask(seqs, rows, n_stores)
    neg = exprec._sample_unvisited(rng(0), visited, win.target)

    err = dc.finite_difference_check(
        lambda s: exprec.exprec_batch_loss(s, win, (nb_ids, nb_w), neg,
                                           ablation_mask),
        state, num_coords=80, rng_seed=1,
    )
    return err


def test_batch_loss_gradients_match_finite_differences(tiny_split):
    assert batch_loss_fd_error(tiny_split, None) <= 1e-4


def test_masked_batch_loss_gradients_match_finite_differences(tiny_split):
    # the ablated trigger's -inf logit must leave every gradient finite
    assert batch_loss_fd_error(tiny_split, (False, True, False, True)) <= 1e-4


MASKS = [None] + [tuple(i == j for i in range(4)) for j in range(4)]


@pytest.mark.parametrize("mask", MASKS, ids=["none", *exprec.TRIGGERS])
def test_scorer_matches_public_op(small_split, small_seqs, mask):
    seqs, vocabs = small_seqs
    state = build(small_split, dim=8, seed=19, window=6, k_neighbors=4)
    nb_ids, nb_w = exprec.neighbor_arrays(
        small_split.log, vocabs.user_ids,
        int(state.meta["k_neighbors"]), int(state.meta["neighbor_as_of"]),
    )
    cases = evalharness.build_cases(small_split, "exploration", seed=0,
                                    max_cases=10, seqs=seqs, vocabs=vocabs)
    scorer = exprec.exprec_scorer(state, small_split, cases, seqs=seqs,
                                  vocabs=vocabs, ablation_mask=mask)
    log = small_split.log
    day, hour, dow = log.facets
    for case in cases:
        p = case.position
        u = int(log.users[p])
        history = [log.interaction(int(q)) for q in log.per_user[u] if q < p]
        now = SituationFeatures(int(day[p]), int(hour[p]), int(dow[p]),
                                log.location_ids[log.locs[p]])
        neighbors = [(vocabs.user_ids[int(i)], float(wk))
                     for i, wk in zip(nb_ids[u], nb_w[u]) if i >= 0]
        want = exprec.exprec_score(state, case.user_id, history, now,
                                   case.candidates, ablation_mask=mask,
                                   neighbors=neighbors).scores
        np.testing.assert_allclose(scorer(case).scores, want, atol=1e-9)


def test_scorer_ablation_mask_zeroes_trigger(small_split, small_seqs):
    seqs, vocabs = small_seqs
    state = build(small_split, dim=8, seed=21)
    cases = evalharness.build_cases(small_split, "exploration", seed=1,
                                    max_cases=5, seqs=seqs, vocabs=vocabs)
    plain = exprec.exprec_scorer(state, small_split, cases, seqs=seqs, vocabs=vocabs)
    masked = exprec.exprec_scorer(
        state, small_split, cases, seqs=seqs, vocabs=vocabs,
        ablation_mask=[True, False, False, False],
    )
    diffs = [not np.allclose(plain(c).scores, masked(c).scores) for c in cases]
    assert any(diffs)


def test_scorer_defaults_to_the_trained_mask(small_split, small_seqs):
    seqs, vocabs = small_seqs
    mask = (False, False, False, True)
    state = build(small_split, dim=8, seed=23, ablation_mask=mask)
    assert state.meta["ablate"] == list(mask)
    cases = evalharness.build_cases(small_split, "exploration", seed=1,
                                    max_cases=5, seqs=seqs, vocabs=vocabs)
    implicit = exprec.exprec_scorer(state, small_split, cases, seqs=seqs,
                                    vocabs=vocabs)
    explicit = exprec.exprec_scorer(state, small_split, cases, seqs=seqs,
                                    vocabs=vocabs, ablation_mask=mask)
    for case in cases:
        np.testing.assert_array_equal(implicit(case).scores, explicit(case).scores)


def test_training_is_deterministic(small_split):
    settings = TrainSettings(lr=0.05, batch_size=64, patience=2, max_epochs=3,
                             seed=2)
    state, result = exprec.exprec_train(small_split, settings, dim=8, window=6,
                                        k_neighbors=4, val_max_cases=50)
    state2, result2 = exprec.exprec_train(small_split, settings, dim=8,
                                          window=6, k_neighbors=4,
                                          val_max_cases=50)
    assert result.history == result2.history
    assert state.meta["model"] == "exprec"
    for name in state.params:
        np.testing.assert_array_equal(state.value(name), state2.value(name))
