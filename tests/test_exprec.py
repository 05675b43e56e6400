import numpy as np
import pytest

import oracles
from fdrec import diffcore as dc
from fdrec import dataio, evalharness, exprec, features
from fdrec.dataio import time_facets
from fdrec.training import ModelSection, TrainSettings, pair_loss
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


def build(data, seed=0, ablation_mask=None, **model):
    """``exprec_build`` with ``model``'s ``ModelSection`` keys; the triggers
    set in ``ablation_mask`` (flags in ``TRIGGERS`` order) are ablated."""
    ablate = tuple(t for t, off in zip(exprec.TRIGGERS, ablation_mask or ()) if off)
    return exprec.exprec_build(data, ModelSection(ablate=ablate, **model), seed)


def values_of(state):
    return {name: state.value(name) for name in state.params}


def user_history(split, n=5):
    log = split.log
    by_code = oracles.per_user(log)
    user_code = max(by_code, key=lambda c: len(by_code[c]))
    positions = by_code[user_code]
    history = [oracles.interaction(log, int(p)) for p in positions[:n]]
    return log.user_ids[user_code], history, oracles.situation(log, int(positions[n]))


def test_encode_history_empty_is_zero(tiny_data):
    state = build(tiny_data, dim=8, seed=0)
    np.testing.assert_array_equal(oracles.encode_history(state, []), np.zeros(8))


def test_encode_history_zero_gru_stays_zero(tiny_split, tiny_data):
    state = build(tiny_data, dim=8, seed=1)
    for name in state.params:
        if name.startswith("gru."):
            state.value(name)[...] = 0.0
    _, history, _ = user_history(tiny_split)
    np.testing.assert_array_equal(
        oracles.encode_history(state, history), np.zeros(8)
    )


def test_encode_history_respects_window(tiny_split, tiny_data):
    state = build(tiny_data, dim=8, seed=2, history_window=3)
    _, history, _ = user_history(tiny_split, n=6)
    full = oracles.encode_history(state, history)
    tail = oracles.encode_history(state, history[-3:])
    np.testing.assert_array_equal(full, tail)
    two = oracles.encode_history(state, history, limit=2)
    np.testing.assert_array_equal(
        two, oracles.encode_history(state, history[-2:])
    )


def test_encode_history_matches_manual_gru(tiny_split, tiny_data):
    state = build(tiny_data, dim=6, seed=3, history_window=10)
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
    np.testing.assert_allclose(oracles.encode_history(state, history), h,
                               atol=1e-12, rtol=0)


def test_condition_all_zero_inputs_gives_eighth(tiny_data):
    state = build(tiny_data, dim=8, seed=0)
    for name in state.params:
        state.value(name)[...] = 0.0
    out = oracles.condition_user(state, np.zeros(8), np.zeros(8))
    np.testing.assert_allclose(out, np.full(8, 0.125), atol=1e-15, rtol=0)


def test_condition_is_quarter_mix_when_gate_is_flat(tiny_data):
    state = build(tiny_data, dim=8, seed=4)
    state.value("cond.w")[...] = 0.0
    state.value("cond.b")[...] = 0.0
    u = rng(7).normal(size=8)
    want = sum(act(u) for act in ACTS) / 4.0
    np.testing.assert_allclose(
        oracles.condition_user(state, u, rng(8).normal(size=8)), want, atol=1e-12
    , rtol=0)


def test_condition_gate_responds_to_situation(tiny_data):
    state = build(tiny_data, dim=8, seed=5)
    values = values_of(state)
    mu = rng(9).normal(size=8)
    u = rng(10).normal(size=8)
    a = np_softmax(mu @ values["cond.w"].T + values["cond.b"])
    want = sum(aj * act(u) for aj, act in zip(a, ACTS))
    np.testing.assert_allclose(oracles.condition_user(state, u, mu), want,
                               atol=1e-12, rtol=0)


def collab_fixture(data, seed=0):
    state = build(data, dim=8, seed=seed)
    state.value("cond.w")[...] = 0.0
    state.value("cond.b")[...] = 0.0
    users = state.meta["user_ids"]

    def g(uid):
        idx = users.index(uid)
        emb = state.value("emb.user")[idx]
        return sum(act(emb) for act in ACTS) / 4.0

    return state, users, g


def test_collaborative_weights_are_normalized_similarities(tiny_data):
    state, users, g = collab_fixture(tiny_data)
    mu = np.zeros(8)
    out = oracles.collaborative_embedding(
        state, users[0], [(users[1], 0.6), (users[2], 0.2)], mu
    )
    np.testing.assert_allclose(out, 0.75 * g(users[1]) + 0.25 * g(users[2]),
                               atol=1e-12, rtol=0)


def test_collaborative_negative_similarities_are_clipped(tiny_data):
    state, users, g = collab_fixture(tiny_data, seed=1)
    out = oracles.collaborative_embedding(
        state, users[0], [(users[1], 0.5), (users[2], -0.5)], np.zeros(8)
    )
    np.testing.assert_allclose(out, g(users[1]), atol=1e-12, rtol=0)


def test_collaborative_uniform_fallback_when_no_positive_mass(tiny_data):
    state, users, g = collab_fixture(tiny_data, seed=2)
    out = oracles.collaborative_embedding(
        state, users[0], [(users[1], -1.0), (users[2], 0.0)], np.zeros(8)
    )
    np.testing.assert_allclose(out, 0.5 * g(users[1]) + 0.5 * g(users[2]),
                               atol=1e-12, rtol=0)


def test_collaborative_empty_neighbors_is_zero(tiny_data):
    state = build(tiny_data, dim=8, seed=3)
    out = oracles.collaborative_embedding(
        state, state.meta["user_ids"][0], [], np.zeros(8)
    )
    np.testing.assert_array_equal(out, np.zeros(8))


def test_collaborative_rejects_self_neighbor(tiny_data):
    state = build(tiny_data, dim=8, seed=3)
    u = state.meta["user_ids"][0]
    with pytest.raises(ValueError, match="own neighbor"):
        oracles.collaborative_embedding(state, u, [(u, 0.9)], np.zeros(8))


def test_fusion_weights_uniform_when_head_is_zero(tiny_data):
    state = build(tiny_data, dim=8, seed=0)
    state.value("fuse.w")[...] = 0.0
    state.value("fuse.b")[...] = 0.0
    w = oracles.fusion_weights(state, rng(1).normal(size=8),
                              rng(2).normal(size=8))
    np.testing.assert_allclose(w, np.full(4, 0.25), atol=1e-15, rtol=0)


def test_fusion_weights_masking(tiny_data):
    state = build(tiny_data, dim=8, seed=6)
    e_mu, e_u = rng(3).normal(size=8), rng(4).normal(size=8)
    w = oracles.fusion_weights(state, e_mu, e_u)
    assert w.sum() == pytest.approx(1.0) and (w > 0).all()
    masked = oracles.fusion_weights(state, e_mu, e_u,
                                   ablation_mask=[True, False, False, False])
    assert masked[0] == 0.0
    assert masked[1:].sum() == pytest.approx(1.0)
    # kept logits are renormalized, preserving their relative order
    order = np.argsort(w[1:])
    np.testing.assert_array_equal(np.argsort(masked[1:]), order)
    with pytest.raises(ValueError, match="4 entries"):
        oracles.fusion_weights(state, e_mu, e_u, ablation_mask=[True, False])
    with pytest.raises(ValueError, match="all four"):
        oracles.fusion_weights(state, e_mu, e_u, ablation_mask=[True] * 4)


def test_trigger_fusion_is_weighted_sum(tiny_data):
    state = build(tiny_data, dim=8, seed=7)
    vecs = [rng(i).normal(size=8) for i in range(4)]
    w = oracles.fusion_weights(state, vecs[0], vecs[2])
    want = sum(wk * v for wk, v in zip(w, vecs))
    np.testing.assert_allclose(oracles.trigger_fusion(state, *vecs), want,
                               atol=1e-12, rtol=0)


def test_score_matches_manual_transcription(tiny_split, tiny_data):
    state = build(tiny_data, dim=8, seed=11, history_window=4)
    values = values_of(state)
    meta = state.meta
    user, history, now = user_history(tiny_split, n=6)
    visited = {it.store_id for it in history}
    candidates = [s for s in meta["store_ids"] if s not in visited][:4]
    others = [u for u in meta["user_ids"] if u != user]
    neighbors = [(others[0], 0.6), (others[1], 0.2)]

    slate = oracles.exprec_score(state, user, history, now, candidates,
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
    np.testing.assert_allclose(slate.scores, want, atol=1e-10, rtol=0)


def test_score_input_validation(tiny_split, tiny_data):
    state = build(tiny_data, dim=8, seed=0)
    user, history, now = user_history(tiny_split)
    visited_store = history[0].store_id
    with pytest.raises(ValueError, match="already visited"):
        oracles.exprec_score(state, user, history, now, [visited_store])
    fresh = [s for s in state.meta["store_ids"]
             if s not in {it.store_id for it in history}]
    with pytest.raises(ValueError, match="unknown user"):
        oracles.exprec_score(state, "nobody", history, now, fresh[:1])


def test_score_ablation_changes_output(tiny_split, tiny_data):
    state = build(tiny_data, dim=8, seed=13)
    user, history, now = user_history(tiny_split)
    fresh = [s for s in state.meta["store_ids"]
             if s not in {it.store_id for it in history}][:3]
    base = oracles.exprec_score(state, user, history, now, fresh).scores
    masked = oracles.exprec_score(
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
    log_a, log_b = make_log(before + after_a), make_log(before + after_b)
    assert log_a.user_ids == log_b.user_ids == users
    ids_a, w_a = exprec.neighbor_arrays(log_a, 2, cutoff)
    ids_b, w_b = exprec.neighbor_arrays(log_b, 2, cutoff)
    np.testing.assert_array_equal(ids_a, ids_b)
    np.testing.assert_array_equal(w_a, w_b)
    assert (w_a.sum(axis=1) > 0).all()


def test_neighbor_arrays_pad_users_without_history():
    records = [
        ("u0", "a", 10 * DAY, "l0"), ("u0", "b", 11 * DAY, "l0"),
        ("u1", "a", 10 * DAY, "l0"), ("u1", "b", 11 * DAY, "l0"),
    ]
    log = make_log(records)
    ids, w = exprec.neighbor_arrays(log, 3, as_of=1 * DAY)
    np.testing.assert_array_equal(ids, np.full((2, 3), -1))
    np.testing.assert_array_equal(w, np.zeros((2, 3)))


def pair_loss_fd_error(tiny_data, ablation_mask):
    # exprec_build's parameter draws do not depend on the mask
    state = build(tiny_data, dim=6, seed=17, history_window=4, k_neighbors=3,
                  ablation_mask=ablation_mask)
    seqs = tiny_data.seqs
    n_stores = len(tiny_data.vocabs.store_ids)
    train_rows = seqs.flat_of_global[tiny_data.split.train_idx]
    local = train_rows - seqs.offsets[
        np.searchsorted(seqs.offsets, train_rows, side="right") - 1
    ]
    keep = ((~seqs.repeat[train_rows])
            & (seqs.distinct_before[train_rows] <= n_stores - 2)
            & (local >= 1))
    rows = train_rows[keep][:8]
    assert len(rows) >= 4
    neg = exprec._unvisited_negatives(tiny_data, rows, rng(0))

    err = oracles.finite_difference_check(
        lambda s: pair_loss(s, exprec.exprec_query(s, tiny_data, rows), seqs.store[rows], neg),
        state, num_coords=80, rng_seed=1,
    )
    return err


def test_batch_loss_gradients_match_finite_differences(tiny_data):
    assert pair_loss_fd_error(tiny_data, None) <= 1e-4


def test_masked_batch_loss_gradients_match_finite_differences(tiny_data):
    # the ablated trigger's -inf logit must leave every gradient finite
    assert pair_loss_fd_error(tiny_data, (False, True, False, True)) <= 1e-4


MASKS = [None] + [tuple(i == j for i in range(4)) for j in range(4)]


@pytest.mark.parametrize("mask", MASKS, ids=["none", *exprec.TRIGGERS])
def test_scorer_matches_public_op(small_split, small_data, small_seqs, mask):
    seqs, vocabs = small_seqs
    state = build(small_data, dim=8, seed=19, history_window=6, k_neighbors=4,
                  ablation_mask=mask)
    nb_ids, nb_w = exprec.neighbor_arrays(
        small_split.log, int(state.meta["k_neighbors"]), int(state.meta["neighbor_as_of"])
    )
    cases = evalharness.build_cases(small_split, "exploration", seed=0,
                                    max_cases=10, seqs=seqs, vocabs=vocabs)
    log = small_split.log
    scores = evalharness.dot_scores(state, small_data, cases, exprec.exprec_query)
    for i, case in enumerate(cases):
        p = case.position
        u = int(log.users[p])
        neighbors = [(vocabs.user_ids[int(i)], float(wk))
                     for i, wk in zip(nb_ids[u], nb_w[u]) if i >= 0]
        want = oracles.exprec_score(state, case.user_id, oracles.history_before(log, p),
                                    oracles.situation(log, p), case.candidates,
                                    ablation_mask=mask, neighbors=neighbors).scores
        np.testing.assert_allclose(scores[i, : len(want)], want, atol=1e-9, rtol=0)


def test_scorer_ablation_mask_zeroes_trigger(small_split, small_data, small_seqs):
    seqs, vocabs = small_seqs
    plain = build(small_data, dim=8, seed=21)
    masked = build(small_data, dim=8, seed=21, ablation_mask=[True, False, False, False])
    for name in plain.params:  # the mask changes no parameter draw
        np.testing.assert_array_equal(plain.value(name), masked.value(name))
    cases = evalharness.build_cases(small_split, "exploration", seed=1,
                                    max_cases=5, seqs=seqs, vocabs=vocabs)
    assert not np.allclose(
        evalharness.dot_scores(plain, small_data, cases, exprec.exprec_query),
        evalharness.dot_scores(masked, small_data, cases, exprec.exprec_query))


def test_scorer_defaults_to_the_trained_mask(small_split, small_data, small_seqs, tmp_path):
    seqs, vocabs = small_seqs
    mask = (False, False, False, True)
    path = str(tmp_path / "exprec.ckpt")
    dc.save_checkpoint(build(small_data, dim=8, seed=23, ablation_mask=mask), path)
    state = dc.load_checkpoint(path)
    assert state.meta["ablate"] == list(mask)
    cases = evalharness.build_cases(small_split, "exploration", seed=1,
                                    max_cases=5, seqs=seqs, vocabs=vocabs)
    nb_ids, nb_w = exprec.neighbor_arrays(
        small_split.log, int(state.meta["k_neighbors"]), int(state.meta["neighbor_as_of"])
    )
    log = small_split.log
    scores = evalharness.dot_scores(state, small_data, cases, exprec.exprec_query)
    for i, case in enumerate(cases):
        p = case.position
        u = int(log.users[p])
        neighbors = [(vocabs.user_ids[int(j)], float(wk))
                     for j, wk in zip(nb_ids[u], nb_w[u]) if j >= 0]
        want = oracles.exprec_score(state, case.user_id, oracles.history_before(log, p),
                                    oracles.situation(log, p), case.candidates,
                                    ablation_mask=mask, neighbors=neighbors).scores
        np.testing.assert_allclose(scores[i, : len(want)], want, atol=1e-9, rtol=0)


def test_training_is_deterministic(small_data):
    settings = TrainSettings(lr=0.05, batch_size=64, patience=2, max_epochs=3,
                             seed=2, val_max_cases=50)
    model = ModelSection(dim=8, history_window=6, k_neighbors=4)
    state, result = exprec.exprec_train(small_data, settings, model)
    state2, result2 = exprec.exprec_train(small_data, settings, model)
    assert result.history == result2.history
    assert state.meta["model"] == "exprec"
    for name in state.params:
        np.testing.assert_array_equal(state.value(name), state2.value(name))


# ---------------------------------------------------------------- pooled neighbour trigger


def neighbour_batch(data, k=4):
    """A neighbour table [U, k] and 40 flat rows over which ``exprec_query``
    pools: users 1 and 2 share neighbours 3 and 7, user 4 has none, and user
    5 has the real neighbour 0 next to pads, which also read as code 0."""
    seqs = data.seqs
    ids, w = exprec.neighbor_arrays(data.split.log, k, data.split.valid_boundary)
    for user, nb, wk in ((1, [3, 5, 7, -1], [0.5, 0.3, 0.2, 0.0]),
                         (2, [7, 3, 0, 9], [0.4, 0.3, 0.2, 0.1]),
                         (4, [-1] * 4, [0.0] * 4),
                         (5, [0, -1, -1, -1], [1.0, 0.0, 0.0, 0.0])):
        ids[user], w[user] = nb, wk
    picked = [seqs.offsets[u] + j for u in (1, 2, 4, 5) for j in (3, 6)]
    assert list(seqs.user[picked]) == [1, 1, 2, 2, 4, 4, 5, 5]
    rows = np.concatenate([picked, rng(5).choice(len(seqs.user), size=32)])
    return (ids, w), rows


@pytest.mark.parametrize("mask", [None, (False, True, False, False)], ids=["none", "history"])
def test_pooled_neighbour_trigger_matches_the_dense_form(small_data, monkeypatch, mask):
    table, rows = neighbour_batch(small_data)
    monkeypatch.setattr(small_data, "neighbors", lambda k, as_of: table)
    state = build(small_data, dim=8, seed=29, history_window=6, k_neighbors=4,
                  ablation_mask=mask)
    target = rng(30).normal(size=(len(rows), 8))

    def forward_and_grads(query):
        oracles.zero_grads(state)
        q = query(state, small_data, rows)
        dc.backward(dc.sum_(dc.mul(q, target)))
        return {"query": q.data, **{n: p.grad.copy() for n, p in state.params.items()}}

    got = forward_and_grads(exprec.exprec_query)
    want = forward_and_grads(oracles.exprec_query_dense)
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=0, err_msg=name)
    assert np.abs(want["emb.user"]).max() > 0.0


def test_a_row_keeps_its_bits_in_chunks_with_different_neighbour_unions(small_data):
    """Two 128-row chunks: one of four users with few distinct neighbours,
    one of rows drawn over all users; the shared row sits at different
    positions and scores bit for bit the same."""
    seqs = small_data.seqs
    state = build(small_data, dim=8, seed=31, history_window=6, k_neighbors=10)
    ids, _ = small_data.neighbors(10, small_data.split.valid_boundary)
    few = np.flatnonzero(seqs.user < 4)
    row = few[5]
    small = np.concatenate([[row], rng(32).choice(few, size=127)])
    wide = rng(33).choice(len(seqs.user), size=128)
    wide[77] = row

    def union(chunk):
        return len(np.unique(np.maximum(ids[seqs.user[chunk]], 0)))

    assert 2 * union(small) < union(wide)
    np.testing.assert_array_equal(exprec.exprec_query(state, small_data, small).data[0],
                                  exprec.exprec_query(state, small_data, wide).data[77])


@pytest.fixture(scope="module")
def many_users_data():
    """800 users, so that a chunk's rows bring more than 384 distinct neighbours."""
    cfg = dataio.SynthConfig(n_users=800, n_stores=40, n_orders_per_user=4,
                             n_locations=4, seed=12)
    log, _ = dataio.generate_synthetic(cfg)
    return features.Dataset(dataio.split_global_timeline(
        log, test_window_s=4 * DAY, valid_window_s=4 * DAY))


def test_a_row_keeps_its_bits_among_more_than_384_distinct_neighbours(many_users_data):
    """Rows of a 128-row chunk whose neighbours span more codes than one BLAS
    k-block holds score bit for bit as each row does beside row 0 only.  At
    dims 8 and 16 one product over all the codes keeps the rows' bits too,
    so the test runs at dim 32, where it does not."""
    data, seqs = many_users_data, many_users_data.seqs
    state = build(data, dim=32, seed=34, history_window=4, k_neighbors=20)
    ids, _ = data.neighbors(20, data.split.valid_boundary)
    wide = rng(35).choice(len(seqs.user), size=128, replace=False)
    assert len(np.unique(np.maximum(ids[seqs.user[wide]], 0))) > 384
    q = exprec.exprec_query(state, data, wide).data
    for j in range(0, 128, 8):
        alone = np.zeros(128, dtype=np.int64)
        alone[0] = wide[j]
        np.testing.assert_array_equal(exprec.exprec_query(state, data, alone).data[0], q[j],
                                      err_msg=f"row {j}")
