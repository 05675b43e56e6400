import numpy as np
import pytest

import oracles
from fdrec import diffcore as dc
from fdrec import evalharness, features, reprec
from fdrec.dataio import time_facets
from fdrec.training import ModelSection, TrainSettings, pair_loss
from oracles import Interaction, SituationFeatures
from conftest import rng


def situation_vec(state, hour, dow, loc_idx):
    return (
        state.value("emb.hour")[hour]
        + state.value("emb.dow")[dow]
        + state.value("emb.loc")[loc_idx]
    )


def brute_force_scores(state, history, now, candidates):
    """Direct transcription: profile = sum of cosine-weighted store vectors."""
    meta = state.meta
    store_index = {s: i for i, s in enumerate(meta["store_ids"])}
    loc_index = {l: i for i, l in enumerate(meta["location_ids"])}
    times = np.array([it.time for it in history], dtype=np.int64)
    _, hours, dows = time_facets(times, meta["tz_offset_minutes"], meta["epoch"])

    def cos(a, b):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0.0 or nb == 0.0:
            return 0.0
        return float(a @ b / (na * nb))

    mu_now = situation_vec(
        state, now.hour, now.day_of_week,
        loc_index.get(now.location_id, features.FALLBACK),
    )
    profile = np.zeros(meta["dim"])
    for it, h, d in zip(history, hours, dows):
        mu_i = situation_vec(
            state, int(h), int(d), loc_index.get(it.location_id, features.FALLBACK)
        )
        s_i = state.value("emb.store")[store_index[it.store_id]]
        profile = profile + cos(mu_i, mu_now) * s_i
    return np.array(
        [state.value("emb.store")[store_index[c]] @ profile for c in candidates]
    )


def sample_history(split, n=6, seed=0):
    log = split.log
    by_code = oracles.per_user(log)
    user_code = max(by_code, key=lambda c: len(by_code[c]))
    positions = by_code[user_code][: n + 1]
    history = [oracles.interaction(log, int(p)) for p in positions[:-1]]
    return history, oracles.situation(log, int(positions[-1]))


def test_forward_matches_brute_force(tiny_split, tiny_data):
    state = reprec.reprec_build(tiny_data, ModelSection(dim=12), seed=3)
    history, now = sample_history(tiny_split)
    candidates = sorted({it.store_id for it in history})
    slate = oracles.reprec_forward(state, history, now, candidates)
    want = brute_force_scores(state, history, now, candidates)
    np.testing.assert_allclose(slate.scores, want, atol=1e-9, rtol=0)
    assert slate.candidates == tuple(candidates)


def test_forward_identical_situation_scores_self_similarity(tiny_split, tiny_data):
    state = reprec.reprec_build(tiny_data, ModelSection(dim=8), seed=0)
    log = tiny_split.log
    sid = log.store_ids[0]
    meta = state.meta
    # one history entry whose situation equals "now": cosine weight is 1
    day0, hour0, dow0 = time_facets(
        np.array([meta["epoch"]]), meta["tz_offset_minutes"], meta["epoch"]
    )
    entry = Interaction("u", sid, meta["epoch"], log.location_ids[0])
    now = SituationFeatures(int(day0[0]), int(hour0[0]), int(dow0[0]),
                            log.location_ids[0])
    slate = oracles.reprec_forward(state, [entry], now, [sid])
    s = state.value("emb.store")[meta["store_ids"].index(sid)]
    assert slate.scores[0] == pytest.approx(float(s @ s), abs=1e-9)


def test_forward_history_permutation_invariant(tiny_split, tiny_data):
    state = reprec.reprec_build(tiny_data, ModelSection(dim=10), seed=1)
    history, now = sample_history(tiny_split)
    candidates = sorted({it.store_id for it in history})
    base = oracles.reprec_forward(state, history, now, candidates).scores
    perm = [history[i] for i in rng(4).permutation(len(history))]
    out = oracles.reprec_forward(state, perm, now, candidates).scores
    np.testing.assert_allclose(out, base, atol=1e-12, rtol=0)


def test_forward_duplicated_entry_doubles_its_weight(tiny_split, tiny_data):
    state = reprec.reprec_build(tiny_data, ModelSection(dim=10), seed=2)
    history, now = sample_history(tiny_split, n=3)
    sid = history[0].store_id
    single = oracles.reprec_forward(state, history, now, [sid]).scores[0]
    doubled = oracles.reprec_forward(
        state, history + [history[0]], now, [sid]
    ).scores[0]
    lone = oracles.reprec_forward(state, [history[0]], now, [sid]).scores[0]
    assert doubled == pytest.approx(single + lone, abs=1e-9)


def test_forward_situation_scale_invariance(tiny_split, tiny_data):
    """Cosine weights ignore positive rescaling of the situation tables."""
    state = reprec.reprec_build(tiny_data, ModelSection(dim=10), seed=5)
    history, now = sample_history(tiny_split)
    candidates = sorted({it.store_id for it in history})
    base = oracles.reprec_forward(state, history, now, candidates).scores
    for name in ("emb.hour", "emb.dow", "emb.loc"):
        state.value(name)[...] *= 3.7
    scaled = oracles.reprec_forward(state, history, now, candidates).scores
    np.testing.assert_allclose(scaled, base, atol=1e-9, rtol=0)


def test_forward_zero_situation_gets_exactly_zero_weight(tiny_split, tiny_data):
    state = reprec.reprec_build(tiny_data, ModelSection(dim=6), seed=6)
    for name in ("emb.hour", "emb.dow", "emb.loc"):
        state.value(name)[...] = 0.0
    history, now = sample_history(tiny_split, n=4)
    candidates = sorted({it.store_id for it in history})
    slate = oracles.reprec_forward(state, history, now, candidates)
    np.testing.assert_array_equal(slate.scores, np.zeros(len(candidates)))


def test_forward_input_validation(tiny_split, tiny_data):
    state = reprec.reprec_build(tiny_data, ModelSection(dim=6), seed=0)
    history, now = sample_history(tiny_split, n=3)
    with pytest.raises(ValueError, match="non-empty"):
        oracles.reprec_forward(state, [], now, ["s0000"])
    with pytest.raises(ValueError, match="does not appear"):
        absent = next(
            s for s in tiny_split.log.store_ids
            if s not in {it.store_id for it in history}
        )
        oracles.reprec_forward(state, history, now, [absent])


def test_batch_loss_gradients_match_finite_differences(tiny_data):
    state = reprec.reprec_build(tiny_data, ModelSection(dim=6, repeat_window=10), seed=7)
    seqs = tiny_data.seqs
    flags = seqs.repeat & (seqs.distinct_before >= 2)
    rows = np.nonzero(flags)[0][:8]
    assert len(rows) >= 4
    gen = rng(1)
    neg = np.zeros(len(rows), dtype=np.int64)
    for i, r in enumerate(rows):
        user = int(np.searchsorted(seqs.offsets, int(r), side="right") - 1)
        lo, hi = int(seqs.first_offsets[user]), int(seqs.first_offsets[user + 1])
        pool = [s for s in seqs.first_stores[lo:hi] if s != seqs.store[r]]
        neg[i] = pool[int(gen.integers(len(pool)))]

    def loss(s):
        return pair_loss(s, reprec.reprec_query(s, tiny_data, rows), seqs.store[rows], neg)

    err = oracles.finite_difference_check(loss, state, num_coords=80, rng_seed=0)
    assert err <= 1e-4
    # the situation tables reach the loss through the distinct situations
    err = oracles.finite_difference_check(loss, state, num_coords=80, rng_seed=1,
                                          names=("emb.hour", "emb.dow", "emb.loc"))
    assert err <= 1e-4


def test_duplicated_rows_get_the_profile_of_the_row_alone(small_data):
    """Batch mates that share situation pairs with a row, or are that row
    again, leave its profile's bits as they are on its own."""
    state = reprec.reprec_build(small_data, ModelSection(dim=8, repeat_window=20), seed=9)
    seqs = small_data.seqs
    pool = np.flatnonzero(seqs.distinct_before >= 2)
    some = rng(5).choice(pool, size=4, replace=False)
    rows = np.concatenate([some, some[[0, 2, 0]], [0], some[[1, 3]]])
    out = reprec.reprec_query(state, small_data, rows).data
    for i, row in enumerate(rows):
        alone = reprec.reprec_query(state, small_data, np.array([row])).data[0]
        assert out[i].tobytes() == alone.tobytes(), i
    assert np.abs(out[: len(some)]).max() > 0.0


def test_all_empty_windows_give_zero_profiles_and_gradients(small_data):
    state = reprec.reprec_build(small_data, ModelSection(dim=8), seed=10)
    oracles.zero_grads(state)
    out = reprec.reprec_query(state, small_data, np.array([0, 0]))
    assert out.data.shape == (2, 8) and not out.data.any()
    dc.backward(dc.sum_(dc.mul(out, rng(11).normal(size=out.data.shape))))
    for name, p in state.params.items():
        assert not p.grad.any(), name


def test_training_is_deterministic_and_improves(small_data):
    settings = TrainSettings(lr=0.05, batch_size=128, patience=3, max_epochs=6,
                             seed=1)
    state, result = reprec.reprec_train(small_data, settings, ModelSection(dim=16))
    state2, result2 = reprec.reprec_train(small_data, settings, ModelSection(dim=16))
    assert result.history == result2.history
    assert result.best_metric >= result.history[0] - 1e-12
    assert state.meta["model"] == "reprec"
    for name in state.params:
        np.testing.assert_array_equal(state.value(name), state2.value(name))


def test_checkpoint_roundtrip_preserves_scores(tiny_split, tiny_data, tmp_path):
    state = reprec.reprec_build(tiny_data, ModelSection(dim=8), seed=4)
    history, now = sample_history(tiny_split)
    candidates = sorted({it.store_id for it in history})
    want = oracles.reprec_forward(state, history, now, candidates).scores
    path = tmp_path / "reprec.ckpt"
    dc.save_checkpoint(state, str(path))
    back = dc.load_checkpoint(str(path))
    got = oracles.reprec_forward(back, history, now, candidates).scores
    np.testing.assert_array_equal(got, want)


def test_scorer_matches_public_op_with_window(small_split, small_data, small_seqs):
    seqs, vocabs = small_seqs
    state = reprec.reprec_build(small_data, ModelSection(dim=8), seed=8)
    window = int(state.meta["window"])
    cases = evalharness.build_cases(small_split, "repeat", seed=0, max_cases=12,
                                    seqs=seqs, vocabs=vocabs)
    log = small_split.log
    scores = evalharness.dot_scores(state, small_data, cases, reprec.reprec_query)
    for i, case in enumerate(cases):
        full = oracles.history_before(log, case.position)
        want = oracles.reprec_forward(
            state, full[-window:], oracles.situation(log, case.position),
            list(case.candidates),
        ).scores
        np.testing.assert_allclose(scores[i, : len(want)], want, atol=1e-9, rtol=0)
