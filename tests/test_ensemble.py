import dataclasses
import os
import signal
import sys
import time
import warnings

import numpy as np
import pytest

import oracles
from fdrec import diffcore as dc
from fdrec import baselines, dataio, ensemble, evalharness, exprec, features, reprec
from fdrec.training import ModelSection, TrainSettings
from oracles import ScoredSlate, SituationFeatures
from conftest import DAY, LAYOUT_RECORDS, make_log, rng, take
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
    state = build(tiny_data, dim=8)
    for name in state.params:
        state.value(name)[...] = 0.0
    user = state.meta["user_ids"][0]
    now = SituationFeatures(0, 12, 2, state.meta["location_ids"][0])
    est = oracles.predict_intent(state, user, [True, False, True], now)
    assert est.repeat_prob == pytest.approx(0.5, abs=1e-12)
    assert est.explore_prob == pytest.approx(0.5, abs=1e-12)


def test_predict_intent_unknown_user(tiny_data):
    state = build(tiny_data, dim=8)
    now = SituationFeatures(0, 12, 2, state.meta["location_ids"][0])
    with pytest.raises(ValueError, match="unknown user"):
        oracles.predict_intent(state, "nobody", [True], now)


def test_predict_intent_matches_manual_transcription(tiny_data):
    state = build(tiny_data, dim=8, seed=5, history_window=3)
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
    state = build(small_data, dim=8, seed=7, history_window=5)
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


def normalize_slate(scores) -> np.ndarray:
    """One slate min-max normalized as one row and one part of ``_normalized``."""
    row = np.asarray(scores, dtype=np.float64)[None]
    return ensemble._normalized(row, [np.ones(row.shape, dtype=bool)])[0]


def test_normalize_slate_reference_values():
    np.testing.assert_allclose(normalize_slate([-2.0, 0.0, 2.0]), [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(normalize_slate([3.0, 3.0, 3.0]), [0.5, 0.5, 0.5])
    np.testing.assert_array_equal(normalize_slate([7.0]), [0.5])


def test_normalize_slate_affine_invariance():
    x = rng(3).normal(size=12)
    base = normalize_slate(x)
    np.testing.assert_allclose(normalize_slate(4.0 * x - 7.0), base, atol=1e-12, rtol=0)
    assert base.min() == 0.0 and base.max() == 1.0


def slates_for(state, seed=0):
    stores = state.meta["store_ids"]
    gen = rng(seed)
    rep = ScoredSlate(tuple(stores[:3]), normalize_slate(gen.normal(size=3)), "reprec")
    exp = ScoredSlate(tuple(stores[3:7]), normalize_slate(gen.normal(size=4)), "exprec")
    return rep, exp


def test_combine_is_exact_elementwise_product(tiny_data):
    state = build(tiny_data, dim=8, seed=1)
    rep, exp = slates_for(state)
    out = oracles.combine(state, rep, exp, oracles.IntentEstimate(0.7, 0.3))
    assert out.a == 3 and out.b == 4
    assert out.candidates == rep.candidates + exp.candidates
    np.testing.assert_array_equal(out.base,
                                  np.concatenate([rep.scores, exp.scores]))
    np.testing.assert_array_equal(out.weights, [0.7] * 3 + [0.3] * 4)
    np.testing.assert_array_equal(out.scores, out.weights * out.within)
    # both temperatures start at 1 / ln 2, so within a part exp(b / tau) = 2**b
    for part, slate in ((slice(0, 3), rep), (slice(3, 7), exp)):
        want = 2.0 ** slate.scores / (2.0 ** slate.scores).sum()
        np.testing.assert_allclose(out.within[part], want, rtol=1e-13, atol=0)


def test_combine_single_sided_slates(tiny_data):
    state = build(tiny_data, dim=8, seed=3)
    rep, exp = slates_for(state, seed=4)
    intent = oracles.IntentEstimate(0.5, 0.5)
    only_rep = oracles.combine(state, rep, None, intent)
    assert only_rep.a == 3 and only_rep.b == 0
    only_exp = oracles.combine(state, None, exp, intent)
    assert only_exp.a == 0 and only_exp.b == 4
    np.testing.assert_array_equal(only_exp.base, exp.scores)
    assert only_exp.scores.sum() == pytest.approx(0.5, abs=1e-12)


def test_combine_input_validation(tiny_data):
    state = build(tiny_data, dim=8, seed=0)
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


def mixture(state, probs, base, rep, real=None):
    base = np.asarray(base, dtype=np.float64)
    real = np.ones(base.shape) if real is None else real
    return ensemble._mixture(state, dc.Var(np.asarray(probs, dtype=np.float64)), base,
                             np.asarray(rep, dtype=np.float64), real).data


def test_mixture_parts_are_intent_weighted_distributions_in_base_order(tiny_data):
    state = build(tiny_data, dim=8, seed=2)
    state.value("inv_temp")[...] = [0.4, -0.7]
    gen = rng(13)
    a = np.array([1, 3, 4, 6])
    n = 7
    base = gen.uniform(size=(len(a), n))
    rep = np.arange(n) < a[:, None]
    probs = dc._softmax(gen.normal(size=(len(a), 2)), axis=-1)
    out = mixture(state, probs, base, rep)
    for g in range(len(a)):
        for k, part in enumerate((rep[g], ~rep[g])):
            assert abs(out[g, part].sum() - probs[g, k]) <= 1e-12
            np.testing.assert_array_equal(np.argsort(out[g, part]),
                                          np.argsort(base[g, part]))


def test_mixture_of_a_one_item_or_constant_part(tiny_data):
    state = build(tiny_data, dim=8, seed=2)
    state.value("inv_temp")[...] = [1.5, -0.3]
    probs = [[0.3, 0.7], [0.8, 0.2]]
    base = [[0.4, 0.0, 0.5, 1.0, 0.2], [0.5, 0.5, 0.5, 0.5, 0.9]]
    rep = [[1, 0, 0, 0, 0], [1, 1, 1, 1, 0]]
    out = mixture(state, probs, base, rep)
    assert out[0, 0] == 0.3 and out[1, 4] == 0.2
    np.testing.assert_allclose(out[1, :4], 0.8 / 4, rtol=0, atol=1e-15)


@pytest.mark.parametrize("a", [0, 5])
def test_mixture_with_an_empty_part_is_finite_and_warns_nothing(tiny_data, a):
    state = build(tiny_data, dim=8, seed=2)
    base = normalize_slate(rng(14).normal(size=5))[None]
    rep = (np.arange(5) < a)[None]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = mixture(state, [[0.35, 0.65]], base, rep)
    assert np.isfinite(out).all()
    assert out.sum() == pytest.approx(0.35 if a else 0.65, abs=1e-12)


def test_padded_mixture_rows_match_each_slate_alone(tiny_data):
    state = build(tiny_data, dim=8, seed=2)
    state.value("inv_temp")[...] = [0.8, -0.5]
    gen = rng(15)
    # lengths and repeat parts: a full row, an empty repeat part, an empty
    # explore part, a one-item part beside a constant one
    length, a = np.array([9, 4, 3, 5]), np.array([3, 0, 3, 1])
    width = 9
    real = np.arange(width) < length[:, None]
    rep = np.arange(width) < a[:, None]
    base = np.where(real, gen.uniform(size=(4, width)), 0.0)
    base[3, 1:5] = 0.5
    probs = dc._softmax(gen.normal(size=(4, 2)), axis=-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = mixture(state, probs, base, rep, real)
        for g in range(4):
            n = length[g]
            alone = mixture(state, probs[g : g + 1], base[g : g + 1, :n], rep[g : g + 1, :n])
            np.testing.assert_allclose(out[g, :n], alone[0], rtol=0, atol=1e-15)
    assert (out[~real] == 0.0).all()
    assert np.isfinite(out).all()


@pytest.fixture(scope="module")
def crowded_data():
    """Eight stores and fourteen orders per user: many users have visited
    most stores, so a six-item training slate often runs out of fillers."""
    cfg = dataio.SynthConfig(n_users=10, n_stores=8, n_orders_per_user=14,
                             situation_coupling=0.5, collab_coupling=0.5, n_locations=4,
                             n_brands=4, n_cuisines=3, span_days=28, seed=6)
    log, _ = dataio.generate_synthetic(cfg)
    return features.Dataset(dataio.split_global_timeline(
        log, test_window_s=4 * DAY, valid_window_s=4 * DAY))


def mixed_chunk(slates, per_length=2):
    """Up to ``per_length`` slates of each length, the lengths interleaved so
    that they first appear out of sorted order."""
    picks = [np.flatnonzero(slates.length == n)[:per_length]
             for n in np.unique(slates.length)[::-1]]
    chunk = [int(p[k]) for k in range(per_length) for p in picks[1:] + picks[:1]
             if k < len(p)]
    assert len(np.unique(slates.length[chunk])) >= 2
    return np.array(chunk)


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
    slates = ensemble._build_training_slates(small_data, rows, budget=budget, seed=0)
    assert len(slates) == len(rows)  # every row here has two items or more
    assert slates.length.max() <= budget and slates.cand.shape[1] == slates.length.max()
    assert slates.n_prior.max() <= budget // 2
    base, rep_mask, real = ensemble._case_bases(rep, exp, small_data, slates)
    np.testing.assert_array_equal(real, slates.mask)
    np.testing.assert_array_equal(rep_mask, np.arange(slates.cand.shape[1])
                                  < slates.n_prior[:, None])
    assert (slates.cand[~real] == 0).all() and (base[~real] == 0.0).all()
    assert base.min() >= 0.0 and base.max() <= 1.0


def test_training_slate_construction(crowded_data):
    seqs = crowded_data.seqs
    rows = seqs.flat_of_global[crowded_data.split.train_idx]
    slates = ensemble._build_training_slates(crowded_data, rows, budget=6, seed=0)
    assert len(np.unique(slates.length)) >= 2
    assert len(slates) == len(rows)
    kept = seqs.flat_of_global[slates.position]
    np.testing.assert_array_equal(kept, rows)
    np.testing.assert_array_equal(slates.target, seqs.store[kept])
    np.testing.assert_array_equal(slates.user, seqs.user[kept])
    at = np.arange(len(slates))
    np.testing.assert_array_equal(slates.cand[at, slates.tcol], slates.target)
    for i, row in enumerate(kept.tolist()):
        n, a = slates.length[i], slates.n_prior[i]
        codes = slates.cand[i, :n]
        assert 2 <= n <= 6 and a <= 3 and len(set(codes.tolist())) == n
        assert (slates.cand[i, n:] == 0).all()
        # the target sits in the part matching its repeat flag; the repeat
        # part holds visited stores only, the explore part unvisited ones
        visited = set(seqs.priors(row).tolist())
        if seqs.repeat[row]:
            assert slates.tcol[i] == 0 and a >= 1
        else:
            assert slates.tcol[i] == a
        assert set(codes[:a].tolist()) <= visited
        assert not set(codes[a:].tolist()) & visited


def test_training_slates_drop_rows_with_fewer_than_two_items():
    # u1's last two orders come after it visited every store, so at budget 2
    # each keeps only its repeat target and no unvisited filler
    log = make_log(LAYOUT_RECORDS["one-order"])
    quarter = (int(log.times[-1]) - int(log.times[0])) // 4
    data = features.Dataset(dataio.split_global_timeline(
        log, test_window_s=quarter, valid_window_s=quarter))
    rows = np.arange(len(log))
    slates = ensemble._build_training_slates(data, rows, budget=2, seed=0)
    dropped = set(rows.tolist()) - set(data.seqs.flat_of_global[slates.position].tolist())
    assert dropped == {6, 7}
    assert len(slates) == len(rows) - 2 and (slates.length == 2).all()
    assert ensemble._build_training_slates(data, rows[[6, 7]], budget=2, seed=0).cand.shape == (0, 1)


def test_case_bases_match_the_per_row_loop(small_split, small_data, small_seqs,
                                           crowded_data):
    seqs, vocabs = small_seqs
    rep, exp = frozen_bases(small_data, dim=8)
    cases = evalharness.build_cases(small_split, "combined", seed=1, max_cases=4,
                                    seqs=seqs, vocabs=vocabs)
    # a constant repeat part (one store twice), a one-item repeat part, an
    # empty repeat part and a one-item explore part
    cand = np.zeros((4, 7), dtype=np.int64)
    cand[0, :5] = [5, 5, 1, 2, 3]
    cand[1, :3] = [7, 8, 9]
    cand[2, :4] = [4, 9, 11, 12]
    cand[3, :4] = [1, 6, 2, 20]
    cases = dataclasses.replace(cases, cand=cand, length=np.array([5, 3, 4, 4]),
                                n_prior=np.array([2, 1, 0, 3]))
    crowded = ensemble._build_training_slates(
        crowded_data, crowded_data.seqs.flat_of_global[crowded_data.split.train_idx],
        budget=6, seed=0)
    for data, cs, models in ((small_data, cases, (rep, exp)),
                             (crowded_data, crowded, frozen_bases(crowded_data))):
        base, _, real = ensemble._case_bases(*models, data, cs)
        for i, want in enumerate(oracles.slate_bases_loop(*models, data, cs)):
            np.testing.assert_array_equal(base[i, : len(want)], want)
        assert (base[~real] == 0.0).all()
    # a constant or one-item part maps to 0.5
    base = ensemble._case_bases(rep, exp, small_data, cases)[0]
    assert base[0, 0] == base[0, 1] == base[1, 0] == base[3, 3] == 0.5


def test_combined_loss_matches_the_per_length_loss(crowded_data):
    seqs = crowded_data.seqs
    state = build(crowded_data, dim=6, seed=33, history_window=4, budget=6)
    state.value("inv_temp")[...] = [0.4, -0.7]
    rows = seqs.flat_of_global[crowded_data.split.train_idx]
    slates = ensemble._build_training_slates(crowded_data, rows, budget=6, seed=1)
    bases = ensemble._case_bases(*frozen_bases(crowded_data), crowded_data, slates)
    chunk = mixed_chunk(slates, per_length=3)
    gens = [np.random.Generator(np.random.PCG64(7)) for _ in range(2)]
    got = ensemble._combined_batch_loss(state, slates, bases, seqs, chunk, gens[0], 0.5)
    want = oracles.combined_loss_by_length(state, slates, bases, seqs, chunk, gens[1], 0.5)
    assert abs(got.data - want.data) <= 1e-12 * abs(want.data)
    # both drew the same negatives, so the generators stay in step
    assert gens[0].integers(1 << 62) == gens[1].integers(1 << 62)


def test_combined_loss_gradients_match_finite_differences(crowded_data):
    seqs = crowded_data.seqs
    state = build(crowded_data, dim=6, seed=33, history_window=4, budget=6)
    rows = seqs.flat_of_global[crowded_data.split.train_idx]
    slates = ensemble._build_training_slates(crowded_data, rows, budget=6, seed=1)
    bases = ensemble._case_bases(*frozen_bases(crowded_data), crowded_data, slates)
    chunk = mixed_chunk(slates)

    def forward(st):
        gen = np.random.Generator(np.random.PCG64(7))  # frozen draws per call
        return ensemble._combined_batch_loss(st, slates, bases, seqs, chunk, gen, 1.0)

    state.value("inv_temp")[...] = [0.4, -0.7]
    err = oracles.finite_difference_check(forward, state, num_coords=80, rng_seed=2)
    assert err <= 1e-4
    # both temperatures, whichever coordinates the sample above drew
    err = oracles.finite_difference_check(forward, state, names=("inv_temp",))
    assert err <= 1e-4


TRAIN_ARGS = (TrainSettings(lr=0.05, batch_size=64, patience=2, max_epochs=2,
                            seed=3, max_instances=300, val_max_cases=40),
              ModelSection(dim=8, history_window=5, budget=6))


def test_train_runs_two_stages_and_is_deterministic(small_data):
    rep, exp = frozen_bases(small_data, dim=8)
    settings, model = TRAIN_ARGS
    state, results = ensemble.ensemble_train(small_data, settings, model, rep, exp)
    assert set(results) == {"intent", "combine"}
    assert state.meta["model"] == "ensemble"
    assert (state.value("inv_temp") != 0.0).all()  # stage 2 fits both
    state2, results2 = ensemble.ensemble_train(small_data, settings, model, rep, exp)
    assert results["combine"].history == results2["combine"].history
    for name in state.params:
        np.testing.assert_array_equal(state.value(name), state2.value(name))
    with pytest.raises(ValueError, match="both frozen base models"):
        ensemble.ensemble_train(small_data, settings, model, None, exp)


linux_only = pytest.mark.skipif(sys.platform != "linux",
                                reason="the stage-2 bases are forked on Linux only")


def counted_forks(monkeypatch) -> list:
    """Patch ``os.fork`` to record each fork's child pid in the list returned."""
    pids, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


@linux_only
def test_training_forked_or_in_process_gives_the_same_bytes(small_data, monkeypatch):
    rep, exp = frozen_bases(small_data, dim=8)
    pids = counted_forks(monkeypatch)
    state, results = ensemble.ensemble_train(small_data, *TRAIN_ARGS, rep, exp)
    assert len(pids) == 1
    monkeypatch.delattr(os, "fork")
    state2, results2 = ensemble.ensemble_train(small_data, *TRAIN_ARGS, rep, exp)
    assert list(state.params) == list(state2.params)
    for name in state.params:
        assert state.value(name).tobytes() == state2.value(name).tobytes(), name
    for stage in ("intent", "combine"):
        a, b = results[stage], results2[stage]
        assert (a.epochs, a.best_epoch) == (b.epochs, b.best_epoch)
        for x, y in ((a.best_metric, b.best_metric), (a.history, b.history)):
            assert np.array(x).tobytes() == np.array(y).tobytes(), stage


@linux_only
def test_an_exception_in_the_child_is_raised_again_with_its_message(small_data,
                                                                     monkeypatch):
    rep, exp = frozen_bases(small_data, dim=8)
    pids = counted_forks(monkeypatch)

    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(ensemble, "_case_bases", boom)
    with pytest.raises(ValueError) as err:
        ensemble.ensemble_train(small_data, *TRAIN_ARGS, rep, exp)
    assert (type(err.value), str(err.value)) == (ValueError, "boom")
    assert len(pids) == 1


@linux_only
def test_a_failed_stage_one_kills_and_reaps_the_child(small_data, monkeypatch):
    rep, exp = frozen_bases(small_data, dim=8)
    counted_forks(monkeypatch)
    intent_ce = ensemble._intent_ce
    monkeypatch.setattr(ensemble, "_intent_ce",
                        lambda logits, repeat: dc.mul(intent_ce(logits, repeat), np.nan))
    # a child left to finish would take a minute
    monkeypatch.setattr(ensemble, "_case_bases", lambda *args: time.sleep(60))
    start = time.monotonic()
    with pytest.raises(ValueError, match="non-finite loss"):
        ensemble.ensemble_train(small_data, *TRAIN_ARGS, rep, exp)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@linux_only
def test_a_child_killed_without_a_result_names_its_signal(small_data, monkeypatch):
    rep, exp = frozen_bases(small_data, dim=8)
    parent = os.getpid()

    def die(*args):
        assert os.getpid() != parent, "the bases ran in this process"
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(ensemble, "_case_bases", die)
    with pytest.raises(RuntimeError, match="SIGKILL"):
        ensemble.ensemble_train(small_data, *TRAIN_ARGS, rep, exp)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_scorer_composes_public_pieces(small_split, small_data, small_seqs):
    seqs, vocabs = small_seqs
    state = build(small_data, dim=8, seed=41, history_window=5)
    state.value("inv_temp")[...] = [0.9, -0.4]
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
                                    normalize_slate(raw), "reprec")
        exp_slate = None
        if len(case.candidates) > a:
            neighbors = [(vocabs.user_ids[int(i)], float(wk))
                         for i, wk in zip(nb_ids[u], nb_w[u]) if i >= 0]
            raw = oracles.exprec_score(exp, case.user_id, history, now,
                                      case.candidates[a:],
                                      neighbors=neighbors).scores
            exp_slate = ScoredSlate(case.candidates[a:],
                                    normalize_slate(raw), "exprec")
        lo = int(seqs.offsets[u])
        flags = [bool(f) for f in seqs.repeat[lo : lo + len(history)]]
        intent = oracles.predict_intent(state, case.user_id, flags, now)
        want = oracles.combine(state, rep_slate, exp_slate, intent)
        assert want.candidates == case.candidates
        np.testing.assert_allclose(scores[i, : len(want.scores)], want.scores,
                                   atol=1e-9, rtol=0)


@pytest.mark.parametrize("model, protocol", [
    ("sonly", "combined"), ("reprec", "repeat"), ("exprec", "exploration"),
    ("ensemble", "combined"), ("concat", "combined"), ("hispop", "repeat"),
])
def test_cases_across_chunks_score_as_each_case_alone(
    small_split, small_data, small_seqs, monkeypatch, model, protocol
):
    """With chunks of 4, 11 cases split 4, 4, 3 and 9 split 3, 3, 3, where
    slicing would leave a one-row tail; a case alone runs beside row 0."""
    seqs, vocabs = small_seqs
    rep, exp = frozen_bases(small_data, dim=8)
    son = baselines.sonly_build(small_data, ModelSection(dim=8), seed=4)
    ens = build(small_data, dim=8, seed=43, history_window=5)
    scores = {
        "sonly": lambda cs: evalharness.dot_scores(son, small_data, cs, baselines.sonly_query),
        "reprec": lambda cs: evalharness.dot_scores(rep, small_data, cs, reprec.reprec_query),
        "exprec": lambda cs: evalharness.dot_scores(exp, small_data, cs, exprec.exprec_query),
        "ensemble": lambda cs: ensemble.ensemble_scores(ens, rep, exp, small_data, cs),
        "concat": lambda cs: ensemble.concat_scores(rep, exp, small_data, cs),
        "hispop": lambda cs: baselines.hispop_scores(small_data, cs),
    }
    monkeypatch.setattr(features, "QUERY_CHUNK", 4)
    for max_cases in (11, 9):
        cases = evalharness.build_cases(small_split, protocol, seed=3,
                                        max_cases=max_cases, seqs=seqs, vocabs=vocabs)
        assert len(cases) == max_cases
        together = scores[model](cases)
        for i in range(len(cases)):
            np.testing.assert_array_equal(together[i], scores[model](take(cases, [i]))[0])


def reshaped_slates(cases, reverse, halve):
    """``cases`` with each row's repeat part (its first ``n_prior``
    candidates) and its other part each reversed if ``reverse``, and cut to
    its first half, rounded up, if ``halve``; ``target`` and ``tcol`` go
    stale, which no scorer reads."""
    cand, length, n_prior = np.zeros_like(cases.cand), cases.length.copy(), cases.n_prior.copy()
    for i in range(len(cases)):
        a, n = int(cases.n_prior[i]), int(cases.length[i])
        parts = [cases.cand[i, :a], cases.cand[i, a:n]]
        parts = [p[::-1] if reverse else p for p in parts]
        parts = [p[: -(-len(p) // 2)] if halve else p for p in parts]
        n_prior[i], length[i] = len(parts[0]), len(parts[0]) + len(parts[1])
        cand[i, : length[i]] = np.concatenate(parts)
    return dataclasses.replace(cases, cand=cand, length=length, n_prior=n_prior)


def test_a_candidates_score_does_not_depend_on_its_slate(small_split, small_data,
                                                         small_seqs, monkeypatch):
    """Each case scores the same store to the same bits whether its slate is
    whole, reversed or cut to its first half, through ``dot_scores`` and
    through the raw base scores of ``_case_bases``."""
    seqs, vocabs = small_seqs
    rep, exp = frozen_bases(small_data, dim=32)
    son = baselines.sonly_build(small_data, ModelSection(dim=32), seed=4)
    # the raw products, before each part's min-max depends on its members
    monkeypatch.setattr(ensemble, "_normalized", lambda raw, parts: raw)
    scorers = {
        "sonly": lambda cs: evalharness.dot_scores(son, small_data, cs, baselines.sonly_query),
        "reprec": lambda cs: evalharness.dot_scores(rep, small_data, cs, reprec.reprec_query),
        "exprec": lambda cs: evalharness.dot_scores(exp, small_data, cs, exprec.exprec_query),
        "bases": lambda cs: ensemble._case_bases(rep, exp, small_data, cs)[0],
    }
    cases = evalharness.build_cases(small_split, "combined", seed=5, max_cases=24,
                                    seqs=seqs, vocabs=vocabs)
    assert cases.length.min() >= 8 and (cases.n_prior > 1).any()
    variants = [cases, reshaped_slates(cases, True, False), reshaped_slates(cases, True, True)]
    for name, score in scorers.items():
        by_store = []
        for cs in variants:
            scores = score(cs)
            by_store.append({(i, int(cs.cand[i, j])): scores[i, j].tobytes()
                             for i in range(len(cs)) for j in range(cs.length[i])})
        whole, reversed_, half = by_store
        assert reversed_ == whole, name
        assert half == {key: whole[key] for key in half}, name


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
    state = build(tiny_data, dim=8, seed=9)
    path = tmp_path / "ensemble.ckpt"
    dc.save_checkpoint(state, str(path))
    back = dc.load_checkpoint(str(path))
    assert back.meta == state.meta
    for name in state.params:
        np.testing.assert_array_equal(back.value(name), state.value(name))
