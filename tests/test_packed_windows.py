"""The packed history windows against the padded ones they replaced.

Every query forward that reads a window computes over its real slots only.
On batches with empty, full and mixed windows, each must give bit for bit
the output and parameter gradients of the padded [B, L] form kept in
``tests/oracles.py``, but for the gradients that the GRU's prefix trie adds
in another order.  RepRec's padded and per-slot-cosine forms read their
profile through the same pooled :func:`fdrec.reprec._profile`, so they
check the padding and the pair weights bit for bit; the pooled profile
itself is checked against the per-slot sum it reassociates, within 1e-12 of
each array's largest magnitude.
"""

import numpy as np
import pytest

import oracles
from fdrec import dataio, ensemble, exprec, features, reprec
from fdrec import diffcore as dc
from fdrec.training import ModelSection
from conftest import DAY, rng


@pytest.fixture(scope="module")
def long_data():
    """60 orders per user, so that windows of 50 can be full."""
    cfg = dataio.SynthConfig(n_users=16, n_stores=30, n_orders_per_user=60,
                             span_days=56, situation_coupling=0.6,
                             collab_coupling=0.6, n_locations=6, seed=21)
    log, _ = dataio.generate_synthetic(cfg)
    split = dataio.split_global_timeline(log, test_window_s=4 * DAY,
                                         valid_window_s=4 * DAY)
    return features.Dataset(split)


def batch(data, window, fill, seed):
    """Flat row 0 (an empty window, the query chunks' pad row) twice, then
    62 rows whose windows are all full (``fill == "full"``) or of any fill."""
    seqs = data.seqs
    local = np.arange(len(seqs.user)) - seqs.offsets[seqs.user]
    pool = np.flatnonzero(local >= window) if fill == "full" else np.arange(len(local))
    rows = np.concatenate([[0, 0], rng(seed).choice(pool, size=62)])
    win = features.gather_window(seqs, rows, window)
    assert win.mask.shape[1] == window and not win.mask[:2].any()
    if fill == "full":
        assert win.mask[2:].all()
    else:
        assert len(np.unique(win.mask.sum(axis=1))) > 5
    return rows


def forward_and_grads(state, forward, seed):
    """``forward(state).data`` and every parameter gradient of a random
    linear read-out of it."""
    oracles.zero_grads(state)
    out = forward(state)
    target = rng(seed).normal(size=out.data.shape)
    dc.backward(dc.sum_(dc.mul(out, target)))
    return out.data, {name: p.grad.copy() for name, p in state.params.items()}


def assert_same_bits(packed, padded, near=()):
    """Bit-equal outputs and gradients, but for the gradients named in
    ``near``: those within 1e-12 of each array's largest magnitude."""
    (out, grads), (out_ref, grads_ref) = packed, padded
    np.testing.assert_array_equal(out, out_ref)
    assert grads.keys() == grads_ref.keys()
    for name in grads_ref:
        if name in near:
            np.testing.assert_allclose(grads[name], grads_ref[name], rtol=0, err_msg=name,
                                       atol=1e-12 * np.abs(grads_ref[name]).max())
        else:
            np.testing.assert_array_equal(grads[name], grads_ref[name], err_msg=name)
    return grads_ref


CASES = [(50, "full"), (50, "mixed"), (20, "full"), (20, "mixed")]


@pytest.mark.parametrize("window, fill", CASES)
def test_reprec_query_matches_the_padded_form_bit_for_bit(long_data, window, fill):
    rows = batch(long_data, window, fill, seed=70 + window)
    state = reprec.reprec_build(long_data, ModelSection(dim=32, repeat_window=window), seed=3)
    grads = assert_same_bits(
        forward_and_grads(state, lambda s: reprec.reprec_query(s, long_data, rows), 71),
        forward_and_grads(state, lambda s: oracles.reprec_query_padded(s, long_data, rows), 71),
    )
    for name in ("emb.store", "emb.hour", "emb.dow", "emb.loc"):
        assert np.abs(grads[name]).max() > 0.0, name


@pytest.mark.parametrize("window, fill", CASES)
def test_reprec_pair_weights_match_the_per_slot_form(long_data, window, fill):
    """A cosine per distinct (slot situation, current situation) pair keeps
    the per-slot values and ``emb.store`` gradient bit for bit; only the
    situation tables' gradients are reassociated, within 1e-12 of each
    array's largest magnitude."""
    rows = batch(long_data, window, fill, seed=75 + window)
    seqs = long_data.seqs
    win = features.gather_window(seqs, rows, window)
    codes = [np.stack([c[win.slot], c[rows][win.row]], axis=1)
             for c in (seqs.hour, seqs.dow, seqs.loc)]
    pairs = np.unique(np.concatenate(codes, axis=1), axis=0)
    assert len(pairs) < len(win.slot)  # repeated pairs share one weight
    state = reprec.reprec_build(long_data, ModelSection(dim=32, repeat_window=window), seed=3)
    tables = ("emb.hour", "emb.dow", "emb.loc")
    grads = assert_same_bits(
        forward_and_grads(state, lambda s: reprec.reprec_query(s, long_data, rows), 76),
        forward_and_grads(state, lambda s: oracles.reprec_query_per_slot(s, long_data, rows),
                          76),
        near=tables)
    for name in ("emb.store", *tables):
        assert np.abs(grads[name]).max() > 0.0, name


@pytest.mark.parametrize("window, fill", CASES)
def test_reprec_pooled_profile_matches_the_per_slot_sum(long_data, monkeypatch,
                                                        window, fill):
    """Each row's slot weights summed per distinct store, then one product
    with the batch's distinct store rows: the per-slot sum's values and every
    gradient, reassociated, within 1e-12 of each array's largest magnitude."""
    rows = batch(long_data, window, fill, seed=85 + window)
    seqs = long_data.seqs
    win = features.gather_window(seqs, rows, window)
    pairs = np.unique(win.row * len(seqs.store) + seqs.store[win.slot])
    assert len(pairs) < len(win.slot)  # rows order some stores more than once
    state = reprec.reprec_build(long_data, ModelSection(dim=32, repeat_window=window), seed=3)

    def forward(s):
        return reprec.reprec_query(s, long_data, rows)

    got = forward_and_grads(state, forward, 86)
    with monkeypatch.context() as m:
        m.setattr(reprec, "_profile", oracles.reprec_profile_per_slot)
        want = forward_and_grads(state, forward, 86)
    for name, a, b in [("profile", got[0], want[0]),
                       *((n, got[1][n], want[1][n]) for n in want[1])]:
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max(), err_msg=name)
        assert np.abs(b).max() > 0.0, name


def padded_forms(monkeypatch):
    """The query forwards as they ran on padded windows: every history input
    gathered over [B, L], and the real slots picked out at the GRU."""
    monkeypatch.setattr(features, "gather_window", oracles.padded_window)
    monkeypatch.setattr(dc, "gru_sequence", oracles.padded_gru_sequence)


@pytest.mark.parametrize("window, fill", CASES)
def test_exprec_query_matches_the_padded_form_bit_for_bit(long_data, monkeypatch,
                                                          window, fill):
    rows = batch(long_data, window, fill, seed=80 + window)
    state = exprec.exprec_build(long_data, ModelSection(dim=32, history_window=window,
                                                      k_neighbors=4), seed=4)

    def forward(s):
        return exprec.exprec_query(s, long_data, rows)

    packed = forward_and_grads(state, forward, 81)
    with monkeypatch.context() as m:
        padded_forms(m)
        padded = forward_and_grads(state, forward, 81)
    # the packed GRU steps each distinct slot prefix once and sums each
    # distinct slot's input gradient, the padded one each grid cell's: the
    # same sums for the GRU and the tables that feed it, in another order
    grads = assert_same_bits(packed, padded, near=(
        "emb.store", "emb.hour", "emb.dow", "emb.loc",
        *(f"gru.hist.{t}{g}" for t in "wub" for g in "zrh")))
    for name in ("emb.store", "emb.hour", "gru.hist.wh", "gru.hist.uz"):
        assert np.abs(grads[name]).max() > 0.0, name


@pytest.mark.parametrize("window, fill", CASES)
def test_intent_logits_match_the_padded_form_bit_for_bit(long_data, monkeypatch,
                                                         window, fill):
    rows = batch(long_data, window, fill, seed=90 + window)
    state = ensemble.ensemble_build(
        long_data, ModelSection(dim=32, attn_dim=8, history_window=window), seed=5)

    def forward(s):
        return ensemble._intent_logits(s, long_data.seqs, rows)

    packed = forward_and_grads(state, forward, 91)
    with monkeypatch.context() as m:
        padded_forms(m)
        padded = forward_and_grads(state, forward, 91)
    # the flag table is projected once and each distinct flag prefix is
    # stepped once, so the GRU's and the table's gradients are the same sums
    # as the padded form's, added in another order
    grads = assert_same_bits(packed, padded, near=(
        "emb.flag", *(f"gru.intent.{t}{g}" for t in "wub" for g in "zrh")))
    for name in ("emb.flag", "gru.intent.wz", "gru.intent.uh"):
        assert np.abs(grads[name]).max() > 0.0, name


@pytest.mark.parametrize("model", ["reprec", "exprec"])
def test_a_query_forward_embeds_its_slots_and_rows_in_one_situation_pass(
        long_data, monkeypatch, model):
    rows = batch(long_data, 20, "mixed", seed=95)
    section = ModelSection(dim=16, repeat_window=20, history_window=20, k_neighbors=4)
    module = {"reprec": reprec, "exprec": exprec}[model]
    state = getattr(module, f"{model}_build")(long_data, section, seed=6)
    calls = []
    situations = features.situations

    def counted(*args):
        calls.append(args)
        return situations(*args)

    monkeypatch.setattr(features, "situations", counted)
    getattr(module, f"{model}_query")(state, long_data, rows)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0][2][-len(rows):], rows)
