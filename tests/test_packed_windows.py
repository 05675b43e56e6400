"""The packed history windows against the padded ones they replaced.

Every query forward that reads a window computes over its real slots only.
On batches with empty, full and mixed windows, each must give bit for bit
the output and parameter gradients of the padded [B, L] form kept in
``tests/oracles.py``.
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


def assert_same_bits(packed, padded):
    (out, grads), (out_ref, grads_ref) = packed, padded
    np.testing.assert_array_equal(out, out_ref)
    assert grads.keys() == grads_ref.keys()
    for name in grads_ref:
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
    grads = assert_same_bits(packed, padded)
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
    grads = assert_same_bits(packed, padded)
    for name in ("emb.flag", "gru.intent.wz", "gru.intent.uh"):
        assert np.abs(grads[name]).max() > 0.0, name
