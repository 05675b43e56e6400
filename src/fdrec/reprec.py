"""Repeat recommender: situation-similarity attention over a user's history.

Each past interaction is weighted by the cosine between its embedded situation
(hour + weekday + location vectors) and the embedded current situation; the
weighted sum of the visited stores' embeddings scores previously visited
candidates by dot product.  Weights are raw cosines, not softmax-normalized,
so they may be negative and the sum is unnormalized.  Training and scoring
run the same batched forward, :func:`reprec_profiles`, over integer history
windows.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from . import evalharness, features
from .training import TrainResult, TrainSettings, run_training

__all__ = [
    "reprec_build",
    "reprec_profiles",
    "reprec_batch_loss",
    "reprec_queries",
    "reprec_train",
    "reprec_scores",
]

DEFAULT_WINDOW = 50
# keeps cosine gradients finite when a situation vector underflows to zero
_NORM_EPS_SQ = 1e-24


def reprec_build(data: features.Dataset, dim: int = 64, seed: int = 0,
                 window: int = DEFAULT_WINDOW) -> dc.ModelState:
    vocabs, log = data.vocabs, data.split.log
    state = dc.ModelState(seed=seed)
    state.add_embedding("emb.store", len(vocabs.store_ids), dim)
    features.add_situation_tables(state, dim, len(vocabs.location_ids))
    state.meta = {
        "model": "reprec",
        "dim": dim,
        "window": window,
        "store_ids": vocabs.store_ids,
        "location_ids": vocabs.location_ids,
        "tz_offset_minutes": log.tz_offset_minutes,
        "epoch": log.epoch,
    }
    return state


def reprec_profiles(state: dc.ModelState, win: features.Window) -> dc.Var:
    """Situation-weighted history profiles [B, D]; differentiable end to end."""
    B, L = win.store.shape
    mu = features.situation(state, win.hour, win.dow, win.loc)          # [B,L,D]
    mu_now = features.situation(state, win.now_hour, win.now_dow, win.now_loc)
    mu_now3 = dc.reshape(mu_now, (B, 1, mu_now.data.shape[-1]))

    num = dc.sum_(dc.mul(mu, mu_now3), axis=-1)                         # [B,L]
    n_hist = dc.sqrt(dc.add(dc.sum_(dc.mul(mu, mu), axis=-1), _NORM_EPS_SQ))
    n_now = dc.sqrt(dc.add(dc.sum_(dc.mul(mu_now, mu_now), axis=-1), _NORM_EPS_SQ))
    w = dc.mul(dc.div(num, dc.mul(n_hist, dc.reshape(n_now, (B, 1)))), win.mask)

    hist_emb = dc.gather_rows(state.leaf("emb.store"), win.store)       # [B,L,D]
    return dc.sum_(dc.mul(dc.reshape(w, (B, L, 1)), hist_emb), axis=1)


def reprec_batch_loss(state: dc.ModelState, win: features.Window,
                      neg: np.ndarray) -> dc.Var:
    """Pairwise ranking loss over one batch; differentiable end to end.

    ``neg`` holds one negative store code per instance.  Deterministic given
    its inputs, so it doubles as the target of gradient checks.
    """
    profile = reprec_profiles(state, win)
    pos_e = dc.gather_rows(state.leaf("emb.store"), win.target)
    neg_e = dc.gather_rows(state.leaf("emb.store"), neg)
    s_pos = dc.sum_(dc.mul(profile, pos_e), axis=-1)
    s_neg = dc.sum_(dc.mul(profile, neg_e), axis=-1)
    return dc.mean_(dc.bpr_loss(s_pos, s_neg))


def reprec_queries(state: dc.ModelState, data: features.Dataset,
                   rows: np.ndarray) -> np.ndarray:
    """Profiles [N, D] for the interactions at flat ``rows``, in chunks."""
    window = int(state.meta["window"])
    return features.query_rows(
        lambda chunk: reprec_profiles(
            state, features.gather_window(data.seqs, chunk, window)
        ),
        rows,
    )


def reprec_train(
    data: features.Dataset,
    settings: TrainSettings = TrainSettings(),
    dim: int = 64,
    window: int = DEFAULT_WINDOW,
) -> tuple[dc.ModelState, TrainResult]:
    """Train on repeat-flagged interactions; negatives from the user's own
    other prior stores (instances with fewer than 2 distinct priors skipped).
    """
    seqs = data.seqs
    state = reprec_build(data, dim=dim, seed=settings.seed, window=window)

    train_rows = seqs.flat_of_global[data.split.train_idx]
    keep = seqs.repeat[train_rows] & (seqs.distinct_before[train_rows] >= 2)
    rows = train_rows[keep]
    if len(rows) == 0:
        raise ValueError("no repeat training instances with enough history")

    user_codes = np.searchsorted(seqs.offsets, rows, side="right") - 1
    pool_base = seqs.first_offsets[user_codes]
    pool_size = seqs.distinct_before[rows]
    target_rank = seqs.first_rank[rows]

    def batch_loss(st: dc.ModelState, chunk: np.ndarray, rng: np.random.Generator):
        win = features.gather_window(seqs, rows[chunk], window)
        # uniform over the user's other prior stores: skip the target's rank
        j = rng.integers(0, pool_size[chunk] - 1)
        j = j + (j >= target_rank[chunk])
        neg = seqs.first_stores[pool_base[chunk] + j]
        return reprec_batch_loss(st, win, neg)

    val_metric = evalharness.validation_metric(
        data, "repeat", settings, "reprec",
        lambda cases: lambda st: reprec_scores(st, data, cases),
    )
    result = run_training(
        state, len(rows), batch_loss, val_metric, settings, stream=102
    )
    return state, result


def reprec_scores(state: dc.ModelState, data: features.Dataset, cases) -> np.ndarray:
    """[N, C] repeat-protocol scores for ``cases``; profiles use the trailing
    history window and are computed up front, in chunks."""
    profiles = reprec_queries(state, data, data.seqs.flat_of_global[cases.position])
    return evalharness.dot_scores(cases, profiles, state.value("emb.store"))
