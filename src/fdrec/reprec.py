"""Repeat recommender: situation-similarity attention over a user's history.

Each past interaction is weighted by the cosine between its embedded situation
(hour + weekday + location vectors) and the embedded current situation; the
weighted sum of the visited stores' embeddings scores previously visited
candidates by dot product.  Weights are raw cosines, not softmax-normalized,
so they may be negative and the sum is unnormalized.  The profile is the
model's query forward, :func:`reprec_query`, over packed integer history
windows; it trains through :func:`fdrec.training.fit_pairs` and scores through
:func:`fdrec.evalharness.dot_scores`.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from . import features
from .training import ModelSection, TrainResult, TrainSettings, fit_pairs

__all__ = [
    "reprec_build",
    "reprec_query",
    "reprec_train",
]

# keeps cosine gradients finite when a situation vector underflows to zero
_NORM_EPS_SQ = 1e-24


def reprec_build(data: features.Dataset, model: ModelSection, seed: int) -> dc.ModelState:
    state = features.new_state(data, "reprec", seed, dim=model.dim,
                               window=model.repeat_window)
    state.add_embedding("emb.store", len(data.vocabs.store_ids), model.dim)
    features.add_situation_tables(state, model.dim, len(data.vocabs.location_ids))
    return state


def reprec_query(state: dc.ModelState, data: features.Dataset,
                 rows: np.ndarray) -> dc.Var:
    """Situation-weighted history profiles [B, D] of the interactions at flat
    ``rows``, over the real slots of each one's trailing window;
    differentiable end to end.  ``‖μ_now‖`` reaches the slots through the
    [B, L] grid, so that numpy sums its gradient over L in the grid's order."""
    win = features.gather_window(data.seqs, rows, int(state.meta["window"]))
    B, L = win.mask.shape
    mu = features.situation(state, win.hour, win.dow, win.loc)          # [N,D]
    mu_now = features.situation(state, win.now_hour, win.now_dow, win.now_loc)

    num = dc.sum_(dc.mul(mu, dc.gather_rows(mu_now, win.row)), axis=-1)  # [N]
    n_hist = dc.sqrt(dc.add(dc.sum_(dc.mul(mu, mu), axis=-1), _NORM_EPS_SQ))
    n_now = dc.sqrt(dc.add(dc.sum_(dc.mul(mu_now, mu_now), axis=-1), _NORM_EPS_SQ))
    n_now = dc.getitem(dc.mul(dc.reshape(n_now, (B, 1)), np.ones((B, L))), win.mask)
    w = dc.div(num, dc.mul(n_hist, n_now))                              # [N]

    hist_emb = dc.gather_rows(state.leaf("emb.store"), win.store)       # [N,D]
    return dc.segment_sum(dc.mul(dc.reshape(w, (len(w.data), 1)), hist_emb), win.row, B)


def _prior_store_negatives(data: features.Dataset, rows: np.ndarray,
                           rng: np.random.Generator) -> np.ndarray:
    """One store code per row, uniform over the user's other prior stores."""
    seqs = data.seqs
    j = rng.integers(0, seqs.distinct_before[rows] - 1)
    j = j + (j >= seqs.first_rank[rows])  # skip the target's rank
    return seqs.first_stores[seqs.first_offsets[seqs.user[rows]] + j]


def reprec_train(data: features.Dataset, settings: TrainSettings,
                 model: ModelSection) -> tuple[dc.ModelState, TrainResult]:
    """Train on repeat-flagged interactions; negatives from the user's own
    other prior stores (instances with fewer than 2 distinct priors skipped).
    """
    seqs = data.seqs
    state = reprec_build(data, model, settings.seed)

    train_rows = seqs.flat_of_global[data.split.train_idx]
    keep = seqs.repeat[train_rows] & (seqs.distinct_before[train_rows] >= 2)
    rows = train_rows[keep]
    if len(rows) == 0:
        raise ValueError("no repeat training instances with enough history")
    result = fit_pairs(state, data, rows, reprec_query, _prior_store_negatives,
                       "repeat", settings, stream=102)
    return state, result
