"""Repeat recommender: situation-similarity attention over a user's history.

Each past interaction is weighted by the cosine between its embedded situation
(hour + weekday + location vectors) and the embedded current situation; the
weighted sum of the visited stores' embeddings scores previously visited
candidates by dot product.  Weights are raw cosines, not softmax-normalized,
so they may be negative and the sum is unnormalized.  Each cosine is taken
once per distinct (past situation, current situation) pair of a batch and
gathered back to its slots: the weights keep their per-slot bits, and the
situation tables' gradients are reassociated.  The profile is then one
pooled product over the batch's distinct stores: each row's slot weights
are summed per store first, in slot order, and that [B, C] pool is
multiplied by the C distinct store rows, so the profile's values are the
per-slot sum reassociated.  The profile is the model's query forward,
:func:`reprec_query`, over packed integer history windows; it trains
through :func:`fdrec.training.fit_pairs` and scores through
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
    differentiable end to end.  The slots and the rows themselves are
    embedded in one :func:`fdrec.features.situations` pass, ``‖μ‖`` is taken
    once per distinct situation and the weight once per distinct (slot
    situation, current situation) pair: the weights keep their per-slot bits,
    the situation tables' gradients are reassociated.

    The profile ``Σ_j w_j · E[s_j]`` is :func:`_profile`'s pooled product: a
    store's slot weights are summed first and then multiplied by its
    embedding, so values are reassociated against a sum over the slots.  A
    row's bits still do not depend on its batch mates: its pool row holds
    only its own slots' sums, and :func:`fdrec.diffcore.pooled` runs one
    product per fixed range of 256 store codes, added in ascending order, so
    the codes a chunk mate brings only add zero terms to a row's sums."""
    seqs = data.seqs
    win = features.gather_window(seqs, rows, int(state.meta["window"]))
    N = len(win.slot)
    mu_u, idx = features.situations(state, seqs, np.concatenate([win.slot, rows]))  # [U,D]
    U = len(mu_u.data)
    # a weight per distinct (slot, current) situation pair; raveled for numpy 1.24
    pairs, inverse = np.unique(idx[:N] * U + idx[N:][win.row], return_inverse=True)
    slot_u, now_u = np.divmod(pairs, U)                                 # [Q], [Q]

    mu = dc.gather_rows(mu_u, slot_u)                                   # [Q,D]
    mu_now = dc.gather_rows(mu_u, now_u)                                # [Q,D]

    num = dc.sum_(dc.mul(mu, mu_now), axis=-1)                          # [Q]
    n_u = dc.sqrt(dc.add(dc.sum_(dc.mul(mu_u, mu_u), axis=-1), _NORM_EPS_SQ))
    n_hist = dc.gather_rows(n_u, slot_u)                                # [Q]
    n_now = dc.gather_rows(n_u, now_u)                                  # [Q]
    w = dc.gather_rows(dc.div(num, dc.mul(n_hist, n_now)), inverse.ravel())  # [N]

    return _profile(state, seqs.store[win.slot], w, win.row, len(rows))


def _profile(state: dc.ModelState, stores: np.ndarray, w: dc.Var, row: np.ndarray,
             n: int) -> dc.Var:
    """``Σ_j w_j · E[stores_j]`` [n, D] over the slots j of each batch row
    ``row[j]``.  The slot weights are summed into a pool [n, C] over the C
    distinct ``stores``, one cell per (row, store) in slot order, and the pool
    is multiplied by those stores' rows of ``emb.store`` by
    :func:`fdrec.diffcore.pooled`, which differentiates both."""
    codes, at = np.unique(stores, return_inverse=True)
    C = len(codes)
    pool = dc.reshape(dc.segment_sum(w, row * C + at.ravel(), n * C), (n, C))  # [n,C]
    return dc.pooled(pool, dc.gather_rows(state.leaf("emb.store"), codes), codes)


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
