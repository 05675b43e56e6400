"""Exploration recommender: four-trigger fusion over unvisited stores.

Triggers, in fixed order: the embedded current situation, a GRU over recent
orders fed by the store and situation tables, the user's embedding passed
through a situation-conditioned activation mix, and a similarity-weighted sum
of neighbors' conditioned embeddings, pooled over the batch's distinct
neighbours.  A softmax head over (situation ⊕ conditioned user) fuses the
four into one vector that scores candidates by dot product.  Each trigger
can be ablated; ablation removes its logit before the softmax so the
remaining weights renormalize.  The fusion is the model's query forward,
:func:`exprec_query`, over integer history windows and frozen neighbor
tables; it trains through :func:`fdrec.training.fit_pairs` and scores
through :func:`fdrec.evalharness.dot_scores`.  The checkpoint alone says how
to score: the ablation mask is its ``meta["ablate"]`` and the neighbours are
``neighbors(meta["k_neighbors"], meta["neighbor_as_of"])``.
"""

from __future__ import annotations

import functools

import numpy as np

from . import diffcore as dc
from . import features, situsim
from .training import ModelSection, TrainResult, TrainSettings, fit_pairs

__all__ = [
    "TRIGGERS",
    "exprec_build",
    "exprec_query",
    "exprec_train",
    "neighbor_arrays",
]

TRIGGERS = ("situation", "history", "user", "collab")

# ordered activation set for the conditioned user encoder
_ACTIVATIONS_VAR = (lambda x: x, dc.tanh, dc.sigmoid, dc.relu)


def exprec_build(data: features.Dataset, model: ModelSection, seed: int) -> dc.ModelState:
    """An untrained ExpRec; ``model.ablate``'s triggers become
    ``meta["ablate"]``'s flags, in ``TRIGGERS`` order."""
    vocabs, dim = data.vocabs, model.dim
    state = features.new_state(
        data, "exprec", seed, dim=dim, window=model.history_window,
        k_neighbors=model.k_neighbors, neighbor_as_of=data.split.valid_boundary,
        ablate=_check_mask([t in model.ablate for t in TRIGGERS]).tolist(),
        user_ids=vocabs.user_ids,
    )
    state.add_embedding("emb.store", len(vocabs.store_ids), dim)
    features.add_situation_tables(state, dim, len(vocabs.location_ids))
    state.add_embedding("emb.user", len(vocabs.user_ids), dim)
    state.add_gru("gru.hist", 2 * dim, dim)
    state.add_dense("cond", len(_ACTIVATIONS_VAR), dim)
    state.add_dense("fuse", len(TRIGGERS), 2 * dim)
    return state


def _check_mask(ablation_mask) -> np.ndarray:
    mask = np.asarray(ablation_mask, dtype=bool)
    if mask.shape != (len(TRIGGERS),):
        raise ValueError(f"ablation mask must have {len(TRIGGERS)} entries")
    if mask.all():
        raise ValueError("all four triggers are ablated")
    return mask


def neighbor_arrays(log, k: int, as_of: int) -> tuple[np.ndarray, np.ndarray]:
    """Frozen per-user neighbor codes [U,K] (pad -1) and weights [U,K]."""
    ids, sims = situsim.neighbor_table(log, k, as_of)
    return ids, _neighbor_weights(ids, sims)


def _neighbor_weights(ids: np.ndarray, sims: np.ndarray) -> np.ndarray:
    """max(sim, 0) normalized over each row's ``ids >= 0`` entries; uniform if all 0."""
    valid = ids >= 0
    w = np.where(valid, np.maximum(sims, 0.0), 0.0)
    flat = w.sum(axis=1) == 0
    w[flat] = valid[flat]
    total = w.sum(axis=1, keepdims=True)
    return np.divide(w, total, out=np.zeros_like(w), where=total > 0)


def _mix(weights: dc.Var, parts) -> dc.Var:
    """Σ_j weights[:, j:j+1] * parts[j], summed from the first term on."""
    terms = [dc.mul(dc.getitem(weights, (slice(None), slice(j, j + 1))), part)
             for j, part in enumerate(parts)]
    return functools.reduce(dc.add, terms)


def exprec_query(state: dc.ModelState, data: features.Dataset,
                 rows: np.ndarray) -> dc.Var:
    """Fused trigger vectors [B, D] of the interactions at flat ``rows``, the
    queries every ExpRec score dots with.

    The history GRU reads each distinct window slot as two parts, its rows of
    ``emb.store`` and of the batch's distinct situations, each table
    projected once; each real slot's code is the ``np.unique`` inverse, and
    :func:`fdrec.diffcore.gru_sequence` steps each distinct prefix once.
    The neighbours are the frozen per-user tables from :func:`neighbor_arrays`
    that ``state.meta`` names; the mix weights ``a`` do not depend on the
    neighbour, so their trigger is ``Σ_j a_j · (W @ act_j(E[n]))`` over the
    batch's distinct codes n, ``W`` [B, |n|] holding each row's weights, in
    one :func:`fdrec.diffcore.pooled` over the ``act_j(E[n])`` side by side.
    Triggers set in ``state.meta["ablate"]`` get a -inf logit: zero weight.
    """
    meta = state.meta
    mask = _check_mask(meta["ablate"])
    seqs = data.seqs
    win = features.gather_window(seqs, rows, int(meta["window"]))
    slots, inv = np.unique(win.slot, return_inverse=True)
    B, S = len(rows), len(slots)

    # the window's distinct slots and the rows themselves, embedded in one pass
    mu_u, idx = features.situations(state, seqs, np.concatenate([slots, rows]))
    e_mu = dc.gather_rows(mu_u, idx[S:])

    # history GRU over the window's real slots, each table projected once
    parts = ((state.leaf("emb.store"), seqs.store[slots]), (mu_u, idx[:S]))
    e_h = dc.gru_sequence(dc.gru_leaves(state, "gru.hist"), (parts, inv), win.mask)

    # situation-conditioned activation mix, shared by user and neighbors
    a = dc.softmax(dc.dense(state.leaf("cond.w"), state.leaf("cond.b"), e_mu))
    u_emb = dc.gather_rows(state.leaf("emb.user"), win.user)
    e_u = _mix(a, [act(u_emb) for act in _ACTIVATIONS_VAR])

    nb_ids, nb_w = data.neighbors(meta["k_neighbors"], meta["neighbor_as_of"])
    codes, inv = np.unique(np.maximum(nb_ids[win.user], 0), return_inverse=True)
    pool = np.zeros((B, len(codes)))  # add.at: a pad (code 0, weight 0) may share code 0
    np.add.at(pool, (np.arange(B).repeat(nb_ids.shape[1]), inv.ravel()), nb_w[win.user].ravel())
    nb_emb = dc.gather_rows(state.leaf("emb.user"), codes)
    # [B, 4D]: a column block keeps the bits of pooling its table alone
    cu = dc.pooled(pool, dc.concat([f(nb_emb) for f in _ACTIVATIONS_VAR]), codes)
    D = nb_emb.shape[1]
    e_cu = _mix(a, [dc.getitem(cu, np.s_[:, j : j + D]) for j in range(0, cu.shape[1], D)])

    logits = dc.dense(
        state.leaf("fuse.w"), state.leaf("fuse.b"), dc.concat([e_mu, e_u], axis=-1)
    )
    if mask.any():
        logits = dc.add(logits, np.where(mask, -np.inf, 0.0))
    w = dc.softmax(logits, axis=-1)
    return _mix(w, (e_mu, e_h, e_u, e_cu))


def _visited_mask(seqs: features.UserSequences, rows: np.ndarray,
                  n_stores: int) -> np.ndarray:
    """Boolean [B,S]: stores each row's user visited before that row."""
    starts = seqs.first_offsets[seqs.user[rows]]
    lens = seqs.distinct_before[rows]
    out = np.zeros((len(rows), n_stores), dtype=bool)
    total = int(lens.sum())
    if total:
        flat = np.repeat(starts + lens - np.cumsum(lens), lens) + np.arange(total)
        out[np.repeat(np.arange(len(rows)), lens), seqs.first_stores[flat]] = True
    return out


def _unvisited_negatives(data: features.Dataset, rows: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    """One store code per row that the row's user had not visited before it,
    never equal to the row's own store."""
    seqs = data.seqs
    pos = seqs.store[rows]
    visited = _visited_mask(seqs, rows, len(data.vocabs.store_ids))
    B, S = visited.shape
    neg = rng.integers(0, S, size=B)
    ar = np.arange(B)
    bad = visited[ar, neg] | (neg == pos)
    for _ in range(64):
        if not bad.any():
            return neg
        neg[bad] = rng.integers(0, S, size=int(bad.sum()))
        bad = visited[ar, neg] | (neg == pos)
    for i in np.nonzero(bad)[0]:  # dense fallback for heavily visited users
        pool = np.nonzero(~visited[i])[0]
        pool = pool[pool != pos[i]]
        neg[i] = rng.choice(pool)
    return neg


def exprec_train(data: features.Dataset, settings: TrainSettings,
                 model: ModelSection) -> tuple[dc.ModelState, TrainResult]:
    """Train on exploration-flagged interactions with unvisited negatives.

    Triggers named in ``model.ablate`` are dropped from training and scoring.
    """
    seqs, split = data.seqs, data.split
    state = exprec_build(data, model, settings.seed)
    n_stores = len(data.vocabs.store_ids)

    train_rows = seqs.flat_of_global[split.train_idx]
    # a negative needs a second unvisited store besides the target
    keep = (~seqs.repeat[train_rows]) & (seqs.distinct_before[train_rows] <= n_stores - 2)
    rows = train_rows[keep]
    if len(rows) == 0:
        raise ValueError("no exploration training instances")

    result = fit_pairs(state, data, rows, exprec_query, _unvisited_negatives,
                       "exploration", settings, stream=103)
    return state, result
