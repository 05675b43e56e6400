"""Exploration recommender: four-trigger fusion over unvisited stores.

Triggers, in fixed order: the embedded current situation, a GRU encoding of
recent history, the user's embedding passed through a situation-conditioned
activation mix, and a similarity-weighted sum of neighbors' conditioned
embeddings.  A softmax head over (situation ⊕ conditioned user) fuses the four
into one vector that scores candidates by dot product.  Each trigger can be
ablated; ablation removes its logit before the softmax so the remaining
weights renormalize.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from . import evalharness, features, situsim
from .dataio import DatasetSplit, Interaction, SituationFeatures, time_facets
from .evalharness import ScoredSlate
from .training import TrainResult, TrainSettings, run_training

__all__ = [
    "TRIGGERS",
    "exprec_build",
    "encode_history",
    "condition_user",
    "collaborative_embedding",
    "trigger_fusion",
    "fusion_weights",
    "exprec_score",
    "exprec_fused",
    "exprec_batch_loss",
    "exprec_queries",
    "exprec_train",
    "exprec_scorer",
    "neighbor_arrays",
]

TRIGGERS = ("situation", "history", "user", "collab")
DEFAULT_WINDOW = 20
DEFAULT_NEIGHBORS = 10

# ordered activation set for the conditioned user encoder
_ACTIVATIONS_NP = (
    lambda x: x,
    np.tanh,
    dc._sigmoid,
    lambda x: np.maximum(x, 0.0),
)
_ACTIVATIONS_VAR = (lambda x: x, dc.tanh, dc.sigmoid, dc.relu)
M = len(_ACTIVATIONS_NP)


def exprec_build(
    split: DatasetSplit,
    dim: int = 64,
    seed: int = 0,
    window: int = DEFAULT_WINDOW,
    k_neighbors: int = DEFAULT_NEIGHBORS,
    ablation_mask=None,
) -> dc.ModelState:
    vocabs = features.build_vocabs(split)
    log = split.log
    state = dc.ModelState(seed=seed)
    state.add_embedding("emb.store", len(vocabs.store_ids), dim)
    state.add_embedding("emb.hour", 24, dim)
    state.add_embedding("emb.dow", 7, dim)
    state.add_embedding("emb.loc", len(vocabs.location_ids), dim)
    state.add_embedding("emb.user", len(vocabs.user_ids), dim)
    state.add_gru("gru.hist", 2 * dim, dim)
    state.add_dense("cond", M, dim)
    state.add_dense("fuse", len(TRIGGERS), 2 * dim)
    state.meta = {
        "model": "exprec",
        "dim": dim,
        "window": window,
        "k_neighbors": k_neighbors,
        "neighbor_as_of": split.valid_boundary,
        "ablate": _check_mask(ablation_mask).tolist(),
        "store_ids": vocabs.store_ids,
        "location_ids": vocabs.location_ids,
        "user_ids": vocabs.user_ids,
        "tz_offset_minutes": log.tz_offset_minutes,
        "epoch": log.epoch,
    }
    return state


def _values(state: dc.ModelState) -> dict[str, np.ndarray]:
    return {name: state.value(name) for name in state.params}


def _situation_np(values, hours, dows, locs) -> np.ndarray:
    return values["emb.hour"][hours] + values["emb.dow"][dows] + values["emb.loc"][locs]


def _history_codes(state: dc.ModelState, history: list[Interaction]):
    meta = state.meta
    store_index = {s: i for i, s in enumerate(meta["store_ids"])}
    loc_index = {l: i for i, l in enumerate(meta["location_ids"])}
    stores = np.array([store_index[it.store_id] for it in history], dtype=np.int64)
    times = np.array([it.time for it in history], dtype=np.int64)
    _, hours, dows = time_facets(times, meta["tz_offset_minutes"], meta["epoch"])
    locs = np.array(
        [loc_index.get(it.location_id, features.FALLBACK) for it in history],
        dtype=np.int64,
    )
    return stores, hours, dows, locs


def encode_history(
    state: dc.ModelState, history: list[Interaction], limit: int | None = None
) -> np.ndarray:
    """GRU encoding of the last ``limit`` interactions; empty history -> 0."""
    values = _values(state)
    if limit is None:
        limit = int(state.meta["window"])
    if not history:
        return np.zeros(int(state.meta["dim"]))
    tail = history[-limit:] if limit else history
    stores, hours, dows, locs = _history_codes(state, tail)
    situ = _situation_np(values, hours, dows, locs)
    xs = np.concatenate([values["emb.store"][stores], situ], axis=-1)
    p = dc.gru_leaves(state, "gru.hist")
    h = dc.Var(np.zeros(int(state.meta["dim"])))
    for x in xs:
        h = dc.gru_cell(p, x, h)
    return h.data


def _mix_weights_np(values, situation_vec: np.ndarray) -> np.ndarray:
    return dc._softmax(situation_vec @ values["cond.w"].T + values["cond.b"], axis=-1)


def condition_user(
    state: dc.ModelState, user_vec: np.ndarray, situation_vec: np.ndarray
) -> np.ndarray:
    """Situation-gated mix of fixed activations applied to ``user_vec``."""
    values = _values(state)
    a = _mix_weights_np(values, situation_vec)
    out = np.zeros_like(user_vec, dtype=np.float64)
    for weight, act in zip(a, _ACTIVATIONS_NP):
        out = out + weight * act(user_vec)
    return out


def _neighbor_weights(sims: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """max(sim, 0) normalized over valid entries; uniform fallback."""
    w = np.where(valid, np.maximum(sims, 0.0), 0.0)
    total = w.sum()
    if total > 0:
        return w / total
    n = int(valid.sum())
    if n == 0:
        return np.zeros_like(w)
    return valid.astype(np.float64) / n


def collaborative_embedding(
    state: dc.ModelState,
    target: str,
    neighbors: list[tuple[str, float]],
    situation_vec: np.ndarray,
) -> np.ndarray:
    """Similarity-weighted sum of neighbors' conditioned embeddings."""
    dim = int(state.meta["dim"])
    if not neighbors:
        return np.zeros(dim)
    user_index = {u: i for i, u in enumerate(state.meta["user_ids"])}
    values = _values(state)
    sims = np.array([s for _, s in neighbors], dtype=np.float64)
    w = _neighbor_weights(sims, np.ones(len(neighbors), dtype=bool))
    a = _mix_weights_np(values, situation_vec)
    out = np.zeros(dim)
    for (uid, _), wk in zip(neighbors, w):
        if uid == target:
            raise ValueError("target cannot be its own neighbor")
        emb = values["emb.user"][user_index[uid]]
        cond = np.zeros(dim)
        for am, act in zip(a, _ACTIVATIONS_NP):
            cond = cond + am * act(emb)
        out = out + wk * cond
    return out


def _check_mask(ablation_mask) -> np.ndarray:
    if ablation_mask is None:
        return np.zeros(len(TRIGGERS), dtype=bool)
    mask = np.asarray(ablation_mask, dtype=bool)
    if mask.shape != (len(TRIGGERS),):
        raise ValueError(f"ablation mask must have {len(TRIGGERS)} entries")
    if mask.all():
        raise ValueError("all four triggers are ablated")
    return mask


def fusion_weights(
    state: dc.ModelState,
    e_mu: np.ndarray,
    e_u_mu: np.ndarray,
    ablation_mask=None,
) -> np.ndarray:
    """Softmax trigger weights; ablated entries are exactly 0."""
    mask = _check_mask(ablation_mask)
    values = _values(state)
    logits = np.concatenate([e_mu, e_u_mu]) @ values["fuse.w"].T + values["fuse.b"]
    w = np.zeros(len(TRIGGERS))
    keep = ~mask
    w[keep] = dc._softmax(logits[keep], axis=-1)
    return w


def trigger_fusion(
    state: dc.ModelState,
    e_mu: np.ndarray,
    e_h: np.ndarray,
    e_u_mu: np.ndarray,
    e_cu_mu: np.ndarray,
    ablation_mask=None,
) -> np.ndarray:
    w = fusion_weights(state, e_mu, e_u_mu, ablation_mask)
    triggers = (e_mu, e_h, e_u_mu, e_cu_mu)
    return sum(wk * t for wk, t in zip(w, triggers))


def exprec_score(
    state: dc.ModelState,
    user: str,
    history: list[Interaction],
    now: SituationFeatures,
    candidates: tuple[str, ...] | list[str],
    ablation_mask=None,
    neighbors: list[tuple[str, float]] = (),
) -> ScoredSlate:
    """Fused-trigger dot-product scores over unvisited candidates."""
    meta = state.meta
    visited = {it.store_id for it in history}
    for c in candidates:
        if c in visited:
            raise ValueError(f"candidate {c!r} was already visited")
    values = _values(state)
    store_index = {s: i for i, s in enumerate(meta["store_ids"])}
    loc_index = {l: i for i, l in enumerate(meta["location_ids"])}
    user_index = {u: i for i, u in enumerate(meta["user_ids"])}
    if user not in user_index:
        raise ValueError(f"unknown user {user!r}")

    e_mu = _situation_np(values, now.hour, now.day_of_week,
                         loc_index.get(now.location_id, features.FALLBACK))
    e_h = encode_history(state, history)
    e_u = condition_user(state, values["emb.user"][user_index[user]], e_mu)
    e_cu = collaborative_embedding(state, user, list(neighbors), e_mu)
    s_e = trigger_fusion(state, e_mu, e_h, e_u, e_cu, ablation_mask)
    codes = [store_index[c] for c in candidates]
    scores = values["emb.store"][codes] @ s_e
    return ScoredSlate(tuple(candidates), scores, origin="exprec")


def neighbor_arrays(
    log, user_ids: list[str], k: int, as_of: int
) -> tuple[np.ndarray, np.ndarray]:
    """Frozen per-user neighbor codes [U,K] (pad -1) and weights [U,K]."""
    table = situsim.neighbor_table(log, k, as_of)
    code_of = {u: i for i, u in enumerate(user_ids)}
    n = len(user_ids)
    ids = np.full((n, k), -1, dtype=np.int64)
    weights = np.zeros((n, k), dtype=np.float64)
    for uid, rows in table.items():
        u = code_of[uid]
        sims = np.array([s for _, s in rows], dtype=np.float64)
        valid = np.zeros(k, dtype=bool)
        valid[: len(rows)] = True
        for j, (nid, _) in enumerate(rows):
            ids[u, j] = code_of[nid]
        full_sims = np.zeros(k)
        full_sims[: len(rows)] = sims
        weights[u] = _neighbor_weights(full_sims, valid)
    return ids, weights


def _col(x: dc.Var, j: int) -> dc.Var:
    return dc.getitem(x, (slice(None), slice(j, j + 1)))


def exprec_fused(
    state: dc.ModelState,
    win: features.Window,
    neighbors: tuple[np.ndarray, np.ndarray],
    ablation_mask=None,
) -> dc.Var:
    """Fused trigger vectors [B, D], the queries every ExpRec score dots with.

    ``neighbors`` are the frozen per-user tables from :func:`neighbor_arrays`.
    An ablated trigger's logit becomes -inf, so it gets exactly zero weight.
    """
    mask = _check_mask(ablation_mask)
    B = win.store.shape[0]
    dim = int(state.meta["dim"])

    e_mu = features.situation(state, win.now_hour, win.now_dow, win.now_loc)

    # history GRU over the window, masked steps keep the previous hidden state
    situ_w = features.situation(state, win.hour, win.dow, win.loc)
    store_w = dc.gather_rows(state.leaf("emb.store"), win.store)
    xs = dc.concat([store_w, situ_w], axis=-1)          # [B,L,2D]
    e_h = dc.gru_sequence(dc.gru_leaves(state, "gru.hist"), xs, win.mask)

    # situation-conditioned activation mix, shared by user and neighbors
    a = dc.softmax(dc.dense(state.leaf("cond.w"), state.leaf("cond.b"), e_mu))
    u_emb = dc.gather_rows(state.leaf("emb.user"), win.user)
    e_u = dc.Var(np.zeros((B, dim)))
    for j, act in enumerate(_ACTIVATIONS_VAR):
        e_u = dc.add(e_u, dc.mul(_col(a, j), act(u_emb)))

    nb_ids, nb_w = neighbors
    nb_emb = dc.gather_rows(state.leaf("emb.user"), np.maximum(nb_ids[win.user], 0))
    cond_nb = dc.Var(np.zeros(nb_emb.data.shape))       # [B,K,D]
    for j, act in enumerate(_ACTIVATIONS_VAR):
        aj = dc.reshape(_col(a, j), (B, 1, 1))
        cond_nb = dc.add(cond_nb, dc.mul(aj, act(nb_emb)))
    e_cu = dc.sum_(dc.mul(cond_nb, nb_w[win.user][:, :, None]), axis=1)

    logits = dc.dense(
        state.leaf("fuse.w"), state.leaf("fuse.b"), dc.concat([e_mu, e_u], axis=-1)
    )
    if mask.any():
        logits = dc.add(logits, np.where(mask, -np.inf, 0.0))
    w = dc.softmax(logits, axis=-1)
    triggers = (e_mu, e_h, e_u, e_cu)
    s_e = dc.Var(np.zeros((B, dim)))
    for j, trig in enumerate(triggers):
        s_e = dc.add(s_e, dc.mul(_col(w, j), trig))
    return s_e


def exprec_batch_loss(
    state: dc.ModelState,
    win: features.Window,
    neighbors: tuple[np.ndarray, np.ndarray],
    neg: np.ndarray,
    ablation_mask=None,
) -> dc.Var:
    """Pairwise ranking loss; deterministic in its inputs for gradient checks."""
    s_e = exprec_fused(state, win, neighbors, ablation_mask)
    pos_e = dc.gather_rows(state.leaf("emb.store"), win.target)
    neg_e = dc.gather_rows(state.leaf("emb.store"), neg)
    s_pos = dc.sum_(dc.mul(s_e, pos_e), axis=-1)
    s_neg = dc.sum_(dc.mul(s_e, neg_e), axis=-1)
    return dc.mean_(dc.bpr_loss(s_pos, s_neg))


def exprec_queries(
    state: dc.ModelState,
    seqs: features.UserSequences,
    rows: np.ndarray,
    neighbors: tuple[np.ndarray, np.ndarray],
    ablation_mask=None,
) -> np.ndarray:
    """Fused vectors [N, D] for the interactions at flat ``rows``, in chunks.

    ``ablation_mask`` defaults to the mask the checkpoint was trained with.
    """
    if ablation_mask is None:
        ablation_mask = state.meta.get("ablate")
    window = int(state.meta["window"])
    return features.query_rows(
        lambda chunk: exprec_fused(
            state, features.gather_window(seqs, chunk, window), neighbors, ablation_mask
        ),
        rows,
    )


def _visited_mask(seqs: features.UserSequences, rows: np.ndarray,
                  n_stores: int) -> np.ndarray:
    """Boolean [B,S]: stores each row's user visited before that row."""
    user_codes = np.searchsorted(seqs.offsets, rows, side="right") - 1
    starts = seqs.first_offsets[user_codes]
    lens = seqs.distinct_before[rows]
    out = np.zeros((len(rows), n_stores), dtype=bool)
    total = int(lens.sum())
    if total:
        flat = np.repeat(starts + lens - np.cumsum(lens), lens) + np.arange(total)
        out[np.repeat(np.arange(len(rows)), lens), seqs.first_stores[flat]] = True
    return out


def _sample_unvisited(rng, visited: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """One unvisited store code per row, never equal to the target."""
    B, S = visited.shape
    neg = rng.integers(0, S, size=B)
    rows = np.arange(B)
    bad = visited[rows, neg] | (neg == pos)
    for _ in range(64):
        if not bad.any():
            return neg
        neg[bad] = rng.integers(0, S, size=int(bad.sum()))
        bad = visited[rows, neg] | (neg == pos)
    for i in np.nonzero(bad)[0]:  # dense fallback for heavily visited users
        pool = np.nonzero(~visited[i])[0]
        pool = pool[pool != pos[i]]
        neg[i] = rng.choice(pool)
    return neg


def exprec_train(
    split: DatasetSplit,
    settings: TrainSettings = TrainSettings(),
    dim: int = 64,
    window: int = DEFAULT_WINDOW,
    k_neighbors: int = DEFAULT_NEIGHBORS,
    val_max_cases: int = 2000,
    ablation_mask=None,
) -> tuple[dc.ModelState, TrainResult]:
    """Train on exploration-flagged interactions with unvisited negatives.

    Triggers set in ``ablation_mask`` are dropped from training and scoring.
    """
    vocabs = features.build_vocabs(split)
    seqs = features.build_sequences(split, vocabs)
    state = exprec_build(split, dim=dim, seed=settings.seed, window=window,
                         k_neighbors=k_neighbors, ablation_mask=ablation_mask)
    n_stores = len(vocabs.store_ids)

    train_rows = seqs.flat_of_global[split.train_idx]
    # a negative needs a second unvisited store besides the target
    keep = (~seqs.repeat[train_rows]) & (seqs.distinct_before[train_rows] <= n_stores - 2)
    rows = train_rows[keep]
    if len(rows) == 0:
        raise ValueError("no exploration training instances")

    neighbors = neighbor_arrays(
        split.log, vocabs.user_ids, k_neighbors, split.valid_boundary
    )

    def batch_loss(st: dc.ModelState, chunk: np.ndarray, rng: np.random.Generator):
        batch_rows = rows[chunk]
        win = features.gather_window(seqs, batch_rows, window)
        visited = _visited_mask(seqs, batch_rows, n_stores)
        neg = _sample_unvisited(rng, visited, win.target)
        return exprec_batch_loss(st, win, neighbors, neg, ablation_mask)

    valid_cases = evalharness.validation_cases(
        split, "exploration", settings.seed, val_max_cases, seqs, vocabs
    )
    if not valid_cases:
        raise ValueError("validation partition has no exploration cases")

    def val_metric(st: dc.ModelState) -> float:
        scorer = exprec_scorer(st, split, valid_cases, seqs=seqs, vocabs=vocabs,
                               neighbors=neighbors)
        report = evalharness.evaluate(
            scorer, valid_cases, k=3, model_id="exprec", seed=settings.seed
        )
        return report.protocols["exploration"]["hr@3"]

    result = run_training(
        state, len(rows), batch_loss, val_metric, settings, stream=103
    )
    return state, result


def exprec_scorer(
    state: dc.ModelState,
    split: DatasetSplit,
    cases,
    seqs: features.UserSequences | None = None,
    vocabs: features.Vocabs | None = None,
    ablation_mask=None,
    neighbors: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Eval adapter for ``cases``; recomputes frozen neighbors if not given.

    ``ablation_mask`` defaults to the mask the checkpoint was trained with.
    """
    if vocabs is None:
        vocabs = features.build_vocabs(split)
    if seqs is None:
        seqs = features.build_sequences(split, vocabs)
    meta = state.meta
    if neighbors is None:
        neighbors = neighbor_arrays(
            split.log, vocabs.user_ids, int(meta["k_neighbors"]),
            int(meta["neighbor_as_of"]),
        )
    queries = exprec_queries(state, seqs, evalharness.case_rows(seqs, cases),
                             neighbors, ablation_mask)
    return evalharness.dot_scorer(cases, queries, state.value("emb.store"), vocabs,
                                  origin="exprec")
