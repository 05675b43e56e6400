"""Repeat recommender: situation-similarity attention over a user's history.

Each past interaction is weighted by the cosine between its embedded situation
(hour + weekday + location vectors) and the embedded current situation; the
weighted sum of the visited stores' embeddings scores previously visited
candidates by dot product.  Weights are raw cosines, not softmax-normalized,
so they may be negative and the sum is unnormalized.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from . import evalharness, features
from .dataio import DatasetSplit, Interaction, SituationFeatures, time_facets
from .evalharness import ScoredSlate
from .training import TrainResult, TrainSettings, run_training

__all__ = [
    "reprec_build",
    "reprec_forward",
    "reprec_profiles",
    "reprec_batch_loss",
    "reprec_queries",
    "reprec_train",
    "reprec_scorer",
]

DEFAULT_WINDOW = 50
# keeps cosine gradients finite when a situation vector underflows to zero
_NORM_EPS_SQ = 1e-24


def reprec_build(split: DatasetSplit, dim: int = 64, seed: int = 0) -> dc.ModelState:
    vocabs = features.build_vocabs(split)
    state = dc.ModelState(seed=seed)
    state.add_embedding("emb.store", len(vocabs.store_ids), dim)
    state.add_embedding("emb.hour", 24, dim)
    state.add_embedding("emb.dow", 7, dim)
    state.add_embedding("emb.loc", len(vocabs.location_ids), dim)
    state.meta = {
        "model": "reprec",
        "dim": dim,
        "window": DEFAULT_WINDOW,
        "store_ids": vocabs.store_ids,
        "location_ids": vocabs.location_ids,
        "tz_offset_minutes": split.log.tz_offset_minutes,
        "epoch": split.log.epoch,
    }
    return state


def _cosine_rows(mu: np.ndarray, mu_now: np.ndarray) -> np.ndarray:
    """Cosine of each row of ``mu`` against ``mu_now``; zero-norm terms -> 0."""
    norms = np.linalg.norm(mu, axis=-1)
    now_norm = float(np.linalg.norm(mu_now))
    num = mu @ mu_now
    denom = norms * now_norm
    out = np.zeros_like(num)
    ok = denom > 0.0
    out[ok] = num[ok] / denom[ok]
    return out


def reprec_forward(
    state: dc.ModelState,
    history: list[Interaction],
    now: SituationFeatures,
    candidates: tuple[str, ...] | list[str],
) -> ScoredSlate:
    """Score candidates against the situation-weighted history profile.

    Every candidate must appear among the history's stores.
    """
    if not history:
        raise ValueError("history must be non-empty")
    meta = state.meta
    values = {n: state.value(n) for n in ("emb.store", "emb.hour", "emb.dow", "emb.loc")}
    store_index = {s: i for i, s in enumerate(meta["store_ids"])}
    loc_index = {l: i for i, l in enumerate(meta["location_ids"])}

    times = np.array([it.time for it in history], dtype=np.int64)
    _, hours, dows = time_facets(times, meta["tz_offset_minutes"], meta["epoch"])
    locs = np.array(
        [loc_index.get(it.location_id, features.FALLBACK) for it in history]
    )
    mu = values["emb.hour"][hours] + values["emb.dow"][dows] + values["emb.loc"][locs]
    mu_now = (
        values["emb.hour"][now.hour]
        + values["emb.dow"][now.day_of_week]
        + values["emb.loc"][loc_index.get(now.location_id, features.FALLBACK)]
    )
    w = _cosine_rows(mu, mu_now)

    visited = {it.store_id for it in history}
    stores = np.array([store_index[it.store_id] for it in history])
    profile = w @ values["emb.store"][stores]

    codes = []
    for c in candidates:
        if c not in visited:
            raise ValueError(f"candidate {c!r} does not appear in the history")
        codes.append(store_index[c])
    scores = values["emb.store"][codes] @ profile
    return ScoredSlate(tuple(candidates), scores, origin="reprec")


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


def reprec_queries(state: dc.ModelState, seqs: features.UserSequences,
                   rows: np.ndarray) -> np.ndarray:
    """Profiles [N, D] for the interactions at flat ``rows``, in chunks."""
    window = int(state.meta.get("window", DEFAULT_WINDOW))
    return features.query_rows(
        lambda chunk: reprec_profiles(state, features.gather_window(seqs, chunk, window)),
        rows,
    )


def reprec_train(
    split: DatasetSplit,
    settings: TrainSettings = TrainSettings(),
    dim: int = 64,
    window: int = DEFAULT_WINDOW,
    val_max_cases: int = 2000,
) -> tuple[dc.ModelState, TrainResult]:
    """Train on repeat-flagged interactions; negatives from the user's own
    other prior stores (instances with fewer than 2 distinct priors skipped).
    """
    vocabs = features.build_vocabs(split)
    seqs = features.build_sequences(split, vocabs)
    state = reprec_build(split, dim=dim, seed=settings.seed)
    state.meta["window"] = window

    train_rows = seqs.flat_of_global[split.train_idx]
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

    valid_cases = evalharness.validation_cases(
        split, "repeat", settings.seed, val_max_cases, seqs, vocabs
    )
    if not valid_cases:
        raise ValueError("validation partition has no repeat cases")

    def val_metric(st: dc.ModelState) -> float:
        scorer = reprec_scorer(st, split, valid_cases, seqs=seqs, vocabs=vocabs)
        report = evalharness.evaluate(
            scorer, valid_cases, k=3, model_id="reprec", seed=settings.seed
        )
        return report.protocols["repeat"]["hr@3"]

    result = run_training(
        state, len(rows), batch_loss, val_metric, settings, stream=102
    )
    return state, result


def reprec_scorer(state: dc.ModelState, split: DatasetSplit, cases,
                  seqs=None, vocabs=None):
    """Repeat-protocol adapter for ``cases``; profiles use the trailing
    history window and are computed up front, in chunks."""
    if vocabs is None:
        vocabs = features.build_vocabs(split)
    if seqs is None:
        seqs = features.build_sequences(split, vocabs)
    profiles = reprec_queries(state, seqs, evalharness.case_rows(seqs, cases))
    return evalharness.dot_scorer(cases, profiles, state.value("emb.store"),
                                  vocabs, origin="reprec")
