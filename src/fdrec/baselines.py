"""Reference scorers: history popularity (HisPop) and a situation-only model.

HisPop scores each previously visited store by the summed situation similarity
of its past orders to the current situation; it cannot score unvisited stores.
The situation-only model (SOnly) learns store embeddings against a situation
vector (hour + weekday + location embeddings) with a pairwise ranking loss and
scores any store, visited or not.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from . import evalharness, features, situsim
from .dataio import DatasetSplit, Interaction, SituationFeatures, time_facets
from .evalharness import EvalCase, ScoredSlate
from .training import TrainResult, TrainSettings, run_training

__all__ = [
    "ScoredSlate",
    "hispop_score",
    "hispop_scorer",
    "sonly_build",
    "sonly_train",
    "sonly_score",
    "sonly_scorer",
]


def hispop_score(
    history: list[Interaction],
    now: SituationFeatures,
    candidates: tuple[str, ...] | list[str],
    tz_offset_minutes: int = 0,
    epoch: int = 0,
) -> ScoredSlate:
    """Sum of situation similarities of each candidate's past orders to now.

    Candidates must all appear in the history; ``epoch`` anchors day indices
    and must match the reference frame of ``now``.
    """
    times = np.array([it.time for it in history], dtype=np.int64)
    day, hour, dow = time_facets(times, tz_offset_minutes, epoch)
    loc_match = np.array(
        [it.location_id == now.location_id for it in history], dtype=bool
    )
    sims = situsim.situation_similarity_arrays(
        day, hour, dow, loc_match, now.day_index, now.hour, now.day_of_week
    )
    totals: dict[str, float] = {}
    for it, s in zip(history, sims):
        totals[it.store_id] = totals.get(it.store_id, 0.0) + float(s)
    scores = np.empty(len(candidates), dtype=np.float64)
    for i, c in enumerate(candidates):
        if c not in totals:
            raise ValueError(f"candidate {c!r} was never visited")
        scores[i] = totals[c]
    return ScoredSlate(tuple(candidates), scores, origin="hispop")


def hispop_scorer(split: DatasetSplit, seqs=None, vocabs=None):
    """Eval-harness adapter for the repeat protocol."""
    if vocabs is None:
        vocabs = features.build_vocabs(split)
    if seqs is None:
        seqs = features.build_sequences(split, vocabs)
    log = split.log
    n_stores = len(vocabs.store_ids)

    def score(case: EvalCase) -> ScoredSlate:
        user_code = int(log.users[case.position])
        row = int(seqs.flat_of_global[case.position])
        lo = int(seqs.offsets[user_code])
        prior = slice(lo, row)
        sims = situsim.situation_similarity_arrays(
            seqs.day[prior], seqs.hour[prior], seqs.dow[prior],
            seqs.raw_loc[prior] == seqs.raw_loc[row],
            int(seqs.day[row]), int(seqs.hour[row]), int(seqs.dow[row]),
        )
        totals = np.bincount(
            seqs.store[prior], weights=sims, minlength=n_stores
        )
        visited = np.zeros(n_stores, dtype=bool)
        visited[seqs.store[prior]] = True
        cand_codes = [vocabs.store_code(c) for c in case.candidates]
        if not all(visited[c] for c in cand_codes):
            raise ValueError("history-popularity scoring needs visited candidates")
        scores = totals[cand_codes]
        return ScoredSlate(case.candidates, scores, origin="hispop")

    return score


def _register_situation_tables(
    state: dc.ModelState, dim: int, n_locations: int
) -> None:
    state.add_embedding("emb.hour", 24, dim)
    state.add_embedding("emb.dow", 7, dim)
    state.add_embedding("emb.loc", n_locations, dim)


def sonly_build(split: DatasetSplit, dim: int = 64, seed: int = 0) -> dc.ModelState:
    vocabs = features.build_vocabs(split)
    state = dc.ModelState(seed=seed)
    state.add_embedding("emb.store", len(vocabs.store_ids), dim)
    _register_situation_tables(state, dim, len(vocabs.location_ids))
    state.meta = {
        "model": "sonly",
        "dim": dim,
        "store_ids": vocabs.store_ids,
        "location_ids": vocabs.location_ids,
        "tz_offset_minutes": split.log.tz_offset_minutes,
        "epoch": split.log.epoch,
    }
    return state


def _situations(state: dc.ModelState, seqs: features.UserSequences,
                rows: np.ndarray) -> dc.Var:
    """SOnly's query: the embedded situation [B, D] of each row."""
    return features.situation(state, seqs.hour[rows], seqs.dow[rows], seqs.loc[rows])


def sonly_train(
    split: DatasetSplit,
    settings: TrainSettings = TrainSettings(),
    dim: int = 64,
    val_max_cases: int = 2000,
) -> tuple[dc.ModelState, TrainResult]:
    """Pairwise-ranking training over all train interactions.

    Negatives are uniform over the catalog (excluding the target).  Early
    stopping tracks HR@3 on validation exploration cases.
    """
    vocabs = features.build_vocabs(split)
    seqs = features.build_sequences(split, vocabs)
    state = sonly_build(split, dim=dim, seed=settings.seed)

    rows = seqs.flat_of_global[split.train_idx]
    pos = seqs.store[rows]
    n_stores = len(vocabs.store_ids)

    def batch_loss(st: dc.ModelState, chunk: np.ndarray, rng: np.random.Generator):
        b_pos = pos[chunk]
        if n_stores > 1:
            neg = rng.integers(0, n_stores - 1, size=len(chunk))
            neg = neg + (neg >= b_pos)
        else:
            neg = b_pos
        situ = _situations(st, seqs, rows[chunk])
        pos_e = dc.gather_rows(st.leaf("emb.store"), b_pos)
        neg_e = dc.gather_rows(st.leaf("emb.store"), neg)
        s_pos = dc.sum_(dc.mul(situ, pos_e), axis=-1)
        s_neg = dc.sum_(dc.mul(situ, neg_e), axis=-1)
        return dc.mean_(dc.bpr_loss(s_pos, s_neg))

    valid_cases = evalharness.validation_cases(
        split, "exploration", settings.seed, val_max_cases, seqs, vocabs
    )
    if not valid_cases:
        raise ValueError("validation partition has no exploration cases")

    def val_metric(st: dc.ModelState) -> float:
        scorer = sonly_scorer(st, split, valid_cases, seqs=seqs, vocabs=vocabs)
        report = evalharness.evaluate(
            scorer, valid_cases, k=3, model_id="sonly", seed=settings.seed
        )
        return report.protocols["exploration"]["hr@3"]

    result = run_training(
        state, len(rows), batch_loss, val_metric, settings, stream=101
    )
    return state, result


def sonly_score(
    state: dc.ModelState, now: SituationFeatures, candidates
) -> ScoredSlate:
    """Dot product between the situation vector and candidate store embeddings."""
    meta = state.meta
    loc_index = {l: i for i, l in enumerate(meta["location_ids"])}
    store_index = {s: i for i, s in enumerate(meta["store_ids"])}
    lc = loc_index.get(now.location_id, features.FALLBACK)
    situ = (
        state.value("emb.hour")[now.hour]
        + state.value("emb.dow")[now.day_of_week]
        + state.value("emb.loc")[lc]
    )
    codes = []
    for c in candidates:
        if c not in store_index:
            raise ValueError(f"unknown store {c!r}")
        codes.append(store_index[c])
    scores = state.value("emb.store")[codes] @ situ
    return ScoredSlate(tuple(candidates), scores, origin="sonly")


def sonly_scorer(state: dc.ModelState, split: DatasetSplit, cases,
                 seqs=None, vocabs=None):
    """Eval-harness adapter for ``cases``; works for every protocol."""
    if vocabs is None:
        vocabs = features.build_vocabs(split)
    if seqs is None:
        seqs = features.build_sequences(split, vocabs)
    situ = features.query_rows(
        lambda chunk: _situations(state, seqs, chunk), evalharness.case_rows(seqs, cases)
    )
    return evalharness.dot_scorer(cases, situ, state.value("emb.store"), vocabs,
                                  origin="sonly")
