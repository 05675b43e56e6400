"""Reference scorers: history popularity (HisPop) and a situation-only model.

HisPop scores each previously visited store by the summed situation similarity
of its past orders to the current situation; it cannot score unvisited stores.
The situation-only model (SOnly) learns store embeddings against a situation
vector (hour + weekday + location embeddings) and scores any store, visited
or not.  Its query forward is :func:`sonly_query`; it trains through
:func:`fdrec.training.fit_pairs` and scores through
:func:`fdrec.evalharness.dot_scores`, like RepRec and ExpRec.  Both models
score a whole case set of integer store codes at once.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from . import evalharness, features, situsim
from .training import TrainResult, TrainSettings, fit_pairs

__all__ = [
    "hispop_scores",
    "sonly_build",
    "sonly_query",
    "sonly_train",
]


def hispop_scores(data: features.Dataset, cases) -> np.ndarray:
    """[N, C] repeat-protocol scores for ``cases``."""
    seqs = data.seqs
    n_stores = len(data.vocabs.store_ids)

    def row_scores(position: int, codes: np.ndarray) -> np.ndarray:
        row = int(seqs.flat_of_global[position])
        lo = int(seqs.offsets[seqs.user[row]])
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
        if not visited[codes].all():
            raise ValueError("history-popularity scoring needs visited candidates")
        return totals[codes]

    return evalharness.score_rows(
        cases, lambda i, codes, a: row_scores(int(cases.position[i]), codes)
    )


def sonly_build(data: features.Dataset, dim: int = 64, seed: int = 0) -> dc.ModelState:
    vocabs, log = data.vocabs, data.split.log
    state = dc.ModelState(seed=seed)
    state.add_embedding("emb.store", len(vocabs.store_ids), dim)
    features.add_situation_tables(state, dim, len(vocabs.location_ids))
    state.meta = {
        "model": "sonly",
        "dim": dim,
        "store_ids": vocabs.store_ids,
        "location_ids": vocabs.location_ids,
        "tz_offset_minutes": log.tz_offset_minutes,
        "epoch": log.epoch,
    }
    return state


def sonly_query(state: dc.ModelState, data: features.Dataset,
                rows: np.ndarray) -> dc.Var:
    """SOnly's query: the embedded situation [B, D] of each flat row."""
    seqs = data.seqs
    return features.situation(state, seqs.hour[rows], seqs.dow[rows], seqs.loc[rows])


def _uniform_negatives(data: features.Dataset, rows: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """One store code per row, uniform over the catalog except the row's store."""
    pos = data.seqs.store[rows]
    n_stores = len(data.vocabs.store_ids)
    if n_stores == 1:
        return pos
    neg = rng.integers(0, n_stores - 1, size=len(rows))
    return neg + (neg >= pos)


def sonly_train(
    data: features.Dataset,
    settings: TrainSettings = TrainSettings(),
    dim: int = 64,
) -> tuple[dc.ModelState, TrainResult]:
    """Pairwise-ranking training over all train interactions.

    Negatives are uniform over the catalog (excluding the target).  Early
    stopping tracks HR@3 on validation exploration cases.
    """
    state = sonly_build(data, dim=dim, seed=settings.seed)
    rows = data.seqs.flat_of_global[data.split.train_idx]
    result = fit_pairs(state, data, rows, sonly_query, _uniform_negatives,
                       "exploration", settings, stream=101)
    return state, result
