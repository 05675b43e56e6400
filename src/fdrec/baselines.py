"""Reference scorers: history popularity (HisPop) and a situation-only model.

HisPop scores each previously visited store by the summed situation similarity
of its past orders to the current situation; it cannot score unvisited stores.
It scores a whole case set of integer store codes at once, in the segment
form that :mod:`fdrec.analysis` uses for its influence studies.  The
situation-only model (SOnly) learns store embeddings against a situation
vector (hour + weekday + location embeddings) and scores any store, visited
or not.  Its query forward is :func:`sonly_query`; it trains through
:func:`fdrec.training.fit_pairs` and scores through
:func:`fdrec.evalharness.dot_scores`, like RepRec and ExpRec.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from . import features, situsim
from .training import ModelSection, TrainResult, TrainSettings, fit_pairs

__all__ = [
    "hispop_scores",
    "sonly_build",
    "sonly_query",
    "sonly_train",
]


def hispop_scores(data: features.Dataset, cases) -> np.ndarray:
    """[N, C] repeat-protocol scores for ``cases``; pads score 0.

    Scored in segment form: every case's earlier rows are laid end to end,
    their similarities to the case's situation are computed elementwise, and
    one ``bincount`` sums them per (case, store).  It adds each bin's terms
    in input order, so a total has the bits of that case's own sum.  A real
    candidate the user never visited fails with its case's log position.
    """
    seqs = data.seqs
    n_stores = len(data.vocabs.store_ids)
    now = seqs.flat_of_global[cases.position]
    first = seqs.offsets[seqs.user[now]]
    past = situsim.ranges(first, now - first)
    case = np.repeat(np.arange(len(now)), now - first)  # each past row's case
    at = now[case]
    sims = situsim.situation_similarity_arrays(
        seqs.day[past], seqs.hour[past], seqs.dow[past],
        seqs.raw_loc[past] == seqs.raw_loc[at], seqs.day[at], seqs.hour[at], seqs.dow[at],
    )
    keys, inverse = np.unique(case * n_stores + seqs.store[past], return_inverse=True)
    keys = np.append(keys, len(now) * n_stores)  # above every key: misses land here
    totals = np.bincount(inverse.ravel(), weights=sims, minlength=len(keys))
    want = np.arange(len(now))[:, None] * n_stores + cases.cand
    slot = np.searchsorted(keys, want)
    visited = (keys[slot] == want) | ~cases.mask
    if not visited.all():
        raise ValueError("history-popularity scoring needs visited candidates: case at "
                         f"log position {cases.position[np.argmin(visited.all(axis=1))]}")
    return np.where(cases.mask, totals[slot], 0.0)


def sonly_build(data: features.Dataset, model: ModelSection, seed: int) -> dc.ModelState:
    state = features.new_state(data, "sonly", seed, dim=model.dim)
    state.add_embedding("emb.store", len(data.vocabs.store_ids), model.dim)
    features.add_situation_tables(state, model.dim, len(data.vocabs.location_ids))
    return state


def sonly_query(state: dc.ModelState, data: features.Dataset,
                rows: np.ndarray) -> dc.Var:
    """SOnly's query: the embedded situation [B, D] of each flat row."""
    return features.situation(state, data.seqs, rows)


def _uniform_negatives(data: features.Dataset, rows: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """One store code per row, uniform over the catalog except the row's store."""
    pos = data.seqs.store[rows]
    n_stores = len(data.vocabs.store_ids)
    if n_stores == 1:
        return pos
    neg = rng.integers(0, n_stores - 1, size=len(rows))
    return neg + (neg >= pos)


def sonly_train(data: features.Dataset, settings: TrainSettings,
                model: ModelSection) -> tuple[dc.ModelState, TrainResult]:
    """Pairwise-ranking training over all train interactions.

    Negatives are uniform over the catalog (excluding the target).  Early
    stopping tracks HR@3 on validation exploration cases.
    """
    state = sonly_build(data, model, settings.seed)
    rows = data.seqs.flat_of_global[data.split.train_idx]
    result = fit_pairs(state, data, rows, sonly_query, _uniform_negatives,
                       "exploration", settings, stream=101)
    return state, result
