"""Shared mini-batch training: the hyperparameter sections, the loop with
patience-based early stopping, its validation metric, and the pairwise fit
SOnly, RepRec and ExpRec share.

:class:`ModelSection` (the ``[model]`` section) is the one source of model
hyperparameters: every ``<model>_build(data, model, seed)`` and
``<model>_train(data, settings, model)`` reads its fields from it.

Each of those three models supplies only a query forward,
``<model>_query(state, data, rows) -> Var [B, D]`` over flat sequence rows,
its training rows and its negative sampler.  :func:`fit_pairs` trains the
query against the store embeddings with the pairwise ranking loss
:func:`pair_loss` (BPR; Rendle et al., UAI 2009), early-stopped on HR@3 of
:func:`fdrec.evalharness.dot_scores` over validation cases.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import diffcore as dc
from . import evalharness, features
from .diffcore import ModelState, Var, adam_step, backward


@dataclass(frozen=True)
class ModelSection:
    dim: int = 64
    repeat_window: int = 50  # RepRec's history window
    history_window: int = 20  # ExpRec's GRU and the ensemble's intent window
    k_neighbors: int = 10
    # read by nothing since the ensemble lost its attention; still accepted
    # and validated so that existing configs load and hash as before
    attn_dim: int = 32
    budget: int = 30  # ensemble training slate size
    intent_weight: float = 1.0  # weight of the ensemble's intent loss
    ablate: tuple[str, ...] = ()  # ExpRec triggers to drop


@dataclass(frozen=True)
class TrainSettings:
    lr: float = 0.01
    weight_decay: float = 0.0
    batch_size: int = 256
    patience: int = 10
    max_epochs: int = 100
    seed: int = 0
    max_instances: int = 20000  # ensemble training slates
    val_max_cases: int = 2000  # validation cases for early stopping


@dataclass
class TrainResult:
    epochs: int
    best_epoch: int
    best_metric: float
    history: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def run_training(
    state: ModelState,
    n_instances: int,
    batch_loss: Callable[[ModelState, np.ndarray, np.random.Generator], Var],
    val_metric: Callable[[ModelState], float],
    settings: TrainSettings,
    stream: int = 0,
) -> TrainResult:
    """Optimize until the validation metric stops improving.

    ``batch_loss`` gets instance indices plus the epoch's generator (for
    negative sampling) and returns a scalar loss node.  The metric is
    higher-is-better; the best parameters are restored before returning.

    Each batch's loss node is dropped right after its Adam step, so the tape
    it roots (every intermediate array, VJP closure and node gradient) is
    freed before the next ``batch_loss`` and before ``val_metric`` run.
    """
    if n_instances <= 0:
        raise ValueError("no training instances")
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([settings.seed, stream]))
    )
    best_metric = -np.inf
    best_epoch = 0
    best_snap = state.snapshot()
    bad = 0
    history: list[float] = []
    for epoch in range(1, settings.max_epochs + 1):
        order = rng.permutation(n_instances)
        for start in range(0, n_instances, settings.batch_size):
            chunk = order[start : start + settings.batch_size]
            loss = batch_loss(state, chunk, rng)
            if loss.data.shape != ():
                raise ValueError("batch_loss must return a scalar")
            if not np.isfinite(loss.data):
                raise ValueError(f"non-finite loss at epoch {epoch}, batch start {start}")
            backward(loss)
            adam_step(
                state,
                lr=settings.lr,
                weight_decay=settings.weight_decay,
            )
            del loss
        metric = float(val_metric(state))
        history.append(metric)
        if metric > best_metric:
            best_metric = metric
            best_epoch = epoch
            best_snap = state.snapshot()
            bad = 0
        else:
            bad += 1
            if bad >= settings.patience:
                break
    state.restore(best_snap)
    return TrainResult(
        epochs=len(history),
        best_epoch=best_epoch,
        best_metric=best_metric,
        history=history,
    )


def validation_set(data: features.Dataset, protocol: str,
                   settings: TrainSettings) -> evalharness.CaseSet:
    """``protocol``'s validation cases, drawn with ``settings.seed`` and
    capped at ``settings.val_max_cases``; ``ValueError`` if there are none."""
    cases = evalharness.validation_cases(data.split, protocol, settings.seed,
                                         settings.val_max_cases, data.seqs, data.vocabs)
    if not cases:
        raise ValueError(f"validation partition has no {protocol} cases")
    return cases


def validation_metric(cases: evalharness.CaseSet, settings: TrainSettings,
                      model_id: str, scores_of: Callable) -> Callable:
    """A trainer's ``val_metric``: HR@3 over the validation ``cases`` of
    :func:`validation_set`, which ``scores_of(state)`` scores [N, C] after
    every epoch."""

    def val_metric(state) -> float:
        report = evalharness.evaluate(lambda _: scores_of(state), cases, k=3,
                                      model_id=model_id, seed=settings.seed)
        return report.protocols[cases.protocol]["hr@3"]

    return val_metric


def pair_loss(state: ModelState, queries: Var, pos: np.ndarray, neg: np.ndarray) -> Var:
    """Mean pairwise ranking loss of queries [B, D] dotted with the store
    embeddings of one positive and one negative code per row."""
    pos_e = dc.gather_rows(state.leaf("emb.store"), pos)
    neg_e = dc.gather_rows(state.leaf("emb.store"), neg)
    s_pos = dc.sum_(dc.mul(queries, pos_e), axis=-1)
    s_neg = dc.sum_(dc.mul(queries, neg_e), axis=-1)
    return dc.mean_(dc.bpr_loss(s_pos, s_neg))


def fit_pairs(
    state: ModelState,
    data: features.Dataset,
    rows: np.ndarray,
    query: features.Query,
    negatives: Callable[[features.Dataset, np.ndarray, np.random.Generator], np.ndarray],
    protocol: str,
    settings: TrainSettings,
    stream: int,
) -> TrainResult:
    """Train ``query`` with :func:`pair_loss` over the flat sequence ``rows``.

    Each batch's positives are its rows' stores and its negatives come from
    ``negatives(data, batch_rows, rng)``.  Early stopping tracks HR@3 on
    ``protocol``'s validation cases, scored by
    :func:`fdrec.evalharness.dot_scores` with the same ``query``.
    """
    store = data.seqs.store

    def batch_loss(st: ModelState, chunk: np.ndarray, rng: np.random.Generator) -> Var:
        batch = rows[chunk]
        neg = negatives(data, batch, rng)
        return pair_loss(st, query(st, data, batch), store[batch], neg)

    cases = validation_set(data, protocol, settings)
    val_metric = validation_metric(
        cases, settings, state.meta["model"],
        lambda st: evalharness.dot_scores(st, data, cases, query),
    )
    return run_training(state, len(rows), batch_loss, val_metric, settings, stream=stream)
