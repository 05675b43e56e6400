"""Shared mini-batch training loop with patience-based early stopping."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .diffcore import ModelState, Var, adam_step, backward


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
        return {
            "epochs": self.epochs,
            "best_epoch": self.best_epoch,
            "best_metric": self.best_metric,
            "history": self.history,
        }


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
    epochs_run = 0
    for epoch in range(1, settings.max_epochs + 1):
        epochs_run = epoch
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
        epochs=epochs_run,
        best_epoch=best_epoch,
        best_metric=best_metric,
        history=history,
    )
