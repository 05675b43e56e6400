"""Evaluation protocols, candidate construction, and rank metrics.

Three protocols per test interaction:

* ``repeat`` (repeat-flagged targets only): candidates are the user's distinct
  previously visited stores, which include the target.
* ``exploration`` (exploration-flagged targets only): the target plus up to
  999 stores sampled without replacement from the user's unvisited stores.
* ``combined`` (every target): all previously visited stores plus the target,
  filled with sampled unvisited stores up to 1000 candidates when available.

"Previously visited" always means the user's full timeline before the test
interaction, regardless of partition boundaries.  Candidate sampling is
deterministic: each case's generator is derived from (seed, log position).
Ranking is pessimistic: the target ranks below every candidate it ties with.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import features
from .dataio import DatasetSplit

PROTOCOLS = ("repeat", "exploration", "combined")
MAX_CANDIDATES = 1000


@dataclass(frozen=True)
class ScoredSlate:
    """Candidate store ids with aligned scores and their originating model."""

    candidates: tuple[str, ...]
    scores: np.ndarray
    origin: str

    def __post_init__(self):
        if len(self.candidates) != len(self.scores):
            raise ValueError("candidates and scores must align")


@dataclass(frozen=True)
class EvalCase:
    position: int  # global log position of the test interaction
    protocol: str
    user_id: str
    target_id: str
    candidates: tuple[str, ...]
    n_prior: int  # leading candidates that are previously visited stores


@dataclass
class MetricsReport:
    model_id: str
    seed: int
    param_count: int
    k: int
    protocols: dict[str, dict[str, float | int]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "model": self.model_id,
            "seed": self.seed,
            "parameters": self.param_count,
            "k": self.k,
            "protocols": self.protocols,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ": "))


def _case_rng(seed: int, position: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, position])))


def build_cases(
    split: DatasetSplit,
    protocol: str,
    seed: int,
    max_cases: int = 0,
    seqs: features.UserSequences | None = None,
    vocabs: features.Vocabs | None = None,
) -> list[EvalCase]:
    """Eval cases for one protocol over the test partition (log order)."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    log = split.log
    if log.catalog is None:
        raise ValueError("eval cases need a store catalog")
    if vocabs is None:
        vocabs = features.build_vocabs(split)
    if seqs is None:
        seqs = features.build_sequences(split, vocabs)
    store_ids = vocabs.store_ids
    n_stores = len(store_ids)

    cases: list[EvalCase] = []
    for p in split.test_idx:
        p = int(p)
        is_repeat = bool(split.repeat_flags[p])
        if protocol == "repeat" and not is_repeat:
            continue
        if protocol == "exploration" and is_repeat:
            continue
        user_code = int(log.users[p])
        local = int(seqs.local_of_global[p])
        prior = seqs.prior_store_codes(user_code, local)
        target_code = int(seqs.store[seqs.flat_of_global[p]])
        target_id = store_ids[target_code]
        user_id = log.user_ids[user_code]

        if protocol == "repeat":
            candidates = tuple(store_ids[int(c)] for c in prior)
            cases.append(
                EvalCase(p, protocol, user_id, target_id, candidates, len(candidates))
            )
            continue

        if protocol == "exploration":
            available = np.ones(n_stores, dtype=bool)
            available[prior] = False
            available[target_code] = False
            pool = np.nonzero(available)[0]
            need = min(MAX_CANDIDATES - 1, len(pool))
            rng = _case_rng(seed, p)
            picked = pool[rng.permutation(len(pool))[:need]] if need else pool[:0]
            candidates = (target_id,) + tuple(store_ids[int(c)] for c in picked)
            cases.append(EvalCase(p, protocol, user_id, target_id, candidates, 0))
            continue

        # combined
        head = [store_ids[int(c)] for c in prior]
        available = np.ones(n_stores, dtype=bool)
        available[prior] = False
        if available[target_code]:
            head.append(target_id)
            available[target_code] = False
        pool = np.nonzero(available)[0]
        need = min(MAX_CANDIDATES - len(head), len(pool))
        need = max(need, 0)
        rng = _case_rng(seed, p)
        picked = pool[rng.permutation(len(pool))[:need]] if need else pool[:0]
        candidates = tuple(head) + tuple(store_ids[int(c)] for c in picked)
        cases.append(EvalCase(p, protocol, user_id, target_id, candidates, len(prior)))

    if max_cases and len(cases) > max_cases:
        keep = np.unique(np.linspace(0, len(cases) - 1, max_cases).astype(np.int64))
        cases = [cases[int(i)] for i in keep]
    return cases


def validation_cases(
    split: DatasetSplit,
    protocol: str,
    seed: int,
    max_cases: int = 0,
    seqs: features.UserSequences | None = None,
    vocabs: features.Vocabs | None = None,
) -> list[EvalCase]:
    """Like :func:`build_cases`, but over the validation partition.

    Used for early stopping, keeping the test partition untouched.
    """
    sub = DatasetSplit(
        log=split.log,
        valid_boundary=split.valid_boundary,
        test_boundary=split.test_boundary,
        repeat_flags=split.repeat_flags,
        train_idx=split.train_idx,
        valid_idx=split.valid_idx,
        test_idx=split.valid_idx,
    )
    return build_cases(sub, protocol, seed, max_cases=max_cases, seqs=seqs, vocabs=vocabs)


def case_rows(seqs: features.UserSequences, cases: Sequence[EvalCase]) -> np.ndarray:
    """Flat sequence rows of the cases' target interactions, in case order."""
    return seqs.flat_of_global[np.array([c.position for c in cases], dtype=np.int64)]


def dot_scorer(
    cases: Sequence[EvalCase],
    queries: np.ndarray,
    table: np.ndarray,
    vocabs: features.Vocabs,
    origin: str,
) -> Callable[[EvalCase], ScoredSlate]:
    """Scorer for ``cases``: candidates' rows of ``table`` dotted with the
    case's row of ``queries`` (aligned with ``cases``)."""
    index = {c.position: i for i, c in enumerate(cases)}

    def score(case: EvalCase) -> ScoredSlate:
        codes = [vocabs.store_code(c) for c in case.candidates]
        return ScoredSlate(case.candidates, table[codes] @ queries[index[case.position]],
                           origin=origin)

    return score


@dataclass(frozen=True)
class RankResult:
    rank: int
    hr: float
    ndcg: float


def rank_metrics(slate: ScoredSlate, target_id: str, k: int = 3) -> RankResult:
    """Pessimistic rank of the target: ties count against it."""
    if k <= 0:
        raise ValueError("k must be positive")
    try:
        t = slate.candidates.index(target_id)
    except ValueError:
        raise ValueError(f"target {target_id!r} not among candidates") from None
    scores = np.asarray(slate.scores, dtype=np.float64)
    ts = scores[t]
    greater = int((scores > ts).sum())
    ties = int((scores == ts).sum()) - 1
    rank = 1 + greater + ties
    hit = rank <= k
    ndcg = 1.0 / math.log2(rank + 1.0) if hit else 0.0
    return RankResult(rank, 1.0 if hit else 0.0, ndcg)


def evaluate(
    scorer: Callable[[EvalCase], ScoredSlate],
    cases: Sequence[EvalCase],
    k: int = 3,
    model_id: str = "model",
    seed: int = 0,
    param_count: int = 0,
) -> MetricsReport:
    """Mean HR@k / NDCG@k over cases; scorer errors carry the case position."""
    if not cases:
        raise ValueError("no cases to evaluate")
    protocol = cases[0].protocol
    hr_sum = 0.0
    ndcg_sum = 0.0
    for case in cases:
        if case.protocol != protocol:
            raise ValueError("mixed protocols in one evaluation")
        try:
            slate = scorer(case)
        except Exception as e:
            raise RuntimeError(
                f"scorer failed on case at log position {case.position}"
            ) from e
        if len(slate.candidates) != len(case.candidates):
            raise RuntimeError(
                f"scorer returned {len(slate.candidates)} scores for "
                f"{len(case.candidates)} candidates at position {case.position}"
            )
        if not np.isfinite(slate.scores).all():
            raise RuntimeError(
                f"scorer returned non-finite scores at position {case.position}"
            )
        r = rank_metrics(slate, case.target_id, k)
        hr_sum += r.hr
        ndcg_sum += r.ndcg
    n = len(cases)
    report = MetricsReport(model_id=model_id, seed=seed, param_count=param_count, k=k)
    report.protocols[protocol] = {
        f"hr@{k}": hr_sum / n,
        f"ndcg@{k}": ndcg_sum / n,
        "n": n,
    }
    return report
