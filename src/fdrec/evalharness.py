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
deterministic: each case's generator is derived from (seed, log position), and
only the cases ``max_cases`` keeps are sampled.  A protocol's cases form one
:class:`CaseSet` of store codes.  ``fdrec ingest`` builds each protocol's
test set for ``[eval]`` once and stores it in ``data.bin``, and ``eval``
reads it through :meth:`fdrec.features.Dataset.cases`; the trainers build
their validation sets with :func:`validation_cases`.  A scorer maps the set
to its [N, C] score array, row ``i`` for case ``i``, and :func:`evaluate`
ranks it at once.  SOnly, RepRec and ExpRec all score through
:func:`dot_scores` with their ``<model>_query``, which takes one product per
case through :func:`row_dots`; the ensemble and ``concat`` take their base
scores through it too, and HisPop scores the set in segment form.  Ranking
is pessimistic: the target ranks below every candidate it ties with.

:func:`row_dots` scores a case against the whole store table, as unsampled
metrics do, and picks its candidates out, so a candidate's score depends
only on its case's query and the table, never on its slate's order, width
or padding.  That is one O(S·D) gemv per case, for S stores of width D,
however short the slate: on wide-catalog data (789 stores, D = 32, one BLAS
thread) 357 repeat cases of about 5 candidates took 1.7 ms against 1.0 ms
for a gather, and 419 exploration cases of about 784 took 2.6 against
8.5 ms.  A catalog much wider than its slates would lose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import features
from .dataio import DatasetSplit
from .diffcore import ModelState

PROTOCOLS = ("repeat", "exploration", "combined")
MAX_CANDIDATES = 1000


@dataclass(frozen=True)
class EvalCase:
    position: int  # global log position of the test interaction
    protocol: str
    user_id: str
    target_id: str
    candidates: tuple[str, ...]
    n_prior: int  # leading candidates that are previously visited stores


@dataclass(frozen=True, eq=False)
class CaseSet:
    """One protocol's cases as integer arrays, one row per case in log order.

    Row ``i`` ranks the store codes ``cand[i, :length[i]]`` (later slots are
    padding); the first ``n_prior[i]`` are stores the user visited before and
    the target sits in column ``tcol[i]``.  Indexing or iterating gives the
    string-id :class:`EvalCase` of a row.
    """

    protocol: str
    position: np.ndarray  # [N] global log positions
    user: np.ndarray  # [N] user codes
    target: np.ndarray  # [N] target store codes
    cand: np.ndarray  # [N, C] candidate store codes, 0 in pad slots
    length: np.ndarray  # [N] real candidates per row
    n_prior: np.ndarray  # [N] leading candidates the user visited before
    tcol: np.ndarray  # [N] the target's column
    store_ids: Sequence[str]
    user_ids: Sequence[str]

    @property
    def mask(self) -> np.ndarray:
        """[N, C] pad mask: True on real candidates."""
        return np.arange(self.cand.shape[1]) < self.length[:, None]

    def __len__(self) -> int:
        return len(self.position)

    def __getitem__(self, i: int) -> EvalCase:
        codes = self.cand[i, : self.length[i]].tolist()
        return EvalCase(int(self.position[i]), self.protocol,
                        self.user_ids[self.user[i]], self.store_ids[self.target[i]],
                        tuple(map(self.store_ids.__getitem__, codes)),
                        int(self.n_prior[i]))


@dataclass
class MetricsReport:
    model_id: str
    seed: int
    param_count: int
    k: int
    protocols: dict[str, dict[str, float | int]] = field(default_factory=dict)
    # per-case pessimistic target ranks in case order; not serialized
    ranks: np.ndarray | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "model": self.model_id,
            "seed": self.seed,
            "parameters": self.param_count,
            "k": self.k,
            "protocols": self.protocols,
        }


def _case_rng(seed: int, position: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, position])))


def build_cases(
    split: DatasetSplit,
    protocol: str,
    seed: int,
    max_cases: int = 0,
    seqs: features.UserSequences | None = None,
    vocabs: features.Vocabs | None = None,
) -> CaseSet:
    """Eval cases for one protocol over the test partition (log order)."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    log = split.log
    if log.catalog is None:
        raise ValueError("eval cases need a store catalog")
    if seqs is None or vocabs is None:
        data = features.Dataset(split)
        seqs, vocabs = data.seqs, data.vocabs
    n_stores = len(vocabs.store_ids)

    pos = np.asarray(split.test_idx, dtype=np.int64)
    if protocol != "combined":
        pos = pos[split.repeat_flags[pos] == (protocol == "repeat")]
    if max_cases and len(pos) > max_cases:
        pos = pos[np.unique(np.linspace(0, len(pos) - 1, max_cases).astype(np.int64))]
    users = log.users[pos]
    target = seqs.store[seqs.flat_of_global[pos]]

    rows, n_prior = [], []
    for p, tc in zip(pos.tolist(), target.tolist()):
        prior = seqs.priors(seqs.flat_of_global[p])
        n_prior.append(0 if protocol == "exploration" else len(prior))
        if protocol == "repeat":
            rows.append(prior)
            continue
        available = np.ones(n_stores, dtype=bool)
        available[prior] = False
        head = [tc] if protocol == "exploration" or available[tc] else []
        if protocol == "combined":
            head = prior.tolist() + head
        available[tc] = False
        pool = np.flatnonzero(available)
        need = max(min(MAX_CANDIDATES - len(head), len(pool)), 0)
        picked = pool[_case_rng(seed, p).permutation(len(pool))[:need]]
        rows.append(np.concatenate([np.array(head, dtype=np.int64), picked]))

    length = np.array([len(r) for r in rows], dtype=np.int64)
    cand = np.zeros((len(rows), int(length.max(initial=1))), dtype=np.int64)
    for i, r in enumerate(rows):
        cand[i, : len(r)] = r
    real = np.arange(cand.shape[1]) < length[:, None]
    return CaseSet(
        protocol, pos, users, target, cand, length, np.array(n_prior, dtype=np.int64),
        np.argmax((cand == target[:, None]) & real, axis=1),
        vocabs.store_ids, log.user_ids,
    )


def validation_cases(
    split: DatasetSplit,
    protocol: str,
    seed: int,
    max_cases: int = 0,
    seqs: features.UserSequences | None = None,
    vocabs: features.Vocabs | None = None,
) -> CaseSet:
    """Like :func:`build_cases`, but over the validation partition.

    Used for early stopping, keeping the test partition untouched.
    """
    return build_cases(replace(split, test_idx=split.valid_idx), protocol, seed,
                       max_cases=max_cases, seqs=seqs, vocabs=vocabs)


def row_dots(table: np.ndarray, queries: np.ndarray, cases: CaseSet,
             lo: np.ndarray, hi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """[N, C] ``out`` (zeros if None) with ``(table @ queries[i])[cand[i,
    lo[i]:hi[i]]]`` written into row ``i``; every other slot is left as it is.

    One gemv over the whole table per non-empty part, O(S·D) whatever the
    part's length: OpenBLAS rounds a product's row by where it sits in the
    call, so a product over the gathered candidates would score each by its
    slate's order and width."""
    cand = cases.cand
    out = np.zeros(cand.shape) if out is None else out
    for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
        if a < b:
            out[i, a:b] = (table @ queries[i])[cand[i, a:b]]
    return out


def dot_scores(state: ModelState, data: features.Dataset, cases: CaseSet,
               query: features.Query) -> np.ndarray:
    """[N, C] scores: each case's candidates' rows of ``state``'s store
    embeddings dotted with ``query(state, data, rows)`` at the case's row.

    The queries come from :func:`fdrec.features.query_rows`, in chunks.
    """
    queries = features.query_rows(state, data, data.seqs.flat_of_global[cases.position],
                                  query)
    return row_dots(state.value("emb.store"), queries, cases,
                    np.zeros_like(cases.length), cases.length)


def _require(cases: CaseSet, ok: np.ndarray, what: str) -> None:
    """Raise ``what`` at the log position of the first case that is not ok."""
    if not ok.all():
        raise RuntimeError(f"{what} at position {cases.position[np.argmin(ok)]}")


def evaluate(
    scorer: Callable[[CaseSet], np.ndarray],
    cases: CaseSet,
    k: int = 3,
    model_id: str = "model",
    seed: int = 0,
    param_count: int = 0,
) -> MetricsReport:
    """Mean HR@k / NDCG@k over ``cases``, ranked as one batch.

    ``scorer`` maps the case set to [N, C] scores; pad slots are ignored.
    Unknown candidate codes, a missing target and non-finite scores fail
    with the case's log position.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    n = len(cases)
    if not n:
        raise ValueError("no cases to evaluate")
    real, cand, tcol, rows = cases.mask, cases.cand, cases.tcol, np.arange(n)
    _require(cases, ~(real & ((cand < 0) | (cand >= len(cases.store_ids)))).any(axis=1),
             "candidate outside the store catalog")
    _require(cases, (tcol < cases.length) & (cand[rows, tcol] == cases.target),
             "target not among candidates")
    scores = np.asarray(scorer(cases), dtype=np.float64)
    if scores.shape != cand.shape:
        raise RuntimeError(f"scorer returned scores of shape {scores.shape} "
                           f"for candidates of shape {cand.shape}")
    _require(cases, (np.isfinite(scores) | ~real).all(axis=1),
             "scorer returned non-finite scores")
    scores = np.where(real, scores, -np.inf)
    ranks = (scores >= scores[rows, tcol][:, None]).sum(axis=1)
    gain = [0.0] + [1.0 / math.log2(r + 1.0) for r in range(1, k + 1)]
    ndcg_sum = 0.0
    for r in ranks.tolist():  # in case order: a pairwise sum rounds differently
        ndcg_sum += gain[r] if r <= k else 0.0
    report = MetricsReport(model_id=model_id, seed=seed, param_count=param_count, k=k,
                           ranks=ranks)
    report.protocols[cases.protocol] = {
        f"hr@{k}": int((ranks <= k).sum()) / n,
        f"ndcg@{k}": ndcg_sum / n,
        "n": n,
    }
    return report
