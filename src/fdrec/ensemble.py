"""Intent-aware combination of the repeat and exploration recommenders.

A small intent network (GRU over the user's past repeat/explore flags,
concatenated with situation and user embeddings) predicts how likely the next
order is a repeat.  Both base models' slates are min-max normalized, lifted to
(score, origin) features, passed through one residual self-attention block and
one intent-queried cross-attention, and projected to a per-item weight in
(0,1).  The final score of every item is exactly ``weight * normalized score``.

Training is two-stage on frozen base models: the intent head first (binary
cross-entropy on repeat flags), then the whole network with a pairwise
ranking loss over fixed-size training slates plus the intent loss as an
auxiliary term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from . import evalharness, exprec, features, reprec
from .dataio import DatasetSplit, SituationFeatures
from .evalharness import EvalCase, ScoredSlate
from .exprec import _situation_np, _values
from .training import TrainResult, TrainSettings, run_training

__all__ = [
    "IntentEstimate",
    "CombinedSlate",
    "ensemble_build",
    "predict_intent",
    "normalize_slate",
    "combine",
    "ensemble_train",
    "ensemble_scorer",
    "concat_scorer",
]

DEFAULT_ATTN_DIM = 32
DEFAULT_WINDOW = 20
DEFAULT_BUDGET = 30
DEFAULT_LAMBDA = 1.0


@dataclass(frozen=True)
class IntentEstimate:
    repeat_prob: float
    explore_prob: float

    def __post_init__(self):
        for p in (self.repeat_prob, self.explore_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("intent probabilities must lie in [0, 1]")
        if abs(self.repeat_prob + self.explore_prob - 1.0) > 1e-9:
            raise ValueError("intent probabilities must sum to 1")


@dataclass(frozen=True)
class CombinedSlate:
    """Final slate: ``a`` repeat items followed by ``b`` exploration items.

    ``scores == weights * base`` holds exactly, element by element.
    """

    candidates: tuple[str, ...]
    a: int
    b: int
    base: np.ndarray     # normalized input scores, repeat part first
    weights: np.ndarray  # per-item sigmoid weights in (0, 1)
    scores: np.ndarray

    def __post_init__(self):
        n = self.a + self.b
        if not (len(self.candidates) == len(self.base) == len(self.weights)
                == len(self.scores) == n):
            raise ValueError("slate arrays must all have length a + b")


def ensemble_build(
    split: DatasetSplit,
    dim: int = 64,
    attn_dim: int = DEFAULT_ATTN_DIM,
    seed: int = 0,
    window: int = DEFAULT_WINDOW,
    budget: int = DEFAULT_BUDGET,
) -> dc.ModelState:
    vocabs = features.build_vocabs(split)
    state = dc.ModelState(seed=seed)
    state.add_embedding("emb.hour", 24, dim)
    state.add_embedding("emb.dow", 7, dim)
    state.add_embedding("emb.loc", len(vocabs.location_ids), dim)
    state.add_embedding("emb.user", len(vocabs.user_ids), dim)
    state.add_embedding("emb.flag", 2, dim)
    state.add_gru("gru.intent", dim, dim)
    state.add_dense("intent", 2, 3 * dim)
    state.add_dense("lift", attn_dim, 2)
    scale = 1.0 / np.sqrt(attn_dim)
    for name in ("attn.wq", "attn.wk", "attn.wv", "cross.wk", "cross.wv"):
        state.add_param(name, (attn_dim, attn_dim), scale)
    state.add_dense("cq", attn_dim, 2)
    state.add_dense("proj", 1, 2 * attn_dim)
    state.meta = {
        "model": "ensemble",
        "dim": dim,
        "attn_dim": attn_dim,
        "window": window,
        "budget": budget,
        "store_ids": vocabs.store_ids,
        "location_ids": vocabs.location_ids,
        "user_ids": vocabs.user_ids,
        "tz_offset_minutes": split.log.tz_offset_minutes,
        "epoch": split.log.epoch,
    }
    return state


# ---------------------------------------------------------------- intent

def predict_intent(
    state: dc.ModelState,
    user: str,
    intent_history,
    now: SituationFeatures,
) -> IntentEstimate:
    """Repeat/explore probabilities from past flags, situation, and user."""
    values = _values(state)
    meta = state.meta
    window = int(meta["window"])
    user_index = {u: i for i, u in enumerate(meta["user_ids"])}
    loc_index = {l: i for i, l in enumerate(meta["location_ids"])}
    if user not in user_index:
        raise ValueError(f"unknown user {user!r}")

    p = dc.gru_leaves(state, "gru.intent")
    h = dc.Var(np.zeros(int(meta["dim"])))
    for flag in list(intent_history)[-window:]:
        h = dc.gru_cell(p, values["emb.flag"][int(bool(flag))], h)
    h = h.data
    e_mu = _situation_np(values, now.hour, now.day_of_week,
                         loc_index.get(now.location_id, features.FALLBACK))
    u = values["emb.user"][user_index[user]]
    logits = np.concatenate([h, e_mu, u]) @ values["intent.w"].T + values["intent.b"]
    probs = dc._softmax(logits, axis=-1)
    return IntentEstimate(float(probs[0]), float(probs[1]))


def _intent_logits(state: dc.ModelState, seqs: features.UserSequences,
                   rows: np.ndarray) -> dc.Var:
    """Intent logits [B,2] (repeat, explore) for the interactions at ``rows``."""
    win = features.gather_window(seqs, rows, int(state.meta["window"]))
    femb = dc.gather_rows(state.leaf("emb.flag"), win.repeat)
    h = dc.gru_sequence(dc.gru_leaves(state, "gru.intent"), femb, win.mask)
    e_mu = features.situation(state, win.now_hour, win.now_dow, win.now_loc)
    u = dc.gather_rows(state.leaf("emb.user"), win.user)
    feats = dc.concat([h, e_mu, u], axis=-1)
    return dc.dense(state.leaf("intent.w"), state.leaf("intent.b"), feats)


def _intent_probs(state: dc.ModelState, seqs: features.UserSequences,
                  rows: np.ndarray) -> np.ndarray:
    """(repeat_prob, explore_prob) [N,2] for the interactions at ``rows``."""
    return features.query_rows(
        lambda chunk: dc.softmax(_intent_logits(state, seqs, chunk)), rows
    )


def _intent_ce(logits: dc.Var, repeat: np.ndarray) -> dc.Var:
    """Per-row two-class cross-entropy from logits: -log softmax_true."""
    true_col = np.where(repeat, 0, 1)
    ar = np.arange(len(repeat))
    return dc.bpr_loss(dc.getitem(logits, (ar, true_col)),
                       dc.getitem(logits, (ar, 1 - true_col)))


# ---------------------------------------------------------------- combine

def normalize_slate(scores) -> np.ndarray:
    """Min-max normalization to [0, 1]; a constant slate maps to all 0.5."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot normalize an empty slate")
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        return np.full(arr.shape, 0.5)
    return (arr - lo) / (hi - lo)


def _item_weights_np(values: dict, base: np.ndarray, origin: np.ndarray,
                     probs: np.ndarray) -> np.ndarray:
    """Per-item weights in (0,1) from one attention pass (single slate)."""
    # kept beside _item_weights_var: on a 1000-item slate it took 8.5 ms and
    # 9 MB against the tape's 21.5 ms and 41 MB, which wide catalogs would pay
    A = values["attn.wq"].shape[0]
    x = np.stack([base, origin], axis=-1)
    X = x @ values["lift.w"].T + values["lift.b"]
    # dc._softmax's steps done in place: C x C temporaries are large
    att = (X @ values["attn.wq"]) @ (X @ values["attn.wk"]).T
    att /= np.sqrt(A)
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    H = X + att @ (X @ values["attn.wv"])
    q = probs @ values["cq.w"].T + values["cq.b"]
    att2 = dc._softmax(q @ (H @ values["cross.wk"]).T / np.sqrt(A), axis=-1)
    c = att2 @ (H @ values["cross.wv"])
    feats = np.concatenate([H, np.broadcast_to(c, H.shape)], axis=-1)
    logits = (feats @ values["proj.w"].T + values["proj.b"])[:, 0]
    return dc._sigmoid(logits)


def _item_weights_var(state: dc.ModelState, x_feats: np.ndarray,
                      probs: dc.Var) -> dc.Var:
    """Differentiable twin of :func:`_item_weights_np` over [G, n, 2] slates."""
    G, n, _ = x_feats.shape
    A = int(state.meta["attn_dim"])
    X = dc.dense(state.leaf("lift.w"), state.leaf("lift.b"), dc.Var(x_feats))
    Q = dc.matmul(X, state.leaf("attn.wq"))
    K = dc.matmul(X, state.leaf("attn.wk"))
    V = dc.matmul(X, state.leaf("attn.wv"))
    att = dc.softmax(dc.mul(dc.matmul(Q, dc.transpose_last2(K)), 1.0 / np.sqrt(A)))
    H = dc.add(X, dc.matmul(att, V))
    q = dc.reshape(dc.dense(state.leaf("cq.w"), state.leaf("cq.b"), probs), (G, 1, A))
    K2 = dc.matmul(H, state.leaf("cross.wk"))
    att2 = dc.softmax(dc.mul(dc.matmul(q, dc.transpose_last2(K2)), 1.0 / np.sqrt(A)))
    c = dc.matmul(att2, dc.matmul(H, state.leaf("cross.wv")))       # [G,1,A]
    c_n = dc.mul(c, np.ones((1, n, 1)))
    feats = dc.concat([H, c_n], axis=-1)
    logits = dc.dense(state.leaf("proj.w"), state.leaf("proj.b"), feats)
    return dc.sigmoid(dc.reshape(logits, (G, n)))


def combine(
    state: dc.ModelState,
    repeat_slate: ScoredSlate | None,
    exploration_slate: ScoredSlate | None,
    intent: IntentEstimate,
) -> CombinedSlate:
    """Weight two normalized, disjoint slates into one final ranking."""
    parts = [s for s in (repeat_slate, exploration_slate) if s is not None
             and len(s.candidates)]
    if not parts:
        raise ValueError("both slates are empty")
    for s in parts:
        if s.scores.min() < -1e-12 or s.scores.max() > 1.0 + 1e-12:
            raise ValueError("slates must be min-max normalized before combining")
    rep = repeat_slate.candidates if repeat_slate else ()
    exp = exploration_slate.candidates if exploration_slate else ()
    if set(rep) & set(exp):
        raise ValueError("repeat and exploration slates overlap")
    a, b = len(rep), len(exp)
    base = np.concatenate([
        repeat_slate.scores if a else np.empty(0),
        exploration_slate.scores if b else np.empty(0),
    ])
    origin = np.concatenate([np.ones(a), np.zeros(b)])
    probs = np.array([intent.repeat_prob, intent.explore_prob])
    weights = _item_weights_np(_values(state), base, origin, probs)
    return CombinedSlate(
        candidates=tuple(rep) + tuple(exp),
        a=a, b=b, base=base, weights=weights, scores=weights * base,
    )


# ---------------------------------------------------------------- training

@dataclass(frozen=True)
class _Slate:
    row: int          # flat sequence row of the target interaction
    a: int
    x_feats: np.ndarray   # [n, 2] (normalized base score, origin flag)
    tgt: int              # target index within the slate


def _frozen_bases(rep_state, exp_state, seqs, rows, neighbors):
    """``bases(i, codes, a)``: normalized frozen base scores of store
    ``codes`` for the ``i``-th of ``rows``; RepRec scores the first ``a``,
    ExpRec the rest.  Both models' queries come from one chunked forward."""
    rep_q = reprec.reprec_queries(rep_state, seqs, rows)
    exp_q = exprec.exprec_queries(exp_state, seqs, rows, neighbors)
    rep_store, exp_store = rep_state.value("emb.store"), exp_state.value("emb.store")

    def bases(i: int, codes: np.ndarray, a: int) -> np.ndarray:
        base = np.empty(len(codes))
        if a:
            base[:a] = normalize_slate(rep_store[codes[:a]] @ rep_q[i])
        if len(codes) > a:
            base[a:] = normalize_slate(exp_store[codes[a:]] @ exp_q[i])
        return base

    return bases


def _build_training_slates(
    split, seqs, vocabs, rows, budget, seed, rep_state, exp_state, neighbors
) -> list[_Slate]:
    n_stores = len(vocabs.store_ids)
    user_codes = np.searchsorted(seqs.offsets, rows, side="right") - 1
    bases = _frozen_bases(rep_state, exp_state, seqs, rows, neighbors)
    rep_cap = budget // 2
    slates: list[_Slate] = []
    for i, (row, ucode) in enumerate(zip(rows, user_codes)):
        row = int(row)
        d = int(seqs.distinct_before[row])
        fo = int(seqs.first_offsets[ucode])
        priors = seqs.first_stores[fo : fo + d]
        tc = int(seqs.store[row])
        is_rep = bool(seqs.repeat[row])

        if is_rep:
            others = priors[priors != tc]
            keep = others[-(rep_cap - 1):] if len(others) > rep_cap - 1 else others
            rep_part = np.concatenate([[tc], keep]).astype(np.int64)
        else:
            rep_part = (priors[-rep_cap:] if d > rep_cap else priors).astype(np.int64)

        visited = np.zeros(n_stores, dtype=bool)
        visited[priors] = True
        visited[tc] = True  # target never doubles as a sampled filler
        pool = np.nonzero(~visited)[0]
        want = budget - len(rep_part) - (0 if is_rep else 1)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, row])))
        take = min(max(want, 0), len(pool))
        picked = pool[rng.permutation(len(pool))[:take]]
        if is_rep:
            exp_part = picked
            tgt = 0
        else:
            exp_part = np.concatenate([[tc], picked]).astype(np.int64)
            tgt = len(rep_part)
        n = len(rep_part) + len(exp_part)
        if n < 2:
            continue  # a ranking pair needs at least two items

        a = len(rep_part)
        base = bases(i, np.concatenate([rep_part, exp_part]), a)
        origin = np.concatenate([np.ones(a), np.zeros(len(exp_part))])
        slates.append(_Slate(
            row=row, a=a, x_feats=np.stack([base, origin], axis=-1), tgt=tgt,
        ))
    return slates


def _combined_batch_loss(
    state: dc.ModelState,
    slates: list[_Slate],
    seqs: features.UserSequences,
    chunk: np.ndarray,
    rng: np.random.Generator,
    lam: float,
) -> dc.Var:
    by_size: dict[int, list[int]] = {}
    for i in chunk:
        sl = slates[int(i)]
        by_size.setdefault(len(sl.x_feats), []).append(int(i))

    total: dc.Var | None = None
    for n, idx in by_size.items():
        group = [slates[i] for i in idx]
        G = len(group)
        rows = np.array([sl.row for sl in group])
        x_feats = np.stack([sl.x_feats for sl in group])
        tgt = np.array([sl.tgt for sl in group])

        logits = _intent_logits(state, seqs, rows)
        probs = dc.softmax(logits)
        weights = _item_weights_var(state, x_feats, probs)
        p = dc.mul(weights, x_feats[:, :, 0])

        ar = np.arange(G)
        j = rng.integers(0, n - 1, size=G)
        j = j + (j >= tgt)
        rank = dc.sum_(dc.bpr_loss(
            dc.getitem(p, (ar, tgt)), dc.getitem(p, (ar, j))
        ))
        ce = dc.sum_(_intent_ce(logits, seqs.repeat[rows]))
        term = dc.add(rank, dc.mul(ce, lam))
        total = term if total is None else dc.add(total, term)
    return dc.mul(total, 1.0 / len(chunk))


def ensemble_train(
    split: DatasetSplit,
    frozen_reprec: dc.ModelState,
    frozen_exprec: dc.ModelState,
    settings: TrainSettings = TrainSettings(),
    dim: int = 64,
    attn_dim: int = DEFAULT_ATTN_DIM,
    window: int = DEFAULT_WINDOW,
    budget: int = DEFAULT_BUDGET,
    lam: float = DEFAULT_LAMBDA,
    max_instances: int = 20000,
    val_max_cases: int = 2000,
) -> tuple[dc.ModelState, dict[str, TrainResult]]:
    """Two-stage training against frozen base models."""
    if frozen_reprec is None or frozen_exprec is None:
        raise ValueError("ensemble training needs both frozen base models")
    vocabs = features.build_vocabs(split)
    seqs = features.build_sequences(split, vocabs)
    state = ensemble_build(split, dim=dim, attn_dim=attn_dim, seed=settings.seed,
                           window=window, budget=budget)

    train_rows = seqs.flat_of_global[split.train_idx]
    valid_rows = seqs.flat_of_global[split.valid_idx]

    # stage 1: intent head, early-stopped on validation cross-entropy
    def intent_loss(st, chunk, rng):
        rows = train_rows[chunk]
        return dc.mean_(_intent_ce(_intent_logits(st, seqs, rows), seqs.repeat[rows]))

    val_rows = valid_rows[: min(len(valid_rows), 5000)]

    def intent_val(st) -> float:
        probs = _intent_probs(st, seqs, val_rows)
        y = seqs.repeat[val_rows]
        p_true = np.where(y, probs[:, 0], probs[:, 1])
        return float(np.log(np.clip(p_true, 1e-12, None)).mean())

    result_intent = run_training(
        state, len(train_rows), intent_loss, intent_val, settings, stream=104
    )

    # stage 2: item weighting over fixed-size slates, frozen base scores
    neighbors = exprec.neighbor_arrays(
        split.log, vocabs.user_ids, int(frozen_exprec.meta["k_neighbors"]),
        int(frozen_exprec.meta["neighbor_as_of"]),
    )
    rows = train_rows
    if max_instances and len(rows) > max_instances:
        keep = np.unique(np.linspace(0, len(rows) - 1, max_instances).astype(np.int64))
        rows = rows[keep]
    slates = _build_training_slates(
        split, seqs, vocabs, rows, budget, settings.seed,
        frozen_reprec, frozen_exprec, neighbors,
    )
    if not slates:
        raise ValueError("no combined training slates could be built")

    valid_cases = evalharness.validation_cases(
        split, "combined", settings.seed, val_max_cases, seqs, vocabs
    )
    if not valid_cases:
        raise ValueError("validation partition has no combined cases")
    bases = _case_bases(frozen_reprec, frozen_exprec, split, valid_cases,
                        seqs, vocabs, neighbors)

    def combined_val(st) -> float:
        scorer = _weighted_scorer(st, *bases)
        report = evalharness.evaluate(
            scorer, valid_cases, k=3, model_id="ensemble", seed=settings.seed
        )
        return report.protocols["combined"]["hr@3"]

    def combined_loss(st, chunk, rng):
        return _combined_batch_loss(st, slates, seqs, chunk, rng, lam)

    result_combine = run_training(
        state, len(slates), combined_loss, combined_val, settings, stream=105
    )
    return state, {"intent": result_intent, "combine": result_combine}


# ---------------------------------------------------------------- scoring

def _case_bases(rep_state, exp_state, split, cases, seqs, vocabs, neighbors):
    """(seqs, rows, base_of) for ``cases``: ``base_of(case)`` gives the case's
    index in ``cases`` and its normalized frozen base scores, repeat part
    first; ``rows`` are the cases' flat rows."""
    if vocabs is None:
        vocabs = features.build_vocabs(split)
    if seqs is None:
        seqs = features.build_sequences(split, vocabs)
    if neighbors is None:
        neighbors = exprec.neighbor_arrays(
            split.log, vocabs.user_ids, int(exp_state.meta["k_neighbors"]),
            int(exp_state.meta["neighbor_as_of"]),
        )
    rows = evalharness.case_rows(seqs, cases)
    bases = _frozen_bases(rep_state, exp_state, seqs, rows, neighbors)
    index = {c.position: i for i, c in enumerate(cases)}

    def base_of(case: EvalCase) -> tuple[int, np.ndarray]:
        i = index[case.position]
        codes = np.array([vocabs.store_code(c) for c in case.candidates])
        return i, bases(i, codes, case.n_prior)

    return seqs, rows, base_of


def _weighted_scorer(state: dc.ModelState, seqs, rows, base_of):
    """Scorer weighting each case's base slate by the intent-queried attention."""
    probs = _intent_probs(state, seqs, rows)
    values = _values(state)

    def score(case: EvalCase) -> ScoredSlate:
        i, base = base_of(case)
        a = case.n_prior
        origin = np.concatenate([np.ones(a), np.zeros(len(base) - a)])
        weights = _item_weights_np(values, base, origin, probs[i])
        return ScoredSlate(case.candidates, weights * base, origin="ensemble")

    return score


def ensemble_scorer(
    state: dc.ModelState,
    rep_state: dc.ModelState,
    exp_state: dc.ModelState,
    split: DatasetSplit,
    cases,
    seqs: features.UserSequences | None = None,
    vocabs: features.Vocabs | None = None,
    neighbors: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Combined-protocol adapter for ``cases`` running the full weighting
    pipeline."""
    return _weighted_scorer(
        state, *_case_bases(rep_state, exp_state, split, cases, seqs, vocabs, neighbors)
    )


def concat_scorer(
    rep_state: dc.ModelState,
    exp_state: dc.ModelState,
    split: DatasetSplit,
    cases,
    seqs: features.UserSequences | None = None,
    vocabs: features.Vocabs | None = None,
    neighbors: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Unit-weight reference: normalized base slates concatenated as-is."""
    _, _, base_of = _case_bases(rep_state, exp_state, split, cases, seqs, vocabs,
                                neighbors)

    def score(case: EvalCase) -> ScoredSlate:
        return ScoredSlate(case.candidates, base_of(case)[1], origin="concat")

    return score
