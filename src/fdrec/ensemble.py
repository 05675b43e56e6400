"""Intent-aware combination of the repeat and exploration recommenders.

A small intent network (GRU over the user's past repeat/explore flags,
concatenated with situation and user embeddings) predicts how likely the next
order is a repeat.  Both base models' slates are min-max normalized, and the
final score is RepeatNet's mixture (Ren et al., AAAI 2019)
``P(i) = P(repeat) P(i | repeat) + P(explore) P(i | explore)``: an item of
part ``k`` (repeat or explore) scores ``p_k * softmax_{j in part k}(b_j / tau_k)``.

The softmax runs within each part, not over the whole slate, so each part is
a distribution that sums to its intent probability.  A short repeat part
thus keeps its share next to a long explore part, which would drown it under
one softmax over both.  Within a part the order is the base model's.

Training is two-stage on frozen base models: the intent head first (binary
cross-entropy on repeat flags), then the two temperatures ``tau_k`` (and the
intent head with them) by a pairwise ranking loss on the mixture over
fixed-size training slates plus the intent loss as an auxiliary term,
early-stopped on combined validation HR@3.  Each ``1 / tau_k`` is the
softplus of a parameter that starts at 0, so both temperatures start at
``1 / ln 2``.  Training and scoring run the same mixture forward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from . import evalharness, exprec, features, reprec
from .training import (ModelSection, TrainResult, TrainSettings, run_training,
                       validation_metric)

__all__ = [
    "ensemble_build",
    "normalize_slate",
    "ensemble_train",
    "ensemble_scores",
    "concat_scores",
]

def ensemble_build(data: features.Dataset, model: ModelSection, seed: int) -> dc.ModelState:
    vocabs, dim = data.vocabs, model.dim
    state = features.new_state(
        data, "ensemble", seed, dim=dim,
        window=model.history_window, budget=model.budget, user_ids=vocabs.user_ids,
    )
    features.add_situation_tables(state, dim, len(vocabs.location_ids))
    state.add_embedding("emb.user", len(vocabs.user_ids), dim)
    state.add_embedding("emb.flag", 2, dim)
    state.add_gru("gru.intent", dim, dim)
    state.add_dense("intent", 2, 3 * dim)
    # softplus of these is 1 / tau of the repeat and explore parts (ln 2 at
    # 0); a zero init draws nothing from the state's generator
    state.add_param("inv_temp", (2,), 0.0)
    return state


# ---------------------------------------------------------------- intent

def _intent_logits(state: dc.ModelState, seqs: features.UserSequences,
                   rows: np.ndarray) -> dc.Var:
    """Intent logits [B,2] (repeat, explore) for the interactions at ``rows``."""
    win = features.gather_window(seqs, rows, int(state.meta["window"]))
    h = dc.gru_sequence(dc.gru_leaves(state, "gru.intent"),
                        (state.leaf("emb.flag"), win.repeat), win.mask)
    e_mu = features.situation(state, win.now_hour, win.now_dow, win.now_loc)
    u = dc.gather_rows(state.leaf("emb.user"), win.user)
    feats = dc.concat([h, e_mu, u], axis=-1)
    return dc.dense(state.leaf("intent.w"), state.leaf("intent.b"), feats)


def _intent_probs(state: dc.ModelState, data: features.Dataset,
                  rows: np.ndarray) -> np.ndarray:
    """(repeat_prob, explore_prob) [N,2] for the interactions at ``rows``."""
    return features.query_rows(
        state, data, rows,
        lambda st, d, chunk: dc.softmax(_intent_logits(st, d.seqs, chunk)),
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


def _mixture(state: dc.ModelState, probs: dc.Var, base: np.ndarray,
             rep: np.ndarray) -> dc.Var:
    """Scores [G, n] of slates with normalized base scores ``base`` [G, n],
    whose repeat items are where ``rep`` [G, n] is 1: each part's softmax of
    ``base / tau_part``, times that part's probability in ``probs`` [G, 2].
    An empty part adds nothing."""
    inv_tau = dc.softplus(state.leaf("inv_temp"))
    total = None
    for k, in_part in enumerate((rep, 1.0 - rep)):
        # the other part's items sit 1e9 lower, so their exp is exactly 0
        logits = dc.add(dc.mul(dc.getitem(inv_tau, slice(k, k + 1)), base),
                        (in_part - 1.0) * 1e9)
        term = dc.mul(dc.mul(dc.softmax(logits), in_part),
                      dc.getitem(probs, (slice(None), slice(k, k + 1))))
        total = term if total is None else dc.add(total, term)
    return total


# ---------------------------------------------------------------- training

@dataclass(frozen=True)
class _Slate:
    row: int          # flat sequence row of the target interaction
    a: int
    x_feats: np.ndarray   # [n, 2] (normalized base score, origin flag)
    tgt: int              # target index within the slate


def _frozen_bases(rep_state, exp_state, data: features.Dataset, rows):
    """``bases(i, codes, a)``: normalized frozen base scores of store
    ``codes`` for the ``i``-th of ``rows``; RepRec scores the first ``a``,
    ExpRec the rest.  Both models' queries come from one chunked forward."""
    rep_q = features.query_rows(rep_state, data, rows, reprec.reprec_query)
    exp_q = features.query_rows(exp_state, data, rows, exprec.exprec_query)
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
    data: features.Dataset, rows, budget, seed, rep_state, exp_state
) -> list[_Slate]:
    seqs = data.seqs
    n_stores = len(data.vocabs.store_ids)
    bases = _frozen_bases(rep_state, exp_state, data, rows)
    rep_cap = budget // 2
    slates: list[_Slate] = []
    for i, row in enumerate(rows):
        row = int(row)
        priors = seqs.priors(row)
        tc = int(seqs.store[row])
        is_rep = bool(seqs.repeat[row])

        if is_rep:
            others = priors[priors != tc]
            # the target plus the rep_cap - 1 latest others; others[-0:]
            # would keep them all when rep_cap is 1
            keep = others[max(len(others) - (rep_cap - 1), 0):]
            rep_part = np.concatenate([[tc], keep]).astype(np.int64)
        else:
            rep_part = (priors[-rep_cap:] if len(priors) > rep_cap else priors).astype(np.int64)

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
        p = _mixture(state, dc.softmax(logits), x_feats[:, :, 0], x_feats[:, :, 1])

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
    data: features.Dataset,
    settings: TrainSettings,
    model: ModelSection,
    frozen_reprec: dc.ModelState,
    frozen_exprec: dc.ModelState,
) -> tuple[dc.ModelState, dict[str, TrainResult]]:
    """Two-stage training against frozen base models."""
    if frozen_reprec is None or frozen_exprec is None:
        raise ValueError("ensemble training needs both frozen base models")
    seqs = data.seqs
    state = ensemble_build(data, model, settings.seed)

    train_rows = seqs.flat_of_global[data.split.train_idx]
    valid_rows = seqs.flat_of_global[data.split.valid_idx]

    # stage 1: intent head, early-stopped on validation cross-entropy
    def intent_loss(st, chunk, rng):
        rows = train_rows[chunk]
        return dc.mean_(_intent_ce(_intent_logits(st, seqs, rows), seqs.repeat[rows]))

    val_rows = valid_rows[: min(len(valid_rows), 5000)]

    def intent_val(st) -> float:
        probs = _intent_probs(st, data, val_rows)
        y = seqs.repeat[val_rows]
        p_true = np.where(y, probs[:, 0], probs[:, 1])
        return float(np.log(np.clip(p_true, 1e-12, None)).mean())

    result_intent = run_training(
        state, len(train_rows), intent_loss, intent_val, settings, stream=104
    )

    # stage 2: the mixture over fixed-size slates, frozen base scores
    rows = train_rows
    cap = settings.max_instances
    if cap and len(rows) > cap:
        keep = np.unique(np.linspace(0, len(rows) - 1, cap).astype(np.int64))
        rows = rows[keep]
    slates = _build_training_slates(
        data, rows, model.budget, settings.seed, frozen_reprec, frozen_exprec,
    )
    if not slates:
        raise ValueError("no combined training slates could be built")

    def scores_for(cases):
        bases = _case_bases(frozen_reprec, frozen_exprec, data, cases)
        return lambda st: _mixture_scores(st, data, cases, bases)

    combined_val = validation_metric(
        data, "combined", settings, "ensemble", scores_for,
    )

    def combined_loss(st, chunk, rng):
        return _combined_batch_loss(st, slates, seqs, chunk, rng, model.intent_weight)

    result_combine = run_training(
        state, len(slates), combined_loss, combined_val, settings, stream=105
    )
    return state, {"intent": result_intent, "combine": result_combine}


# ---------------------------------------------------------------- scoring

def _case_bases(rep_state, exp_state, data: features.Dataset, cases):
    """``bases(i, codes, a)``: case ``i``'s normalized frozen base scores
    (see :func:`_frozen_bases`)."""
    rows = data.seqs.flat_of_global[cases.position]
    return _frozen_bases(rep_state, exp_state, data, rows)


def _mixture_scores(state: dc.ModelState, data: features.Dataset, cases,
                    bases) -> np.ndarray:
    """[N, C] mixture scores of each case's base slate."""
    probs = _intent_probs(state, data, data.seqs.flat_of_global[cases.position])

    def row_scores(i: int, codes: np.ndarray, a: int) -> np.ndarray:
        base = bases(i, codes, a)
        rep = (np.arange(len(base)) < a).astype(np.float64)
        return _mixture(state, dc.Var(probs[i : i + 1]), base[None], rep[None]).data[0]

    return evalharness.score_rows(cases, row_scores)


def ensemble_scores(state: dc.ModelState, rep_state: dc.ModelState,
                    exp_state: dc.ModelState, data: features.Dataset,
                    cases) -> np.ndarray:
    """[N, C] combined-protocol scores for ``cases`` from the full mixture
    pipeline."""
    return _mixture_scores(state, data, cases,
                           _case_bases(rep_state, exp_state, data, cases))


def concat_scores(rep_state: dc.ModelState, exp_state: dc.ModelState,
                  data: features.Dataset, cases) -> np.ndarray:
    """Unit-weight reference: normalized base slates concatenated as-is.

    Min-max normalization puts the top item of each part at exactly 1.0, and
    ranking is pessimistic, so a target at the top of its part ties with the
    other part's top and ranks 2, never 1.  Its HR@3 is unaffected, but its
    NDCG@3 reads low against a model that breaks the tie: compare ``concat``
    with other models on HR@3."""
    return evalharness.score_rows(cases, _case_bases(rep_state, exp_state, data, cases))
